"""A simulated MapReduce / MPC cluster.

A :class:`Cluster` is ``M`` worker machines plus one designated *central*
machine, described by their word budgets.  The paper's algorithms follow a
common pattern — "the lines highlighted in blue are run sequentially on a
central machine, and all other lines are run in parallel across all
machines" — and the cluster mirrors that structure directly.

The cluster is a *data* object; round orchestration and metric collection
live in :class:`repro.mapreduce.engine.MPCContext`, which checks the loads
each round declares against these budgets.
"""

from __future__ import annotations

__all__ = ["Cluster"]


class Cluster:
    """The budgets of ``num_machines`` workers plus a central coordinator.

    Parameters
    ----------
    num_machines:
        Number of worker machines (``M`` in the paper).
    memory_per_machine:
        Word budget of each worker machine and of the central machine
        (``O(n^{1+µ})`` in most of the paper's theorems).  ``None`` disables
        enforcement.
    central_memory:
        Optional distinct budget for the central machine (defaults to
        ``memory_per_machine``).
    """

    def __init__(
        self,
        num_machines: int,
        memory_per_machine: int | None,
        *,
        central_memory: int | None = None,
    ):
        if num_machines <= 0:
            raise ValueError("a cluster needs at least one worker machine")
        self.num_machines = int(num_machines)
        self.memory_per_machine = (
            None if memory_per_machine is None else int(memory_per_machine)
        )
        if central_memory is None:
            central_memory = memory_per_machine
        self.central_memory = None if central_memory is None else int(central_memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = "∞" if self.memory_per_machine is None else str(self.memory_per_machine)
        return f"Cluster(machines={self.num_machines}, memory_per_machine={limit})"
