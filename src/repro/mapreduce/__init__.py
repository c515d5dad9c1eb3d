"""Simulated MapReduce / MPC substrate.

This subpackage implements the computational model the paper's algorithms
are analysed in (Karloff–Suri–Vassilvitskii MRC, and the MPC refinement of
Beame et al.): machines with sublinear memory, synchronous rounds, and
all-to-all communication bounded by the machines' memory.

The simulator executes machine-local computation in ordinary Python but
*enforces* the model's constraints (per-machine word budgets) and *measures*
the model's costs (rounds, per-machine space, communication volume), which
are exactly the quantities tabulated in Figure 1 of the paper.
"""

from .cluster import Cluster
from .engine import MPCContext, tree_rounds
from .exceptions import (
    AlgorithmFailureError,
    CommunicationExceededError,
    InfeasibleInstanceError,
    MapReduceError,
    MemoryExceededError,
    ProtocolError,
    ReproError,
)
from .metrics import RoundRecord, RunMetrics
from .partition import balanced_partition, random_partition

__all__ = [
    "Cluster",
    "MPCContext",
    "tree_rounds",
    "RoundRecord",
    "RunMetrics",
    "balanced_partition",
    "random_partition",
    "ReproError",
    "MapReduceError",
    "MemoryExceededError",
    "CommunicationExceededError",
    "ProtocolError",
    "AlgorithmFailureError",
    "InfeasibleInstanceError",
]
