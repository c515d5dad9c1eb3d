"""Every MPC driver accounts its rounds through one :class:`MPCContext`.

The ten Figure-1 drivers in ``core/*/mapreduce_impl.py`` declare their
loads to ``parallel_round`` / ``gather_to_central`` / ``broadcast`` /
``aggregate`` and nothing else.  These tests pin the contract that path
gives the round records, on a small instance of each driver:

* the returned :class:`RunMetrics` is the one context's metrics, closed;
* records are indexed ``0..R-1`` and labelled;
* every declared worker / central load fits the driver's own cluster
  budget, and a strict run records no violation;
* ``strict`` changes only how violations are reported, never the records;
* the records are a function of the seed;
* broadcast / aggregation trees are charged level by level, reach every
  machine, and are never deeper than a binary tree.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import colouring, hungry_greedy, local_ratio
from repro.core.colouring import mpc_edge_colouring, mpc_vertex_colouring
from repro.core.hungry_greedy import (
    mpc_greedy_set_cover,
    mpc_maximal_clique,
    mpc_maximal_independent_set,
    mpc_maximal_independent_set_simple,
)
from repro.core.local_ratio import (
    mpc_weighted_b_matching,
    mpc_weighted_matching,
    mpc_weighted_set_cover,
    mpc_weighted_vertex_cover,
)
from repro.graphs import densified_graph
from repro.mapreduce import MPCContext, tree_rounds
from repro.setcover import random_coverage_instance, random_frequency_bounded_instance

SEED = 7

#: driver name -> fn(rng, strict) running it on a small seeded instance.
DRIVERS = {
    "mpc_vertex_colouring": lambda rng, strict: mpc_vertex_colouring(
        densified_graph(60, 0.4, rng), 0.2, rng, strict=strict
    ),
    "mpc_edge_colouring": lambda rng, strict: mpc_edge_colouring(
        densified_graph(60, 0.4, rng), 0.2, rng, strict=strict
    ),
    "mpc_maximal_independent_set": lambda rng, strict: mpc_maximal_independent_set(
        densified_graph(60, 0.4, rng), 0.35, rng, strict=strict
    ),
    "mpc_maximal_independent_set_simple": lambda rng, strict: (
        mpc_maximal_independent_set_simple(densified_graph(60, 0.4, rng), 0.35, rng, strict=strict)
    ),
    "mpc_maximal_clique": lambda rng, strict: mpc_maximal_clique(
        densified_graph(50, 0.5, rng), 0.4, rng, strict=strict
    ),
    "mpc_greedy_set_cover": lambda rng, strict: mpc_greedy_set_cover(
        random_coverage_instance(120, 40, rng, density=0.1), 0.4, rng, epsilon=0.3, strict=strict
    ),
    "mpc_weighted_set_cover": lambda rng, strict: mpc_weighted_set_cover(
        random_frequency_bounded_instance(40, 600, 4, rng), 0.3, rng, strict=strict
    ),
    "mpc_weighted_vertex_cover": lambda rng, strict: mpc_weighted_vertex_cover(
        densified_graph(60, 0.4, rng), np.linspace(1.0, 5.0, 60), 0.25, rng, strict=strict
    ),
    "mpc_weighted_matching": lambda rng, strict: mpc_weighted_matching(
        densified_graph(60, 0.4, rng, weights="uniform"), 0.25, rng, strict=strict
    ),
    "mpc_weighted_b_matching": lambda rng, strict: mpc_weighted_b_matching(
        densified_graph(60, 0.4, rng, weights="uniform"), 3, 0.25, rng, epsilon=0.2, strict=strict
    ),
}

#: The drivers whose instances above are large enough to need a tree.
TREE_DRIVERS = ["mpc_greedy_set_cover", "mpc_weighted_set_cover"]

_TREE_LEVEL = re.compile(
    r"^(?P<base>.*) \[(?P<kind>broadcast|aggregate) level (?P<level>\d+)/(?P<depth>\d+)\]$"
)


def _run(name, *, strict=True):
    """Run one driver; returns (every context it finished, its metrics)."""
    contexts = []
    finish = MPCContext.finish

    def spy(self, **notes):
        contexts.append(self)
        return finish(self, **notes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MPCContext, "finish", spy)
        _, metrics = DRIVERS[name](np.random.default_rng(SEED), strict)
    return contexts, metrics


def _trees(metrics):
    """Group consecutive tree-level records into (kind, depth, [records])."""
    trees = []
    for record in metrics.rounds:
        match = _TREE_LEVEL.match(record.description)
        if match is None:
            continue
        key = (match["base"], match["kind"], int(match["depth"]))
        if int(match["level"]) == 1 or not trees or trees[-1][0] != key:
            trees.append((key, []))
        trees[-1][1].append((int(match["level"]), record))
    return trees


def test_every_exported_driver_is_covered():
    exported = {
        name
        for package in (colouring, hungry_greedy, local_ratio)
        for name in package.__all__
        if name.startswith("mpc_") and not name.startswith("mpc_parameters")
    }
    assert exported == set(DRIVERS)


@pytest.mark.parametrize("name", DRIVERS)
class TestDriverAccounting:
    def test_one_context_owns_the_metrics(self, name):
        contexts, metrics = _run(name)
        assert len(contexts) == 1
        assert contexts[0].metrics is metrics
        assert metrics.algorithm

    def test_round_indices_are_contiguous(self, name):
        _, metrics = _run(name)
        assert metrics.num_rounds >= 1
        assert [record.index for record in metrics.rounds] == list(range(metrics.num_rounds))

    def test_every_round_is_labelled(self, name):
        _, metrics = _run(name)
        assert all(record.description.strip() for record in metrics.rounds)

    def test_worker_loads_fit_the_cluster_budget(self, name):
        [context], metrics = _run(name)
        budget = context.cluster.memory_per_machine
        assert budget is not None
        for record in metrics.rounds:
            assert 0 <= record.max_machine_words <= budget, record

    def test_central_loads_fit_the_central_budget(self, name):
        [context], metrics = _run(name)
        budget = context.cluster.central_memory
        assert budget is not None
        for record in metrics.rounds:
            assert 0 <= record.central_words <= budget, record

    def test_strict_run_records_no_violation(self, name):
        [context], metrics = _run(name)
        assert context.violations == []
        assert "violations" not in metrics.notes

    def test_strictness_does_not_change_the_records(self, name):
        _, strict = _run(name, strict=True)
        _, lenient = _run(name, strict=False)
        assert lenient.rounds == strict.rounds
        assert lenient.notes == strict.notes

    def test_records_are_a_function_of_the_seed(self, name):
        _, first = _run(name)
        _, second = _run(name)
        assert second.rounds == first.rounds
        assert second.notes == first.notes

    def test_summary_agrees_with_the_records(self, name):
        _, metrics = _run(name)
        summary = metrics.summary()
        assert summary["rounds"] == len(metrics.rounds)
        assert summary["max_space_per_machine"] == max(
            max(record.max_machine_words, record.central_words) for record in metrics.rounds
        )
        assert summary["max_central_space"] == max(record.central_words for record in metrics.rounds)
        assert summary["total_communication"] == sum(
            record.words_communicated for record in metrics.rounds
        )
        assert summary["total_messages"] == sum(record.messages for record in metrics.rounds)


@pytest.mark.parametrize("name", TREE_DRIVERS)
def test_trees_are_charged_level_by_level_and_reach_every_machine(name):
    [context], metrics = _run(name)
    machines = context.num_machines
    trees = _trees(metrics)
    assert trees, "instance too small to exercise a broadcast/aggregation tree"
    kinds = {kind for (_, kind, _), _ in trees}
    assert kinds == {"broadcast", "aggregate"}
    for (_, kind, depth), levels in trees:
        assert [level for level, _ in levels] == list(range(1, depth + 1))
        assert 1 <= depth <= tree_rounds(machines, 2)
        messages = [record.messages for _, record in levels]
        if kind == "broadcast":
            # Each level reaches more machines; the last reaches them all.
            assert messages == sorted(messages)
            assert messages[-1] == machines
        else:
            # Every machine sends at the leaves; fewer senders per level up.
            assert messages[0] == machines
            assert messages == sorted(messages, reverse=True)
