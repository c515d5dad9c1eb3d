"""Unit tests for partitioning strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce import balanced_partition, random_partition


def partition_counts(assignment: np.ndarray, num_machines: int) -> np.ndarray:
    """Items per machine, padded to ``num_machines``."""
    return np.bincount(assignment, minlength=num_machines)


class TestBalancedPartition:
    def test_covers_all_items(self):
        assign = balanced_partition(100, 7)
        assert assign.shape == (100,)
        assert assign.min() == 0 and assign.max() == 6

    def test_block_sizes_differ_by_at_most_one(self):
        assign = balanced_partition(100, 7)
        counts = partition_counts(assign, 7)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 100

    def test_fewer_items_than_machines(self):
        assign = balanced_partition(3, 10)
        counts = partition_counts(assign, 10)
        assert counts.sum() == 3
        assert counts.max() <= 1

    def test_zero_items(self):
        assert balanced_partition(0, 4).size == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            balanced_partition(10, 0)
        with pytest.raises(ValueError):
            balanced_partition(-1, 3)


class TestRandomPartition:
    def test_range_and_shape(self, rng):
        assign = random_partition(500, 8, rng)
        assert assign.shape == (500,)
        assert assign.min() >= 0 and assign.max() < 8

    def test_roughly_balanced(self, rng):
        assign = random_partition(20_000, 4, rng)
        counts = partition_counts(assign, 4)
        assert counts.min() > 4000  # expectation 5000 each

    def test_deterministic_given_seed(self):
        a = random_partition(100, 5, np.random.default_rng(7))
        b = random_partition(100, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_machine_count(self, rng):
        with pytest.raises(ValueError):
            random_partition(10, 0, rng)


class TestEdgeCases:
    """Degenerate shapes the distributed layer actually produces."""

    def test_empty_shards_on_every_strategy(self, rng):
        for assign in (
            balanced_partition(0, 3),
            random_partition(0, 3, rng),
        ):
            assert assign.size == 0
            counts = partition_counts(assign, 3)
            np.testing.assert_array_equal(counts, [0, 0, 0])

    def test_single_machine_cluster_gets_everything(self, rng):
        for assign in (
            balanced_partition(9, 1),
            random_partition(9, 1, rng),
        ):
            np.testing.assert_array_equal(assign, np.zeros(9, dtype=np.int64))
        np.testing.assert_array_equal(partition_counts(balanced_partition(9, 1), 1), [9])

    def test_more_machines_than_items_leaves_empty_machines(self, rng):
        counts = partition_counts(balanced_partition(3, 8), 8)
        assert counts.sum() == 3
        assert counts.max() <= 1  # never stacks items while machines sit idle
        assert (counts == 0).sum() == 5
        counts = partition_counts(random_partition(2, 8, rng), 8)
        assert counts.sum() == 2 and counts.max() <= 2

    def test_balanced_blocks_are_contiguous(self):
        # The coordinator's initial sharding relies on contiguity: a
        # machine's shard is a slice of the input order, never interleaved.
        assign = balanced_partition(11, 4)
        for machine in range(4):
            (where,) = np.nonzero(assign == machine)
            if where.size:
                assert where.max() - where.min() + 1 == where.size

class TestPartitionProperties:
    """Property-style invariants over many (num_items, num_machines) shapes."""

    SHAPES = [(0, 1), (1, 1), (5, 3), (64, 64), (100, 7), (1000, 13), (257, 256)]

    @pytest.mark.parametrize("num_items,num_machines", SHAPES)
    def test_balanced_assigns_every_item_to_a_valid_machine(self, num_items, num_machines):
        assign = balanced_partition(num_items, num_machines)
        assert assign.shape == (num_items,)
        if num_items:
            assert assign.min() >= 0 and assign.max() < num_machines

    @pytest.mark.parametrize("num_items,num_machines", SHAPES)
    def test_balanced_block_sizes_differ_by_at_most_one(self, num_items, num_machines):
        counts = partition_counts(balanced_partition(num_items, num_machines), num_machines)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("num_items,num_machines", SHAPES)
    def test_counts_sum_to_num_items(self, num_items, num_machines, rng):
        for assign in (
            balanced_partition(num_items, num_machines),
            random_partition(num_items, num_machines, rng),
        ):
            counts = partition_counts(assign, num_machines)
            assert counts.shape == (num_machines,)
            assert counts.sum() == num_items

    @pytest.mark.parametrize("num_items,num_machines", SHAPES)
    def test_random_partition_assigns_valid_machines(self, num_items, num_machines, rng):
        assign = random_partition(num_items, num_machines, rng)
        assert assign.shape == (num_items,)
        if num_items:
            assert assign.min() >= 0 and assign.max() < num_machines
