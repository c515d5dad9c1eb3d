"""Unit tests for the simulated cluster."""

from __future__ import annotations

import pytest

from repro.mapreduce import Cluster


class TestClusterConstruction:
    def test_basic_shape(self):
        cluster = Cluster(4, 1000)
        assert cluster.num_machines == 4
        assert cluster.memory_per_machine == 1000
        assert cluster.central_memory == 1000

    def test_distinct_central_memory(self):
        cluster = Cluster(2, 100, central_memory=5000)
        assert cluster.central_memory == 5000
        assert cluster.memory_per_machine == 100

    def test_unlimited_memory(self):
        cluster = Cluster(2, None)
        assert cluster.memory_per_machine is None
        assert cluster.central_memory is None

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            Cluster(0, 100)
