"""Unit tests for the CSR helpers the kernels are built on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import build_csr, first_occurrence_mask, gather_rows, stable_argsort_ids


def test_build_csr_roundtrip():
    rows = [np.array([3, 1]), np.array([], dtype=np.int64), np.array([2, 2, 0])]
    indptr, indices = build_csr(rows)
    assert indptr.tolist() == [0, 2, 2, 5]
    assert indices.tolist() == [3, 1, 2, 2, 0]


def test_build_csr_extra_rows_padded():
    indptr, indices = build_csr([np.array([1])], num_rows=3)
    assert indptr.tolist() == [0, 1, 1, 1]
    assert indices.tolist() == [1]


def test_build_csr_empty():
    indptr, indices = build_csr([], num_rows=0)
    assert indptr.tolist() == [0]
    assert indices.size == 0


@pytest.mark.parametrize("seed", range(5))
def test_gather_rows_matches_slicing(seed):
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, 50, rng.integers(0, 8)) for _ in range(30)]
    indptr, indices = build_csr(rows)
    subset = rng.permutation(30)[:12]
    flat, seg = gather_rows(indptr, indices, subset)
    expected = [rows[r].tolist() for r in subset]
    got = [flat[seg[i] : seg[i + 1]].tolist() for i in range(subset.size)]
    assert got == [[int(x) for x in row] for row in expected]


def test_gather_rows_empty_selection():
    indptr, indices = build_csr([np.array([1, 2])])
    flat, seg = gather_rows(indptr, indices, np.array([], dtype=np.int64))
    assert flat.size == 0
    assert seg.tolist() == [0]


@pytest.mark.parametrize("seed", range(10))
def test_first_occurrence_mask_random(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(1, 40))
    flat = rng.integers(0, universe, rng.integers(1, 200))
    scratch = np.empty(universe, dtype=np.int64)
    mask = first_occurrence_mask(flat, scratch)
    seen: set[int] = set()
    expected = []
    for value in flat.tolist():
        expected.append(value not in seen)
        seen.add(value)
    assert mask.tolist() == expected


def test_first_occurrence_mask_scratch_reuse():
    scratch = np.full(10, -7, dtype=np.int64)  # garbage contents must not matter
    flat = np.array([4, 2, 4, 9, 2, 2])
    assert first_occurrence_mask(flat, scratch).tolist() == [
        True,
        True,
        False,
        True,
        False,
        False,
    ]


def _assert_stable_argsort(ids: np.ndarray, bound: int) -> None:
    got = stable_argsort_ids(ids, bound)
    assert np.array_equal(got, np.argsort(ids, kind="stable"))


def test_stable_argsort_ids_empty():
    assert stable_argsort_ids(np.empty(0, dtype=np.int64), 10).size == 0
    assert stable_argsort_ids(np.empty(0, dtype=np.int64), 0).size == 0


@pytest.mark.parametrize("bound", [1, 2, 2**16, 2**16 + 1, 2**32 + 1])
def test_stable_argsort_ids_all_equal(bound):
    _assert_stable_argsort(np.full(1000, bound - 1, dtype=np.int64), bound)


@pytest.mark.parametrize("bound", [1, 2, 7, 2**16, 2**16 + 1, 2**32 + 1, 70000**2])
def test_stable_argsort_ids_heavy_duplicates(bound):
    rng = np.random.default_rng(bound % 1000)
    values = rng.integers(0, bound, size=8)
    values[0] = bound - 1
    _assert_stable_argsort(values[rng.integers(0, values.size, size=5000)], bound)


@pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32 + 1, 70000**2])
def test_stable_argsort_ids_uniform(bound):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, bound, size=20000)
    ids[:3] = [0, bound - 1, bound - 1]
    _assert_stable_argsort(ids, bound)


def test_stable_argsort_ids_edge_keys():
    # Edge keys lo * n + hi of a 70000-vertex graph need three 16-bit passes.
    n = 70000
    rng = np.random.default_rng(3)
    u = rng.integers(0, n, size=30000)
    v = rng.integers(0, n, size=30000)
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    _assert_stable_argsort(np.concatenate([keys, keys[::3]]), n * n)
