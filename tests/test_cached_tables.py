"""Property tests for the cached, read-only integer tables.

The orbit table (symmetrizers), the association label multisets and the
frequency-lattice map (pullback gather) are built once per
integer shape; these checks compare every cached path with its definition
on random shapes and data, and check that no cached table can be written.
The pullback gather along the lattice map is checked against a pointwise
loop.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel
from volterra.algebra import composition_labels
from volterra.combinatorics import multinomial
from volterra.errors import ContractViolation
from volterra.kernels import _orbit_buckets, symmetrize_plain, symmetrize_weighted
from volterra.morphisms import _lattice_map, pullback_gather

SETTINGS = settings(settings.get_profile("volterra"), max_examples=60)
orders = st.integers(min_value=1, max_value=4)
memories = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def permutation_sum(data):
    return sum(np.transpose(data, perm) for perm in itertools.permutations(range(data.ndim)))


@SETTINGS
@given(orders, memories, seeds)
def test_symmetrize_plain_is_permutation_average(j, M, seed):
    kernel = random_kernel(j, M, np.random.default_rng(seed))
    want = permutation_sum(kernel.data) / math.factorial(j)
    assert np.max(np.abs(symmetrize_plain(kernel).data - want)) <= 1e-12


@SETTINGS
@given(orders, memories, seeds)
def test_symmetrize_weighted_is_multinomial_definition(j, M, seed):
    kernel = random_kernel(j, M, np.random.default_rng(seed))
    total = permutation_sum(kernel.data)
    want = np.empty_like(total)
    for tau in np.ndindex(total.shape):
        multiplicities = [tau.count(v) for v in set(tau)]
        want[tau] = total[tau] / multinomial(j, multiplicities)
    assert np.max(np.abs(symmetrize_weighted(kernel).data - want)) <= 1e-12


@pytest.mark.parametrize("j", range(1, 5))
@pytest.mark.parametrize("M", range(1, 7))
def test_orbit_table_ranks_sorted_delay_multisets(j, M):
    points = list(itertools.product(range(M), repeat=j))  # in flat-index order
    rank = {tau: r for r, tau in enumerate(sorted({tuple(sorted(tau)) for tau in points}))}
    bucket, counts = _orbit_buckets(j, M)
    assert np.array_equal(bucket, [rank[tuple(sorted(tau))] for tau in points])
    assert np.array_equal(counts, np.bincount(bucket)) and counts.sum() == M**j


def gather_by_loop(target, matrix, L):
    out = np.empty((L,) * matrix.shape[1], dtype=np.complex128)
    for omega in np.ndindex(out.shape):
        out[omega] = target[tuple(np.mod(matrix @ np.array(omega, dtype=np.int64), L))]
    return out


matrices = st.tuples(orders, orders, seeds).map(
    lambda t: np.random.default_rng(t[2]).integers(-3, 4, size=(t[0], t[1]))
)
lengths = st.integers(min_value=1, max_value=4)


@SETTINGS
@given(matrices, lengths, seeds)
def test_pullback_gather_matches_pointwise_loop(matrix, L, seed):
    rng = np.random.default_rng(seed)
    shape = (L,) * matrix.shape[0]
    for _ in range(2):  # same (matrix, L), fresh target data each call
        target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(pullback_gather(target, matrix, L), gather_by_loop(target, matrix, L))


def test_pullback_gather_rejects_target_off_the_grid():
    with pytest.raises(ContractViolation, match="expected"):
        pullback_gather(np.ones((5, 5)), np.eye(2, dtype=np.int64), 4)


@pytest.mark.parametrize(
    "table",
    [
        lambda: _orbit_buckets(3, 4)[0],
        lambda: _orbit_buckets(3, 4)[1],
        lambda: _lattice_map(((2, 1), (-1, 0)), 2, 5),
    ],
    ids=["orbit-bucket", "orbit-counts", "lattice-map"],
)
def test_cached_tables_are_read_only(table):
    array = table()
    assert table() is array  # served from the cache
    with pytest.raises(ValueError):
        array[...] = 0


def test_composition_labels_returns_fresh_counter():
    first = composition_labels(4, 2, 2, 2, "left")
    snapshot = dict(first)
    first.clear()
    second = composition_labels(4, 2, 2, 2, "left")
    assert second is not first
    assert dict(second) == snapshot
