"""Property tests for the cached, read-only integer tables.

The orbit table (symmetrizers), the orbit representatives (packed
evaluation), the orbit ranks and the delay and merge tables built on them
(composition in the orbit basis), the association label multisets and the
frequency-lattice map (pullback gather) are built once per integer shape;
these checks compare every cached path with its definition on random shapes
and data, and check that no cached table can be written.  The pullback
gather along the lattice map is checked against a pointwise loop.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel
from volterra.algebra import _delay_ranks, _merge_index, composition_labels
from volterra.combinatorics import multinomial
from volterra.errors import ContractViolation
from volterra.kernels import (
    _orbit_buckets,
    _orbit_rank,
    _orbit_representatives,
    _rank_terms,
    symmetrize_plain,
    symmetrize_weighted,
)
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


@pytest.mark.parametrize(
    "j, M", [(j, M) for j in range(1, 5) for M in range(1, 7)] + [(8, 4), (64, 1)]
)
def test_orbit_representatives_follow_the_orbit_table(j, M):
    bucket, counts = _orbit_buckets(j, M)
    reps, sizes = _orbit_representatives(j, M)
    points = itertools.product(range(M), repeat=j)  # in flat-index order
    assert all(tuple(reps[:, b]) == tuple(sorted(tau)) for b, tau in zip(bucket, points))
    assert np.array_equal(sizes, counts)


def lexicographic_rank(delays, M):
    """Rank of a sorted delay tuple among the sorted j-tuples of {0..M-1}, by counting.

    At place i, every value v from the previous delay up to d_i - 1 starts
    C(M - v + r - 1, r) smaller tuples, r = j - i - 1 places left to fill.
    """
    j, rank, low = len(delays), 0, 0
    for i, d in enumerate(delays):
        r = j - i - 1
        rank += sum(math.comb(M - v + r - 1, r) for v in range(low, d))
        low = d
    return rank


@pytest.mark.parametrize("j, M", [(j, M) for j in range(1, 5) for M in range(1, 7)] + [(8, 4), (64, 1)])
def test_orbit_ranks_follow_the_representatives(j, M):
    reps, _ = _orbit_representatives(j, M)
    assert np.array_equal(_orbit_rank(reps, M), np.arange(reps.shape[1]))


def test_orbit_rank_is_exact_where_base_memory_codes_overflow():
    j, M = 13, 31
    assert M**j >= 2**63  # a base-M code of 13 delays does not fit in int64
    rng = np.random.default_rng(13)
    points = np.sort(rng.integers(0, M, size=(200, j)), axis=1)
    points = np.vstack([points, np.zeros(j, dtype=int), np.full(j, M - 1), np.sort(rng.integers(M - 3, M, size=(20, j)), axis=1)])
    ranks = _orbit_rank(points.T, M)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [lexicographic_rank(p.tolist(), M) for p in points]
    assert ranks[200] == 0 and ranks[201] == math.comb(M + j - 1, j) - 1


@pytest.mark.parametrize("l, M, Lp", [(1, 1, 1), (1, 3, 5), (2, 2, 4), (3, 3, 6), (2, 4, 4)])
def test_delay_ranks_place_each_orbit_at_its_delayed_delays(l, M, Lp):
    table = _delay_ranks(l, M, Lp)
    reps, _ = _orbit_representatives(l, M)
    rank = {tuple(tau): r for r, tau in enumerate(_orbit_representatives(l, Lp)[0].T.tolist())}
    assert table.shape == (Lp - M + 1, reps.shape[1])
    for s, b in np.ndindex(table.shape):
        assert table[s, b] == rank[tuple(reps[:, b] + s)]


@pytest.mark.parametrize("d, l, Lp", [(1, 1, 1), (1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 2, 4), (3, 2, 3)])
def test_merge_index_lands_each_product_on_its_joined_delays(d, l, Lp):
    index = _merge_index(d, l, Lp)
    left, right = (_orbit_representatives(n, Lp)[0].T.tolist() for n in (d, l))
    rank = {tuple(tau): r for r, tau in enumerate(_orbit_representatives(d + l, Lp)[0].T.tolist())}
    want = [rank[tuple(sorted(a + b))] for a in left for b in right]
    assert np.array_equal(index[0::2], 2 * np.array(want)) and np.array_equal(index[1::2], index[0::2] + 1)


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
        lambda: _orbit_representatives(3, 4)[0],
        lambda: _orbit_representatives(3, 4)[1],
        lambda: _lattice_map(((2, 1), (-1, 0)), 2, 5),
        lambda: _rank_terms(3, 4),
        lambda: _delay_ranks(2, 3, 5),
        lambda: _merge_index(2, 1, 5),
    ],
    ids=[
        "orbit-bucket",
        "orbit-counts",
        "orbit-representatives",
        "orbit-sizes",
        "lattice-map",
        "rank-terms",
        "delay-ranks",
        "merge-index",
    ],
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
