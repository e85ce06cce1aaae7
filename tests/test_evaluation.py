import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import max_abs, random_kernel, random_series, random_signal, rel_err
from volterra.combinatorics import Multicombination, multicombinations
from volterra.errors import ContractViolation, GridError
from volterra.evaluation import (
    MultiInput,
    MultivariateKernelBank,
    comb_signal,
    eval_freq,
    eval_multivariate,
    eval_time,
    oracle_eval,
    response_comb,
    response_exponential,
    _shift_matrix,
)
from volterra.kernels import (
    PackedKernel,
    VolterraKernel,
    VolterraSeries,
    constant_kernel,
    delta_kernel,
    identity_series,
    memoryless_polynomial_series,
    series_from_kernels,
)
from volterra.morphisms import _lattice_map


def test_oracle_identity(rng):
    s = random_signal(6, rng)
    assert max_abs(oracle_eval(identity_series(), s) - s) < 1e-14


def test_oracle_memoryless_square_on_ramp():
    s = np.arange(4, dtype=float)
    out = oracle_eval(memoryless_polynomial_series([0, 0, 1]), s)
    assert np.allclose(out, [0, 1, 4, 9])


def test_oracle_hand_expanded_order2(rng):
    # L=8, M=2 second-order kernel: y(0) expands to the four-term sum by hand
    K = random_kernel(2, 2, rng)
    series = series_from_kernels([K])
    s = random_signal(8, rng)
    y = oracle_eval(series, s)
    want = (
        K.data[0, 0] * s[0] * s[0]
        + K.data[0, 1] * s[0] * s[7]
        + K.data[1, 0] * s[7] * s[0]
        + K.data[1, 1] * s[7] * s[7]
    )
    assert abs(y[0] - want) < 1e-12


def numpy_scalar_oracle(series, s):
    """The literal loop on numpy scalars: ndarray indexing and np.complex128 products."""
    s = np.asarray(s, dtype=np.complex128)
    L = s.size
    y = [complex(0.0)] * L
    for kernel in series.kernels.values():
        j, M = kernel.order, kernel.memory
        if j == 0:
            for t in range(L):
                y[t] += complex(kernel.data)
            continue
        for t in range(L):
            acc = complex(0.0)
            for tau in itertools.product(range(M), repeat=j):
                w = complex(kernel.data[tau])
                if w == 0:
                    continue
                prod = complex(1.0)
                for r in range(j):
                    prod *= s[(t - tau[r]) % L]
                acc += w * prod
            y[t] += acc
    return np.array(y, dtype=np.complex128)


def sparse_complex(shape, rng):
    """Random complex entries, about a third of them exactly zero."""
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.where(rng.random(shape) < 1 / 3, 0, values)


@settings(settings.get_profile("volterra"), max_examples=40)
@given(
    order=st.integers(min_value=0, max_value=3),
    memory=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=12),
    packed=st.booleans(),
    constant=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(order=3, memory=4, extra=0, packed=False, constant=True, seed=0)  # M = L, dense
@example(order=3, memory=4, extra=12, packed=True, constant=True, seed=1)  # M < L, packed
@example(order=0, memory=1, extra=3, packed=False, constant=True, seed=2)  # a constant alone
def test_oracle_is_bit_identical_to_numpy_scalar_loop(order, memory, extra, packed, constant, seed):
    """Python scalars change no bit: the same terms, summed in the same order."""
    rng = np.random.default_rng(seed)
    kernels = {0: constant_kernel(complex(*rng.standard_normal(2)))} if constant or not order else {}
    for j in range(1, order + 1):
        if packed:
            kernels[j] = PackedKernel(j, memory, sparse_complex(math.comb(memory + j - 1, j), rng))
        else:
            kernels[j] = VolterraKernel(j, memory, sparse_complex((memory,) * j, rng))
    series = VolterraSeries(kernels)
    s = random_signal(memory + extra, rng)
    assert np.array_equal(oracle_eval(series, s), numpy_scalar_oracle(series, s))


def test_eval_time_constant_only():
    series = memoryless_polynomial_series([3.5 - 1j])
    out = eval_time(series, np.zeros(5))
    assert np.allclose(out, 3.5 - 1j)


def test_eval_time_matches_oracle(rng):
    for _ in range(10):
        series = random_series(3, 3, rng, constant=rng.standard_normal() + 0j)
        s = random_signal(10, rng)
        assert max_abs(eval_time(series, s) - oracle_eval(series, s)) <= 1e-10


def test_eval_freq_linear_is_filtering(rng):
    K = random_kernel(1, 4, rng)
    series = series_from_kernels([K])
    s_hat = random_signal(8, rng)
    from volterra.kernels import vfrf

    assert max_abs(eval_freq(series, s_hat) - vfrf(K, 8) * s_hat) < 1e-12


def test_eval_freq_square_tone_doubles_bin(rng):
    L, k0 = 12, 5
    series = memoryless_polynomial_series([0, 0, 1])
    s = np.exp(2j * np.pi * k0 * np.arange(L) / L)
    out = eval_freq(series, np.fft.fft(s))
    want_bin = (2 * k0) % L
    mask = np.ones(L, dtype=bool)
    mask[want_bin] = False
    assert abs(out[want_bin]) > 1.0
    assert max_abs(out[mask]) < 1e-9 * abs(out[want_bin])


def test_eval_freq_matches_dft_of_oracle(rng):
    for _ in range(6):
        series = random_series(3, 3, rng, constant=0.4 + 0.2j)
        s = random_signal(12, rng)
        got = eval_freq(series, np.fft.fft(s))
        want = np.fft.fft(oracle_eval(series, s))
        assert rel_err(got, want) <= 1e-8


def test_homogeneity_scaling(rng):
    # the order-j component scales as alpha^j
    K = random_kernel(3, 2, rng)
    series = series_from_kernels([K])
    s = random_signal(8, rng)
    alpha = 1.3 - 0.7j
    assert rel_err(eval_time(series, alpha * s), alpha**3 * eval_time(series, s)) < 1e-12


def test_superposition_fails_but_polynomial_law_holds(rng):
    series = random_series(2, 2, rng)
    s1, s2 = random_signal(8, rng), random_signal(8, rng)
    lhs = eval_time(series, s1 + s2)
    parts = eval_time(series, s1) + eval_time(series, s2)
    assert max_abs(lhs - parts) > 1e-6  # genuinely nonlinear
    # the deviation is exactly the bilinear cross term of the order-2 kernel
    K = series.kernels[2]
    from volterra.evaluation import eval_homogeneous

    bilinear = (
        eval_homogeneous(K, s1 + s2)
        - eval_homogeneous(K, s1)
        - eval_homogeneous(K, s2)
    )
    assert max_abs(lhs - parts - bilinear) < 1e-10


def test_multivariate_single_input_reduces_to_eval_time(rng):
    series = random_series(2, 3, rng)
    bank = MultivariateKernelBank(
        {
            (0, Multicombination((1,))): series.kernels[1],
            (0, Multicombination((2,))): series.kernels[2],
        }
    )
    s = random_signal(10, rng)
    got = eval_multivariate(bank, MultiInput((s,)), 0)
    assert max_abs(got - eval_time(series, s)) < 1e-12


def test_multivariate_cross_kernel(rng):
    # only the mixed class {u1, u2} with a delta kernel: y = 2 u1 u2
    bank = MultivariateKernelBank({(0, Multicombination((1, 1))): delta_kernel(2, 1)})
    u1, u2 = random_signal(9, rng), random_signal(9, rng)
    got = eval_multivariate(bank, MultiInput((u1, u2)), 0)
    assert max_abs(got - 2 * u1 * u2) < 1e-12


def test_multivariate_order_mismatch():
    with pytest.raises(ContractViolation):
        MultivariateKernelBank({(0, Multicombination((1, 1))): delta_kernel(3, 1)})


def test_multivariate_pathway_count():
    # B = 2, orders <= 2: 2^1 + 2^2 pathways through the system
    total = sum(
        combo.multinomial() for j in (1, 2) for combo in multicombinations(2, j)
    )
    assert total == 6


def test_response_exponential_linear(rng):
    K = random_kernel(1, 3, rng)
    series = series_from_kernels([K])
    L, xi = 12, 4
    got = response_exponential(series, xi, L)
    from volterra.kernels import vfrf

    want = np.exp(2j * np.pi * xi * np.arange(L) / L) * vfrf(K, L)[xi]
    assert max_abs(got - want) < 1e-12


def test_response_exponential_square_tone():
    L, xi = 16, 3
    series = memoryless_polynomial_series([0, 0, 1])
    got = response_exponential(series, xi, L)
    assert max_abs(got - np.exp(2j * np.pi * 2 * xi * np.arange(L) / L)) < 1e-12


def test_response_exponential_matches_eval_time(rng):
    series = random_series(3, 3, rng, constant=0.1)
    L, xi = 12, 5
    tone = np.exp(2j * np.pi * xi * np.arange(L) / L)
    assert max_abs(response_exponential(series, xi, L) - eval_time(series, tone)) <= 1e-9


def test_response_comb_linear_full_period(rng):
    K = random_kernel(1, 4, rng)
    series = series_from_kernels([K])
    L = 8
    got = response_comb(series, L, L)
    want = np.zeros(L, dtype=complex)
    want[:4] = K.data
    assert max_abs(got - want) < 1e-12


def test_response_comb_square_of_comb():
    L, T = 12, 3
    series = memoryless_polynomial_series([0, 0, 1])
    got = response_comb(series, T, L)
    assert max_abs(got - comb_signal(L, T)) < 1e-12


def test_response_comb_matches_eval_time(rng):
    series = random_series(2, 3, rng)
    L, T = 12, 6
    got = response_comb(series, T, L)
    want = eval_time(series, comb_signal(L, T))
    assert max_abs(got - want) <= 1e-9


def test_response_comb_period_must_divide():
    with pytest.raises(GridError):
        comb_signal(10, 3)


@pytest.mark.parametrize(
    "L, M", [(1, 1), (5, 1), (5, 2), (5, 3), (5, 5), (16, 4), (16, 16), (32, 32), (64, 64)]
)
def test_shift_matrix_is_read_only_delay_bank(L, M, rng):
    s = random_signal(L, rng)
    bank = _shift_matrix(s, M)
    assert not bank.flags.writeable
    assert not bank.flags.owndata  # a strided view, not an M x L copy
    assert np.array_equal(bank, s[(np.arange(L)[None, :] - np.arange(M)[:, None]) % L])
    for T in (1, 3, 20):  # a batch puts signal i at columns i L .. i L + L - 1
        signals = np.array([random_signal(L, rng) for _ in range(T)])
        batch = _shift_matrix(signals, M)
        assert not batch.flags.writeable
        assert np.array_equal(batch, np.hstack([_shift_matrix(x, M) for x in signals]))


def test_shift_matrix_rejects_memory_beyond_length(rng):
    with pytest.raises(GridError):
        _shift_matrix(random_signal(3, rng), 4)


def test_eval_freq_never_builds_the_dense_lattice(rng):
    """At L=512, j=3 one dense {0..L-1}^3 complex tensor would take 2 GiB."""
    L = 512
    series = random_series(3, 16, rng)
    s_hat = random_signal(L, rng)
    tracemalloc.start()
    try:
        eval_freq(series, s_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# The lattice map lives in ``morphisms`` and serves the pullback gather; on
# the all-ones row it is the index-sum grid, which eval_freq above never builds.
@pytest.mark.parametrize(
    "j, L", sorted({(1, 5), (2, 4)} | {(j, L) for j in range(1, 5) for L in (1, 3, 8)})
)
def test_index_sum_grid_is_cached_read_only(j, L):
    grid = _lattice_map(((1,) * j,), j, L)
    assert grid is _lattice_map(((1,) * j,), j, L) and not grid.flags.writeable
    assert np.array_equal(grid, np.indices((L,) * j).sum(axis=0) % L)
