import itertools
import math
import pickle

import numpy as np
import pytest

from conftest import max_abs, random_kernel, random_series, random_signal, rel_err
from volterra.algebra import coproduct
from volterra.errors import ContractViolation, GridError
from volterra.evaluation import eval_time
from volterra.kernels import (
    VolterraKernel,
    VolterraSeries,
    delay_series,
    delta_kernel,
    differencer_series,
    elementary_series,
    identity_series,
    kernel_from_array,
    memoryless_polynomial_series,
    symmetrize_plain,
    symmetrize_weighted,
    vfrf,
    zero_pad,
)


def brute_symmetrize(kernel):
    j = kernel.order
    out = np.zeros_like(kernel.data)
    for sigma in itertools.permutations(range(j)):
        out += np.transpose(kernel.data, sigma)
    return out / math.factorial(j)


def test_kernel_shape_validation():
    with pytest.raises(ContractViolation):
        VolterraKernel(2, 3, np.zeros((3, 4)))
    with pytest.raises(ContractViolation):
        VolterraKernel(1, 0, np.zeros(0))


def test_symmetrize_plain_linear_case():
    # v(t1, t2) = t1 on {0,1,2} averages to (t1 + t2) / 2
    data = np.arange(3)[:, None] * np.ones((3, 3))
    sym = symmetrize_plain(VolterraKernel(2, 3, data))
    t1, t2 = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    assert max_abs(sym.data - (t1 + t2) / 2) < 1e-14


def test_symmetrize_plain_fixed_point(rng):
    K = random_kernel(3, 3, rng)
    S = symmetrize_plain(K)
    assert max_abs(symmetrize_plain(S).data - S.data) < 1e-14


def test_symmetrize_plain_matches_group_average(rng):
    K = random_kernel(3, 3, rng)
    assert max_abs(symmetrize_plain(K).data - brute_symmetrize(K)) < 1e-13


def test_symmetrize_weighted_points(rng):
    K = random_kernel(2, 4, rng)
    W = symmetrize_weighted(K)
    a, b = 1, 3
    assert abs(W.data[a, b] - (K.data[a, b] + K.data[b, a]) / 2) < 1e-14
    assert abs(W.data[a, a] - 2 * K.data[a, a]) < 1e-14


def test_symmetrize_weighted_matches_plain_off_diagonal(rng):
    K = random_kernel(3, 4, rng)
    W, S = symmetrize_weighted(K), symmetrize_plain(K)
    point = (0, 2, 3)  # all distinct: multiplicity factor is j! there
    assert abs(W.data[point] - S.data[point]) < 1e-14


def test_vfrf_delay_phase_ramp():
    fr = vfrf(delta_kernel(1, 4, (3,)), 8)
    want = np.exp(-2j * np.pi * np.arange(8) * 3 / 8)
    assert max_abs(fr - want) < 1e-14


def test_vfrf_order0_scalar():
    fr = vfrf(kernel_from_array(np.asarray(2.5 + 1j)), 6)
    assert fr.ndim == 0 and complex(fr) == 2.5 + 1j


def test_vfrf_matches_naive_double_sum(rng):
    L, M = 6, 3
    K = random_kernel(2, M, rng)
    fr = vfrf(K, L)
    naive = np.zeros((L, L), dtype=complex)
    for k1 in range(L):
        for k2 in range(L):
            acc = 0.0
            for t1 in range(M):
                for t2 in range(M):
                    acc += K.data[t1, t2] * np.exp(-2j * np.pi * (k1 * t1 + k2 * t2) / L)
            naive[k1, k2] = acc
    assert max_abs(fr - naive) < 1e-12


def test_vfrf_roundtrip(rng):
    L = 8
    K = random_kernel(2, 3, rng)
    fr = vfrf(K, L)
    embedded = np.zeros((L, L), dtype=complex)
    embedded[:3, :3] = K.data
    assert max_abs(np.fft.ifftn(fr) - embedded) < 1e-12


def test_vfrf_linearity(rng):
    L = 8
    K1, K2 = random_kernel(2, 3, rng), random_kernel(2, 3, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2j
    combo = VolterraKernel(2, 3, a * K1.data + b * K2.data)
    assert max_abs(vfrf(combo, L) - a * vfrf(K1, L) - b * vfrf(K2, L)) < 1e-12


def test_vfrf_resolution_error(rng):
    with pytest.raises(GridError):
        vfrf(random_kernel(1, 9, rng), 8)


def test_memoryless_square_outputs_squares(rng):
    series = memoryless_polynomial_series([0, 0, 1])
    s = random_signal(8, rng)
    assert max_abs(eval_time(series, s) - s**2) < 1e-12
    fr = vfrf(series.kernels[2], 8)
    assert max_abs(fr - 1.0) < 1e-12


def test_identity_series_passthrough(rng):
    s = random_signal(6, rng)
    assert max_abs(eval_time(identity_series(), s) - s) < 1e-14


def test_delay_series_moves_impulse():
    L = 8
    impulse = np.zeros(L)
    impulse[0] = 1.0
    out = eval_time(delay_series(3), impulse)
    want = np.zeros(L)
    want[3] = 1.0
    assert max_abs(out - want) < 1e-14


def test_delay_out_of_grid():
    with pytest.raises(GridError):
        delay_series(4, memory=3)


def test_differencer_stencil():
    series = differencer_series(2)
    taps = series.kernels[1].data
    assert np.allclose(taps, [1, -2, 1])
    # against a ramp: second difference of t^2 is constant 2 away from wrap
    L = 16
    out = eval_time(series, np.arange(L, dtype=float) ** 2)
    assert max_abs(out[4:-4] - 2.0) < 1e-12


def test_elementary_dispatcher():
    assert elementary_series("identity").orders() == (1,)
    assert elementary_series("delay", d=2).kernels[1].memory == 3
    with pytest.raises(ContractViolation):
        elementary_series("unknown")


def test_polynomial_order_cap():
    with pytest.raises(ContractViolation):
        memoryless_polynomial_series([0] * 7 + [1], max_order=4)


def test_series_canonical_merges_orders(rng):
    k1, k2 = random_kernel(2, 2, rng), random_kernel(2, 3, rng)
    series = VolterraSeries({"a": k1, "b": k2})
    merged = series.canonical()
    assert merged.orders() == (2,)
    assert max_abs(merged.kernel_of_order(2).data - (zero_pad(k1, 3).data + k2.data)) < 1e-14


def test_symmetrized_series_evaluates_identically(rng):
    series = random_series(3, 3, rng, constant=0.2 + 0.1j)
    s = random_signal(12, rng)
    sym = series.map_kernels(symmetrize_plain)
    assert rel_err(eval_time(sym, s), eval_time(series, s)) < 1e-10


def test_zero_pad_returns_the_kernel_itself_when_nothing_changes(rng):
    kernel = random_kernel(2, 3, rng)
    assert zero_pad(kernel, kernel.memory) is kernel
    constant = kernel_from_array(np.asarray(1.5 - 2j))
    assert zero_pad(constant, 4) is constant
    padded = zero_pad(kernel, 5)
    assert padded.memory == 5 and np.array_equal(padded.data[:3, :3], kernel.data)


def test_kernel_from_array_checks_a_given_memory():
    assert kernel_from_array(np.ones(3), memory=3).memory == 3
    with pytest.raises(ContractViolation, match="memory 5"):
        kernel_from_array(np.ones(3), memory=5)
    with pytest.raises(ContractViolation, match="memory 2"):
        kernel_from_array(np.ones((3, 3)), memory=2)
    assert kernel_from_array(np.asarray(2.0), memory=5).memory == 5  # order 0 unchanged


def read_only_view(base):
    view = base.view()
    view.setflags(write=False)
    return view, base


@pytest.mark.parametrize(
    "make",
    [
        lambda a: (a, a),
        lambda a: (a.real.copy(),) * 2,
        read_only_view,  # written through its base
    ],
    ids=["complex", "real", "read-only"],
)
def test_public_constructor_copies_the_callers_data(make):
    arr, alias = make(np.arange(9, dtype=np.complex128).reshape(3, 3))
    kernel = VolterraKernel(2, 3, arr)
    before = kernel.data.copy()
    alias[1, 2] = 100.0
    assert arr[1, 2] == 100.0 and np.array_equal(kernel.data, before)
    assert not kernel.data.flags.writeable and not np.shares_memory(kernel.data, arr)


def test_fresh_arrays_are_taken_read_only_without_a_copy():
    fresh = np.ones((3, 3), dtype=np.complex128)
    kernel = VolterraKernel._fresh(2, 3, fresh)
    assert kernel.data is fresh and not fresh.flags.writeable
    with pytest.raises(ContractViolation):
        VolterraKernel._fresh(2, 4, np.ones((3, 3), dtype=np.complex128))


@pytest.mark.parametrize(
    "produce",
    [
        lambda k: (symmetrize_plain(k), (k,)),
        lambda k: (symmetrize_weighted(k), (k,)),
        lambda k: (zero_pad(k, 5), (k,)),
        lambda k: (VolterraSeries({"a": k, "b": k}).kernel_of_order(2), (k,)),
    ],
    ids=["symmetrize_plain", "symmetrize_weighted", "zero_pad", "kernel_of_order"],
)
def test_producers_return_read_only_data_of_their_own(produce, rng):
    out, inputs = produce(random_kernel(2, 3, rng))
    assert not out.data.flags.writeable
    assert not any(np.shares_memory(out.data, k.data) for k in inputs)


def test_canonical_series_is_passed_through(rng):
    series = random_series(3, 2, rng)
    assert series.canonical() is series
    with_constant = VolterraSeries({0: kernel_from_array(np.asarray(0.5)), **series.kernels})
    assert with_constant.canonical() is with_constant


def test_is_canonical_agrees_with_canonical(rng):
    tagged = VolterraSeries({"a": delta_kernel(2, 2), "b": delta_kernel(1, 1)})
    assert not tagged.is_canonical()
    assert tagged.canonical() is not tagged and tagged.canonical().is_canonical()
    series = random_series(3, 2, rng)
    assert series.canonical() is series and series.is_canonical()


@pytest.mark.parametrize(
    "kernels",
    [
        lambda rng: {
            "a": random_kernel(2, 2, rng),
            "b": random_kernel(2, 3, rng),
            1: random_kernel(1, 2, rng),
        },
        lambda rng: {2: random_kernel(2, 2, rng), 1: random_kernel(1, 3, rng)},  # descending keys
        lambda rng: {1: random_kernel(2, 2, rng)},  # key is not the order
    ],
    ids=["tagged-duplicates", "descending", "misfiled"],
)
def test_canonical_merges_and_then_stays_put(kernels, rng):
    series = VolterraSeries(kernels(rng))
    merged = series.canonical()
    assert merged is not series
    assert merged.indices == merged.orders() == series.orders()
    assert merged.canonical() is merged
    s = random_signal(6, rng)
    assert rel_err(eval_time(merged, s), eval_time(series, s)) < 1e-12


def test_series_reads_its_orders_and_memory_once(rng):
    empty = VolterraSeries({})
    assert (empty.orders(), empty.memory, empty.max_order, empty.constant) == ((), 1, 0, 0)
    only_constant = VolterraSeries({0: kernel_from_array(np.asarray(2 - 1j), memory=4)})
    assert only_constant.orders() == (0,) and only_constant.memory == 1
    assert only_constant.max_order == 0 and only_constant.constant == 2 - 1j
    V = random_series(2, 3, rng, constant=0.5)
    W = VolterraSeries({0: kernel_from_array(np.asarray(0.25j)), 3: random_kernel(3, 2, rng)})
    union, _, _ = coproduct(V, W, 8)
    assert union.orders() == (0, 1, 2, 3) and union.memory == 3 and union.max_order == 3
    assert union.constant == 0.5 + 0.25j

    kernels = {1: random_kernel(1, 2, rng)}
    series = VolterraSeries(kernels)
    kernels[4] = random_kernel(4, 5, rng)  # the caller's dict is not the series' mapping
    assert series.orders() == (1,) and series.memory == 2 and series.max_order == 1
    with pytest.raises(TypeError):
        series.kernels[4] = kernels[4]
    with pytest.raises(TypeError):
        del series.kernels[1]
    with pytest.raises(TypeError):
        series.kernels.update(kernels)
    assert series.kernels.copy() == dict(series.kernels) == {1: series.kernels[1]}


def test_series_pickles(rng):
    series = random_series(2, 2, rng, constant=1.5)
    back = pickle.loads(pickle.dumps(series))
    assert back.indices == series.indices and back.memory == series.memory
    assert all(np.array_equal(back.kernels[i].data, k.data) for i, k in series.kernels.items())
