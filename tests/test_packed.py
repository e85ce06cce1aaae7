"""Property tests of packed symmetric kernels: 2 <= j <= 4, M <= 5, M <= L <= 12, and order 8.

Both symmetrizers pack their output, one value per orbit of the delay
lattice.  These checks tie a packed kernel to the dense kernel of its
``data`` (evaluation in time and frequency), and its ``data`` to the
gather of the orbit values that the symmetrizers returned dense before.
They pin what the package relies on: a packed kernel symmetrizes to itself,
pickles by its values, raises the dense path's grid error, is what
composition and the product return, and stays packed when added to packed
kernels of the same order.  The last checks measure that composing
criterion 6's largest triple, evaluating the packed composite, measuring
its asymmetry and multiplying two order-4 series never build a dense
lattice.
"""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel, random_series, random_signal, rel_err
from volterra.algebra import compose_series, product_series, sum_series
from volterra.errors import ContractViolation, GridError
from volterra.evaluation import eval_freq, eval_time
from volterra.kernels import (
    PackedKernel,
    VolterraKernel,
    VolterraSeries,
    _orbit_buckets,
    symmetric_part_max_deviation,
    symmetrize_plain,
    symmetrize_weighted,
)

SETTINGS = settings(settings.get_profile("volterra"), max_examples=50)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SYMMETRIZERS = (symmetrize_plain, symmetrize_weighted)


@st.composite
def cases(draw):
    """(dense kernel, symmetrizer, grid length L, rng) with 2 <= j <= 4, M <= 5, M <= L <= 12."""
    j = draw(st.integers(min_value=2, max_value=4))
    M = draw(st.integers(min_value=1, max_value=5))
    L = draw(st.integers(min_value=M, max_value=12))
    rng = np.random.default_rng(draw(SEEDS))
    return random_kernel(j, M, rng), draw(st.sampled_from(SYMMETRIZERS)), L, rng


def dense_gather(kernel, symmetrize):
    """The symmetrizer's dense output before packing: orbit values gathered to every point."""
    bucket, counts = _orbit_buckets(kernel.order, kernel.memory)
    flat = kernel.data.ravel()
    sums = np.bincount(bucket, weights=flat.real) + 1j * np.bincount(bucket, weights=flat.imag)
    if symmetrize is symmetrize_plain:
        values = sums / counts
    else:
        values = sums * (math.factorial(kernel.order) / counts**2)
    return values[bucket].reshape(kernel.data.shape)


def check_evaluation(case):
    kernel, symmetrize, L, rng = case
    packed = symmetrize(kernel)
    packed_series = VolterraSeries({packed.order: packed})
    dense_series = VolterraSeries({packed.order: VolterraKernel(packed.order, packed.memory, packed.data)})
    s = random_signal(L, rng)
    assert rel_err(eval_time(packed_series, s), eval_time(dense_series, s)) <= 1e-12
    s_hat = np.fft.fft(s)
    assert rel_err(eval_freq(packed_series, s_hat), eval_freq(dense_series, s_hat)) <= 1e-12


def check_data(case):
    kernel, symmetrize, _, _ = case
    packed = symmetrize(kernel)
    assert isinstance(packed, PackedKernel)
    assert packed.values.shape == (math.comb(packed.memory + packed.order - 1, packed.order),)
    assert np.array_equal(packed.data, dense_gather(kernel, symmetrize))
    assert packed.data is packed.data  # expanded once
    for array in (packed.data, packed.values):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def check_symmetrizers(case):
    kernel, symmetrize, _, _ = case
    packed = symmetrize(kernel)
    assert symmetrize_plain(packed) is packed
    # the weighted symmetrizer is no projection (a j = 2 diagonal doubles): it reads the data
    dense = VolterraKernel(packed.order, packed.memory, packed.data)
    assert np.array_equal(symmetrize_weighted(packed).data, symmetrize_weighted(dense).data)


def check_pickle(case):
    kernel, symmetrize, L, rng = case
    packed = symmetrize(kernel)
    assert packed.data is vars(packed)["data"]  # an expanded kernel still pickles its values alone
    back = pickle.loads(pickle.dumps(packed))
    assert isinstance(back, PackedKernel) and "data" not in vars(back)
    assert (back.order, back.memory) == (packed.order, packed.memory)
    assert np.array_equal(back.values, packed.values) and not back.values.flags.writeable
    assert np.array_equal(back.data, packed.data) and not back.data.flags.writeable
    s = random_signal(L, rng)
    series = VolterraSeries({packed.order: packed})
    assert np.array_equal(eval_time(pickle.loads(pickle.dumps(series)), s), eval_time(series, s))


@SETTINGS
@given(cases())
def test_packed_kernel_evaluates_as_its_dense_data(case):
    check_evaluation(case)


@SETTINGS
@given(cases())
def test_packed_data_is_the_dense_gather(case):
    check_data(case)


@SETTINGS
@given(cases())
def test_plain_symmetrizer_returns_a_packed_kernel_itself(case):
    check_symmetrizers(case)


@SETTINGS
@given(cases())
def test_packed_kernel_pickles_by_its_values(case):
    check_pickle(case)


@pytest.mark.parametrize("check", [check_evaluation, check_data, check_symmetrizers, check_pickle])
def test_order_8_packed_kernel(check):
    rng = np.random.default_rng(808)
    check((random_kernel(8, 4, rng), symmetrize_plain, 12, rng))


@SETTINGS
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    SEEDS,
)
def test_composite_kernels_of_order_two_and_up_are_packed(n_A, M_A, n_B, M_B, constant, seed):
    rng = np.random.default_rng(seed)
    A = random_series(n_A, M_A, rng)
    B = random_series(n_B, M_B, rng, constant=0.5 - 0.25j if constant else None)
    composite = compose_series(B, A, max_order=None)
    assert composite.orders()
    for kernel in composite.kernels.values():
        assert isinstance(kernel, PackedKernel) == (kernel.order >= 2)


@SETTINGS
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=5), SEEDS)
def test_packed_path_raises_the_dense_grid_error(j, M, seed):
    rng = np.random.default_rng(seed)
    packed = symmetrize_plain(random_kernel(j, M, rng))
    dense = VolterraKernel(j, M, packed.data)
    s = random_signal(int(rng.integers(1, M)), rng)
    for evaluate, signal in ((eval_time, s), (eval_freq, np.fft.fft(s))):
        messages = []
        for kernel in (dense, packed):
            with pytest.raises(GridError) as raised:
                evaluate(VolterraSeries({j: kernel}), signal)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("order, memory, count", [(2, 3, 5), (2, 3, 9), (0, 3, 1), (2, 0, 0)])
def test_packed_kernel_rejects_values_that_do_not_fit(order, memory, count):
    with pytest.raises(ContractViolation, match="orbit values"):
        PackedKernel(order, memory, np.zeros(count))


def test_evaluating_a_packed_composite_never_expands_its_lattice():
    # criterion 6's largest composite: three order-2, memory-3 series, order 8 on {0..6}^8
    rng = np.random.default_rng(606)
    C, B, A = (random_series(2, 3, rng) for _ in range(3))
    composite = compose_series(compose_series(C, B, max_order=None), A, max_order=None)
    top = composite.kernels[8]
    assert isinstance(top, PackedKernel) and top.memory == 7
    s = random_signal(16, rng)
    eval_time(composite, s)  # builds the cached tables of each shape once
    tracemalloc.start()
    try:
        eval_time(composite, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7**8 * 16  # the dense data of the order-8 kernel alone
    assert all("data" not in vars(k) for k in composite.kernels.values() if isinstance(k, PackedKernel))


def test_composing_criterion_6s_largest_triple_builds_no_lattice():
    # three order-2, memory-3 series: the order-8 composite lives on {0..6}^8,
    # 91 MiB dense, and in 3,003 orbit coefficients
    rng = np.random.default_rng(606)
    C, B, A = (random_series(2, 3, rng) for _ in range(3))
    tracemalloc.start()
    try:
        composite = compose_series(compose_series(C, B, max_order=None), A, max_order=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert composite.orders() == tuple(range(1, 9))
    assert peak <= 16 * 2**20


def test_asymmetry_of_a_packed_composite_is_zero_unexpanded():
    rng = np.random.default_rng(606)
    C, B, A = (random_series(2, 3, rng) for _ in range(3))
    top = compose_series(compose_series(C, B, max_order=None), A, max_order=None).kernels[8]
    assert symmetric_part_max_deviation(top) == 0.0
    assert "data" not in vars(top)


def test_product_of_two_order_4_series_builds_no_lattice():
    # the order-8 product of two order-4, memory-6 series lives on {0..5}^8,
    # 25.6 MiB dense, and in 1,287 orbit coefficients; one factor is packed
    rng = np.random.default_rng(8)
    A, B = random_series(4, 6, rng).map_kernels(symmetrize_plain), random_series(4, 6, rng)
    tracemalloc.start()
    try:
        product = product_series(A, B, max_order=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.orders() == tuple(range(2, 9))
    assert peak <= 4 * 2**20
    for k in product.kernels.values():
        assert isinstance(k, PackedKernel) == (k.order >= 2)
    packed = [k for S in (product, A) for k in S.kernels.values() if k.order >= 2]
    assert all("data" not in vars(k) for k in packed)


@pytest.mark.parametrize("memories", [(3, 3), (2, 4), (4, 1, 3)])
def test_packed_kernels_of_one_order_add_packed(memories, rng):
    kernels = {i: symmetrize_plain(random_kernel(3, M, rng)) for i, M in enumerate(memories)}
    got = VolterraSeries(kernels).kernel_of_order(3)
    M = max(memories)
    want = sum(np.pad(k.data, [(0, M - k.memory)] * 3) for k in kernels.values())
    assert isinstance(got, PackedKernel) and got.memory == M
    assert rel_err(got.data, want) <= 1e-15
    dense = VolterraSeries({**kernels, "dense": random_kernel(3, 2, rng)}).kernel_of_order(3)
    assert type(dense) is VolterraKernel


def test_sum_of_packed_composites_stays_packed(rng):
    C, B, A = (random_series(2, 3, rng) for _ in range(3))
    composite = compose_series(C, compose_series(B, A, max_order=None), max_order=None)
    total = sum_series(composite, composite)
    assert all(isinstance(total.kernels[j], PackedKernel) for j in range(2, 9))
    assert np.array_equal(total.kernels[8].values, 2 * composite.kernels[8].values)
    assert "data" not in vars(total.kernels[8])
