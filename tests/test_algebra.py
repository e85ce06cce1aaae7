import itertools

import numpy as np
import pytest

from conftest import max_abs, random_kernel, random_series, random_signal, rel_err
from volterra import algebra
from volterra.algebra import (
    associativity_harness,
    compose_series,
    composition_labels,
    coproduct,
    product_series,
    s_matrix,
    sum_series,
)
from volterra.combinatorics import WeakComposition
from volterra.errors import ContractViolation, TruncationWarning
from volterra.evaluation import eval_homogeneous, eval_time
from volterra.kernels import (
    VolterraSeries,
    constant_kernel,
    delta_kernel,
    identity_series,
    memoryless_polynomial_series,
    symmetrize_plain,
    vfrf,
    zero_series,
)
from volterra.morphisms import apply_component, catalog, compose_morphisms, validate_morphism


def test_sum_with_zero_series(rng):
    V = random_series(2, 3, rng, constant=0.3)
    S = sum_series(V, zero_series())
    s = random_signal(8, rng)
    assert max_abs(eval_time(S, s) - eval_time(V, s)) < 1e-12


def test_sum_doubles(rng):
    V = random_series(2, 3, rng)
    s = random_signal(8, rng)
    assert max_abs(eval_time(sum_series(V, V), s) - 2 * eval_time(V, s)) < 1e-12


def test_sum_additivity_random(rng):
    V = random_series(3, 3, rng, constant=0.2)
    W = random_series(2, 2, rng, constant=-0.1 + 0.4j)
    s = random_signal(10, rng)
    got = eval_time(sum_series(V, W), s)
    assert max_abs(got - eval_time(V, s) - eval_time(W, s)) <= 1e-10


def test_product_identity_squared(rng):
    I = identity_series()
    P = product_series(I, I)
    s = random_signal(8, rng)
    assert P.orders() == (2,)
    assert max_abs(eval_time(P, s) - s**2) < 1e-12


def test_product_with_constant_scales(rng):
    c = 1.7 - 0.4j
    A = VolterraSeries({0: constant_kernel(c)})
    B = random_series(2, 3, rng, constant=0.5)
    s = random_signal(8, rng)
    assert max_abs(eval_time(product_series(A, B), s) - c * eval_time(B, s)) < 1e-12


def test_product_pointwise_law(rng):
    A = random_series(2, 3, rng, constant=0.3)
    B = random_series(2, 2, rng, constant=-0.2)
    s = random_signal(10, rng)
    got = eval_time(product_series(A, B, max_order=None), s)
    assert max_abs(got - eval_time(A, s) * eval_time(B, s)) <= 1e-9


def test_product_blockwise_vfrf_formula(rng):
    # the order-j spectrum is the sum of block tensor products of factor spectra,
    # symmetrized: the product kernel is packed, the mean over the j! axis orders
    A = random_series(2, 3, rng)
    B = random_series(1, 3, rng)
    P = product_series(A, B, max_order=None)
    L = 8
    j = 3
    want = np.zeros((L,) * j, dtype=complex)
    a2 = vfrf(A.kernels[2], L)
    b1 = vfrf(B.kernels[1], L)
    a1 = vfrf(A.kernels[1], L)
    # (2,1) and (1,2) splits are the only ones with both factors present
    outer = np.multiply.outer(a2, b1)
    want += np.mean([outer.transpose(p) for p in itertools.permutations(range(j))], axis=0)
    # no order-2 kernel in B, no order-0 terms: (1,2) and (0,3), (3,0) vanish
    got = vfrf(P.kernel_of_order(3), L)
    assert rel_err(got, want) < 1e-12


def test_product_truncation_warning(rng):
    A = random_series(3, 2, rng)
    B = random_series(2, 2, rng)
    with pytest.warns(TruncationWarning):
        P = product_series(A, B, max_order=4)
    assert P.max_order <= 4


def test_s_matrix_display():
    sm = s_matrix(3, 2, WeakComposition((1, 2)))
    assert np.array_equal(sm.entries, [[1, 0, 0], [0, 1, 1]])


def test_s_matrix_single_row():
    sm = s_matrix(4, 1, WeakComposition((4,)))
    assert np.array_equal(sm.entries, [[1, 1, 1, 1]])


def test_s_matrix_zero_block():
    sm = s_matrix(2, 2, WeakComposition((0, 2)))
    assert np.array_equal(sm.entries, [[0, 0], [1, 1]])


def test_s_matrix_applies_block_sums(rng):
    sm = s_matrix(3, 2, WeakComposition((1, 2)))
    omega = np.array([5, 2, 9])
    assert np.array_equal(sm.entries @ omega, [5, 11])


def test_compose_identity_left_unit(rng):
    A = random_series(2, 3, rng)
    got = compose_series(identity_series(), A, max_order=None)
    for j in A.orders():
        want = symmetrize_plain(A.kernel_of_order(j)).data
        assert max_abs(got.kernel_of_order(j).data - want) <= 1e-12


def test_compose_identity_right_unit(rng):
    B = random_series(2, 3, rng, constant=0.7)
    got = compose_series(B, identity_series(), max_order=None)
    assert got.constant == B.constant
    for j in B.orders():
        if j == 0:
            continue
        want = symmetrize_plain(B.kernel_of_order(j)).data
        assert max_abs(got.kernel_of_order(j).data - want) <= 1e-12


def test_compose_square_after_delay(rng):
    from volterra.kernels import delay_series

    d = 2
    square = memoryless_polynomial_series([0, 0, 1])
    comp = compose_series(square, delay_series(d), max_order=None)
    kernel = comp.kernel_of_order(2)
    want = np.zeros((d + 1,) * 2, dtype=complex)
    want[d, d] = 1.0
    assert max_abs(kernel.data - want) <= 1e-12
    s = random_signal(12, rng)
    assert max_abs(eval_time(comp, s) - np.roll(s, d) ** 2) <= 1e-10


def test_compose_operational_law(rng):
    A = random_series(2, 2, rng)
    B = random_series(2, 3, rng, constant=0.4)
    comp = compose_series(B, A, max_order=None)
    s = random_signal(12, rng)
    got = eval_time(comp, s)
    want = eval_time(B, eval_time(A, s))
    assert rel_err(got, want) <= 1e-8


def test_compose_rejects_inner_constant(rng):
    A = random_series(1, 2, rng, constant=1.0)
    with pytest.raises(ContractViolation):
        compose_series(identity_series(), A)


def test_compose_truncation_warning(rng):
    A = random_series(2, 2, rng)
    B = random_series(3, 2, rng)
    with pytest.warns(TruncationWarning) as rec:
        C = compose_series(B, A, max_order=4)
    assert C.max_order <= 4
    assert rec[0].message.dropped_orders == (5, 6)


def order_two_series(rng, zero_constant=False):
    kernels = {2: random_series(2, 2, rng).kernels[2]}
    if zero_constant:
        kernels[0] = constant_kernel(0.0)
    return VolterraSeries(kernels)


@pytest.mark.parametrize("zero_constant", [False, True], ids=["plain", "zero-constant"])
def test_compose_truncation_reports_only_reachable_orders(zero_constant, rng):
    # parts of order 2 reach order 4 only; order 3 has no term to drop, and an
    # explicit zero order-0 kernel in A is never a part
    A, B = order_two_series(rng, zero_constant), order_two_series(rng)
    with pytest.warns(TruncationWarning) as rec:
        C = compose_series(B, A, max_order=2)
    assert C.orders() == ()
    assert [w.message.dropped_orders for w in rec] == [(4,)]


def test_compose_ignores_an_explicit_zero_inner_constant(rng):
    A, B = order_two_series(rng), random_series(3, 2, rng, constant=0.5)
    A0 = VolterraSeries({**A.kernels, 0: constant_kernel(0.0)})
    with pytest.warns(TruncationWarning) as rec:
        want = compose_series(B, A, max_order=4)
    with pytest.warns(TruncationWarning) as rec0:
        got = compose_series(B, A0, max_order=4)
    assert got.orders() == want.orders() == (0, 2, 4)
    assert [w.message.dropped_orders for w in rec0] == [w.message.dropped_orders for w in rec]
    assert rec0[0].message.dropped_orders == (6,)
    for j in want.orders():
        assert np.array_equal(got.kernel_of_order(j).data, want.kernel_of_order(j).data)


def test_compose_builds_coefficients_only_for_kept_inner_orders(monkeypatch, rng):
    # B of orders 1, 2 after A of orders 1, 4: at max_order=2 every multiset
    # holding a part of order 4 reaches a dropped order, so its delayed
    # monomial coefficients are unused
    built = []

    def recording_coefficients(a, *args):
        built.append(a.order)
        return real_coefficients(a, *args)

    real_coefficients = algebra._delayed_coefficients
    A = VolterraSeries({1: random_kernel(1, 2, rng), 4: random_kernel(4, 2, rng)})
    B = random_series(2, 3, rng)
    want = compose_series(B, A, max_order=None)
    monkeypatch.setattr(algebra, "_delayed_coefficients", recording_coefficients)
    with pytest.warns(TruncationWarning) as rec:
        got = compose_series(B, A, max_order=2)
    assert built == [1]
    assert rec[0].message.dropped_orders == (4, 5, 8)
    assert got.orders() == (1, 2)
    for j in got.orders():
        assert np.array_equal(got.kernels[j].data, want.kernels[j].data)


@pytest.mark.parametrize("op", [compose_series, product_series])
def test_products_return_read_only_data_of_their_own(op, rng):
    A, B = random_series(2, 2, rng), random_series(1, 3, rng, constant=0.5)
    out = op(B, A, max_order=None)
    assert out.orders()
    for k in out.kernels.values():
        assert not k.data.flags.writeable
        assert not any(np.shares_memory(k.data, x.data) for S in (A, B) for x in S.kernels.values())


@pytest.mark.parametrize("op", [compose_series, product_series])
@pytest.mark.parametrize("max_order", [-1, -3])
def test_negative_max_order_is_rejected(op, max_order, rng):
    A, B = random_series(2, 2, rng), random_series(2, 2, rng)
    with pytest.raises(ContractViolation, match="max_order"):
        op(B, A, max_order=max_order)


def test_max_order_zero_keeps_the_constant(rng):
    A = random_series(2, 2, rng)
    B = random_series(2, 2, rng, constant=0.5)
    with pytest.warns(TruncationWarning) as rec:
        C = compose_series(B, A, max_order=0)
    assert C.orders() == (0,) and C.constant == 0.5
    assert rec[0].message.dropped_orders == (1, 2, 3, 4)


def test_composition_labels_match_small_cases():
    for j in range(1, 9):
        for orders in [(2, 2, 2), (1, 2, 2), (2, 1, 2), (3, 2, 1)]:
            n_C, n_B, n_A = orders
            left = composition_labels(j, n_C, n_B, n_A, "left")
            right = composition_labels(j, n_C, n_B, n_A, "right")
            assert left == right, (j, orders)


def test_associativity_linear_triple_exact(rng):
    A = random_series(1, 2, rng)
    B = random_series(1, 2, rng)
    C = random_series(1, 2, rng)
    report = associativity_harness(C, B, A, trials=2, L=8, rng=0)
    assert report.max_kernel_deviation <= 1e-12
    assert report.labels_match


def test_associativity_random_triples(rng):
    for seed in range(4):
        local = np.random.default_rng(seed)
        A = random_series(2, 2, local)
        B = random_series(2, 2, local)
        C = random_series(2, 2, local)
        report = associativity_harness(C, B, A, trials=2, L=12, rng=seed)
        assert report.max_kernel_deviation <= 1e-8
        assert report.max_output_deviation <= 1e-8
        assert report.labels_match


def test_coproduct_universal_property(rng):
    # the induced morphism restricted along each inclusion reproduces the leg
    L = 12
    V = random_series(2, 3, rng)
    W = random_series(2, 2, rng)
    VW, iota, kappa = coproduct(V, W, L)
    X, f = catalog("trivial", V, L)
    XW, g = catalog("trivial", W, L)
    # common target: the delta-train series indexed like VW
    target = {}
    h_index, h_mats, h_masks = {}, {}, {}
    for i, k in VW.kernels.items():
        target[i] = delta_kernel(k.order, 1)
        h_index[i] = i
        h_mats[i] = np.eye(k.order, dtype=int)
        h_masks[i] = (f if i[0] == 0 else g).masks[i[1]]
    from volterra.morphisms import Morphism

    X_full = VolterraSeries(target)
    h = Morphism(h_index, h_mats, h_masks)
    assert validate_morphism(h, VW, X_full).ok
    s_hat = random_signal(L, rng)
    # h . iota against f, component-wise on V's side
    left = compose_morphisms(h, iota)
    for i in f.index_map:
        assert np.array_equal(left.matrices[i], f.matrices[i])
        assert np.array_equal(left.masks[i], f.masks[i])
    got = apply_component(left, V, X_full, s_hat)
    want = apply_component(f, V, X, s_hat)
    assert max_abs(got - want) <= 1e-9
    right = compose_morphisms(h, kappa)
    got = apply_component(right, W, X_full, s_hat)
    want = apply_component(g, W, XW, s_hat)
    assert max_abs(got - want) <= 1e-9


def test_product_projection_identity(rng):
    # order-by-order: the product's order-j output is sum_k A_k(s) B_{j-k}(s)
    A = random_series(2, 2, rng, constant=0.5)
    B = random_series(2, 3, rng, constant=-0.3)
    P = product_series(A, B, max_order=None)
    s = random_signal(10, rng)

    def homogeneous_output(S, j, sig):
        k = S.kernel_of_order(j)
        if k is None:
            return np.zeros(sig.size, dtype=complex)
        return eval_homogeneous(k, sig)

    for j in P.orders():
        want = np.zeros(s.size, dtype=complex)
        for k in range(0, j + 1):
            want += homogeneous_output(A, k, s) * homogeneous_output(B, j - k, s)
        got = homogeneous_output(P, j, s)
        assert max_abs(got - want) <= 1e-9
