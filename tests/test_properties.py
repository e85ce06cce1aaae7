"""Property tests of the evaluation core on random series, j <= 3, M <= 4, L <= 12.

``eval_freq`` runs the time path on the inverse DFT of its input, and a
lens component of ``morphisms`` is ``eval_freq`` of its component series;
these checks tie each path to an independent one: the nested-loop oracle,
a literal projection-slice sum, the DFT of the time path, and the time path
on the transformed input.  The naturality check is tied to a loop of
component pairs and to the lens law on random integer matrices.  The
interconnection laws (sum, product, composition) are checked the same way
on pairs of series with j <= 2, M <= 3 and composite memory
M_A + M_B - 1 <= L.  The time-domain composite kernels are checked against
the paper's spectral formula on series whose orders have their own
memories, with orders missing and a constant in the outer series, and
against the dense assembly on {0..L'-1}^j that composition used before it
worked in the orbit basis, with and without an order cap; the product's
kernels against its former dense outer products on {0..M-1}^j, symmetrized.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs, naturality_loop, random_kernel, random_series, random_signal, rel_err
from volterra.actions import Multiplier, act_modulation, act_periodization, apply_action
from volterra.algebra import compose_series, product_series, s_matrix, sum_series
from volterra.combinatorics import WeakComposition, compositions, multinomial
from volterra.errors import ContractViolation, GridError, TruncationWarning
from volterra.evaluation import comb_signal, eval_freq, eval_time, oracle_eval, response_comb
from volterra.kernels import (
    VolterraKernel,
    VolterraSeries,
    constant_kernel,
    delta_kernel,
    symmetrize_plain,
    vfrf,
    zero_pad,
)
from volterra.morphisms import (
    CATALOG_KINDS,
    Morphism,
    apply_component,
    catalog,
    check_naturality,
    lens_identity,
    pullback_gather,
    validate_morphism,
)

SETTINGS = settings(settings.get_profile("volterra"), max_examples=50)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def cases(draw):
    """(series, grid length L, rng) with max order <= 3, memory <= L <= 12."""
    j = draw(st.integers(min_value=1, max_value=3))
    M = draw(st.integers(min_value=1, max_value=4))
    L = draw(st.integers(min_value=M, max_value=12))
    rng = np.random.default_rng(draw(SEEDS))
    constant = complex(*rng.standard_normal(2)) if draw(st.booleans()) else None
    return random_series(j, M, rng, constant=constant), L, rng


@st.composite
def pairs(draw):
    """(A, B, L, rng) with orders <= 2, memories <= 3 and M_A + M_B - 1 <= L <= 12.

    A has no constant term, so B after A is defined; B may have one.
    """
    M_A, M_B = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    L = draw(st.integers(min_value=M_A + M_B - 1, max_value=12))
    rng = np.random.default_rng(draw(SEEDS))
    A = random_series(draw(st.integers(1, 2)), M_A, rng)
    constant = complex(*rng.standard_normal(2)) if draw(st.booleans()) else None
    B = random_series(draw(st.integers(1, 2)), M_B, rng, constant=constant)
    return A, B, L, rng


@SETTINGS
@given(cases())
def test_eval_time_matches_oracle(case):
    series, L, rng = case
    s = random_signal(L, rng)
    assert max_abs(eval_time(series, s) - oracle_eval(series, s)) <= 1e-10


@SETTINGS
@given(cases())
def test_eval_freq_is_spectrum_of_eval_time(case):
    series, L, rng = case
    s = random_signal(L, rng)
    assert rel_err(eval_freq(series, np.fft.fft(s)), np.fft.fft(eval_time(series, s))) <= 1e-9


@SETTINGS
@given(cases())
def test_unit_lens_component_is_eval_freq(case):
    """The unit lens onto unit-spectrum targets leaves the integrand unchanged."""
    series, L, rng = case
    active = {i: k for i, k in series.kernels.items() if k.order >= 1}
    target = VolterraSeries({i: delta_kernel(k.order, 1) for i, k in active.items()})
    s_hat = random_signal(L, rng)
    got = apply_component(lens_identity(series, L), series, target, s_hat)
    assert rel_err(got, eval_freq(VolterraSeries(active), s_hat)) <= 1e-12


@SETTINGS
@given(cases(), st.integers(min_value=-24, max_value=24))
def test_act_modulation_is_eval_time_of_modulated_input(case, xi):
    series, L, rng = case
    s = random_signal(L, rng)
    modulated = s * np.exp(2j * np.pi * xi * np.arange(L) / L)
    got = act_modulation(series, np.fft.fft(s), xi)
    assert rel_err(got, np.fft.fft(eval_time(series, modulated))) <= 1e-9


@SETTINGS
@given(cases(), st.data())
def test_response_comb_is_eval_time_of_comb(case, data):
    series, L, _ = case
    T = data.draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    assert rel_err(response_comb(series, T, L), eval_time(series, comb_signal(L, T))) <= 1e-9


@SETTINGS
@given(cases(), st.data())
def test_act_periodization_is_spectrum_of_eval_time_of_periodized_input(case, data):
    series, L, rng = case
    T = data.draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    s = random_signal(L, rng)
    periodized = np.fft.ifft(np.fft.fft(comb_signal(L, T)) * np.fft.fft(s))
    got = act_periodization(series, np.fft.fft(s), T)
    assert rel_err(got, np.fft.fft(eval_time(series, periodized))) <= 1e-9


@SETTINGS
@given(pairs())
def test_sum_series_adds_outputs(pair):
    A, B, L, rng = pair
    s = random_signal(L, rng)
    assert rel_err(eval_time(sum_series(A, B), s), eval_time(A, s) + eval_time(B, s)) <= 1e-9


@SETTINGS
@given(pairs())
def test_product_series_multiplies_outputs(pair):
    A, B, L, rng = pair
    s = random_signal(L, rng)
    got = eval_time(product_series(A, B, max_order=None), s)
    assert rel_err(got, eval_time(A, s) * eval_time(B, s)) <= 1e-9


@SETTINGS
@given(pairs())
def test_compose_series_feeds_outputs(pair):
    A, B, L, rng = pair
    s = random_signal(L, rng)
    got = eval_time(compose_series(B, A, max_order=None), s)
    assert rel_err(got, eval_time(B, eval_time(A, s))) <= 1e-9


@st.composite
def mixed_pairs(draw):
    """(A, B): each present order has its own memory <= 3, orders may be missing.

    A's orders lie in {1, 2, 3} and B's keep the composite order <= 6; B may
    carry a constant.
    """
    rng = np.random.default_rng(draw(SEEDS))

    def series(max_order, constant):
        orders = draw(st.sets(st.integers(1, max_order), min_size=1))
        kernels = {j: random_kernel(j, draw(st.integers(1, 3)), rng) for j in sorted(orders)}
        if constant:
            kernels[0] = constant_kernel(complex(*rng.standard_normal(2)))
        return VolterraSeries(kernels)

    A = series(3, False)
    B = series(min(3, 6 // A.max_order), draw(st.booleans()))
    return A, B


def spectral_composition(B, A):
    """Order-j kernels of B after A from the spectral formula at L' = M_A + M_B - 1:

    ifftn(sum_k sum_p b_hat_k(S_p Omega) prod_r a_hat_{p_r}(theta_r)), symmetrized.
    """
    Lp = A.memory + B.memory - 1
    a_hat = {l: vfrf(A.kernel_of_order(l), Lp) for l in A.orders() if l >= 1}
    b_hat = {k: vfrf(B.kernel_of_order(k), Lp) for k in B.orders() if k >= 1}
    out = {}
    for j in range(1, A.max_order * B.max_order + 1):
        acc = None
        for k, b in b_hat.items():
            for p in compositions(j, k):
                if any(part not in a_hat for part in p.parts):
                    continue
                inner = a_hat[p.parts[0]]
                for part in p.parts[1:]:
                    inner = np.multiply.outer(inner, a_hat[part])
                entries = s_matrix(j, k, WeakComposition(p.parts)).entries
                term = pullback_gather(b, entries, Lp) * inner
                acc = term if acc is None else acc + term
        if acc is not None:
            out[j] = symmetrize_plain(VolterraKernel(j, Lp, np.fft.ifftn(acc))).data
    return out


@SETTINGS
@given(mixed_pairs())
def test_compose_series_matches_spectral_formula(pair):
    A, B = pair
    got = compose_series(B, A, max_order=None)
    want = spectral_composition(B, A)
    assert got.constant == B.constant
    assert set(got.orders()) - {0} == set(want)
    for j, data in want.items():
        assert rel_err(got.kernel_of_order(j).data, data) <= 1e-12


def shift_bank(a, shifts, Lp):
    """bank[s] is a placed at offset s on every axis of {0..Lp-1}^order, s < shifts."""
    bank = np.zeros((shifts,) + (Lp,) * a.order, dtype=np.complex128)
    for s in range(shifts):
        bank[(s,) + (slice(s, s + a.memory),) * a.order] = a.data
    return bank


def dense_composition(B, A, max_order):
    """(kernels, dropped orders) of B after A assembled dense on {0..L'-1}^j, then symmetrized.

    The same multisets and weights as ``compose_series``; each term contracts
    b_k with one bank of shifted copies of a_l per block.
    """
    Ac, Bc = A.canonical(), B.canonical()
    M_B = Bc.memory
    Lp = max(Ac.memory + M_B - 1, 1)
    inner = [l for l in Ac.orders() if l >= 1]
    sums = {}
    for k, b in Bc.kernels.items():
        if k > 0 or Bc.constant != 0:
            b = symmetrize_plain(b) if len(inner) > 1 else b
            for parts in itertools.combinations_with_replacement(inner, k):
                data = multinomial(k, [parts.count(p) for p in set(parts)]) * b.data
                for part in parts:
                    data = np.tensordot(data, shift_bank(Ac.kernels[part], M_B, Lp)[: b.memory], axes=(0, 0))
                j = sum(parts)
                sums[j] = sums[j] + data if j in sums else data
    dropped = sorted(j for j in sums if max_order is not None and j > max_order)
    kernels = {
        j: data if j == 0 else symmetrize_plain(VolterraKernel(j, Lp, data)).data
        for j, data in sums.items()
        if j not in dropped
    }
    return kernels, dropped


@st.composite
def capped_pairs(draw):
    """(B, A, max_order): orders <= 3, each with its own memory <= 4 and some packed.

    B may carry a constant.  The cap keeps the dense reference at composite
    order <= 6; with no cap the orders multiply to at most 6.
    """
    rng = np.random.default_rng(draw(SEEDS))

    def series(constant):
        kernels = {0: constant_kernel(complex(*rng.standard_normal(2)))} if constant else {}
        for j in sorted(draw(st.sets(st.integers(1, 3), min_size=1))):
            kernel = random_kernel(j, draw(st.integers(1, 4)), rng)
            kernels[j] = symmetrize_plain(kernel) if draw(st.booleans()) else kernel
        return VolterraSeries(kernels)

    A, B = series(False), series(draw(st.booleans()))
    top = A.max_order * B.max_order
    caps = st.integers(0, 6) if top > 6 else st.one_of(st.none(), st.integers(0, top))
    return B, A, draw(caps)


@SETTINGS
@given(capped_pairs())
def test_compose_series_matches_the_dense_assembly(case):
    B, A, max_order = case
    want, dropped = dense_composition(B, A, max_order)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        got = compose_series(B, A, max_order=max_order)
    assert [w.message.dropped_orders for w in rec if w.category is TruncationWarning] == ([tuple(dropped)] if dropped else [])
    assert got.orders() == tuple(sorted(want))
    for j, data in want.items():
        assert rel_err(got.kernel_of_order(j).data, data) <= 1e-12


def dense_product(A, B, max_order):
    """(kernels, dropped orders) of A times B assembled dense on {0..M-1}^j, then symmetrized.

    The same order pairs as ``product_series``; each term is the outer
    product of both factors zero-padded to M = max(M_A, M_B).
    """
    Ac, Bc = A.canonical(), B.canonical()
    M = max(Ac.memory, Bc.memory)
    sums = {}
    for k1, a in Ac.kernels.items():
        for k2, b in Bc.kernels.items():
            data = np.multiply.outer(zero_pad(a, M).data, zero_pad(b, M).data)
            sums[k1 + k2] = sums[k1 + k2] + data if k1 + k2 in sums else data
    dropped = sorted(j for j in sums if max_order is not None and j > max_order)
    kernels = {
        j: data if j == 0 else symmetrize_plain(VolterraKernel(j, M, data)).data
        for j, data in sums.items()
        if j not in dropped
    }
    return kernels, dropped


@st.composite
def product_pairs(draw):
    """(A, B, max_order): orders <= 3 with some missing, each with its own memory <= 4.

    Either factor may hold dense and packed kernels, and a constant or none;
    the cap is none or 0..6.
    """
    rng = np.random.default_rng(draw(SEEDS))

    def series():
        kernels = {0: constant_kernel(complex(*rng.standard_normal(2)))} if draw(st.booleans()) else {}
        for j in sorted(draw(st.sets(st.integers(1, 3)))):
            kernel = random_kernel(j, draw(st.integers(1, 4)), rng)
            kernels[j] = symmetrize_plain(kernel) if draw(st.booleans()) else kernel
        return VolterraSeries(kernels)

    return series(), series(), draw(st.one_of(st.none(), st.integers(0, 6)))


@SETTINGS
@given(product_pairs())
def test_product_series_matches_the_dense_outer_products(case):
    A, B, max_order = case
    want, dropped = dense_product(A, B, max_order)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        got = product_series(A, B, max_order=max_order)
    assert [w.message.dropped_orders for w in rec if w.category is TruncationWarning] == ([tuple(dropped)] if dropped else [])
    assert got.orders() == tuple(sorted(want))
    for j, data in want.items():
        assert rel_err(got.kernel_of_order(j).data, data) <= 1e-12


def slice_sum_reference(series, s_hat, weights=None):
    """The dense projection-slice sum over {0..L-1}^j, with the weight tensor as its own factor."""
    L = s_hat.size
    out = np.zeros(L, dtype=np.complex128)
    for kernel in series.kernels.values():
        j = kernel.order
        if j == 0:
            out[0] += complex(kernel.data) * L
            continue
        omega = np.indices((L,) * j).reshape(j, -1)
        terms = vfrf(kernel, L).ravel() * np.prod(s_hat[omega], axis=0)
        if weights is not None:
            terms = terms * np.prod(weights[omega], axis=0)
        np.add.at(out, omega.sum(axis=0) % L, terms / L ** (j - 1))  # slice sum(Omega) = w mod L
    return out


@st.composite
def freq_cases(draw):
    """(series, L, rng) with max order <= 3 and memory M <= L <= 12, often M == L."""
    j = draw(st.integers(min_value=1, max_value=3))
    L = draw(st.integers(min_value=1, max_value=12))
    M = L if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=L))
    rng = np.random.default_rng(draw(SEEDS))
    constant = complex(*rng.standard_normal(2)) if draw(st.booleans()) else None
    return random_series(j, M, rng, constant=constant), L, rng


@SETTINGS
@given(freq_cases(), st.booleans())
def test_eval_freq_matches_slice_sum(case, weighted):
    series, L, rng = case
    s_hat = random_signal(L, rng)
    weights = random_signal(L, rng) if weighted else None
    want = slice_sum_reference(series, s_hat, weights)
    if weighted:
        assert rel_err(apply_action(series, Multiplier(weights), s_hat), want) <= 1e-12
    else:
        assert rel_err(eval_freq(series, s_hat), want) <= 1e-12


@SETTINGS
@given(
    st.sampled_from(CATALOG_KINDS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=4, max_value=12),
    SEEDS,
    st.integers(min_value=0, max_value=2),
)
def test_check_naturality_is_loop_of_apply_component_pairs(kind, j, M, L, seed, param):
    rng = np.random.default_rng(seed)
    V = random_series(j, M, rng)
    params = {"translation": param, "sampling": param + 1, "smoothing": 0.7}.get(kind)
    W, m = catalog(kind, V, L, params=params)
    trials = 3
    want = naturality_loop(m, V, W, trials, seed, L)
    assert abs(check_naturality(m, V, W, trials=trials, rng=seed) - want) <= 1e-12


@SETTINGS
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.data(),
)
def test_check_naturality_passes_exactly_when_column_sums_are_one(j, k, L, lawful, data):
    """The translation square closes iff 1^T matrix = 1^T mod L: the lens law."""
    entries = st.lists(st.integers(-3, 3), min_size=k * j, max_size=k * j)
    matrix = np.array(data.draw(entries), dtype=np.int64).reshape(k, j)
    if lawful:  # make the column sums 1 mod L through the last row
        matrix[-1] += 1 - matrix.sum(axis=0) + L * data.draw(st.integers(-1, 1))
    rng = np.random.default_rng(data.draw(SEEDS))
    V = VolterraSeries({"v": random_kernel(j, data.draw(st.integers(1, min(L, 3))), rng)})
    W = VolterraSeries({"w": random_kernel(k, data.draw(st.integers(1, min(L, 3))), rng)})
    m = Morphism({"v": "w"}, {"v": matrix}, {"v": np.ones((L,) * j, dtype=np.complex128)})
    residual = check_naturality(m, V, W, trials=5, rng=rng)
    natural = bool(np.all((matrix.sum(axis=0) - 1) % L == 0))
    if natural:
        assert residual == 0.0
    else:
        assert residual > 1e-6
    assert validate_morphism(m, V, W).ok == natural


@SETTINGS
@given(st.integers(min_value=2, max_value=6), st.data())
def test_eval_freq_and_apply_action_reject_bad_grids(M, data):
    L = data.draw(st.integers(min_value=1, max_value=M - 1))
    rng = np.random.default_rng(data.draw(SEEDS))
    series = random_series(data.draw(st.integers(1, 3)), M, rng)
    s_hat = random_signal(L, rng)
    with pytest.raises(GridError):
        eval_freq(series, s_hat)
    with pytest.raises(GridError):
        apply_action(series, Multiplier(random_signal(L, rng)), s_hat)
    short = random_signal(M, rng)  # fits the kernel memory, not the spectrum
    with pytest.raises(ContractViolation, match="weight vector length"):
        apply_action(random_series(1, 1, rng), Multiplier(short), s_hat)
    with pytest.raises(ContractViolation, match="weight vector length"):
        apply_action(random_series(1, 1, rng), Multiplier(s_hat), short)
