import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs, rel_err
from volterra.errors import ContractViolation, DomainError, GridError, ResourceError
from volterra.tfd import (
    LambdaReport,
    LambdaSet,
    ParameterFunction,
    PolynomialPhase,
    TFDGrid,
    ambiguity,
    analytic_signal,
    check_lambda_constraints,
    chirp,
    cohen,
    cohen_volterra_kernel,
    eval_double_bilinear,
    howvd,
    if_concentration,
    interference_term_count,
    pwvd,
    pwvd_lambdas,
    pwvd_volterra_kernel,
    rihaczek_parameter,
    spectrogram_parameter,
    stft,
    unit_parameter,
    wvd,
)

L = 128
T_AXIS = np.arange(L)


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def gaussian_window(length, sigma):
    t = np.arange(length)
    return np.roll(np.exp(-0.5 * ((t - length / 2) / sigma) ** 2), -length // 2)


def two_tone(length, k1=18, k2=30, a2=0.6):
    t = np.arange(length)
    return np.exp(2j * np.pi * k1 * t / length) + a2 * np.exp(2j * np.pi * k2 * t / length + 0.4j)


# ---------------------------------------------------------------- analytic


def test_analytic_cosine_becomes_exponential():
    k0 = 10
    x = analytic_signal(np.cos(2 * np.pi * k0 * T_AXIS / L))
    assert max_abs(x - np.exp(2j * np.pi * k0 * T_AXIS / L)) < 1e-10


def test_analytic_real_part_recovery(rng):
    s = rng.standard_normal(L)
    assert max_abs(analytic_signal(s).real - s) <= 1e-10


def test_analytic_constant_unchanged():
    assert max_abs(analytic_signal(np.full(L, 2.0)) - 2.0) < 1e-12


def test_analytic_needs_even_length():
    with pytest.raises(GridError):
        analytic_signal(np.zeros(9))


# ---------------------------------------------------------------- chirp


def test_chirp_constant_phase_is_dc():
    x = chirp(PolynomialPhase((0.7,)), L)
    assert max_abs(x - np.exp(0.7j)) < 1e-12


def test_chirp_linear_phase_is_tone():
    k0 = 7
    ph = PolynomialPhase((0.0, 2 * np.pi * k0 / L))
    x = chirp(ph, L)
    assert max_abs(x - np.exp(2j * np.pi * k0 * T_AXIS / L)) < 1e-10
    assert abs(ph.instantaneous_frequency(5.0) - k0 / L) < 1e-14


def test_chirp_quadratic_instantaneous_frequency():
    alpha, beta = 3e-4, 0.2
    ph = PolynomialPhase((0.0, beta, alpha))
    t = 17.0
    assert abs(ph.instantaneous_frequency(t) - (2 * alpha * t + beta) / (2 * np.pi)) < 1e-14


def horner(coefficients, t):
    out = np.zeros_like(t)
    for a in reversed(coefficients):
        out = out * t + a
    return out


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(settings.get_profile("volterra"), max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_polynomial_phase_is_bit_identical_to_horner(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        coefficients = tuple(rng.standard_normal(rng.integers(1, 7)) * 10.0 ** rng.integers(-6, 3))
        t = rng.standard_normal(rng.integers(0, 20)) * 10.0 ** rng.integers(0, 4)
        ph = PolynomialPhase(coefficients)
        slopes = tuple(p * a for p, a in enumerate(coefficients))[1:]
        assert np.array_equal(bits(ph.phase(t)), bits(horner(coefficients, t)))
        assert np.array_equal(bits(ph.derivative(t)), bits(horner(slopes, t)))
    # a constant phase has derivative +0.0 everywhere, also at negative t
    assert np.array_equal(bits(PolynomialPhase((-2.0,)).derivative(-T_AXIS)), bits(np.zeros(L)))


def test_importing_volterra_leaves_numpy_polynomial_unloaded():
    # PolynomialPhase reaches np.polynomial on first use: every process pays none of its import
    code = "import sys, volterra; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


# ---------------------------------------------------------------- wvd


def test_wvd_tone_rows_peak_at_bin():
    k0 = 20
    x = np.exp(2j * np.pi * k0 * T_AXIS / L)
    W = quiet(wvd, x)
    assert np.all(np.argmax(np.abs(W.values), axis=1) == k0)


def test_wvd_matches_direct_lag_sum_on_tone():
    k0, n = 9, 37
    x = np.exp(2j * np.pi * k0 * T_AXIS / L)
    W = quiet(wvd, x)
    ms = np.arange(-(L // 4), L // 4 + 1)
    for k in (k0, k0 + 3):
        direct = sum(
            x[(n + m) % L] * np.conj(x[(n - m) % L]) * np.exp(-2j * np.pi * (2 * m) * k / L)
            for m in ms
        )
        assert abs(W.values[n, k] - direct) < 1e-9


def test_wvd_linear_chirp_tracks_instantaneous_frequency():
    alpha = (0.20 - 0.05) * np.pi / (L - 1)
    ph = PolynomialPhase((0.0, 2 * np.pi * 0.05, alpha))
    x = chirp(ph, L)
    W = quiet(wvd, x, boundary="finite")
    vals = np.abs(W.values)
    edge = int(round(0.1 * L))
    for n in range(edge, L - edge):
        target = round(float(ph.instantaneous_frequency(n)) * L)
        assert abs(int(np.argmax(vals[n])) - target) <= 1


def test_wvd_two_tone_cross_term_midway():
    k1, k2 = 12, 28
    x = np.exp(2j * np.pi * k1 * T_AXIS / L) + np.exp(2j * np.pi * k2 * T_AXIS / L)
    W = quiet(wvd, x)
    mid = (k1 + k2) // 2
    col = W.values.real[:, mid]
    assert max_abs(col) > 10  # a real cross ridge exists midway
    # and it oscillates along time with zero mean
    assert abs(np.mean(col)) < 0.05 * max_abs(col)


def test_wvd_realness(rng):
    x = analytic_signal(rng.standard_normal(L))
    W = quiet(wvd, x)
    assert max_abs(W.values.imag) <= 1e-9 * max_abs(W.values)


def test_wvd_marginal_identity(rng):
    x = analytic_signal(rng.standard_normal(L))
    W = quiet(wvd, x)
    marginal = W.values.real.sum(axis=1) / (L // 2)
    assert rel_err(marginal, np.abs(x) ** 2) <= 0.02


def test_wvd_gaussian_tone_nonnegative():
    env = np.exp(-0.5 * ((T_AXIS - L / 2) / (L / 16)) ** 2)
    x = env * np.exp(2j * np.pi * 30 * T_AXIS / L)
    W = quiet(wvd, x)
    floor = W.values.real.min()
    assert floor >= -1e-6 * max_abs(W.values)


def test_wvd_warns_on_non_analytic(rng):
    with pytest.warns(UserWarning, match="not analytic"):
        wvd(rng.standard_normal(L))


# ---------------------------------------------------------------- ambiguity


def test_ambiguity_impulse_concentrated_at_origin():
    h = np.zeros(L)
    h[0] = 1.0
    A = ambiguity(h)
    zero_lag = int(np.where(A.lags == 0)[0][0])
    assert abs(A.values[0, zero_lag] - 1.0) < 1e-12
    total = np.abs(A.values).sum()
    assert abs(A.values[:, zero_lag]).sum() / total > 0.99


def test_ambiguity_origin_is_window_energy():
    h = gaussian_window(L, 9.0)
    A = ambiguity(h)
    assert abs(A.origin_value - np.sum(np.abs(h) ** 2)) < 1e-10


def test_ambiguity_gaussian_shape():
    h = gaussian_window(L, 9.0)
    A = np.abs(ambiguity(h).values)
    shifted = np.fft.fftshift(A, axes=0)
    center = np.unravel_index(np.argmax(shifted), shifted.shape)
    assert center == (L // 2, L // 4)  # doppler 0, lag 0
    # magnitude decays monotonically along both axes near the peak
    row = shifted[center[0], center[1] : center[1] + 8]
    col = shifted[center[0] : center[0] + 8, center[1]]
    assert np.all(np.diff(row) < 0) and np.all(np.diff(col) < 0)


# ---------------------------------------------------------------- cohen


def test_cohen_unit_parameter_is_wvd(rng):
    x = two_tone(L)
    W = quiet(wvd, x)
    C = quiet(cohen, x, unit_parameter(L))
    assert rel_err(C.values, W.values) <= 1e-12


def test_cohen_rihaczek_product_formula():
    x = two_tone(L)
    C = quiet(cohen, x, rihaczek_parameter(L))
    X = np.fft.fft(x)
    n = T_AXIS[:, None]
    k = np.arange(L // 2)[None, :]
    want = x[:, None] * np.conj(X)[None, : L // 2] * np.exp(-2j * np.pi * k * n / L)
    assert rel_err(C.values, want) <= 1e-8


def test_cohen_spectrogram_matches_stft(rng):
    h = gaussian_window(L, 8.0)
    x = two_tone(L)
    C = quiet(cohen, x, spectrogram_parameter(h))
    S = stft(x, h)
    want = 0.5 * np.abs(S[:, : L // 2]) ** 2
    assert rel_err(C.values, want) <= 1e-6


def test_cohen_grid_mismatch(rng):
    with pytest.raises(ContractViolation):
        cohen(two_tone(L), unit_parameter(L // 2))


@pytest.mark.parametrize(
    "grid",
    [
        wvd,
        ambiguity,
        analytic_signal,
        lambda x: cohen(x, unit_parameter(x.size)),
        lambda x: howvd(x, 3),
        lambda x: pwvd(x, pwvd_lambdas(4)),
        lambda x: pwvd_volterra_kernel(4, pwvd_lambdas(4), 0).contract(x),
    ],
    ids=["wvd", "ambiguity", "analytic_signal", "cohen", "howvd", "pwvd", "contract"],
)
@pytest.mark.parametrize("length", [1, 7])
def test_half_lag_grids_need_even_length(grid, length):
    with pytest.raises(GridError, match="even-length grid"):
        grid(np.ones(length, dtype=complex))


def test_length_one_signals_where_well_defined():
    x = np.array([2.0 + 1.0j])
    assert np.array_equal(stft(x, np.ones(1)), [[2.0 + 1.0j]])
    h = cohen_volterra_kernel(unit_parameter(1), 0)
    assert np.array_equal(eval_double_bilinear(h, x, x), h.data[0, 0] * x * x)


# ------------------------------------------------- bilinear kernel route


def test_cohen_kernel_unit_is_antidiagonal():
    f_bin = 11
    K = cohen_volterra_kernel(unit_parameter(L), f_bin)
    mask = np.abs(K.data) > 1e-12 * max_abs(K.data)
    u, v = np.nonzero(mask)
    assert np.all((u + v) % L == 0)
    uu = 5
    assert abs(K.data[uu, (L - uu) % L] - np.exp(-4j * np.pi * f_bin * uu / L)) < 1e-12


@pytest.mark.parametrize("Lk", [30, 32])
def test_cohen_kernel_matches_per_lag_loop(Lk, rng):
    """Bit for bit against the per-half-lag loop; at L = 32 the +-L/4 lags share cells."""
    ms = unit_parameter(Lk).lags
    shape = (Lk, ms.size)
    phi = ParameterFunction(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), ms)
    f_bin = 5
    pi_cm = np.fft.ifft(phi.values, axis=0)
    want = np.zeros((Lk, Lk), dtype=np.complex128)
    c = np.arange(Lk)
    for i, m in enumerate(ms):
        want[(c + m) % Lk, (c - m) % Lk] += pi_cm[:, i] * np.exp(-2j * np.pi * f_bin * (2 * m) / Lk)
    assert np.array_equal(cohen_volterra_kernel(phi, f_bin).data, want)


def test_cohen_kernel_zero_frequency_indicator():
    K = cohen_volterra_kernel(unit_parameter(L), 0)
    mask = np.abs(K.data) > 1e-12 * max_abs(K.data)
    u, v = np.nonzero(mask)
    assert np.all((u + v) % L == 0)
    assert max_abs(K.data[u, v] - 1.0) < 1e-12


@pytest.mark.parametrize("make_phi", [unit_parameter, rihaczek_parameter])
def test_cohen_kernel_row_agreement(make_phi):
    phi = make_phi(L)
    x = two_tone(L)
    f_bin = 18
    K = cohen_volterra_kernel(phi, f_bin)
    got = eval_double_bilinear(K, np.conj(x), x)
    want = quiet(cohen, x, phi).values[:, f_bin]
    assert rel_err(got, want) <= 1e-7


def test_cohen_kernel_row_agreement_spectrogram():
    phi = spectrogram_parameter(gaussian_window(L, 8.0))
    x = two_tone(L)
    f_bin = 18
    K = cohen_volterra_kernel(phi, f_bin)
    got = eval_double_bilinear(K, np.conj(x), x)
    want = quiet(cohen, x, phi).values[:, f_bin]
    assert rel_err(got, want) <= 1e-7


# ---------------------------------------------------------------- howvd


def test_howvd_order2_equals_wvd():
    x = two_tone(L)
    W = quiet(wvd, x)
    H = quiet(howvd, x, 2)
    assert max_abs(H.values - W.values) <= 1e-8


def test_howvd_tone_ridge_order3():
    Ls = 64
    k0 = 9
    tone = np.exp(2j * np.pi * k0 * np.arange(Ls) / Ls)
    H = quiet(howvd, tone, 3)
    mid = np.abs(H.values[Ls // 2])
    assert np.unravel_index(np.argmax(mid), mid.shape) == (k0, k0)


def test_howvd_zero_signal():
    H = quiet(howvd, np.zeros(32, dtype=complex), 3)
    assert max_abs(H.values) == 0.0


def test_howvd_budget_guard():
    with pytest.raises(ResourceError):
        quiet(howvd, two_tone(L), 4, memory_budget=1000)


# ---------------------------------------------------------------- lambdas


def test_pwvd_lambdas_k4_canonical():
    ls = pwvd_lambdas(4)
    assert ls.lambdas == (0.25, 0.25)
    assert abs(sum(ls.lambdas) - 0.5) < 1e-15


@pytest.mark.parametrize("lambda3", [0.55, 0.62, 0.75])
def test_pwvd_lambdas_k6_constraints(lambda3):
    ls = pwvd_lambdas(6, lambda3)
    assert ls.lambdas[0] > ls.lambdas[1] and ls.lambdas[2] == lambda3  # the larger root first
    report = check_lambda_constraints(ls, 4)
    assert report.passed(1e-12)
    assert abs(report.one_sided_odd_sums[3]) <= 1e-12  # the binding cubic condition


def test_pwvd_lambdas_k6_below_bound():
    with pytest.raises(DomainError):
        pwvd_lambdas(6, 0.4)


def test_lambda_constraint_report_k4():
    report = check_lambda_constraints(pwvd_lambdas(4), 3)
    assert report.half_sum_residual <= 1e-15
    assert report.paired_odd_residuals[3] <= 1e-15  # antisymmetric pairs cancel
    assert abs(report.one_sided_odd_sums[3] - 2 * 0.25**3) < 1e-15


def test_lambda_constraint_detects_perturbation():
    ls = LambdaSet(4, (0.26, 0.25))
    report = check_lambda_constraints(ls, 3)
    assert abs(report.half_sum_residual - 0.01) < 1e-12
    assert not report.passed(1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lambda_set_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        LambdaSet(4, (bad, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pwvd_lambdas_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        pwvd_lambdas(6, bad)


def test_lambda_report_nan_residual_fails():
    assert not LambdaReport(np.nan, {3: 0.0}, {}).passed()
    assert not LambdaReport(0.0, {3: 0.0, 5: np.nan}, {}).passed()
    assert LambdaReport(0.0, {3: 0.0}, {}).passed()


# ---------------------------------------------------------------- pwvd


def test_pwvd_order2_equals_wvd():
    x = two_tone(L)
    got = quiet(pwvd, x, LambdaSet(2, (0.5,)))
    want = quiet(wvd, x)
    assert max_abs(got.values - want.values) <= 1e-8


def test_pwvd_tone_flat_ridge():
    k0 = 20
    tone = np.exp(2j * np.pi * k0 * T_AXIS / L)
    P = quiet(pwvd, tone, pwvd_lambdas(6, 0.62))
    assert np.all(np.argmax(np.abs(P.values), axis=1) == k0)


def test_pwvd_cubic_chirp_beats_wvd():
    Lc = 256
    t = np.arange(Lc)
    f0, f1 = 0.05, 0.22
    ph = PolynomialPhase((0.0, 2 * np.pi * f0, 0.0, 2 * np.pi * (f1 - f0) / (3 * Lc**2)))
    taper = int(round(0.08 * Lc))
    env = np.ones(Lc)
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(taper) / taper))
    env[:taper] = ramp
    env[-taper:] = ramp[::-1]
    x = env * np.exp(1j * ph.phase(t))
    W = quiet(wvd, x, boundary="finite")
    P = quiet(pwvd, x, pwvd_lambdas(6, 0.62), max_half_lag=24)
    err_wvd = if_concentration(W, ph)
    err_pwvd = if_concentration(P, ph)
    assert err_pwvd <= 1.0
    assert err_wvd >= 3 * err_pwvd
    assert err_wvd > 0


def test_pwvd_time_frequency_shift_covariance():
    # shifting the input in time and frequency shifts the argmax track
    k0, d, xi = 18, 10, 6
    env = np.exp(-0.5 * ((T_AXIS - L / 2) / (L / 10)) ** 2)
    x = env * np.exp(2j * np.pi * k0 * T_AXIS / L)
    shifted = np.roll(x, d) * np.exp(2j * np.pi * xi * T_AXIS / L)
    ls = pwvd_lambdas(4)
    P0 = quiet(pwvd, x, ls)
    P1 = quiet(pwvd, shifted, ls)
    track0 = np.argmax(np.abs(P0.values), axis=1)
    track1 = np.argmax(np.abs(P1.values), axis=1)
    # compare on rows where the envelope is strong in both
    rows = np.arange(L // 2 - 20, L // 2 + 20)
    assert np.all(track1[(rows + d) % L] == (track0[rows] + xi) % (L // 2))


def test_pwvd_smoothing_hook_passthrough():
    x = two_tone(L)
    ls = pwvd_lambdas(4)
    plain = quiet(pwvd, x, ls)
    hooked = quiet(pwvd, x, ls, smoothing=lambda R: R)
    assert np.array_equal(plain.values, hooked.values)


# ------------------------------------------------- pwvd kernel descriptor


def test_descriptor_reduces_to_wvd_kernel_structure():
    x = two_tone(L)
    desc = pwvd_volterra_kernel(2, LambdaSet(2, (0.5,)), 21)
    got = desc.contract(x)
    want = quiet(wvd, x).values[:, 21]
    assert rel_err(got, want) <= 1e-7


def test_descriptor_k4_contraction_matches_rows():
    x = two_tone(L)
    ls = pwvd_lambdas(4)
    P = quiet(pwvd, x, ls)
    for f_bin in (10, 18):
        desc = pwvd_volterra_kernel(4, ls, f_bin)
        assert rel_err(desc.contract(x), P.values[:, f_bin]) <= 1e-7


def test_descriptor_empty_slice_when_half_sum_violated():
    x = two_tone(L)
    desc = pwvd_volterra_kernel(4, LambdaSet(4, (0.3, 0.3)), 10)
    assert max_abs(desc.contract(x)) == 0.0


def test_descriptor_constraint_residuals():
    ls = pwvd_lambdas(6, 0.62)
    desc = pwvd_volterra_kernel(6, ls, 0)
    on = desc.constraint_residuals(desc.support_point(6.0))
    assert on["anti_pairing"] <= 1e-12 and on["ray"] <= 1e-12
    assert all(v <= 1e-9 for v in on["odd_moments"].values())
    off = desc.constraint_residuals(np.array([1, 0, 0, -1, 0, 0.5]))
    assert off["anti_pairing"] > 0.1


# ---------------------------------------------------------------- metrics


def test_if_concentration_delta_ridge():
    ph = PolynomialPhase((0.0, 2 * np.pi * 0.1))
    grid = np.zeros((L, L // 2))
    target = round(0.1 * L)
    grid[:, target] = 1.0
    assert if_concentration(TFDGrid(grid, 1.0 / L), ph) == 0.0


def test_if_concentration_random_grid_large_error(rng):
    # iid noise grid: argmax uniform, mean error about F/4 for a mid-band law
    ph = PolynomialPhase((0.0, 2 * np.pi * 0.25))  # law at bin F/2 of F = L/2
    grid = TFDGrid(rng.random((L, L // 2)), 1.0 / L)
    err = if_concentration(grid, ph)
    F = L // 2
    assert F / 6 < err < F / 2.5


def test_if_concentration_wvd_linear_chirp_within_one_bin():
    alpha = (0.18 - 0.06) * np.pi / (L - 1)
    ph = PolynomialPhase((0.0, 2 * np.pi * 0.06, alpha))
    x = chirp(ph, L)
    W = quiet(wvd, x, boundary="finite")
    assert if_concentration(W, ph) <= 1.0


def if_concentration_loop(grid, phase):
    """One argmax and one rounded phase-law bin per kept row."""
    values = np.abs(grid.values)
    T = values.shape[0]
    edge = int(round(0.1 * T))
    errs = []
    for t in range(edge, T - edge):
        peak = int(np.argmax(values[t]))
        target = int(round(float(phase.instantaneous_frequency(t)) / grid.freq_scale))
        errs.append(abs(peak - target))
    return float(np.mean(errs))


@pytest.mark.parametrize("T", [128, 64, 30, 9])
def test_if_concentration_equals_the_row_loop(T, rng):
    # the law sits at bin 2 + t / 4, exactly on a half-bin at every t = 2 (mod 4),
    # where both sides must round half to even
    ph = PolynomialPhase((0.0, 2 * np.pi * 2 / 32, 2 * np.pi / 256))
    assert np.any(ph.instantaneous_frequency(np.arange(T)) * 32 % 1 == 0.5)
    for values in (
        rng.random((T, 40)),
        rng.standard_normal((T, 40)) + 1j * rng.standard_normal((T, 40)),
        np.ones((T, 40)),  # ties: argmax takes the first bin either way
    ):
        grid = TFDGrid(values, 1.0 / 32)
        assert if_concentration(grid, ph) == if_concentration_loop(grid, ph)
    ridge = np.zeros((T, 40))
    ridge[np.arange(T), np.rint(2 + np.arange(T) / 4).astype(int)] = 1.0
    delta = TFDGrid(ridge, 1.0 / 32)
    assert if_concentration(delta, ph) == if_concentration_loop(delta, ph)


def test_if_concentration_needs_rows_past_the_edges():
    with pytest.raises(ContractViolation, match="10 percent"):
        if_concentration(TFDGrid(np.ones((0, 4)), 0.25), PolynomialPhase((0.0,)))


def test_interference_term_count():
    for k in range(2, 9):
        assert interference_term_count(k) == 2**k - 2


# ------------------------------- grids vs their definitions, L = 0 and 2 mod 4

DEF_LENGTHS = [64, 62]


def trig_interp(x, points):
    """x at real positions by direct trigonometric interpolation (signed frequencies)."""
    n = x.size
    freqs = np.fft.fftfreq(n) * n
    points = np.asarray(points, dtype=float)
    basis = np.exp(2j * np.pi * np.multiply.outer(points, freqs) / n)
    return basis @ np.fft.fft(x) / n


def lag_dft(n):
    """E[i, k] = exp(-2i pi (2 m_i) k / n) over half-lags |m_i| <= n/4, k < n/2."""
    ms = np.arange(-(n // 4), n // 4 + 1)
    return np.exp(-2j * np.pi * np.outer(2 * ms, np.arange(n // 2)) / n)


def direct_lag_products(x, boundary="circular"):
    n = x.size
    R = np.zeros((n, 2 * (n // 4) + 1), dtype=complex)
    for t in range(n):
        for i, m in enumerate(range(-(n // 4), n // 4 + 1)):
            a, b = t + m, t - m
            if boundary == "finite" and not (0 <= a < n and 0 <= b < n):
                continue
            R[t, i] = x[a % n] * np.conj(x[b % n])
    return R


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
@pytest.mark.parametrize("boundary", ["circular", "finite"])
def test_wvd_matches_definition(Ld, boundary, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    want = direct_lag_products(x, boundary) @ lag_dft(Ld)
    assert rel_err(quiet(wvd, x, boundary=boundary).values, want) <= 1e-9


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
def test_ambiguity_matches_definition(Ld, rng):
    # the m < 0 columns come from A(xi, -m) = conj A(-xi, m), not from a transform
    h = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    F = np.exp(-2j * np.pi * np.outer(np.arange(Ld), np.arange(Ld)) / Ld)
    assert rel_err(ambiguity(h).values, F @ direct_lag_products(h)) <= 1e-9


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
def test_cohen_matches_definition(Ld, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    phi = ParameterFunction(
        rng.standard_normal((Ld, ms.size)) + 1j * rng.standard_normal((Ld, ms.size)), ms
    )
    F = np.exp(-2j * np.pi * np.outer(np.arange(Ld), np.arange(Ld)) / Ld)
    A = F @ direct_lag_products(x)  # A[xi, m] = sum_n R[n, m] exp(-2i pi xi n / L)
    smoothed = np.conj(F) @ (phi.values * A) / Ld
    assert rel_err(quiet(cohen, x, phi).values, smoothed @ lag_dft(Ld)) <= 1e-9


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
def test_stft_rows_match_direct_dft(Ld, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    w = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    t = np.arange(Ld)
    F = np.exp(-2j * np.pi * np.outer(t, t) / Ld)
    want = np.array([F @ (x * np.conj(w[(t - n) % Ld])) for n in range(Ld)])
    assert rel_err(stft(x, w), want) <= 1e-9


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
@pytest.mark.parametrize(
    "ls, max_half_lag",
    [
        (pwvd_lambdas(4), None),
        (pwvd_lambdas(6, 0.62), None),
        (pwvd_lambdas(6, 0.7), 9),
        # 2 lambda_3 = 5/4: half-lag m + 4 reads the delays of m shifted by 5 samples
        (pwvd_lambdas(6, 0.625), None),
        # the k = 4 delays repeat every 2 half-lags, beyond a radius of 1
        (pwvd_lambdas(4), 1),
    ],
    ids=["k4", "k6", "k6-short", "k6-period4", "k4-below-period"],
)
def test_pwvd_matches_definition(Ld, ls, max_half_lag, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    radius = Ld // 4 if max_half_lag is None else max_half_lag
    got = quiet(pwvd, x, ls, max_half_lag=max_half_lag).values
    assert rel_err(got, direct_pwvd_products(x, ls, radius) @ lag_dft(Ld)) <= 1e-9


def direct_pwvd_products(x, ls, radius):
    n = x.size
    ms = np.arange(-(n // 4), n // 4 + 1)
    times = np.arange(n)[:, None]
    R = np.ones((n, ms.size), dtype=complex)
    for lam in ls.lambdas:
        R *= trig_interp(x, times + lam * 2 * ms) * np.conj(trig_interp(x, times - lam * 2 * ms))
    R[:, np.abs(ms) > radius] = 0.0
    return R


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
def test_pwvd_non_hermitian_hook_matches_definition(Ld, rng):
    # lag weights that differ between m and -m break R(-m) = conj R(m)
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    ls = pwvd_lambdas(4)
    weights = 1.0 + np.arange(-(Ld // 4), Ld // 4 + 1) / Ld
    got = quiet(pwvd, x, ls, smoothing=lambda R: R * weights).values
    want = (direct_pwvd_products(x, ls, Ld // 4) * weights) @ lag_dft(Ld)
    assert rel_err(got, want) <= 1e-9


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
@pytest.mark.parametrize(
    "grid",
    [
        wvd,
        lambda x: wvd(x, boundary="finite"),
        lambda x: pwvd(x, pwvd_lambdas(4)),
        lambda x: pwvd(x, pwvd_lambdas(6, 0.62), max_half_lag=7),
        lambda x: pwvd(x, pwvd_lambdas(4), smoothing=lambda R: 0.5 * R),
        lambda x: cohen(x, unit_parameter(x.size)),
        lambda x: cohen(x, spectrogram_parameter(gaussian_window(x.size, 6.0))),
    ],
    ids=[
        "wvd", "wvd-finite", "pwvd4", "pwvd6-short", "pwvd4-hook", "cohen-unit", "cohen-spectrogram"
    ],
)
def test_wigner_grids_are_exactly_real(Ld, grid, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    assert quiet(grid, x).values.dtype == np.float64


@pytest.mark.parametrize("Ld", [32, 30])
def test_howvd_order3_row_matches_definition(Ld, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    n, k = 7, 3
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    m1, m2 = np.meshgrid(ms, ms, indexing="ij")
    alpha = 2.0 * (m1 + m2) / k
    # conj(x(n - alpha)) x(n + 2 m_1 - alpha) conj(x(n + 2 m_2 - alpha))
    prod = (
        np.conj(trig_interp(x, n - alpha))
        * trig_interp(x, n + 2 * m1 - alpha)
        * np.conj(trig_interp(x, n + 2 * m2 - alpha))
    )
    g = np.arange(Ld // 2)
    sigma = -1
    E1 = np.exp(-2j * np.pi * (1 - sigma / k) * np.outer(2 * ms, g) / Ld)
    E2 = np.exp(-2j * np.pi * (-1 - sigma / k) * np.outer(2 * ms, g) / Ld)
    want = E1.T @ prod @ E2
    assert rel_err(quiet(howvd, x, 3).values[n], want) <= 1e-9


# ------------------------------------------- real Cohen grids on half-lags


def reflected(values):
    """phi(-xi, -m) on the (doppler bin, signed half-lag) grid of phi."""
    return values[-np.arange(values.shape[0]) % values.shape[0], ::-1]


def signed_lag_cohen(x, phi):
    """Cohen's class through the signed lag axis and one complex FFT per row.

    The smoothed products over half-lags -M0..M0 fold mod L/2: 0..M0 onto
    bins 0..M0 and -M0..-1 onto bins L/2-M0..L/2-1, so the endpoints +-L/4
    share bin L/4 only when L = 0 (mod 4).
    """
    n = x.size
    half, M0 = n // 2, n // 4
    smoothed = np.fft.ifft(ambiguity(x).values * phi.values, axis=0)
    folded = np.zeros((n, half), dtype=complex)
    folded[:, : M0 + 1] = smoothed[:, M0:]
    folded[:, M0 + 1 :] = smoothed[:, 2 * M0 + 1 - half : M0]
    if half % 2 == 0:
        folded[:, M0] += smoothed[:, 0]
    return np.fft.fft(folded, axis=1)


def hermitian_part(psi):
    """(psi + conj psi(-xi, -m)) / 2: exactly Hermitian, as IEEE addition commutes."""
    return (psi + np.conj(reflected(psi))) / 2


def odd_part(psi):
    """(psi - conj psi(-xi, -m)) / 2i: exactly Hermitian, as a - b = -(b - a)."""
    return (psi - np.conj(reflected(psi))) * -0.5j


@pytest.mark.parametrize("Ld", [62, 64, 1024])
def test_ambiguity_is_exactly_hermitian(Ld, rng):
    for h in (rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld), gaussian_window(Ld, Ld / 16)):
        for phi in (ambiguity(h), spectrogram_parameter(h)):
            assert np.array_equal(reflected(phi.values), np.conj(phi.values))


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
@pytest.mark.parametrize("member", ["unit", "rihaczek", "spectrogram", "random"])
def test_cohen_matches_the_signed_lag_transform(Ld, member, rng):
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    h = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    phi = {
        "unit": lambda: unit_parameter(Ld),
        "rihaczek": lambda: rihaczek_parameter(Ld),
        "spectrogram": lambda: spectrogram_parameter(h),
        "random": lambda: ParameterFunction(
            rng.standard_normal((Ld, ms.size)) + 1j * rng.standard_normal((Ld, ms.size)), ms
        ),
    }[member]()
    got = quiet(cohen, x, phi).values
    assert got.dtype == (np.float64 if member in ("unit", "spectrogram") else np.complex128)
    assert rel_err(got, signed_lag_cohen(x, phi)) <= 1e-12


@settings(settings.get_profile("volterra"), max_examples=50)
@given(half=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_cohen_hermitian_parameter_is_real_and_matches(half, seed):
    Ld = 2 * half
    rng = np.random.default_rng(seed)
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    psi = rng.standard_normal((Ld, ms.size)) + 1j * rng.standard_normal((Ld, ms.size))
    phi = ParameterFunction(hermitian_part(psi), ms)
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    got = quiet(cohen, x, phi).values
    assert got.dtype == np.float64
    assert rel_err(got, signed_lag_cohen(x, phi)) <= 1e-12


@settings(settings.get_profile("volterra"), max_examples=50)
@given(half=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_cohen_is_its_even_part_plus_i_its_odd_part(half, seed):
    Ld = 2 * half
    rng = np.random.default_rng(seed)
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    psi = rng.standard_normal((Ld, ms.size)) + 1j * rng.standard_normal((Ld, ms.size))
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    got = quiet(cohen, x, ParameterFunction(psi, ms)).values
    assert got.dtype == np.complex128
    assert rel_err(got, signed_lag_cohen(x, ParameterFunction(psi, ms))) <= 1e-12
    even = quiet(cohen, x, ParameterFunction(hermitian_part(psi), ms)).values
    odd = quiet(cohen, x, ParameterFunction(odd_part(psi), ms)).values
    assert even.dtype == odd.dtype == np.float64
    assert rel_err(got.real, even) <= 1e-12
    assert rel_err(got.imag, odd) <= 1e-12


@pytest.mark.parametrize("Ld", [62, 64, 1024])
def test_rihaczek_parameter_matches_its_closed_form(Ld):
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    w = np.where((np.abs(ms) == Ld // 4) & (Ld % 4 == 0), 0.5, 1.0)
    want = 2.0 * w * np.exp(-2j * np.pi * np.arange(Ld)[:, None] * ms / Ld)
    phi = rihaczek_parameter(Ld)
    assert np.array_equal(phi.lags, ms)
    assert rel_err(phi.values, want) <= 1e-12


@pytest.mark.parametrize("Ld", DEF_LENGTHS)
def test_cohen_one_ulp_off_hermitian_takes_the_complex_path(Ld, rng):
    ms = np.arange(-(Ld // 4), Ld // 4 + 1)
    psi = rng.standard_normal((Ld, ms.size)) + 1j * rng.standard_normal((Ld, ms.size))
    values = hermitian_part(psi)
    values[3, -2] = np.nextafter(values[3, -2].real, np.inf) + 1j * values[3, -2].imag
    phi = ParameterFunction(values, ms)
    x = rng.standard_normal(Ld) + 1j * rng.standard_normal(Ld)
    got = quiet(cohen, x, phi).values
    assert got.dtype == np.complex128
    assert rel_err(got, signed_lag_cohen(x, phi)) <= 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        lambda x: cohen(x, rihaczek_parameter(x.size)),
        lambda x: pwvd(x, pwvd_lambdas(4), smoothing=lambda R: R * np.arange(R.shape[1])),
        lambda x: howvd(x, 3),
    ],
    ids=["cohen-rihaczek", "pwvd4-non-hermitian-hook", "howvd"],
)
def test_complex_grids_stay_complex(grid):
    assert quiet(grid, two_tone(64, 9, 13)).values.dtype == np.complex128


def test_tfd_grid_keeps_real_arrays_real():
    assert TFDGrid(np.ones((4, 2), dtype=np.float32), 0.25).values.dtype == np.float64
    assert TFDGrid(np.ones((4, 2), dtype=int), 0.25).values.dtype == np.float64
    assert TFDGrid(np.ones((4, 2), dtype=np.complex64), 0.25).values.dtype == np.complex128


def traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grid_peak_memory_at_1024():
    Lm = 1024
    x = analytic_signal(np.cos(2 * np.pi * 0.09 * np.arange(Lm)))
    h = gaussian_window(Lm, 24.0)
    # one (L, L) output plus at most 5 %
    assert traced_peak_mib(stft, x, h) <= 16.3 * 1.05
    # the float64 (L, L/2) grid, the (half-lag, time) products padded to whole
    # delay periods and the two shift banks of one delay block, plus at most 5 %
    assert traced_peak_mib(quiet, pwvd, x, pwvd_lambdas(6, 0.62)) <= 11.24 * 1.05


def test_wigner_grid_peak_memory_at_1024():
    Lm = 1024
    x = analytic_signal(np.cos(2 * np.pi * 0.09 * np.arange(Lm)))
    # the (L, L/4 + 1) half-lag products and the float64 (L, L/2) grid, plus at most 5 %
    assert traced_peak_mib(quiet, wvd, x) <= 8.17 * 1.05
    assert traced_peak_mib(quiet, pwvd, x, pwvd_lambdas(4)) <= 8.62 * 1.05


def test_cohen_peak_memory_at_1024():
    Lm = 1024
    x = analytic_signal(np.cos(2 * np.pi * 0.09 * np.arange(Lm)))
    h = gaussian_window(Lm, 24.0)
    # the (L, L/4 + 1) half-lag products and the float64 (L, L/2) grid, plus at most 5 %
    for phi in (unit_parameter(Lm), spectrogram_parameter(h)):
        assert traced_peak_mib(cohen, x, phi) <= 8.17 * 1.05
    # the half-lag products, their odd part and the complex128 grid, plus at most 5 %
    ms = np.arange(-(Lm // 4), Lm // 4 + 1)
    psi = np.random.default_rng(7).standard_normal((Lm, 2 * ms.size)).view(np.complex128)
    for phi in (rihaczek_parameter(Lm), ParameterFunction(psi, ms)):
        assert traced_peak_mib(cohen, x, phi) <= 16.18 * 1.05


def test_cohen_kernel_needs_the_signed_half_lag_axis():
    with pytest.raises(ContractViolation, match="half-lag axis"):
        cohen_volterra_kernel(ParameterFunction(np.ones((8, 2)), [0, 1]), 0)


def test_parameter_function_origin_value_needs_a_zero_half_lag():
    assert ParameterFunction(np.full((8, 2), 3.0), [0, 1]).origin_value == 3.0
    with pytest.raises(ContractViolation, match="zero half-lag"):
        ParameterFunction(np.ones((8, 2)), [1, 2]).origin_value
