import numpy as np
import pytest

from conftest import max_abs, random_kernel, random_series, random_signal, rel_err
from volterra.actions import (
    Multiplier,
    act_modulation,
    act_periodization,
    act_sampling,
    act_translation,
    apply_action,
    compose_multipliers,
    induced_linear_kernel,
)
from volterra.errors import ConsistencyError, ContractViolation, GridError
from volterra.evaluation import (
    comb_signal,
    eval_freq,
    eval_time,
    response_comb,
    response_exponential,
)
from volterra.kernels import memoryless_polynomial_series, series_from_kernels


def test_identity_multiplier_preserved_exactly(rng):
    series = random_series(3, 3, rng, constant=0.5)
    s_hat = random_signal(10, rng)
    got = apply_action(series, Multiplier(np.ones(10)), s_hat)
    assert np.array_equal(got, eval_freq(series, s_hat))


def test_composite_action_pointwise(rng):
    series = random_series(3, 3, rng)
    s_hat = random_signal(12, rng)
    g = Multiplier(random_signal(12, rng))
    f = Multiplier(random_signal(12, rng))
    lhs = apply_action(series, compose_multipliers(g, f), s_hat)
    rhs = apply_action(series, g, f.weights * s_hat)
    assert max_abs(lhs - rhs) <= 1e-10


def test_linear_series_is_filtering(rng):
    K = random_kernel(1, 3, rng)
    series = series_from_kernels([K])
    s_hat = random_signal(8, rng)
    gamma = random_signal(8, rng)
    from volterra.kernels import vfrf

    got = apply_action(series, Multiplier(gamma), s_hat)
    assert max_abs(got - vfrf(K, 8) * gamma * s_hat) < 1e-12


def test_translation_zero_shift(rng):
    series = random_series(2, 3, rng)
    s = random_signal(10, rng)
    assert max_abs(act_translation(series, s, 0) - eval_time(series, s)) < 1e-14


def test_translation_delay_series_composes_shifts():
    from volterra.kernels import delay_series

    L = 8
    impulse = np.zeros(L)
    impulse[0] = 1.0
    out = act_translation(delay_series(1), impulse, 2)
    want = np.zeros(L)
    want[3] = 1.0
    assert max_abs(out - want) < 1e-14


def test_translation_commutation_random(rng):
    series = random_series(3, 3, rng, constant=0.3)
    s = random_signal(12, rng)
    for d in (1, 5, 11):
        act_translation(series, s, d)  # raises ConsistencyError on failure


def test_translation_reports_inconsistency(rng):
    # commutation holds to rounding, so force the guard with a negative bar
    series = random_series(2, 2, rng)
    s = random_signal(8, rng)
    with pytest.raises(ConsistencyError):
        act_translation(series, s, 3, tol=-1.0)


def test_modulation_matches_modulated_input(rng):
    series = random_series(3, 3, rng, constant=0.2)
    L, xi = 12, 4
    s = random_signal(L, rng)
    got = act_modulation(series, np.fft.fft(s), xi)
    modulated = np.exp(2j * np.pi * xi * np.arange(L) / L) * s
    assert max_abs(got - np.fft.fft(eval_time(series, modulated))) <= 1e-9


def test_modulation_zero_shift(rng):
    series = random_series(2, 3, rng)
    s_hat = random_signal(10, rng)
    assert max_abs(act_modulation(series, s_hat, 0) - eval_freq(series, s_hat)) < 1e-12


def test_modulation_constant_one_gives_exponential_response(rng):
    series = random_series(3, 3, rng)
    L, xi = 12, 5
    one_hat = np.fft.fft(np.ones(L))
    got = act_modulation(series, one_hat, xi)
    want = np.fft.fft(response_exponential(series, xi, L))
    assert max_abs(got - want) <= 1e-9


def test_periodization_identity_when_comb_is_impulse(rng):
    series = random_series(2, 3, rng)
    L = 12
    s_hat = np.fft.fft(random_signal(L, rng))
    got = act_periodization(series, s_hat, L)  # single impulse: no change
    assert rel_err(got, eval_freq(series, s_hat)) < 1e-12


def test_periodization_linear_series(rng):
    K = random_kernel(1, 3, rng)
    series = series_from_kernels([K])
    L, T = 12, 4
    s = random_signal(L, rng)
    periodized = np.fft.ifft(np.fft.fft(comb_signal(L, T)) * np.fft.fft(s))
    got = act_periodization(series, np.fft.fft(s), T)
    assert rel_err(got, np.fft.fft(eval_time(series, periodized))) < 1e-12


def test_periodization_matches_comb_convolved_input(rng):
    series = random_series(2, 3, rng)
    L, T = 8, 2
    s = random_signal(L, rng)
    periodized = np.fft.ifft(np.fft.fft(comb_signal(L, T)) * np.fft.fft(s))
    got = act_periodization(series, np.fft.fft(s), T)
    want = np.fft.fft(eval_time(series, periodized))
    assert rel_err(got, want) <= 1e-9


def test_periodization_needs_divisor(rng):
    series = random_series(1, 2, rng)
    with pytest.raises(GridError):
        act_periodization(series, random_signal(10, rng), 4)


def test_sampling_t1_is_identity(rng):
    series = random_series(2, 3, rng, constant=0.1)
    s = random_signal(12, rng)
    assert max_abs(act_sampling(series, s, 1) - eval_time(series, s)) <= 1e-9


def test_sampling_constant_one_is_comb_response(rng):
    series = random_series(3, 3, rng)
    L, T = 12, 3
    got = act_sampling(series, np.ones(L), T)
    assert max_abs(got - response_comb(series, T, L)) <= 1e-9


def test_sampling_matches_comb_multiplied_input(rng):
    series = random_series(2, 4, rng)
    L, T = 12, 2
    s = random_signal(L, rng)
    got = act_sampling(series, s, T)
    want = eval_time(series, comb_signal(L, T) * s)
    assert max_abs(got - want) <= 1e-9


def test_induced_kernel_recovers_multiplier_for_linear_series(rng):
    K = random_kernel(1, 3, rng)
    series = series_from_kernels([K])
    s_hat = random_signal(8, rng) + 2.0  # keep spectrum away from zero
    gamma = random_signal(8, rng)
    out = induced_linear_kernel(series, Multiplier(gamma), s_hat)
    assert out.excluded_bins == ()
    assert max_abs(out.multiplier.weights - gamma) < 1e-10


def test_induced_kernel_rejects_a_multiplier_of_another_length(rng):
    with pytest.raises(ContractViolation, match="weight vector length"):
        induced_linear_kernel(random_series(2, 3, rng), Multiplier(np.ones(9)), random_signal(10, rng))


def test_induced_kernel_unit_weights(rng):
    series = random_series(2, 3, rng)
    s_hat = random_signal(10, rng)
    out = induced_linear_kernel(series, Multiplier(np.ones(10)), s_hat)
    support = [k for k in range(10) if k not in out.excluded_bins]
    assert max_abs(out.multiplier.weights[support] - 1.0) < 1e-9


def test_induced_kernel_memoryless_square_two_tone(rng):
    L = 16
    series = memoryless_polynomial_series([0, 0, 1])
    t = np.arange(L)
    s = np.exp(2j * np.pi * 2 * t / L) + 0.5 * np.exp(2j * np.pi * 5 * t / L)
    gamma = random_signal(L, rng)
    s_hat = np.fft.fft(s)
    out = induced_linear_kernel(series, Multiplier(gamma), s_hat)
    ref = eval_freq(series, s_hat)
    img = eval_freq(series, gamma * s_hat)
    for k in range(L):
        if k in out.excluded_bins:
            assert out.multiplier.weights[k] == 0
        else:
            assert abs(out.multiplier.weights[k] - img[k] / ref[k]) < 1e-10
    assert len(out.excluded_bins) > 0  # the two-tone square leaves empty bins


def test_functor_laws_many_pairs(rng):
    series = random_series(3, 3, rng)
    L = 10
    s_hat = random_signal(L, rng)
    for _ in range(50):
        g = Multiplier(random_signal(L, rng))
        f = Multiplier(random_signal(L, rng))
        lhs = apply_action(series, compose_multipliers(g, f), s_hat)
        rhs = apply_action(series, g, f.weights * s_hat)
        assert max_abs(lhs - rhs) <= 1e-10
