"""Property tests of the evaluation core on random series, j <= 3, M <= 4, L <= 12.

Every frequency-domain evaluator shares one projection-slice sum and every
time-domain evaluator one delay-lattice contraction; these checks tie each
path to an independent one: the nested-loop oracle, the DFT of the time
path, and the time path on the transformed input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs, random_series, random_signal, rel_err
from volterra.actions import act_modulation
from volterra.evaluation import comb_signal, eval_freq, eval_time, oracle_eval, response_comb
from volterra.kernels import VolterraSeries, delta_kernel
from volterra.morphisms import apply_component, lens_identity

SETTINGS = settings(settings.get_profile("volterra"), max_examples=50)


@st.composite
def cases(draw):
    """(series, grid length L, rng) with max order <= 3, memory <= L <= 12."""
    j = draw(st.integers(min_value=1, max_value=3))
    M = draw(st.integers(min_value=1, max_value=4))
    L = draw(st.integers(min_value=M, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    constant = complex(*rng.standard_normal(2)) if draw(st.booleans()) else None
    return random_series(j, M, rng, constant=constant), L, rng


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
