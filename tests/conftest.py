import numpy as np
import pytest
from hypothesis import settings

from volterra.kernels import VolterraKernel, VolterraSeries, constant_kernel, zero_pad
from volterra.morphisms import apply_component

# One hypothesis profile for every property test.  No per-example deadline:
# a busy host can stall any single example without the code being slow.
settings.register_profile("volterra", deadline=None)
settings.load_profile("volterra")


def random_kernel(order, memory, rng, scale=1.0):
    shape = (memory,) * order
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return VolterraKernel(order, memory, data)


def random_series(max_order, memory, rng, constant=None, scale=1.0):
    kernels = {j: random_kernel(j, memory, rng, scale) for j in range(1, max_order + 1)}
    if constant is not None:
        kernels[0] = constant_kernel(constant)
    return VolterraSeries(kernels)


def random_signal(length, rng):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want))) / scale


def max_abs(a):
    return float(np.max(np.abs(np.asarray(a))))


def translated_target(W, L):
    """T W on the length-L circle: each kernel of order >= 1 delayed by one sample."""
    return VolterraSeries(
        {
            i: k if k.order == 0 else VolterraKernel(
                k.order, L, np.roll(zero_pad(k, L).data, 1, axis=tuple(range(k.order)))
            )
            for i, k in W.kernels.items()
        }
    )


def naturality_loop(m, V, W, trials, seed, L):
    """check_naturality's residual as a loop of apply_component pairs on the same draws.

    One leg translates the input by one sample, the other the target.
    """
    draws = np.random.default_rng(seed)
    gamma = np.exp(-2j * np.pi * np.arange(L) / L)  # spectrum of the one-sample delay
    target = translated_target(W, L)
    worst = 0.0
    for _ in range(trials):
        s_hat = draws.standard_normal(L) + 1j * draws.standard_normal(L)
        through_input = apply_component(m, V, W, gamma * s_hat)
        through_target = apply_component(m, V, target, s_hat)
        worst = max(worst, max_abs(through_input - through_target))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
