import numpy as np
import pytest
from hypothesis import settings

from volterra.kernels import VolterraKernel, VolterraSeries, constant_kernel

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


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
