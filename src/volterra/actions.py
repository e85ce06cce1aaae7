"""Actions of a series on elementary linear transformations.

A spectral multiplier weights each frequency of the input; applying a
series to it inserts the tensor power of the weight vector into every
slot of the projection-slice sum.  Of the four worked actions,
translation evaluates on the shifted input and checks shift-commutation,
and modulation is ``eval_freq`` on the rolled spectrum.  Periodization
and sampling remain the paper's multiset closed forms; they are cross-
checked against the generic transform-the-input path.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .combinatorics import multinomial
from .errors import ConsistencyError, ContractViolation, GridError
from .evaluation import eval_freq, eval_time, _signal
from .kernels import VolterraSeries, symmetrize_plain, vfrf

__all__ = [
    "Multiplier",
    "InducedMultiplier",
    "compose_multipliers",
    "apply_action",
    "act_translation",
    "act_modulation",
    "act_periodization",
    "act_sampling",
    "induced_linear_kernel",
]


@dataclass(frozen=True)
class Multiplier:
    """A spectral weight function gamma of length L.

    Composition of multipliers is the pointwise product of their weights.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _signal(self.weights))

    @property
    def length(self) -> int:
        return self.weights.size


def compose_multipliers(g: Multiplier, f: Multiplier) -> Multiplier:
    if g.length != f.length:
        raise ContractViolation("multiplier lengths differ")
    return Multiplier(g.weights * f.weights)


def apply_action(series: VolterraSeries, m: Multiplier, s_hat) -> np.ndarray:
    """V(m)(s_hat): weight every input slot of the projection-slice sum by gamma.

    Equals eval_freq(series, gamma * s_hat); computed with the weight tensor
    kept as its own factor rather than folded into the spectrum first, so
    the identity multiplier is preserved bit for bit.
    """
    s_hat = _signal(s_hat)
    if m.length != s_hat.size:
        raise ContractViolation("multiplier and spectrum lengths differ")
    return eval_freq(series, s_hat, weights=m.weights)


def act_translation(series: VolterraSeries, s, d: int, tol: float = 1e-10) -> np.ndarray:
    """Evaluate on the shifted input and assert shift-commutation.

    Returns eval_time(series, shift(s, d)); raises ConsistencyError if it
    deviates from shift(eval_time(series, s), d) by more than tol.
    """
    s = _signal(s)
    shifted_first = eval_time(series, np.roll(s, d))
    shifted_last = np.roll(eval_time(series, s), d)
    residual = float(np.max(np.abs(shifted_first - shifted_last))) if s.size else 0.0
    if residual > tol:
        raise ConsistencyError(
            f"translation commutation residual {residual:.3e} exceeds {tol:.1e}"
        )
    return shifted_first


def act_modulation(series: VolterraSeries, s_hat, xi: int) -> np.ndarray:
    """Response to a frequency shift of the input: ``eval_freq`` on the rolled spectrum.

    sum_j (1/L**(j-1)) sum_{sum(Omega)=w} v_hat_j(Omega) *
    s_hat^(x)j (Omega - xi * 1 mod L).
    """
    s_hat = _signal(s_hat)
    # rolled[w] = s_hat[(w - xi) mod L]
    return eval_freq(series, np.roll(s_hat, xi % s_hat.size))


def act_periodization(series: VolterraSeries, s_hat, T: int) -> np.ndarray:
    """Closed-form response to periodization (convolution with a period-T comb).

    The input spectrum collapses onto the lattice of multiples of L/T with
    weight L/T; the projection-slice sum restricts to lattice frequency
    vectors, collected over multisets with multinomial weights (exact for
    the symmetrized kernels used here).
    """
    s_hat = _signal(s_hat)
    L = s_hat.size
    if T < 1 or L % T != 0:
        raise GridError(f"periodization period {T} must divide the grid length {L}")
    step = L // T
    lattice = np.arange(T) * step
    gain = float(L // T)
    out = np.zeros(L, dtype=np.complex128)
    for kernel in series.kernels.values():
        j = kernel.order
        if j == 0:
            out[0] += complex(kernel.data) * L
            continue
        fr = vfrf(symmetrize_plain(kernel), L)
        for combo in itertools.combinations_with_replacement(range(T), j):
            weight = multinomial(j, Counter(combo).values())
            omega = tuple(lattice[c] for c in combo)
            value = fr[omega]
            for w in omega:
                value = value * (gain * s_hat[w])
            out[sum(omega) % L] += weight * value / L ** (j - 1)
    return out


def act_sampling(series: VolterraSeries, s, T: int) -> np.ndarray:
    """Closed-form response to sampling (multiplication by a period-T comb).

    Only delays congruent to t mod T survive; the surviving lattice is
    collected over multisets with multinomial weights against the
    symmetrized kernels.
    """
    s = _signal(s)
    L = s.size
    if T < 1 or L % T != 0:
        raise GridError(f"sampling period {T} must divide the grid length {L}")
    y = np.zeros(L, dtype=np.complex128)
    for kernel in series.kernels.values():
        j = kernel.order
        if j == 0:
            y += complex(kernel.data)
            continue
        if kernel.memory > L:
            raise GridError(f"kernel memory {kernel.memory} exceeds signal length {L}")
        sym = symmetrize_plain(kernel)
        for t in range(L):
            admissible = range(t % T, kernel.memory, T)
            acc = complex(0.0)
            for combo in itertools.combinations_with_replacement(admissible, j):
                weight = multinomial(j, Counter(combo).values())
                value = complex(sym.data[combo])
                for tau in combo:
                    value *= s[(t - tau) % L]
                acc += weight * value
            y[t] += acc
    return y


@dataclass(frozen=True)
class InducedMultiplier:
    """Result of dividing output spectra: the induced linear map on components.

    ``excluded_bins`` lists bins where the reference output was below the
    cancellation threshold; the weight there is defined as zero.
    """

    multiplier: Multiplier
    excluded_bins: tuple[int, ...]


def induced_linear_kernel(
    series: VolterraSeries, m: Multiplier, s_hat, eps: float | None = None
) -> InducedMultiplier:
    """Bin-wise quotient V(m(s))_hat / V(s)_hat on the support of the latter.

    eps defaults to 1e-9 * max |V(s)_hat|; bins below it are excluded and
    reported (cancellations make the quotient meaningless there).
    """
    s_hat = _signal(s_hat)
    ref = eval_freq(series, s_hat)
    img = eval_freq(series, m.weights * s_hat)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    threshold = (1e-9 * scale) if eps is None else eps
    excluded = (np.abs(ref) < threshold) | (scale == 0.0)
    weights = np.zeros_like(ref)
    weights[~excluded] = img[~excluded] / ref[~excluded]
    return InducedMultiplier(Multiplier(weights), tuple(np.flatnonzero(excluded).tolist()))
