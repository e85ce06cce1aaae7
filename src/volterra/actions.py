"""Actions of a series on elementary linear transformations.

A spectral multiplier weights each frequency of the input; applying a
series to it inserts the tensor power of the weight vector into every
slot of the projection-slice sum.  All four worked actions are evaluators
on a transformed input: translation on the shifted input (with a
commutation check), modulation on the rolled spectrum, periodization with
the comb's spectrum as multiplier, sampling on the comb-multiplied input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ContractViolation, GridError
from .evaluation import comb_signal, eval_freq, eval_time, _signal
from .kernels import VolterraSeries

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

    Equals eval_freq(series, gamma * s_hat), which is how it is computed:
    the weights fold into the spectrum, and multiplying by 1 + 0j is exact,
    so the identity multiplier is preserved bit for bit.
    """
    return eval_freq(series, s_hat, weights=m.weights)


def act_translation(series: VolterraSeries, s, d: int, tol: float = 1e-10) -> np.ndarray:
    """Evaluate on the shifted input and assert shift-commutation.

    Returns eval_time(series, shift(s, d)); raises ConsistencyError if it
    deviates from shift(eval_time(series, s), d) by more than tol.
    """
    shifted_first = eval_time(series, np.roll(s, d))
    shifted_last = np.roll(eval_time(series, s), d)
    residual = float(np.max(np.abs(shifted_first - shifted_last)))
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
    # rolled[w] = s_hat[(w - xi) mod L]
    return eval_freq(series, np.roll(s_hat, xi))


def act_periodization(series: VolterraSeries, s_hat, T: int) -> np.ndarray:
    """Response to periodization (circular convolution with a period-T comb).

    Convolution multiplies the spectrum by the comb's, which is L/T times
    the comb of period L/T: exactly L/T on the multiples of L/T and 0
    elsewhere.  So this is ``apply_action`` with that multiplier; T = L is
    the unit multiplier.
    """
    s_hat = _signal(s_hat)
    L = s_hat.size
    if T < 1 or L % T != 0:
        raise GridError(f"periodization period {T} must divide the grid length {L}")
    step = L // T
    return apply_action(series, Multiplier(step * comb_signal(L, step)), s_hat)


def act_sampling(series: VolterraSeries, s, T: int) -> np.ndarray:
    """Response to sampling: ``eval_time`` on the input times the period-T comb.

    Only delays congruent to t mod T read a nonzero sample.
    """
    s = _signal(s)
    return eval_time(series, comb_signal(s.size, T) * s)


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
