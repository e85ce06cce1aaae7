"""Series evaluation in the time and frequency domains.

``oracle_eval`` is the literal nested-loop reference implementation; every
other evaluator in the package is tested against it.  The frequency path
uses the projection-slice form: the output spectrum at bin w collects
kernel-weighted input-spectrum products over all frequency vectors whose
components sum to w mod L, scaled by 1 / L**(j-1).  That normalization is
what makes the time and frequency paths agree exactly under the package's
DFT convention.  Every frequency-domain evaluator of the package shares
``_slice_sum``, and every delay-lattice contraction shares ``_contract``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .combinatorics import Multicombination
from .errors import ContractViolation, GridError
from .kernels import VolterraKernel, VolterraSeries, vfrf

__all__ = [
    "MultiInput",
    "MultivariateKernelBank",
    "oracle_eval",
    "eval_homogeneous",
    "eval_time",
    "eval_freq",
    "eval_multivariate",
    "response_exponential",
    "response_comb",
    "index_sum_grid",
    "project_diagonal",
    "outer_power",
]


def _signal(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 1 or s.size < 1:
        raise ContractViolation(f"signal must be a non-empty 1-d sequence, got shape {s.shape}")
    return s


def oracle_eval(series: VolterraSeries, s) -> np.ndarray:
    """Brute-force evaluation by literal nested loops.

    y(t) = v0 + sum_j sum_{tau in {0..M-1}^j} v_j(tau) prod_r s(t - tau_r mod L).
    Slow on purpose; this is the ground truth.
    """
    s = _signal(s)
    L = s.size
    if series.memory > L:
        raise GridError(f"series memory {series.memory} exceeds signal length {L}")
    y = [complex(0.0)] * L
    for kernel in series.kernels.values():
        j, M = kernel.order, kernel.memory
        if j == 0:
            for t in range(L):
                y[t] += complex(kernel.data)
            continue
        for t in range(L):
            acc = complex(0.0)
            for tau in itertools.product(range(M), repeat=j):
                w = complex(kernel.data[tau])
                if w == 0:
                    continue
                prod = complex(1.0)
                for r in range(j):
                    prod *= s[(t - tau[r]) % L]
                acc += w * prod
            y[t] += acc
    return np.array(y, dtype=np.complex128)


def _shift_matrix(s: np.ndarray, M: int) -> np.ndarray:
    """Rows m = 0..M-1 hold the signal delayed by m samples."""
    L = s.size
    if M > L:
        raise GridError(f"kernel memory {M} exceeds signal length {L}")
    idx = (np.arange(L)[None, :] - np.arange(M)[:, None]) % L
    return s[idx]


def _contract(data: np.ndarray, mats) -> np.ndarray:
    """sum_tau data(tau) prod_r mats[r][tau_r, t], one delay axis at a time."""
    T = np.tensordot(data, mats[0], axes=([0], [0]))  # (..., t)
    for mat in mats[1:]:
        T = np.einsum("a...t,at->...t", T, mat)
    return T


def eval_homogeneous(kernel: VolterraKernel, s) -> np.ndarray:
    """Output of a single order-j operator, factored as sequential contractions."""
    s = _signal(s)
    L = s.size
    if kernel.order == 0:
        return np.full(L, complex(kernel.data), dtype=np.complex128)
    return _contract(kernel.data, [_shift_matrix(s, kernel.memory)] * kernel.order)


def eval_time(series: VolterraSeries, s) -> np.ndarray:
    """Sum of homogeneous outputs; matches oracle_eval to rounding."""
    s = _signal(s)
    y = np.zeros(s.size, dtype=np.complex128)
    for kernel in series.kernels.values():
        y += eval_homogeneous(kernel, s)
    return y


def index_sum_grid(j: int, L: int) -> np.ndarray:
    """Tensor over {0..L-1}^j holding the index sum mod L at each point."""
    total = np.zeros((L,) * j, dtype=np.int64)
    for axis in range(j):
        shape = [1] * j
        shape[axis] = L
        total = total + np.arange(L).reshape(shape)
    return total % L


def project_diagonal(T: np.ndarray, L: int) -> np.ndarray:
    """h(w) = sum of T over index vectors whose components sum to w mod L."""
    j = T.ndim
    if j == 0:
        out = np.zeros(L, dtype=np.complex128)
        out[0] = complex(T)
        return out
    sums = index_sum_grid(j, L).ravel()
    flat = T.ravel()
    return (
        np.bincount(sums, weights=flat.real, minlength=L)
        + 1j * np.bincount(sums, weights=flat.imag, minlength=L)
    )


def outer_power(v: np.ndarray, j: int) -> np.ndarray:
    """j-fold outer product v (x) v (x) ... (x) v."""
    out = np.array(1.0, dtype=np.complex128)
    for _ in range(j):
        out = np.multiply.outer(out, v)
    return out.reshape((v.size,) * j)


def _slice_sum(kernel: VolterraKernel, s_hat: np.ndarray, *factors) -> np.ndarray:
    """project_diagonal(v_hat_j . s_hat^(x)j . factors) / L**(j-1), for order j >= 1.

    Each factor is a tensor over {0..L-1}^j, multiplied in after the input power.
    """
    L, j = s_hat.size, kernel.order
    T = vfrf(kernel, L) * outer_power(s_hat, j)
    for factor in factors:
        T = T * factor
    return project_diagonal(T, L) / L ** (j - 1)


def eval_freq(series: VolterraSeries, s_hat, weights=None) -> np.ndarray:
    """Projection-slice evaluation of the output spectrum.

    y_hat(w) = sum_j (1/L**(j-1)) * sum_{sum(Omega) = w mod L}
               v_hat_j(Omega) prod_q s_hat(omega_q),
    plus v0 * L at bin 0 for the constant term.  ``weights``, if given, is a
    spectral weight vector applied to every input slot (the action of a
    multiplier on the series).
    """
    s_hat = _signal(s_hat)
    L = s_hat.size
    if weights is not None:
        weights = _signal(weights)
        if weights.size != L:
            raise ContractViolation("weight vector length must match the spectrum")
    out = np.zeros(L, dtype=np.complex128)
    for kernel in series.kernels.values():
        j = kernel.order
        if j == 0:
            out[0] += complex(kernel.data) * L
            continue
        factors = () if weights is None else (outer_power(weights, j),)
        out += _slice_sum(kernel, s_hat, *factors)
    return out


@dataclass(frozen=True)
class MultiInput:
    """An ordered bank of equal-length input signals."""

    signals: tuple[np.ndarray, ...]

    def __post_init__(self):
        sigs = tuple(_signal(s) for s in self.signals)
        if not sigs:
            raise ContractViolation("MultiInput needs at least one signal")
        if len({s.size for s in sigs}) != 1:
            raise ContractViolation("all inputs must share one length")
        object.__setattr__(self, "signals", sigs)

    @property
    def count(self) -> int:
        return len(self.signals)

    @property
    def length(self) -> int:
        return self.signals[0].size


@dataclass(frozen=True)
class MultivariateKernelBank:
    """Kernels indexed by (output, input multiset); missing entries are zero.

    ``kernels`` maps ``(output_index, Multicombination)`` to a kernel whose
    order equals the multiset size.  Per-output constants live in
    ``constants`` and default to zero.
    """

    kernels: Mapping[tuple, VolterraKernel]
    constants: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        kernels = dict(self.kernels)
        for (a, combo), kernel in kernels.items():
            if not isinstance(combo, Multicombination):
                raise ContractViolation("bank keys must be (output, Multicombination)")
            if combo.total != kernel.order:
                raise ContractViolation(
                    f"kernel order {kernel.order} != multiset size {combo.total} for output {a}"
                )
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "constants", dict(self.constants))


def eval_multivariate(bank: MultivariateKernelBank, inputs: MultiInput, output) -> np.ndarray:
    """a-th output of a multivariate series.

    y_j^(a)(t) = sum over input multisets f of
        multinomial(j; multiplicities) * sum_tau v^(f)(tau) prod_i u_f(i)(t - tau_i)
    where f's canonical representative orders the repeated inputs.
    """
    L = inputs.length
    y = np.full(L, complex(bank.constants.get(output, 0.0)), dtype=np.complex128)
    for (a, combo), kernel in bank.kernels.items():
        if a != output:
            continue
        if any(c > 0 for b, c in enumerate(combo.counts) if b >= inputs.count):
            raise ContractViolation(
                f"multiset {combo.counts} references inputs beyond the {inputs.count} provided"
            )
        j = kernel.order
        weight = combo.multinomial()
        seq = combo.canonical_sequence()
        if j == 0:
            y += weight * complex(kernel.data)
            continue
        mats = [_shift_matrix(inputs.signals[b], kernel.memory) for b in seq]
        y += weight * _contract(kernel.data, mats)
    return y


def response_exponential(series: VolterraSeries, xi: int, L: int) -> np.ndarray:
    """Response to s(t) = exp(2i pi xi t / L) from the diagonal VFRF values.

    y(t) = sum_j exp(2i pi j t xi / L) * v_hat_j(xi * 1_j).
    """
    if not 0 <= xi < L:
        xi = xi % L
    t = np.arange(L)
    y = np.zeros(L, dtype=np.complex128)
    for kernel in series.kernels.values():
        j = kernel.order
        if j == 0:
            y += complex(kernel.data)
            continue
        phase = np.exp(-2j * np.pi * xi * np.arange(kernel.memory) / L)
        diag = kernel.data
        for _ in range(j):
            diag = np.tensordot(diag, phase, axes=([0], [0]))
        y += complex(diag) * np.exp(2j * np.pi * j * xi * t / L)
    return y


def comb_signal(L: int, T: int) -> np.ndarray:
    """Unit impulse train of period T on the length-L circle."""
    if T < 1 or L % T != 0:
        raise GridError(f"comb period {T} must divide the grid length {L}")
    s = np.zeros(L, dtype=np.complex128)
    s[::T] = 1.0
    return s


def response_comb(series: VolterraSeries, T: int, L: int) -> np.ndarray:
    """Response to the period-T impulse train: ``act_sampling`` of the all-ones signal.

    y(t) = v0 + sum_j sum over delay multisets {tau_i} with tau_i = t mod T
    of multinomial(j; multiplicities) * v_j^sym(tau).  Kernels are
    symmetrized first; the collection over multisets is exact for
    symmetric kernels and evaluation cannot tell the difference.
    """
    from .actions import act_sampling  # actions imports this module

    return act_sampling(series, np.ones(L, dtype=np.complex128), T)
