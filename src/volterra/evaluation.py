"""Series evaluation on the delay lattice.

``oracle_eval`` is the literal nested-loop reference implementation; every
other evaluator in the package is tested against it.  The time path
contracts each kernel over the delay lattice {0..M-1}^j against delayed
copies of the input, and every such contraction shares ``_contract``.  Each
block of series composition in ``algebra`` contracts a tensor's leading
axis against a bank of shifted kernels through ``_contract_leading``: a
reshape and a single matmul.

The paper's frequency path, the projection-slice sum scaled by 1 / L**(j-1),
is exactly the DFT of the time path on the inverse DFT of the input, and
``eval_freq`` computes it that way: this module builds nothing on the
frequency lattice {0..L-1}^j.  It is the package's only slice sum; a lens
component in ``morphisms`` is ``eval_freq`` of its component series.

The private ``_shift_matrix`` and ``_contract`` take leading batch axes, so
that ``morphisms.check_naturality`` runs its trials as one time-path pass;
each batch row equals the single-row call bit for bit.  The public
evaluators take one 1-d signal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .combinatorics import Multicombination
from .errors import ContractViolation, GridError
from .kernels import VolterraKernel, VolterraSeries

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
    """Rows m = 0..M-1 hold the signal delayed by m samples: a read-only view.

    Leading axes of s are a batch: the bank has shape s.shape[:-1] + (M, L).
    """
    L = s.shape[-1]
    if M > L:
        raise GridError(f"kernel memory {M} exceeds signal length {L}")
    wrapped = np.concatenate([s[..., L - M + 1 :], s], axis=-1)  # wrapped[i] = s((i - M + 1) mod L)
    step = wrapped.itemsize  # row m, column t reads wrapped[M - 1 - m + t]
    strides = wrapped.strides[:-1] + (-step, step)
    bank = np.ndarray(s.shape[:-1] + (M, L), wrapped.dtype, wrapped, (M - 1) * step, strides)
    bank.flags.writeable = False
    return bank


def _contract_leading(data: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """sum_a data[a, ...] mat[a, ...], shaped data.shape[1:] + mat.shape[1:]: one matmul.

    ``np.tensordot`` does the same with several times the fixed cost per call,
    which dominates on the small kernels of composition.
    """
    n = data.shape[0]
    out = data.reshape(n, -1).T @ mat.reshape(n, -1)
    return out.reshape(data.shape[1:] + mat.shape[1:])


def _contract(data: np.ndarray, mats) -> np.ndarray:
    """sum_tau data(tau) prod_r mats[r][..., tau_r, t], one delay axis at a time.

    Leading axes of the (M, L) banks are a batch, shared by all of them: the
    result has shape mats[0].shape[:-2] + (L,).  The first axis is one matmul
    per batch row, each of the single-row shape, so a row rounds as it would alone.
    """
    first = data.reshape(data.shape[0], -1).T @ mats[0]  # (..., rest of tau, t)
    b = first.ndim - 2
    delay_first = (b,) + tuple(range(b)) + (b + 1,)  # (..., tau_r, t) -> (tau_r, ..., t)
    T = first.transpose(delay_first).reshape(data.shape[1:] + first.shape[:b] + first.shape[b + 1 :])
    for mat in mats[1:]:
        T = np.einsum("a...,a...->...", T, mat.transpose(delay_first))
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


def eval_freq(series: VolterraSeries, s_hat, weights=None) -> np.ndarray:
    """Output spectrum of the projection-slice formula, computed as fft . eval_time . ifft.

    y_hat(w) = sum_j (1/L**(j-1)) * sum_{sum(Omega) = w mod L}
               v_hat_j(Omega) prod_q s_hat(omega_q),
    plus v0 * L at bin 0 for the constant term.  For memory M <= L that is
    exactly the DFT of ``eval_time`` on ifft(s_hat); M > L raises
    ``GridError``.  ``weights``, if given, is a spectral weight vector applied
    to every input slot (the action of a multiplier on the series); since
    w^(x)j . s_hat^(x)j = (w . s_hat)^(x)j, it is folded into the spectrum.
    """
    s_hat = _signal(s_hat)
    if weights is not None:
        weights = _signal(weights)
        if weights.size != s_hat.size:
            raise ContractViolation("weight vector length must match the spectrum")
        s_hat = weights * s_hat
    return np.fft.fft(eval_time(series, np.fft.ifft(s_hat)))


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
    """Response to the period-T impulse train: ``eval_time`` on ``comb_signal(L, T)``.

    y(t) = v0 + sum_j sum_{tau_i = t mod T} v_j(tau); only delays on the
    comb's lattice read a nonzero input sample.
    """
    return eval_time(series, comb_signal(L, T))
