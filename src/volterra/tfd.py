"""Time-frequency distributions and their Volterra-kernel representations.

Discrete conventions, fixed once for the whole module:

* Signals live on a circular grid of even length L and are expected to be
  analytic and about 2x oversampled (spectrum well inside [0, L/4)); the
  distributions warn or degrade gracefully otherwise.
* The bilinear lag product is sampled at symmetric integer half-lags
  m in [-floor(L/4), floor(L/4)], i.e. true lag tau = 2m.  The lag
  transform is therefore L/2-periodic in frequency: grids carry L/2
  frequency bins and bin k means k/L cycles per sample, so a pure tone
  lands on its own bin.
* Parameter functions (Cohen-class kernels) live on the matching
  ambiguity domain: doppler bins xi in Z_L times the signed lag axis.
  Multiplying there is the exact Fourier dual of 2-D smoothing of the
  distribution, and it keeps the spectrogram and Rihaczek identities
  exact for band-limited analytic inputs.
* Only half-lags m >= 0 are built.  Any lag products r split as
  r = e + i o with e = (r + r~) / 2, o = (r - r~) / 2i and
  r~(n, m) = conj r(n, -m); both parts are Hermitian in the lag, so each
  row of each part is one real Hermitian transform (``hfft``) over bins
  0..L/4, and the grid is the transform of e plus i times that of o.
  Bilinear and polynomial lag products are Hermitian themselves (o = 0),
  so Wigner and polynomial-Wigner rows are real.  Doppler transforms run
  over the m >= 0 columns and take the rest from A(xi, -m) = conj A(-xi, m).
* Cohen's smoothed lag products split with the parameter function: o = 0
  exactly when phi(-xi, -m) = conj phi(xi, m) (the unit and spectrogram
  members, not Rihaczek), and otherwise o smooths with the odd part
  (phi - conj phi(-xi, -m)) / 2i of phi.
* A distribution whose o is exactly 0 is a float64 grid; the others, and
  ``howvd``, are complex128.
* Fractional delays use spectral phase ramps with signed frequencies.
  The polynomial and higher-order distributions take the signal's FFT
  once and read their delayed copies from batched FFTs: ``pwvd`` in
  blocks of ``_BLOCK`` half-lags over one period of whole-sample delay
  steps per lag scaling, ``howvd`` from one bank holding every delay its
  lag lattice reads.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation, DomainError, GridError, ResourceError
from .evaluation import _contract, _shift_matrix, _signal
from .kernels import VolterraKernel

__all__ = [
    "PolynomialPhase",
    "TFDGrid",
    "MultiAxisGrid",
    "ParameterFunction",
    "LambdaSet",
    "LambdaReport",
    "analytic_signal",
    "chirp",
    "wvd",
    "ambiguity",
    "unit_parameter",
    "rihaczek_parameter",
    "spectrogram_parameter",
    "stft",
    "cohen",
    "cohen_volterra_kernel",
    "eval_double_bilinear",
    "howvd",
    "pwvd_lambdas",
    "check_lambda_constraints",
    "pwvd",
    "PwvdKernelDescriptor",
    "pwvd_volterra_kernel",
    "if_concentration",
    "interference_term_count",
]


# Delays per batched shift bank of ``pwvd``: 64 rows of an L = 1024 signal
# are 1 MiB of complex samples per sign.  Their phase ramps are products of
# the block's first ramp with _SPLIT coarse and _SPLIT fine steps, computed
# once per lag scaling, so a block takes one row of complex exponentials
# instead of 64.
_SPLIT = 8
_BLOCK = _SPLIT * _SPLIT


def _even_grid(x, where: str) -> np.ndarray:
    """``_signal`` on the even-length grid the symmetric half-lag axis needs."""
    x = _signal(x)
    if x.size % 2:
        raise GridError(f"{where} needs an even-length grid")
    return x


@dataclass(frozen=True)
class PolynomialPhase:
    """Phase polynomial phi(t) = sum_p a_p t^p with t in sample units."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ContractViolation("phase polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    # np.polynomial loads on first use, so importing volterra does not load it
    def phase(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coefficients)

    def derivative(self, t):
        # + 0.0: a constant phase's derivative is 0.0, as in Horner's rule, not -0.0
        slopes = np.polynomial.polynomial.polyder(self.coefficients) + 0.0
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), slopes)

    def instantaneous_frequency(self, t):
        """phi'(t) / 2 pi, in cycles per sample."""
        return self.derivative(t) / (2.0 * np.pi)


@dataclass(frozen=True)
class TFDGrid:
    """Time-frequency matrix with declared frequency scaling.

    ``values[t, k]`` covers time sample t and frequency ``k * freq_scale``
    cycles per sample.  A real array is kept as float64 and a complex one
    as complex128.  A grid is float64 when its lag products have no odd
    part (module docstring): ``wvd``, ``pwvd`` without a hook or with one
    that keeps the lag symmetry, and ``cohen`` with a phi obeying
    phi(-xi, -m) = conj phi(xi, m).  Otherwise its real and imaginary
    parts are the transforms of the even and odd parts.
    """

    values: np.ndarray
    freq_scale: float

    def __post_init__(self):
        values = np.asarray(self.values)
        values = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
        if values.ndim != 2:
            raise ContractViolation(f"TFD grid must be 2-d, got shape {values.shape}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MultiAxisGrid:
    """Time by multi-frequency grid with per-axis scaling factors.

    Axis r of the frequency block is declared so that bin g means
    ``g / L`` cycles per sample after absorbing the lag scaling
    ``axis_factors[r]`` into the transform.
    """

    values: np.ndarray
    freq_scale: float
    axis_factors: tuple[float, ...]


def analytic_signal(s) -> np.ndarray:
    """Spectral-domain analytic extension of a real signal.

    Doubles the strictly positive bins, keeps DC and Nyquist, zeroes the
    negative bins; the real part of the result reproduces the input.
    """
    s = _even_grid(s, "analytic_signal")
    L = s.size
    spectrum = np.fft.fft(s)
    gain = np.zeros(L)
    gain[0] = 1.0
    gain[L // 2] = 1.0
    gain[1 : L // 2] = 2.0
    return np.fft.ifft(spectrum * gain)


def chirp(phase: PolynomialPhase, L: int) -> np.ndarray:
    """Unit-amplitude polynomial-phase signal exp(i phi(t))."""
    return np.exp(1j * phase.phase(np.arange(L)))


def _phase_ramps(L: int, delays) -> np.ndarray:
    """exp(2i pi f d / L) over the signed frequencies f, one row per delay d.

    ``ifft(fft(x) * ramp)`` is x(t + d); the conjugate ramp gives x(t - d).
    """
    freqs = np.fft.fftfreq(L) * L
    return np.exp((2j * np.pi / L) * np.multiply.outer(delays, freqs))


def _half_lags(L: int) -> np.ndarray:
    M0 = L // 4
    return np.arange(-M0, M0 + 1)


def _half_lag_products(x: np.ndarray, boundary: str = "circular", out=None) -> np.ndarray:
    """R[n, m] = x(n + m) conj(x(n - m)) over half-lags 0 <= m <= L/4, into ``out``.

    The products are Hermitian in the lag, R(n, -m) = conj R(n, m), so no
    grid builds the m < 0 half.  ``boundary="circular"`` wraps the indices
    mod L; ``"finite"`` zeroes any product whose reads leave [0, L),
    treating the record as finite.
    """
    if boundary not in ("circular", "finite"):
        raise ContractViolation(f"boundary must be 'circular' or 'finite', got {boundary!r}")
    M0 = x.size // 4
    # padded[n + M0 + m] = x(n + m): wrapped, or zero outside a finite record
    padded = np.pad(x, M0, mode="wrap" if boundary == "circular" else "constant")
    window = sliding_window_view(padded, 2 * M0 + 1)  # window[n, M0 + m] = x(n + m)
    R = np.conjugate(window[:, M0::-1], out=out)
    R *= window[:, M0:]
    return R


def _signed_lags(R: np.ndarray) -> np.ndarray:
    """The signed half-lag axis -M0 .. M0 from its m >= 0 half, by R(-m) = conj R(m)."""
    M0 = R.shape[1] - 1
    full = np.empty((R.shape[0], 2 * M0 + 1), dtype=np.complex128)
    full[:, M0:] = R
    np.conjugate(R[:, :0:-1], out=full[:, :M0])
    return full


def _grid(L: int, dtype) -> np.ndarray:
    """Zeros for an (L, L/2) grid: float64 for a real TFD, complex128 otherwise.

    Grids take it before building their lag products, so those temporaries
    are freed above the grid that outlives them instead of leaving a hole
    below it, which held the process's peak memory up.
    """
    return np.zeros((L, L // 2), dtype=dtype)


def _hermitian_lag_transform(R: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows of a TFD from the m >= 0 half of lag products with R(-m) = conj R(m).

    The folded lag sequence is Hermitian, so each row's DFT is real and is
    one real inverse FFT of length L/2 over bins 0..L/4 (``hfft``), written
    into the float64 array W: a ``_grid`` or the real or imaginary view of
    a complex one.  The endpoints +-L/4 share bin L/4 when L = 0 (mod 4),
    so that column is doubled.  Conjugates R in place.
    """
    half = W.shape[1]
    np.conjugate(R, out=R)
    if half % 2 == 0:
        R[:, -1] *= 2
    return np.fft.irfft(R, half, axis=1, norm="forward", out=W)


def _lag_grid(W: np.ndarray, r: np.ndarray, odd: np.ndarray | None = None) -> TFDGrid:
    """The TFD of lag products r on half-lags m >= 0, given their odd part.

    r = e + i o with e and o Hermitian in the lag (module docstring), so
    e = r - i o, and each part is one Hermitian transform, into the real
    and imaginary halves of the complex ``_grid`` W.  With no odd part, r
    is Hermitian itself and W is float64.  Overwrites r and ``odd``.
    """
    if odd is not None:
        r.real += odd.imag  # r - i o, in place
        r.imag -= odd.real
        _hermitian_lag_transform(odd, W.imag)
    _hermitian_lag_transform(r, W.real)
    return TFDGrid(W, 1.0 / W.shape[0])


def _warn_if_not_analytic(x: np.ndarray, where: str):
    L = x.size
    spectrum = np.fft.fft(x)
    neg = np.linalg.norm(spectrum[L // 2 + 1 :])
    if neg > 1e-9 * max(np.linalg.norm(spectrum), 1e-300):
        warnings.warn(f"{where}: input is not analytic; interpretation degrades", stacklevel=3)


def wvd(x, boundary: str = "circular") -> TFDGrid:
    """Discrete Wigner distribution on symmetric half-lags.

    W(n, k) = sum_{|m| <= L/4} x(n+m) conj(x(n-m)) exp(-2i pi (2m) k / L),
    k in [0, L/2).  Real for any input, so the grid is float64; the
    frequency marginal sum_k W(n, k) / (L/2) equals |x(n)|^2 exactly in
    either boundary mode.

    The circular mode folds lag reads around the grid, which aliases the
    row n + L/2 into rows within L/4 of the record ends; the finite mode
    zeroes out-of-range reads instead, matching the behaviour of the
    continuous transform on a finite record.
    """
    x = _even_grid(x, "wvd")
    _warn_if_not_analytic(x, "wvd")
    W = _grid(x.size, np.float64)
    return _lag_grid(W, _half_lag_products(x, boundary))


@dataclass(frozen=True)
class ParameterFunction:
    """Cohen-class parameter function on (doppler bin, signed half-lag).

    ``values[xi, i]`` weights doppler bin xi and half-lag ``lags[i]``
    (true lag 2 * lags[i]).  Energy-conserving members have value 1 at the
    origin.
    """

    values: np.ndarray
    lags: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        lags = np.asarray(self.lags, dtype=np.int64)
        if values.ndim != 2 or lags.ndim != 1 or values.shape[1] != lags.size:
            raise ContractViolation("parameter function needs shape (L, len(lags))")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lags", lags)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def origin_value(self) -> complex:
        zero = np.flatnonzero(self.lags == 0)
        if zero.size == 0:
            raise ContractViolation(f"no zero half-lag among {self.lags.tolist()}")
        return complex(self.values[0, zero[0]])


def unit_parameter(L: int) -> ParameterFunction:
    """phi == 1: Cohen's class member equal to the Wigner distribution."""
    ms = _half_lags(L)
    return ParameterFunction(np.ones((L, ms.size), dtype=np.complex128), ms)


def _endpoint_weights(L: int) -> np.ndarray:
    """Halve the two half-lags that alias onto the same folded lag bin."""
    ms = _half_lags(L)
    w = np.ones(ms.size)
    if L % 4 == 0:
        w[np.abs(ms) == L // 4] = 0.5
    return w


def rihaczek_parameter(L: int) -> ParameterFunction:
    """Discrete Rihaczek member: phi(xi, m) = 2 w(m) exp(-2i pi xi m / L).

    The factor 2 compensates the even-lag sampling of the half-band grid
    and w halves the fold endpoints; with these, the distribution equals
    x(t) conj(X(k)) exp(-2i pi k t / L) exactly for Nyquist-free analytic
    inputs.
    """
    ms = _half_lags(L)
    # exp(-2i pi xi m / L) takes L values, indexed by xi m reduced mod L in integers
    turns = np.exp(-2j * np.pi * np.arange(L) / L)
    values = 2.0 * _endpoint_weights(L) * turns[np.arange(L)[:, None] * ms % L]
    return ParameterFunction(values, ms)


def ambiguity(h) -> ParameterFunction:
    """Doppler-lag transform of a window on the signed half-lag axis.

    A(xi, m) = sum_n h(n+m) conj(h(n-m)) exp(-2i pi xi n / L); the origin
    value is the window energy.  Only the m >= 0 columns are transformed
    along time; the m < 0 columns are A(xi, -m) = conj A(-xi, m).  The
    m = 0 column is the transform of the real |h(n)|^2, so its xi > L/2
    half is the conjugate of its xi < L/2 half and its xi = 0 and L/2
    entries are real: set so exactly, which the FFT alone misses by
    rounding.  Then A(-xi, -m) = conj A(xi, m) holds with no tolerance.
    """
    h = _even_grid(h, "ambiguity")
    L, M0 = h.size, h.size // 4
    A = np.empty((L, 2 * M0 + 1), dtype=np.complex128)
    pos = _half_lag_products(h, out=A[:, M0:])
    np.fft.fft(pos, axis=0, out=pos)
    zero = pos[:, 0]
    zero.imag[:: L // 2] = 0.0
    np.conjugate(zero[L // 2 - 1 : 0 : -1], out=zero[L // 2 + 1 :])
    np.conjugate(pos[0, :0:-1], out=A[0, :M0])
    np.conjugate(pos[:0:-1, :0:-1], out=A[1:, :M0])
    return ParameterFunction(A, _half_lags(L))


def spectrogram_parameter(window) -> ParameterFunction:
    """Conjugate ambiguity function of the analysis window."""
    A = ambiguity(window).values
    return ParameterFunction(np.conjugate(A, out=A), _half_lags(A.shape[0]))


def stft(x, window) -> np.ndarray:
    """S[n, k] = sum_t x(t) conj(window(t - n)) exp(-2i pi k t / L)."""
    x = _signal(x)
    w = _signal(window)
    if w.size != x.size:
        raise ContractViolation("window and signal lengths differ")
    L = x.size
    frames = _shift_matrix(np.conj(w), L)  # frames[n, t] = conj(w(t - n))
    S = x * frames
    np.fft.fft(S, axis=1, out=S)
    return S


def cohen(x, phi: ParameterFunction) -> TFDGrid:
    """Cohen-class distribution: weight the ambiguity domain, transform back.

    Multiplying the signal's ambiguity function by phi is the exact
    Fourier dual of the 2-D smoothing of the Wigner distribution by the
    inverse transform of phi; phi == 1 returns the Wigner distribution.

    Only the m >= 0 half-lags are built, weighted and transformed.  With
    A the doppler transform of the lag products, phi+ the m >= 0 columns
    of phi and phi_o = (phi - conj phi(-xi, -m)) / 2i its odd part there,
    the smoothed products split into the odd part ifft(A phi_o) and the
    even part ifft(A phi+) - i ifft(A phi_o), each Hermitian in the lag.
    phi_o is 0 exactly (no tolerance) when phi(-xi, -m) = conj phi(xi, m),
    as for the unit and spectrogram members: then the grid is real
    (float64).  Any other phi, such as Rihaczek's, gives a complex grid.
    """
    x = _even_grid(x, "cohen")
    L, M0 = x.size, x.size // 4
    if phi.length != L or not np.array_equal(phi.lags, _half_lags(L)):
        raise ContractViolation("parameter function grid does not match the signal grid")
    odd = phi.values[-np.arange(L) % L, M0::-1]  # phi(-xi, -m), m >= 0
    np.conjugate(odd, out=odd)
    np.subtract(phi.values[:, M0:], odd, out=odd)  # 2i phi_o
    if odd.any():
        odd *= -0.5j
    else:
        odd = None
    W = _grid(L, np.float64 if odd is None else np.complex128)
    A = _half_lag_products(x)
    np.fft.fft(A, axis=0, out=A)
    if odd is not None:
        odd *= A
        np.fft.ifft(odd, axis=0, out=odd)
    A *= phi.values[:, M0:]
    np.fft.ifft(A, axis=0, out=A)
    return _lag_grid(W, A, odd)


def cohen_volterra_kernel(phi: ParameterFunction, f_bin: int) -> VolterraKernel:
    """Order-2 kernel whose bilinear evaluation reproduces one Cohen row.

    h(u, v) accumulates, over centers c and half-lags m with (u, v) =
    (c + m, c - m) mod L, the inverse doppler transform of phi times the
    Fourier factor exp(-2i pi f (2m) / L).  For phi == 1 the kernel is
    supported on the anti-diagonal u + v = 0 with weights
    exp(-4i pi f u / L).
    """
    L = phi.length
    ms = phi.lags
    if not np.array_equal(ms, _half_lags(L)):
        raise ContractViolation("parameter function lags must be the signed half-lag axis")
    pi_cm = np.fft.ifft(phi.values, axis=0)  # (c, lag index)
    ramp = np.exp(-2j * np.pi * f_bin * (2 * ms) / L)
    values = pi_cm * ramp + 0.0  # -0.0 becomes 0.0, as when summed into zeros
    h = np.zeros((L, L), dtype=np.complex128)
    c = np.arange(L)[:, None]
    # cells (c + m, c - m) are distinct except that (c, L/4) and (c + L/2, -L/4)
    # coincide when L = 0 (mod 4), so the -L/4 column is added after the rest
    h[(c + ms[1:]) % L, (c - ms[1:]) % L] = values[:, 1:]
    h[(c[:, 0] + ms[0]) % L, (c[:, 0] - ms[0]) % L] += values[:, 0]
    return VolterraKernel(2, L, h)


def eval_double_bilinear(kernel: VolterraKernel, xa, xb) -> np.ndarray:
    """y(t) = sum_{u,v} h(u, v) xa(t - u) xb(t - v): a double second-order series."""
    xa, xb = _signal(xa), _signal(xb)
    L = xa.size
    if kernel.order != 2 or kernel.memory != L or xb.size != L:
        raise ContractViolation("kernel memory and both signal lengths must agree")
    return _contract(kernel.data, [_shift_matrix(xa, L), _shift_matrix(xb, L)])


def _conjugation_signs(k: int) -> list[int]:
    """+1 for a plain factor, -1 for a conjugated one; index 0 is the leading term."""
    signs = [-1]  # leading conj(x(t - alpha))
    for r in range(1, k):
        signs.append(-1 if r % 2 == 0 else 1)
    return signs


def howvd(x, k: int, memory_budget: int = 1 << 24) -> MultiAxisGrid:
    """Higher-order Wigner distribution over (t, f_1 .. f_{k-1}).

    Lag lattice: per axis the even lags 2 m_r, |m_r| <= L/4, matching the
    bilinear case; centering alpha = (2/k) sum m_r uses fractional delays.
    Every read is x(t + 2p/k) for an integer p, so the lattice is gathered
    from one bank of delayed copies.
    Axis r absorbs the scaling (eps_r - sigma/k) into its transform so
    that a pure tone at bin k0 produces a ridge at bin k0 on every axis;
    k = 2 reduces exactly to the Wigner distribution.
    """
    if k < 2:
        raise ContractViolation(f"howvd needs order k >= 2, got {k}")
    x = _even_grid(x, "howvd")
    L = x.size
    _warn_if_not_analytic(x, "howvd")
    ms = _half_lags(L)
    half = L // 2
    lag_entries = ms.size ** (k - 1) * L
    out_entries = half ** (k - 1) * L
    if max(lag_entries, out_entries) > memory_budget:
        raise ResourceError(
            f"howvd grid of {max(lag_entries, out_entries)} entries exceeds budget {memory_budget}"
        )

    signs = _conjugation_signs(k)
    sigma = sum(signs)
    factors = tuple(signs[r] - sigma / k for r in range(1, k))

    # Reads are x(t - alpha) and x(t + 2 m_r - alpha) with alpha = 2 total / k,
    # i.e. x(t + 2p/k) for p = -total and p = k m_r - total; both stay within
    # |p| <= (2k - 3) L/4.  bank[P + p] = x(t + 2p/k).
    P = (2 * k - 3) * (L // 4)
    p = np.arange(-P, P + 1)
    bank = np.fft.ifft(np.fft.fft(x) * _phase_ramps(L, 2 * p / k), axis=1)
    conj_bank = np.conj(bank)
    lattice = np.meshgrid(*([ms] * (k - 1)), indexing="ij")
    total = sum(lattice)
    prod = conj_bank[P - total]
    for r in range(1, k):
        prod *= (conj_bank if signs[r] < 0 else bank)[P + k * lattice[r - 1] - total]
    # transform each lag axis with its declared scaling
    out = prod
    for r in range(k - 1):
        E = np.exp(
            -2j * np.pi * factors[r] * np.outer(2 * ms, np.arange(half)) / L
        )  # (lag, freq)
        out = np.tensordot(out, E, axes=([0], [0]))  # rotates axes; lag axes stay in front
    # axes now (t, f_1, .., f_{k-1})
    return MultiAxisGrid(out, 1.0 / L, factors)


@dataclass(frozen=True)
class LambdaSet:
    """Positive-side lag scalings of a polynomial Wigner distribution.

    ``lambdas[l-1]`` holds lambda_l for l = 1 .. k/2; the negative side is
    the antisymmetric reflection lambda_{-l} = -lambda_l by convention.
    """

    k: int
    lambdas: tuple[float, ...]

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ContractViolation(f"order k must be even and >= 2, got {self.k}")
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) != self.k // 2:
            raise ContractViolation(f"need k/2 = {self.k // 2} lambdas, got {len(lam)}")
        if not all(math.isfinite(v) for v in lam):
            raise DomainError(f"lambdas must be finite, got {lam}")
        object.__setattr__(self, "lambdas", lam)

    def full(self) -> tuple[float, ...]:
        """(lambda_1 .. lambda_{k/2}, -lambda_1 .. -lambda_{k/2})."""
        return self.lambdas + tuple(-v for v in self.lambdas)


def pwvd_lambdas(k: int, lambda3: float | None = None) -> LambdaSet:
    """Closed-form lag scalings for orders 4 and 6.

    k = 4 ships the canonical (1/4, 1/4) pair; k = 6 solves the constraint
    equations in closed form for a chosen lambda_3 > 1/2 (below that the
    roots go complex).  lambda_1 is the larger root and lambda_2 the
    smaller; the swapped pair is ``LambdaSet(6, (lambda_2, lambda_1, lambda_3))``.
    """
    if k == 4:
        return LambdaSet(4, (0.25, 0.25))
    if k != 6:
        raise ContractViolation(f"closed-form lambda sets exist for k in {{4, 6}}, got {k}")
    if lambda3 is None:
        raise ContractViolation("k = 6 needs lambda3")
    lam3 = float(lambda3)
    if not math.isfinite(lam3):
        raise DomainError(f"lambda3 must be finite, got {lam3}")
    if lam3 < 0.5:
        raise DomainError(f"lambda3 = {lam3} < 1/2 gives complex roots")
    if lam3 == 0.5:
        raise DomainError("lambda3 = 1/2 makes the closed form singular")
    disc = 24 * lam3**3 + 12 * lam3**2 - 6 * lam3 + 1
    if disc < 0:
        raise DomainError(f"negative discriminant for lambda3 = {lam3}")
    radical = math.sqrt(3) * math.sqrt(disc) / (12 * math.sqrt(2 * lam3 - 1))
    base = 0.25 - lam3 / 2
    return LambdaSet(6, (base + radical, base - radical, lam3))


@dataclass(frozen=True)
class LambdaReport:
    half_sum_residual: float
    paired_odd_residuals: dict
    one_sided_odd_sums: dict

    def passed(self, tol: float = 1e-12) -> bool:
        """Every residual within tol; a NaN residual fails."""
        residuals = [self.half_sum_residual, *self.paired_odd_residuals.values()]
        return all(r <= tol for r in residuals)


def check_lambda_constraints(ls: LambdaSet, p: int) -> LambdaReport:
    """Residuals of the lag-scaling constraints up to moment order p.

    Checks the half-sum and the paired odd moments sum_{+-l} lambda^m (zero
    by the antisymmetric ``LambdaSet.full``).  The one-sided odd sums
    sum_{l>0} lambda_l^m are reported as well: they are the binding
    condition for concentration on higher-order phases, satisfied by the
    k = 6 closed form but not by the shipped k = 4 pair.
    """
    lam = np.asarray(ls.lambdas)
    full = np.asarray(ls.full())
    paired = {}
    one_sided = {}
    for m in range(3, max(p, 2) + 1, 2):
        paired[m] = float(abs(np.sum(full**m)))
        one_sided[m] = float(np.sum(lam**m))
    return LambdaReport(
        half_sum_residual=float(abs(np.sum(lam) - 0.5)),
        paired_odd_residuals=paired,
        one_sided_odd_sums=one_sided,
    )


def _integer_period(lam: float, radius: int) -> tuple[int, int]:
    """Smallest p <= radius whose delay step 2 lam p is a whole number q of samples.

    Returns (p, q), or (radius + 1, 0) when no such p exists.
    """
    for p in range(1, radius + 1):
        q = 2 * lam * p
        if q.is_integer():
            return p, int(q)
    return radius + 1, 0


def _shifted_rows(bank: np.ndarray, q: int, K: int) -> np.ndarray:
    """rows[k, r, n] = bank[r, (n + q k) mod L] for k < K, a view of one padded copy."""
    L = bank.shape[1]
    S = abs(q) * (K - 1)
    if S:
        bank = np.pad(bank, ((0, 0), (0, S) if q > 0 else (S, 0)), mode="wrap")
    return sliding_window_view(bank, L, axis=1)[:, :: q or 1].transpose(1, 0, 2)


def _pwvd_lag_products(x: np.ndarray, ls: LambdaSet, radius: int) -> np.ndarray:
    """R[n, m] = prod_l x(n + lambda_l 2m) conj(x(n - lambda_l 2m)), 0 <= m <= L/4.

    The m < 0 half is R(-m) = conj R(m), which the antisymmetric lambda
    convention guarantees, and lags beyond ``radius`` are zero.  Per
    distinct lambda with period (p, q) from ``_integer_period``, only the
    delays of half-lags 0 .. p-1 are transformed, in blocks of ``_BLOCK``:
    x(n + d) = ifft(X r_d) and conj x(n - d) = fft(conj(X) r_d) / L share
    the ramp r_d, so one broadcast multiply fills both rows of a delay.
    Half-lag r + k p then reads those rows shifted by q k whole samples,
    and a repeated lambda is raised to its multiplicity.
    """
    L = x.size
    M0 = L // 4
    X = np.fft.fft(x)
    XX = np.stack([X, np.conj(X) / L])[:, None, None, :]
    periods = {lam: _integer_period(lam, radius) for lam in set(ls.lambdas)}
    rows = max(-(-(radius + 1) // p) * p for p, _ in periods.values())
    RT = np.ones((max(rows, M0 + 1), L), dtype=np.complex128)  # (half-lag, time)
    # one block of delays, both signs, for every lambda
    block_rows = min(_BLOCK, max(p for p, _ in periods.values()))
    banks = np.empty((2, -(-block_rows // _SPLIT) * _SPLIT, L), dtype=np.complex128)
    for lam, mult in Counter(ls.lambdas).items():
        p, q = periods[lam]
        K = -(-(radius + 1) // p)
        shared = RT[: K * p].reshape(K, p, L)  # shared[k, r] is half-lag r + k p
        # the ramp of delay 2 lambda (r0 + s a + b) is the product of those of
        # 2 lambda r0, 2 lambda s a (coarse) and 2 lambda b (fine)
        s = min(_SPLIT, p)
        fine = _phase_ramps(L, 2 * lam * np.arange(s))
        coarse = _phase_ramps(L, 2 * lam * s * np.arange(-(-min(_BLOCK, p) // s)))
        for r0 in range(0, p, _BLOCK):
            B = min(_BLOCK, p - r0)
            heads = coarse[: -(-B // s)] * _phase_ramps(L, 2 * lam * r0)
            bank = banks[:, : heads.shape[0] * s]
            np.multiply(XX * heads[:, None, :], fine, out=bank.reshape(2, -1, s, L))
            bank = bank[:, :B]
            np.fft.ifft(bank[0], axis=1, out=bank[0])  # x(n + d)
            np.fft.fft(bank[1], axis=1, out=bank[1])  # conj x(n - d)
            if mult > 1:
                bank **= mult
            block = shared[:, r0 : r0 + B]
            block *= _shifted_rows(bank[0], q, K)
            block *= _shifted_rows(bank[1], -q, K)
    RT[radius + 1 :] = 0.0
    return RT[: M0 + 1].T


def pwvd(x, ls: LambdaSet, smoothing=None, max_half_lag: int | None = None) -> TFDGrid:
    """Polynomial Wigner distribution with lag scalings from ``ls``.

    Sums the scaled-lag products over the even lag lattice tau = 2m,
    |m| <= max_half_lag (default L/4), then applies the same lag transform
    as the bilinear case, so a pure tone lands on its own bin (guaranteed
    by the half-sum constraint).  Only half-lags 0 <= m <= max_half_lag
    are built, as R(-m) = conj R(m), and each row is one Hermitian
    transform.  The fractional reads x(t +- lambda tau) come from one FFT
    of x and batched transforms over one period of delays per distinct
    lambda (see ``_pwvd_lag_products``): two delays for the shipped k = 4
    pair.  Orders with scalings above 1/2 read the signal beyond +-tau/2;
    shrinking ``max_half_lag`` keeps those reads from wrapping around the
    circle at the cost of frequency resolution.
    ``smoothing``, if given, maps the (time, signed lag) product array of
    shape (L, 2 floor(L/4) + 1) to a filtered one before the transform:
    the pass-through hook for higher-order smoothing kernels.  Its output
    takes the split into even and odd parts of the module docstring.
    When R(n, -m) = conj R(n, m) holds exactly for m >= 1 the odd part is
    dropped and the grid is float64; the m = 0 column gives only its real
    part to the even transform either way.
    """
    x = _even_grid(x, "pwvd")
    L, M0 = x.size, x.size // 4
    _warn_if_not_analytic(x, "pwvd")
    radius = M0 if max_half_lag is None else int(max_half_lag)
    if not 0 < radius <= M0:
        raise ContractViolation(f"max_half_lag must be in [1, L/4], got {radius}")
    if smoothing is None:
        W = _grid(L, np.float64)
        return _lag_grid(W, _pwvd_lag_products(x, ls, radius))
    R = np.asarray(smoothing(_signed_lags(_pwvd_lag_products(x, ls, radius))), dtype=np.complex128)
    if R.shape != (L, _half_lags(L).size):
        raise ContractViolation("smoothing hook must preserve the (time, lag) shape")
    odd = np.conjugate(R[:, M0::-1])
    np.subtract(R[:, M0:], odd, out=odd)  # 2i times the odd part
    if odd[:, 1:].any():
        odd *= -0.5j
    else:
        odd = None
    W = _grid(L, np.float64 if odd is None else np.complex128)
    return _lag_grid(W, R[:, M0:].copy(), odd)


@dataclass(frozen=True)
class PwvdKernelDescriptor:
    """Sparse constraint form of the order-k polynomial-distribution kernel.

    The dense kernel is a product of delta constraints and a Fourier
    factor; this object stores them as structure: the anti-pairing
    (tau_{-l} = -tau_l), the ray direction (tau = lambda * s with the
    half-sum pinning sum_{l>0} tau_l = s/2), the odd-moment slices, and
    the Fourier factor exp(-2i pi f s / L) in the ray parameter s.
    """

    k: int
    lambdas: LambdaSet
    f_bin: int

    def direction(self) -> tuple[float, ...]:
        return self.lambdas.full()

    def support_point(self, s: float) -> np.ndarray:
        """The delay vector on the constraint ray with lag parameter s."""
        return s * np.asarray(self.direction())

    def constraint_residuals(self, tau_vec) -> dict:
        """How far a delay vector is from the kernel's support."""
        tau = np.asarray(tau_vec, dtype=float)
        if tau.size != self.k:
            raise ContractViolation(f"delay vector must have {self.k} entries")
        half = self.k // 2
        pos, neg = tau[:half], tau[half:]
        s = 2.0 * float(pos.sum())
        odd = {
            m: float(abs(np.sum(tau**m)))
            for m in range(3, self.k + 1, 2)
        }
        return {
            "anti_pairing": float(np.max(np.abs(pos + neg))),
            "ray": float(np.max(np.abs(tau - self.support_point(s)))),
            "odd_moments": odd,
        }

    def contract(self, z) -> np.ndarray:
        """Contract against shifted-signal products: one row of the distribution.

        The support ray over the even lag lattice is the lag-product matrix
        of ``pwvd``; it is weighted by the Fourier factor exp(-2i pi f 2m / L)
        and summed.  An inconsistent half-sum empties the constraint slice
        and returns zeros.
        """
        z = _even_grid(z, "contract")
        L = z.size
        if abs(sum(self.lambdas.lambdas) - 0.5) > 1e-9:
            return np.zeros(L, dtype=np.complex128)
        weights = np.exp(-2j * np.pi * self.f_bin * 2 * _half_lags(L) / L)
        return _signed_lags(_pwvd_lag_products(z, self.lambdas, L // 4)) @ weights


def pwvd_volterra_kernel(k: int, ls: LambdaSet, f_bin: int) -> PwvdKernelDescriptor:
    """Constraint-object form of the polynomial-distribution kernel."""
    if ls.k != k:
        raise ContractViolation(f"lambda set is for order {ls.k}, not {k}")
    return PwvdKernelDescriptor(k, ls, int(f_bin))


def if_concentration(grid: TFDGrid, phase: PolynomialPhase) -> float:
    """Mean absolute bin distance between per-row argmax and the phase law.

    The first and last 10 percent of rows are excluded (boundary wrap of
    non-periodic phase laws contaminates them).
    """
    T = grid.values.shape[0]
    edge = int(round(0.1 * T))
    if T - edge <= edge:
        raise ContractViolation("grid too short for the 10 percent edge exclusion")
    peaks = np.argmax(np.abs(grid.values[edge : T - edge]), axis=1)
    # np.rint rounds half to even, as round does
    targets = np.rint(phase.instantaneous_frequency(np.arange(edge, T - edge)) / grid.freq_scale)
    return float(np.mean(np.abs(peaks - targets)))


def interference_term_count(k: int) -> int:
    """Cross-term count of an order-k distribution on a two-component signal."""
    if k < 2:
        raise ContractViolation(f"order must be >= 2, got {k}")
    return sum(math.comb(k, r) for r in range(1, k))
