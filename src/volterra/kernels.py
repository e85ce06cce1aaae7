"""Homogeneous kernels and whole series on a finite circular grid.

Conventions used everywhere in the package:

* a signal is a length-L complex vector indexed mod L;
* its spectrum is the unnormalized DFT  s_hat(k) = sum_t s(t) exp(-2i pi k t / L)
  (numpy's default), so the inverse carries the 1/L;
* an order-j kernel is a dense complex tensor over the delay lattice
  {0..M-1}^j, and its frequency response is the j-dimensional DFT of the
  kernel zero-embedded into {0..L-1}^j.

Kernels are stored dense; the practical caps are order <= 4 and memory
M <= 16 unless a caller knows better.

Cached tables.  Composition and morphisms need integer tables that depend
only on shapes, never on kernel data.  Each is built once, kept in a
``functools.lru_cache`` bounded by entry count, and is read-only (arrays
have ``setflags(write=False)``, the rest are tuples):

* here, the orbit table of the {0..M-1}^j delay lattice, keyed by
  ``(order, memory)``, at most 64 shapes; both symmetrizers read it;
* in ``algebra``, the association label multisets, keyed by
  ``(j, n_C, n_B, n_A, association)``, at most 256 entries;
* in ``morphisms``, the frequency-lattice map of an integer matrix, keyed
  by ``(rows, j, L)``, at most 16 entries of 8 L^j bytes each; only the
  pullback gather reads it.

An orbit table holds 8 M^j bytes, half of one complex kernel of that shape.

Copies.  Kernel data is read-only.  The public ``VolterraKernel(...)``
constructor converts and copies the caller's array in one step, so later
writes to that array never reach the kernel.  The package's own producers
(the symmetrizers, ``zero_pad``, ``VolterraSeries.kernel_of_order`` and the
products in ``algebra``) build a fresh array no one else holds and hand it
over through ``VolterraKernel._fresh``, which marks it read-only without a
copy.  A series keeps its kernels in a read-only dict, so the orders and
memory it reads off them once at construction stay true.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ContractViolation, GridError

__all__ = [
    "VolterraKernel",
    "VolterraSeries",
    "DEFAULT_MAX_ORDER",
    "kernel_from_array",
    "delta_kernel",
    "constant_kernel",
    "zero_pad",
    "symmetrize_plain",
    "symmetrize_weighted",
    "symmetric_part_max_deviation",
    "vfrf",
    "elementary_series",
    "identity_series",
    "delay_series",
    "differencer_series",
    "memoryless_polynomial_series",
    "series_from_kernels",
    "zero_series",
]

DEFAULT_MAX_ORDER = 4


@dataclass(frozen=True)
class VolterraKernel:
    """Order-j weight tensor over the delay lattice {0..M-1}^j.

    ``data`` has shape ``(M,) * order``; an order-0 kernel is a 0-d array
    holding the constant term.
    """

    order: int
    memory: int
    data: np.ndarray

    def __post_init__(self):
        self._take(np.array(self.data, dtype=np.complex128))

    @classmethod
    def _fresh(cls, order: int, memory: int, data: np.ndarray) -> "VolterraKernel":
        """Kernel over a fresh complex array no one else holds, taken read-only, uncopied."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "order", order)
        object.__setattr__(kernel, "memory", memory)
        kernel._take(data)
        return kernel

    def _take(self, data: np.ndarray) -> None:
        if self.order < 0:
            raise ContractViolation(f"kernel order must be >= 0, got {self.order}")
        if self.memory < 1:
            raise ContractViolation(f"kernel memory must be >= 1, got {self.memory}")
        if data.shape != (self.memory,) * self.order:
            raise ContractViolation(
                f"kernel data shape {data.shape} != {(self.memory,) * self.order}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def constant(self) -> complex:
        if self.order != 0:
            raise ContractViolation("constant is only defined for order-0 kernels")
        return complex(self.data)


def kernel_from_array(data, memory=None) -> VolterraKernel:
    """Wrap an ndarray as a kernel; order and memory are read off the shape.

    A given ``memory`` must match the shape (order 0 has none to match).
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim == 0:
        return VolterraKernel(0, memory or 1, data)
    sizes = set(data.shape)
    if len(sizes) != 1:
        raise ContractViolation(f"kernel tensor must be hypercubic, got shape {data.shape}")
    if memory is not None and memory != data.shape[0]:
        raise ContractViolation(f"memory {memory} contradicts kernel shape {data.shape}")
    return VolterraKernel(data.ndim, data.shape[0], data)


def delta_kernel(order: int, memory: int, position=None, value=1.0) -> VolterraKernel:
    """Kernel with a single nonzero entry (defaults to the origin)."""
    if position is None:
        position = (0,) * order
    position = tuple(int(p) for p in position)
    if len(position) != order or any(not 0 <= p < memory for p in position):
        raise GridError(f"delta position {position} outside {{0..{memory - 1}}}^{order}")
    data = np.zeros((memory,) * order, dtype=np.complex128)
    data[position] = value
    return VolterraKernel(order, memory, data)


def constant_kernel(value) -> VolterraKernel:
    return VolterraKernel(0, 1, np.asarray(value, dtype=np.complex128))


def zero_pad(kernel: VolterraKernel, memory: int) -> VolterraKernel:
    """Embed the kernel into a larger delay lattice, padding with zeros.

    Kernels are immutable: an unchanged memory or order 0 returns the kernel.
    """
    if memory < kernel.memory:
        raise ContractViolation(f"cannot shrink memory {kernel.memory} -> {memory}")
    if memory == kernel.memory or kernel.order == 0:
        return kernel
    data = np.zeros((memory,) * kernel.order, dtype=np.complex128)
    data[tuple(slice(0, kernel.memory) for _ in range(kernel.order))] = kernel.data
    return VolterraKernel._fresh(kernel.order, memory, data)


@functools.lru_cache(maxsize=64)
def _orbit_buckets(order: int, memory: int):
    """Orbit table of {0..memory-1}^order, read-only and cached by shape.

    Returns the bucket id of every lattice point (the rank of its sorted
    delay multiset among all such multisets) and the size of every bucket.
    """
    shape, dtype = (memory,) * order, np.min_scalar_type(memory)
    # one axis at a time: np.indices would need order + 1 axes, past numpy's 64 at order 64
    taus = [np.broadcast_to(axis.astype(dtype), shape).ravel() for axis in np.indices(shape, sparse=True)]
    # odd-even transposition network: sorts each point's delays in place
    for step in range(order):
        for a in range(step % 2, order - 1, 2):
            lo, hi = np.minimum(taus[a], taus[a + 1]), np.maximum(taus[a], taus[a + 1])
            taus[a], taus[a + 1] = lo, hi
    canon = np.zeros(memory**order, dtype=np.intp)  # flat index of the sorted point, by Horner
    for tau in taus:
        canon *= memory
        canon += tau
    present = np.zeros(memory**order, dtype=bool)
    present[canon] = True
    bucket = (np.cumsum(present) - 1)[canon]
    counts = np.bincount(bucket)
    bucket.setflags(write=False)
    counts.setflags(write=False)
    return bucket, counts


def _orbit_sums(kernel: VolterraKernel):
    """(bucket per point, orbit sizes, kernel sum over each orbit)."""
    bucket, counts = _orbit_buckets(kernel.order, kernel.memory)
    flat = kernel.data.ravel()
    sums = np.bincount(bucket, weights=flat.real) + 1j * np.bincount(bucket, weights=flat.imag)
    return bucket, counts, sums


def symmetrize_plain(kernel: VolterraKernel) -> VolterraKernel:
    """Average the kernel over all j! permutations of its delay axes.

    Computed by orbit averaging (group points by their sorted delay
    multiset), which equals the permutation average and stays tractable
    for high orders.
    """
    j, M = kernel.order, kernel.memory
    if j <= 1:
        return kernel
    bucket, counts, sums = _orbit_sums(kernel)
    return VolterraKernel._fresh(j, M, (sums / counts)[bucket].reshape(kernel.data.shape))


def symmetrize_weighted(kernel: VolterraKernel) -> VolterraKernel:
    """Permutation sum divided by the multinomial of each point's multiset.

    The divisor n*(tau) = j!/prod(multiplicities!) equals the orbit size, so
    the output at tau is (j! / orbit) * orbit mean.  On a j = 2 diagonal
    point this gives 2 v(a, a), unlike the plain average.
    """
    j, M = kernel.order, kernel.memory
    if j <= 1:
        return kernel
    bucket, counts, sums = _orbit_sums(kernel)
    scaled = sums * (math.factorial(j) / counts**2)
    return VolterraKernel._fresh(j, M, scaled[bucket].reshape(kernel.data.shape))


def symmetric_part_max_deviation(kernel: VolterraKernel) -> float:
    """Max abs difference between the kernel and its permutation average."""
    return float(np.max(np.abs(kernel.data - symmetrize_plain(kernel).data))) if kernel.order else 0.0


def vfrf(kernel: VolterraKernel, L: int) -> np.ndarray:
    """j-dimensional DFT of the kernel zero-embedded into {0..L-1}^j.

    Returns a read-only complex array of shape ``(L,) * j``; for an order-0
    kernel that is the 0-d constant term.
    """
    if kernel.memory > L:
        raise GridError(f"kernel memory {kernel.memory} exceeds grid length {L}")
    j = kernel.order
    if j == 0:
        return kernel.data
    fr = np.fft.fftn(kernel.data, s=(L,) * j, axes=tuple(range(j)))
    fr.setflags(write=False)
    return fr


class _ReadOnlyDict(dict):
    """A dict whose mutators raise; ``dict(d)`` or ``d.copy()`` gives a writable copy."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("the kernels of a series are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True)
class VolterraSeries:
    """A finite indexed family of kernels.

    ``kernels`` maps an opaque index to its kernel; the order map is read
    off the kernels.  The canonical form has at most one index per order
    (with the order itself as the index); sums and morphism targets may
    carry several kernels of the same order.
    """

    kernels: Mapping[object, VolterraKernel] = field(default_factory=dict)

    def __post_init__(self):
        kernels = dict(self.kernels)
        orders = tuple(sorted({k.order for k in kernels.values()}))
        object.__setattr__(self, "kernels", _ReadOnlyDict(kernels))
        # read off once: the kernels mapping is read-only and kernels are immutable
        object.__setattr__(self, "_orders", orders)
        memory = max((k.memory for k in kernels.values() if k.order > 0), default=1)
        object.__setattr__(self, "_memory", memory)
        canonical = tuple(kernels) == orders and all(i == k.order for i, k in kernels.items())
        object.__setattr__(self, "_canonical", canonical)

    def __reduce__(self):
        # pickle refills a dict subclass item by item, which the read-only dict refuses
        return type(self), (dict(self.kernels),)

    @property
    def indices(self) -> tuple:
        return tuple(self.kernels)

    def order_of(self, index) -> int:
        return self.kernels[index].order

    def orders(self) -> tuple[int, ...]:
        return self._orders

    @property
    def max_order(self) -> int:
        return self._orders[-1] if self._orders else 0

    @property
    def memory(self) -> int:
        return self._memory

    @property
    def constant(self) -> complex:
        return complex(sum(complex(k.data) for k in self.kernels.values() if k.order == 0))

    def kernel_of_order(self, j: int) -> VolterraKernel | None:
        """Sum of all kernels of order j on a common grid, or None."""
        same = [k for k in self.kernels.values() if k.order == j]
        if not same:
            return None
        if len(same) == 1:
            return same[0]
        M = max(k.memory for k in same)
        data = np.zeros((M,) * j, dtype=np.complex128)
        for k in same:
            data[(slice(0, k.memory),) * j] += k.data
        return VolterraKernel._fresh(j, M, data)

    def canonical(self) -> "VolterraSeries":
        """Merge kernels level-wise so each order appears exactly once, keyed by order.

        A series already in that form, keys ascending, is returned itself.
        """
        if self._canonical:
            return self
        return VolterraSeries({j: self.kernel_of_order(j) for j in self._orders})

    def is_canonical(self) -> bool:
        """True iff ``canonical()`` returns the series itself: keyed by order, ascending."""
        return self._canonical

    def map_kernels(self, fn) -> "VolterraSeries":
        return VolterraSeries({i: fn(k) for i, k in self.kernels.items()})


def series_from_kernels(kernels) -> VolterraSeries:
    """Build a canonical series from an iterable or order->kernel mapping."""
    if isinstance(kernels, Mapping):
        items = kernels.items()
        for j, k in items:
            if k.order != j:
                raise ContractViolation(f"kernel of order {k.order} filed under order {j}")
        return VolterraSeries(dict(items))
    out = {}
    for k in kernels:
        if k.order in out:
            raise ContractViolation(f"duplicate order {k.order}; use VolterraSeries directly")
        out[k.order] = k
    return VolterraSeries(out)


def zero_series() -> VolterraSeries:
    return VolterraSeries({})


def identity_series() -> VolterraSeries:
    """Order-1 delta at zero delay: the unit of series composition."""
    return series_from_kernels([delta_kernel(1, 1)])


def delay_series(d: int, memory: int | None = None) -> VolterraSeries:
    """Pure delay by d samples as an order-1 kernel."""
    if d < 0:
        raise GridError(f"delay must be >= 0, got {d}")
    M = memory if memory is not None else d + 1
    if d >= M:
        raise GridError(f"delay {d} outside the grid {{0..{M - 1}}}")
    return series_from_kernels([delta_kernel(1, M, (d,))])


def differencer_series(r: int) -> VolterraSeries:
    """First-difference stencil [1, -1] composed r times.

    A discrete surrogate for r-fold differentiation; the exact spectral
    multiplier is available through the actions module instead.
    """
    if r < 0:
        raise ContractViolation(f"differencer order must be >= 0, got {r}")
    taps = np.array([1.0])
    for _ in range(r):
        taps = np.convolve(taps, [1.0, -1.0])
    return series_from_kernels([kernel_from_array(taps.astype(np.complex128))])


def memoryless_polynomial_series(coeffs, max_order: int | None = None) -> VolterraSeries:
    """sum_n a_n s(t)^n as one delta-at-origin kernel per nonzero a_n."""
    coeffs = list(coeffs)
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    if len(coeffs) - 1 > cap:
        raise ContractViolation(
            f"polynomial order {len(coeffs) - 1} exceeds configured max order {cap}"
        )
    kernels = {}
    for n, a in enumerate(coeffs):
        if a == 0:
            continue
        kernels[n] = constant_kernel(a) if n == 0 else delta_kernel(n, 1, value=a)
    return VolterraSeries(kernels)


def elementary_series(kind: str, **params) -> VolterraSeries:
    """Constructor dispatcher for the stock elementary systems.

    kinds: ``identity``, ``delay`` (d, memory), ``differencer`` (r),
    ``memoryless-polynomial`` / ``polynomial`` (coeffs, max_order).
    """
    if kind == "identity":
        return identity_series()
    if kind == "delay":
        return delay_series(**params)
    if kind == "differencer":
        return differencer_series(**params)
    if kind in ("polynomial", "memoryless-polynomial"):
        return memoryless_polynomial_series(**params)
    raise ContractViolation(f"unknown elementary system kind {kind!r}")
