"""Homogeneous kernels and whole series on a finite circular grid.

Conventions used everywhere in the package:

* a signal is a length-L complex vector indexed mod L;
* its spectrum is the unnormalized DFT  s_hat(k) = sum_t s(t) exp(-2i pi k t / L)
  (numpy's default), so the inverse carries the 1/L;
* an order-j kernel is a complex tensor over the delay lattice
  {0..M-1}^j, and its frequency response is the j-dimensional DFT of the
  kernel zero-embedded into {0..L-1}^j.

A kernel is stored dense unless it is symmetric.  Both symmetrizers return
a ``PackedKernel``: one value per orbit of the lattice (per multiset of
delays, Schetzen's symmetric-kernel storage), C(M + j - 1, j) values
instead of M^j.  Its ``data`` is the dense tensor, expanded from the orbit
values on first read and kept; the time evaluator reads the orbit values
directly.  The practical caps of a dense kernel are order <= 4 and memory
M <= 16 unless a caller knows better.

Cached tables.  Composition and morphisms need integer tables that depend
only on shapes, never on kernel data.  Each is built once, kept in a
``functools.lru_cache`` bounded by entry count, and is read-only (arrays
have ``setflags(write=False)``, the rest are tuples):

* here, keyed by ``(order, memory)``, at most 64 shapes each: the orbit
  table of the {0..M-1}^j delay lattice, which the symmetrizers and the
  expansion of a packed kernel read; the orbit representatives and sizes,
  which the time evaluator and composition read; and the j x M terms of
  ``_orbit_rank``, which maps sorted delays to their orbit without the
  lattice;
* in ``algebra``, the association label multisets, keyed by
  ``(j, n_C, n_B, n_A, association)``, at most 256 entries, and the two
  rank tables of composition and the product, at most 64 shapes each:
  where each orbit of a kernel lands when delayed, 8 (L' - M + 1)
  C(M + l - 1, l) bytes, and where the product of two orbits lands,
  16 N_d N_l bytes with N_d = C(L' + d - 1, d), never more than the
  16 L'^(d + l) bytes of a dense order-(d + l) term;
* in ``morphisms``, the frequency-lattice map of an integer matrix, keyed
  by ``(rows, j, L)``, at most 16 entries of 8 L^j bytes each; only the
  pullback gather reads it.

An orbit table holds 8 M^j bytes, half of one complex kernel of that shape.

Copies.  Kernel data is read-only.  The public ``VolterraKernel(...)``
constructor converts and copies the caller's array in one step, so later
writes to that array never reach the kernel.  The package's own producers
of dense kernels (``zero_pad``, ``VolterraSeries.kernel_of_order``, and in
``algebra`` the order-1 products and composites) build a fresh array no one
else holds and hand it over through ``VolterraKernel._fresh``, which marks
it read-only without a copy.  A ``PackedKernel`` copies its orbit values, a
small array.  A series keeps its kernels in a read-only dict, so the orders
and memory it reads off them once at construction stay true.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ContractViolation, GridError

__all__ = [
    "VolterraKernel",
    "PackedKernel",
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


@functools.lru_cache(maxsize=64)
def _orbit_representatives(order: int, memory: int):
    """Sorted delays and size of every orbit, column b for bucket b; read-only, cached by shape.

    Returns an ``(order, orbits)`` array of delays and the orbit sizes
    j!/prod(multiplicities!), built without the lattice: the sorted delay
    multisets come in lexicographic order, the bucket order of ``_orbit_buckets``.
    """
    reps = np.array(list(zip(*itertools.combinations_with_replacement(range(memory), order))), dtype=np.intp)
    sizes = run = np.ones(reps.shape[1], dtype=np.intp)
    for r in range(1, order):  # multinomial of the first r + 1 delays, one delay at a time
        run = np.where(reps[r] == reps[r - 1], run + 1, 1)
        sizes = sizes * (r + 1) // run
    reps.setflags(write=False)
    sizes.setflags(write=False)
    return reps, sizes


@functools.lru_cache(maxsize=64)
def _rank_terms(order: int, memory: int) -> np.ndarray:
    """table[i, d] = C(memory + order - 2 - i - d, order - i): what delay d in place i
    takes off an orbit's rank (``_orbit_rank``).  Read-only, cached by shape."""
    n = memory + order - 1
    table = np.array([[math.comb(n - 1 - i - d, order - i) for d in range(memory)] for i in range(order)], dtype=np.int64)
    table.setflags(write=False)
    return table


def _orbit_rank(delays: np.ndarray, memory: int) -> np.ndarray:
    """Bucket ids of sorted delay multisets of {0..memory-1}, delays along the first axis.

    The rank of d_0 <= ... <= d_{j-1} among all such multisets in lexicographic
    order, the column order of ``_orbit_representatives(j, memory)``.  In the
    combinatorial number system the j-subset c_i = d_i + i of {0..N-1},
    N = memory + j - 1, has rank C(N, j) - 1 - sum_i C(N - 1 - c_i, j - i).  No
    term exceeds C(N, j), the orbit count, so int64 is exact for every table
    that fits in memory, where base-memory codes overflow once memory^j >= 2^63.
    """
    j = delays.shape[0]
    terms = _rank_terms(j, memory)
    rank = np.full(delays.shape[1:], math.comb(memory + j - 1, j) - 1, dtype=np.int64)
    for i in range(j):
        rank -= terms[i, delays[i]]
    return rank


def _orbit_sums(kernel: VolterraKernel):
    """(orbit sizes, kernel sum over each orbit), in bucket order."""
    bucket, counts = _orbit_buckets(kernel.order, kernel.memory)
    flat = kernel.data.ravel()
    sums = np.bincount(bucket, weights=flat.real) + 1j * np.bincount(bucket, weights=flat.imag)
    return counts, sums


class PackedKernel(VolterraKernel):
    """A symmetric kernel held as one value per orbit of {0..M-1}^j.

    ``values[b]`` is the kernel at every point of orbit b, the bucket id of
    ``_orbit_buckets(order, memory)``: the rank of the sorted delay multiset.
    ``data`` expands the values to the dense lattice on first read, read-only,
    and keeps the expansion; a pickle holds the values only.
    """

    def __init__(self, order: int, memory: int, values):
        values = np.array(values, dtype=np.complex128)
        if order < 1 or memory < 1 or values.shape != (math.comb(memory + order - 1, order),):
            raise ContractViolation(
                f"{values.shape} orbit values do not fit order {order} and memory {memory}"
            )
        values.setflags(write=False)
        for name, value in (("order", order), ("memory", memory), ("values", values)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def data(self) -> np.ndarray:
        bucket, _ = _orbit_buckets(self.order, self.memory)
        data = self.values[bucket].reshape((self.memory,) * self.order)
        data.setflags(write=False)
        return data

    def __reduce__(self):
        return type(self), (self.order, self.memory, self.values)


def symmetrize_plain(kernel: VolterraKernel) -> VolterraKernel:
    """Average the kernel over all j! permutations of its delay axes.

    Computed by orbit averaging (group points by their sorted delay
    multiset), which equals the permutation average and stays tractable
    for high orders.  The result is packed: the mean of each orbit.  A
    packed kernel is symmetric already and is returned itself.
    """
    if kernel.order <= 1 or isinstance(kernel, PackedKernel):
        return kernel
    counts, sums = _orbit_sums(kernel)
    return PackedKernel(kernel.order, kernel.memory, sums / counts)


def symmetrize_weighted(kernel: VolterraKernel) -> VolterraKernel:
    """Permutation sum divided by the multinomial of each point's multiset.

    The divisor n*(tau) = j!/prod(multiplicities!) equals the orbit size, so
    the output at tau is (j! / orbit) * orbit mean, packed.  On a j = 2
    diagonal point this gives 2 v(a, a), unlike the plain average; so it is
    no projection, and a packed input is weighted again through its data.
    """
    j = kernel.order
    if j <= 1:
        return kernel
    counts, sums = _orbit_sums(kernel)
    return PackedKernel(j, kernel.memory, sums * (math.factorial(j) / counts**2))


def symmetric_part_max_deviation(kernel: VolterraKernel) -> float:
    """Max abs difference between the kernel and its permutation average; 0 if packed, unexpanded."""
    symmetric = kernel.order == 0 or isinstance(kernel, PackedKernel)
    return 0.0 if symmetric else float(np.max(np.abs(kernel.data - symmetrize_plain(kernel).data)))


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
        """Sum of all kernels of order j on a common grid, or None.

        Packed kernels add their orbit values, each re-ranked to the largest
        memory, and stay packed; any dense kernel among them makes the sum dense.
        """
        same = [k for k in self.kernels.values() if k.order == j]
        if not same:
            return None
        if len(same) == 1:
            return same[0]
        M = max(k.memory for k in same)
        if all(isinstance(k, PackedKernel) for k in same):
            values = np.zeros(math.comb(M + j - 1, j), dtype=np.complex128)
            for k in same:
                values[_orbit_rank(_orbit_representatives(j, k.memory)[0], M)] += k.values
            return PackedKernel(j, M, values)
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
