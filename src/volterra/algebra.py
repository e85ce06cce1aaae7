"""Sum, product and series composition of Volterra series.

The three interconnection products at the kernel level.  Sums add kernels
level-wise; products tensor kernels over binary weak compositions of the
order; series composition assembles, for every composite order j, the sum
over block splits of the outer series' spectrum pulled back along the
block-sum matrix times the inner series' block spectra, then inverse
transforms.  Composition requires the inner constant term to be zero;
callers fold constants into the outer series first.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .combinatorics import WeakComposition, compositions, weak_compositions
from .errors import ContractViolation, TruncationWarning
from .evaluation import eval_time
from .kernels import (
    DEFAULT_MAX_ORDER,
    VolterraKernel,
    VolterraSeries,
    constant_kernel,
    symmetrize_plain,
    vfrf,
    zero_pad,
)
from .morphisms import Morphism, lens_identity, pullback_gather

__all__ = [
    "SMatrix",
    "sum_series",
    "coproduct",
    "product_series",
    "s_matrix",
    "compose_series",
    "composition_labels",
    "AssociativityReport",
    "associativity_harness",
]


def _tagged_union(V: VolterraSeries, W: VolterraSeries) -> VolterraSeries:
    """V and W side by side, their indices tagged (0, i) and (1, i)."""
    return VolterraSeries({(tag, i): k for tag, S in ((0, V), (1, W)) for i, k in S.kernels.items()})


def sum_series(V: VolterraSeries, W: VolterraSeries) -> VolterraSeries:
    """Level-wise addition of kernels; outputs add for every input."""
    return _tagged_union(V, W).canonical()


def coproduct(V: VolterraSeries, W: VolterraSeries, L: int):
    """Disjoint-union form of the sum with its two inclusion morphisms.

    Returns (V + W with indices tagged (0, i) / (1, i), iota, kappa); the
    inclusions are unit lenses onto the tagged copies.  ``canonical()`` of
    the returned series is ``sum_series(V, W)``.
    """
    def inclusion(tag, S):
        unit = lens_identity(S, L)
        return Morphism({i: (tag, i) for i in unit.index_map}, unit.matrices, unit.masks)

    return _tagged_union(V, W), inclusion(0, V), inclusion(1, W)


def product_series(
    A: VolterraSeries, B: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Pointwise product of outputs, as one series.

    The order-j kernel is the sum over binary weak compositions j = k1 + k2
    of the tensor products a_k1 (x) b_k2 arranged on the block split; its
    spectrum is the matching product of block spectra.  Orders above
    ``max_order`` are dropped with a TruncationWarning.
    """
    Ac, Bc = A.canonical(), B.canonical()
    full = Ac.max_order + Bc.max_order
    cap = full if max_order is None else max_order
    M = max(Ac.memory, Bc.memory)
    kernels = {}
    for j in range(0, min(full, cap) + 1):
        acc = None
        for p in weak_compositions(j, 2):
            k1, k2 = p.parts
            a = Ac.kernel_of_order(k1)
            b = Bc.kernel_of_order(k2)
            if a is None or b is None:
                continue
            a = zero_pad(a, M) if k1 else a
            b = zero_pad(b, M) if k2 else b
            term = np.multiply.outer(a.data, b.data)
            acc = term if acc is None else acc + term
        if acc is None:
            continue
        kernels[j] = constant_kernel(acc) if j == 0 else VolterraKernel(j, M, acc)
    if full > cap:
        dropped = [
            j
            for j in range(cap + 1, full + 1)
            if any(
                Ac.kernel_of_order(p.parts[0]) is not None
                and Bc.kernel_of_order(p.parts[1]) is not None
                for p in weak_compositions(j, 2)
            )
        ]
        if dropped:
            warnings.warn(TruncationWarning("product", dropped, cap), stacklevel=2)
    return VolterraSeries(kernels)


@dataclass(frozen=True)
class SMatrix:
    """Block-sum matrix of a weak composition: row r has the r-th block of ones.

    Applied to a frequency vector it returns the k block sums, so pulling a
    kernel spectrum back along it realizes the composition formula.
    """

    j: int
    k: int
    partition: WeakComposition
    entries: np.ndarray


def s_matrix(j: int, k: int, p: WeakComposition) -> SMatrix:
    if p.arity != k or p.total != j:
        raise ContractViolation(f"{p} is not a weak {k}-composition of {j}")
    entries = np.zeros((k, j), dtype=np.int64)
    offset = 0
    for r, width in enumerate(p.parts):
        entries[r, offset : offset + width] = 1
        offset += width
    return SMatrix(j, k, p, entries)


@functools.lru_cache(maxsize=256)
def _composition_terms(j: int, outer_orders: tuple, inner_orders: tuple) -> tuple:
    """(k, parts, read-only S_p entries) for every term of composite order j.

    One entry per composition p of j into k parts with k an outer order and
    every part an inner order, in the order ``compose_series`` sums them.
    """
    terms = []
    for k in outer_orders:
        for comp in compositions(j, k):
            if any(part not in inner_orders for part in comp.parts):
                continue
            entries = s_matrix(j, k, WeakComposition(comp.parts)).entries
            entries.setflags(write=False)
            terms.append((k, comp.parts, entries))
    return tuple(terms)


def compose_series(
    B: VolterraSeries, A: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Series composition: feed the output of A into B.

    Composite order-j spectrum at internal length L' = M_A + M_B - 1:

        sum_{k <= n_B} sum_{p in compositions(j, k)}
            b_hat_k(S_p Omega_j) * prod_r a_hat_{p_r}(theta_r)

    (weak compositions with zero parts vanish because A has no constant
    term, which is required).  Kernels are assembled in the frequency
    domain, inverse transformed, and symmetrized as the canonical form.
    Orders above ``max_order`` are dropped with a TruncationWarning.

    The data-independent tables are cached, bounded and read-only: the
    list of (k, p, S_p) terms per composite order, keyed by ``(j, orders
    of B, orders of A)`` (256 entries); the flat gather index of each S_p,
    keyed by its int64 bytes, shape and L' (``morphisms``, 128 entries);
    and the orbit table that symmetrizes each order-j result, keyed by
    ``(j, L')`` (``kernels``, 64 entries).
    """
    if A.constant != 0:
        raise ContractViolation(
            "series composition requires the inner series to have zero constant term; "
            "fold the constant into the outer series first"
        )
    Ac, Bc = A.canonical(), B.canonical()
    n_A, n_B = Ac.max_order, Bc.max_order
    Lp = max(Ac.memory + Bc.memory - 1, 1)
    full = n_A * n_B
    cap = full if max_order is None else max_order
    a_frf = {
        l: vfrf(Ac.kernel_of_order(l), Lp) for l in Ac.orders() if l >= 1
    }
    b_frf = {
        k: vfrf(Bc.kernel_of_order(k), Lp) for k in Bc.orders() if k >= 1
    }
    kernels = {}
    if Bc.constant != 0:
        kernels[0] = constant_kernel(Bc.constant)
    for j in range(1, min(full, cap) + 1):
        acc = None
        for k, parts, entries in _composition_terms(j, tuple(sorted(b_frf)), tuple(sorted(a_frf))):
            term = pullback_gather(b_frf[k], entries, Lp)
            outer = a_frf[parts[0]]
            for part in parts[1:]:
                outer = np.multiply.outer(outer, a_frf[part])
            term *= outer
            if acc is None:
                acc = term
            else:
                acc += term
        if acc is None:
            continue
        kernels[j] = symmetrize_plain(VolterraKernel(j, Lp, np.fft.ifftn(acc)))
    if full > cap:
        dropped = list(range(cap + 1, full + 1))
        warnings.warn(TruncationWarning("compose", dropped, cap), stacklevel=2)
    return VolterraSeries(kernels)


@functools.lru_cache(maxsize=256)
def _label_table(j: int, n_C: int, n_B: int, n_A: int, association: str) -> tuple:
    """The label multiset of ``composition_labels`` as (label, count) pairs."""
    out: Counter = Counter()
    if association == "right":  # C after (B after A)
        for k in range(1, n_C + 1):
            for p in compositions(j, k):
                if max(p.parts) > n_B * n_A:
                    continue
                per_block = []
                for alpha in p.parts:
                    opts = [
                        (l, q.parts)
                        for l in range(1, n_B + 1)
                        for q in compositions(alpha, l)
                        if max(q.parts) <= n_A
                    ]
                    per_block.append(opts)
                if any(not opts for opts in per_block):
                    continue
                for choice in itertools.product(*per_block):
                    b_orders = tuple(l for l, _ in choice)
                    a_orders = tuple(x for _, q in choice for x in q)
                    out[(k, b_orders, a_orders)] += 1
    elif association == "left":  # (C after B) after A
        for m in range(1, n_C * n_B + 1):
            for q in compositions(j, m):
                if max(q.parts) > n_A:
                    continue
                for k in range(1, n_C + 1):
                    for p in compositions(m, k):
                        if max(p.parts) > n_B:
                            continue
                        out[(k, p.parts, q.parts)] += 1
    else:
        raise ContractViolation(f"association must be 'left' or 'right', got {association!r}")
    return tuple(out.items())


def composition_labels(j: int, n_C: int, n_B: int, n_A: int, association: str) -> Counter:
    """Multiset of (outer order, inner-order tuple, innermost-order tuple) labels.

    Enumerates the contribution terms of the two ternary association orders
    the way each one structures them; the theorem says the two multisets
    coincide for every composite order j.  The multiset is built once per
    argument tuple (cached, 256 entries); each call returns a fresh Counter.
    """
    return Counter(dict(_label_table(j, n_C, n_B, n_A, association)))


@dataclass(frozen=True)
class AssociativityReport:
    orders: tuple[int, ...]
    kernel_deviation_per_order: dict
    max_kernel_deviation: float
    output_deviations: tuple[float, ...]
    max_output_deviation: float
    labels_match: bool

    @property
    def ok(self) -> bool:
        return self.labels_match and self.max_kernel_deviation <= 1e-8


def associativity_harness(
    C: VolterraSeries,
    B: VolterraSeries,
    A: VolterraSeries,
    trials: int = 3,
    L: int | None = None,
    rng=None,
) -> AssociativityReport:
    """Build both ternary associations and report their disagreement.

    Kernel-level: per-order max abs deviation between the (symmetrized,
    canonical) kernels of (C . B) . A and C . (B . A).  Output-level: max
    deviation on random signals.  Also checks the combinatorial label
    multisets of the two expansions coincide order by order.
    """
    if A.constant != 0 or B.constant != 0:
        raise ContractViolation("associativity harness assumes zero constant terms for A and B")
    left = compose_series(compose_series(C, B, max_order=None), A, max_order=None)
    right = compose_series(C, compose_series(B, A, max_order=None), max_order=None)
    orders = tuple(sorted(set(left.orders()) | set(right.orders())))
    per_order = {}
    for j in orders:
        lk, rk = left.kernel_of_order(j), right.kernel_of_order(j)
        if lk is None and rk is None:
            per_order[j] = 0.0
            continue
        M = max(k.memory for k in (lk, rk) if k is not None)
        ld = zero_pad(lk, M).data if lk is not None else 0.0
        rd = zero_pad(rk, M).data if rk is not None else 0.0
        per_order[j] = float(np.max(np.abs(ld - rd)))
    max_kernel = max(per_order.values(), default=0.0)

    rng = np.random.default_rng(rng)
    L = L if L is not None else max(left.memory, right.memory, 2)
    devs = []
    for _ in range(trials):
        # bounded trial signals keep the order-n amplification of kernel
        # rounding below the absolute output tolerance
        s = 0.5 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
        devs.append(float(np.max(np.abs(eval_time(left, s) - eval_time(right, s)))))

    n_C, n_B, n_A = C.max_order, B.max_order, A.max_order
    labels_ok = all(
        composition_labels(j, n_C, n_B, n_A, "left")
        == composition_labels(j, n_C, n_B, n_A, "right")
        for j in range(1, n_C * n_B * n_A + 1)
    )
    return AssociativityReport(
        orders=orders,
        kernel_deviation_per_order=per_order,
        max_kernel_deviation=max_kernel,
        output_deviations=tuple(devs),
        max_output_deviation=max(devs, default=0.0),
        labels_match=labels_ok,
    )
