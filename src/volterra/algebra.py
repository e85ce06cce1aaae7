"""Sum, product and series composition of Volterra series.

The three interconnection products at the kernel level.  Sums add kernels
level-wise.  Products and series composition share one assembly loop: each
groups its terms by composite order j (a pair of factor orders; a multiset
of inner orders under one outer kernel), and only the orders within the cap
are built.  A composition term is the delay sum of the outer kernel times
the inner kernels delayed block by block: the time form of the spectral
formula.  Composition requires the inner constant term to be zero; callers
fold constants into the outer series first.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .combinatorics import WeakComposition, compositions, multinomial
from .errors import ContractViolation, TruncationWarning
from .evaluation import _contract_leading, eval_time
from .kernels import (
    DEFAULT_MAX_ORDER,
    VolterraKernel,
    VolterraSeries,
    constant_kernel,
    symmetrize_plain,
    zero_pad,
)
from .morphisms import Morphism, lens_identity

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


def _assemble(operation: str, max_order: int | None, groups: dict, term, memory: int) -> VolterraSeries:
    """Sum each order's terms into one kernel on {0..memory-1}^j.

    ``groups`` maps every order some term reaches to its terms, in summation
    order; ``term`` turns one of them into an array.  Orders above
    ``max_order`` are never built: one TruncationWarning lists exactly them.
    """
    if max_order is not None and max_order < 0:
        raise ContractViolation(f"max_order must be >= 0 or None, got {max_order}")
    dropped = sorted(j for j in groups if max_order is not None and j > max_order)
    if dropped:
        warnings.warn(TruncationWarning(operation, dropped, max_order), stacklevel=3)
    kernels = {}
    for j in sorted(set(groups) - set(dropped)):
        acc = functools.reduce(np.add, map(term, groups[j]))
        kernels[j] = constant_kernel(acc) if j == 0 else VolterraKernel._fresh(j, memory, acc)
    return VolterraSeries(kernels)


def product_series(
    A: VolterraSeries, B: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Pointwise product of outputs, as one series.

    The order-j kernel is the sum over the order pairs k1 + k2 = j present
    in A and B (ascending k1) of the tensor products a_k1 (x) b_k2 arranged
    on the block split; its spectrum is the matching product of block
    spectra.  Orders above ``max_order`` are dropped with a
    TruncationWarning.
    """
    Ac, Bc = A.canonical(), B.canonical()
    M = max(Ac.memory, Bc.memory)
    groups: dict = {}
    for k1, a in Ac.kernels.items():
        for k2, b in Bc.kernels.items():
            groups.setdefault(k1 + k2, []).append((a, b))

    def term(pair):
        a, b = (zero_pad(k, M) for k in pair)
        return np.multiply.outer(a.data, b.data)

    return _assemble("product", max_order, groups, term, M)


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


def _shift_bank(a: VolterraKernel, shifts: int, Lp: int) -> np.ndarray:
    """bank[s] is a placed at offset s on every axis of {0..Lp-1}^order, s < shifts."""
    bank = np.zeros((shifts,) + (Lp,) * a.order, dtype=np.complex128)
    for s in range(shifts):
        bank[(s,) + (slice(s, s + a.memory),) * a.order] = a.data
    return bank


def compose_series(
    B: VolterraSeries, A: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Series composition: feed the output of A into B.

    Composite order-j kernel on the delay lattice {0..L'-1}^j, with
    L' = M_A + M_B - 1 the composite support (nothing wraps):

        c_j(tau) = Sym sum_{k <= n_B} sum_P n(P)
                   sum_sigma b~_k(sigma) prod_r a_{P_r}(tau_r - sigma_r 1)

    P runs over the multisets of k inner orders (all >= 1: A must have no
    constant term) adding up to j, as sorted parts P_r; n(P) counts their
    distinct orderings, tau_r is the r-th block of tau and b~_k is b_k
    symmetrized.  The ordered compositions of j give n(P) terms per multiset
    that differ by a permutation of b's axes, void once b~_k is symmetric,
    and of tau's blocks, which Sym (the canonical form) removes.  Each term
    contracts n(P) b~_k with one bank of shifted copies of a_{P_r} per
    block.  Its DFT at L' is the spectral formula, S_p the block-sum matrix:

        sum_k sum_p b_hat_k(S_p Omega_j) * prod_r a_hat_{p_r}(theta_r)

    Orders above ``max_order`` are dropped with a TruncationWarning that
    lists those some multiset reaches; a bank is built only for an inner order
    that a kept multiset uses.  No term table is cached.
    """
    if A.constant != 0:
        raise ContractViolation(
            "series composition requires the inner series to have zero constant term; "
            "fold the constant into the outer series first"
        )
    Ac, Bc = A.canonical(), B.canonical()
    M_B = Bc.memory
    Lp = max(Ac.memory + M_B - 1, 1)
    inner = [l for l in Ac.orders() if l >= 1]
    groups: dict = {}
    for k, b in Bc.kernels.items():
        if k > 0 or Bc.constant != 0:
            # one inner order: every multiset has equal parts and Sym alone suffices
            b = symmetrize_plain(b) if len(inner) > 1 else b
            for parts in itertools.combinations_with_replacement(inner, k):
                weight = multinomial(k, [parts.count(p) for p in set(parts)])
                groups.setdefault(sum(parts), []).append((weight, b, parts))

    @functools.cache
    def bank(l):
        return _shift_bank(Ac.kernels[l], M_B, Lp)

    def term(multiset):
        weight, b, parts = multiset
        data = weight * b.data
        for part in parts:
            data = _contract_leading(data, bank(part)[: b.memory])
        return data

    return _assemble("compose", max_order, groups, term, Lp).map_kernels(symmetrize_plain)


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
