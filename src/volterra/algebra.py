"""Sum, product and series composition of Volterra series.

The three interconnection products at the kernel level.  Sums add kernels
level-wise, and packed kernels stay packed.  Products and series
composition work in the orbit basis: a symmetric kernel is a polynomial in
the delay-line state whose monomial coefficients are its orbit sums.  A
product multiplies two such polynomials; a composite is the outer
polynomial with each state variable replaced by a delayed inner one, one
matrix of delayed inner coefficients per block.  Both group their terms by
order j (a pair of factor orders; a multiset of inner orders under one
outer kernel), merge the monomials of each new factor by the ranks of the
joined delays, and share one assembly that builds only the orders within
the cap, packed from order 2 up; no {0..M-1}^j lattice is built.
Composition requires the inner constant term to be zero; callers fold
constants into the outer series first.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .combinatorics import WeakComposition, compositions, multinomial
from .errors import ContractViolation, TruncationWarning
from .evaluation import _contract_leading, eval_time
from .kernels import (
    DEFAULT_MAX_ORDER,
    PackedKernel,
    VolterraKernel,
    VolterraSeries,
    _orbit_rank,
    _orbit_representatives,
    _orbit_sums,
    constant_kernel,
    symmetrize_plain,
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
    """Sum each order's terms into monomial coefficients and make its kernel on ``memory``.

    ``groups`` maps every order some term reaches to its terms, in summation
    order; ``term`` turns one into coefficients.  Order 0 becomes a constant,
    order 1 dense, order j >= 2 packed: coefficients over orbit sizes.  Orders
    above ``max_order`` are never built: one TruncationWarning lists exactly them.
    """
    if max_order is not None and max_order < 0:
        raise ContractViolation(f"max_order must be >= 0 or None, got {max_order}")
    dropped = sorted(j for j in groups if max_order is not None and j > max_order)
    if dropped:
        warnings.warn(TruncationWarning(operation, dropped, max_order), stacklevel=3)
    kernels = {}
    for j in sorted(set(groups) - set(dropped)):
        acc = functools.reduce(np.add, map(term, groups[j]))
        if j >= 2:
            kernels[j] = PackedKernel(j, memory, acc / _orbit_representatives(j, memory)[1])
        else:
            kernels[j] = VolterraKernel._fresh(1, memory, acc) if j else constant_kernel(acc)
    return VolterraSeries(kernels)


def product_series(
    A: VolterraSeries, B: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Pointwise product of outputs, as one series.

    The product of two delay-line polynomials on M = max(M_A, M_B): the
    order-j coefficients sum, over the order pairs k1 + k2 = j present in A
    and B (ascending k1), the outer product of the monomial coefficients of
    a_k1 and b_k2 merged by the ranks of the joined delays (an order-0 factor
    scales).  So the kernel is the symmetrized sum of the tensor products
    a_k1 (x) b_k2 on the block split, its spectrum that of the block spectra,
    and packed from order 2 up; no factor is expanded.  Orders above
    ``max_order`` are dropped with a TruncationWarning.
    """
    Ac, Bc = A.canonical(), B.canonical()
    M = max(Ac.memory, Bc.memory)
    groups: dict = {}
    for k1 in Ac.kernels:
        for k2 in Bc.kernels:
            groups.setdefault(k1 + k2, []).append((k1, k2))

    @functools.cache
    def coefficients(side, k):
        kernel = (Ac, Bc)[side].kernels[k]
        return kernel.data if k == 0 else _delayed_coefficients(kernel, M)[0]

    def term(orders):
        k1, k2 = orders
        a, b = coefficients(0, k1), coefficients(1, k2)
        return _merge(a[:, None] * b, k1, k2, M) if k1 and k2 else a * b

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


@functools.lru_cache(maxsize=64)
def _delay_ranks(order: int, memory: int, Lp: int) -> np.ndarray:
    """table[s, b] is the bucket id in (order, Lp) of orbit b of (order, memory)
    delayed by s, for s <= Lp - memory.  Read-only, cached by shape;
    8 (Lp - memory + 1) C(memory + order - 1, order) bytes."""
    reps, _ = _orbit_representatives(order, memory)
    table = _orbit_rank(reps[:, None, :] + np.arange(Lp - memory + 1)[:, None], Lp)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _merge_index(d: int, l: int, Lp: int) -> np.ndarray:
    """Where the product of orbit a of (d, Lp) and orbit b of (l, Lp) lands in
    (d + l, Lp), on the float view: entries 2 (a N_l + b) and 2 (a N_l + b) + 1
    hold 2 r and 2 r + 1, r the bucket id of the joined delays.  Read-only,
    cached by shape; 16 N_d N_l bytes, N_l = C(Lp + l - 1, l)."""
    left, right = (_orbit_representatives(n, Lp)[0].astype(np.min_scalar_type(Lp)) for n in (d, l))
    shape = (left.shape[1], right.shape[1])
    joined = np.concatenate([np.broadcast_to(left[:, :, None], (d,) + shape), np.broadcast_to(right[:, None, :], (l,) + shape)])
    joined.sort(axis=0)
    index = (2 * _orbit_rank(joined, Lp)[..., None] + (0, 1)).ravel()
    index.setflags(write=False)
    return index


def _delayed_coefficients(a: VolterraKernel, Lp: int) -> np.ndarray:
    """rows[s] holds a's monomial coefficients delayed by s, over the (order, Lp) orbits.

    The coefficient of the monomial with sorted delays alpha is a's sum over
    the orbit of alpha; delaying by s moves it to the bucket of alpha + s.
    """
    if isinstance(a, PackedKernel):
        coefficients = a.values * _orbit_representatives(a.order, a.memory)[1]
    else:
        coefficients = a.data if a.order == 1 else _orbit_sums(a)[1]
    ranks = _delay_ranks(a.order, a.memory, Lp)
    rows = np.zeros((ranks.shape[0], math.comb(Lp + a.order - 1, a.order)), dtype=np.complex128)
    rows[np.arange(ranks.shape[0])[:, None], ranks] = coefficients
    return rows


def _merge(data: np.ndarray, d: int, l: int, Lp: int) -> np.ndarray:
    """(..., N_d, N_l) products of monomial coefficients summed into (..., N_{d+l}).

    Each product lands on the bucket of its joined delays, each leading index
    on its own row of buckets: one bincount over the float view adds re and
    im side by side.
    """
    index = _merge_index(d, l, Lp)
    size = 2 * math.comb(Lp + d + l - 1, d + l)
    rows = 2 * data.size // index.size
    if rows > 1:
        index = (index + np.arange(0, rows * size, size)[:, None]).ravel()
    sums = np.bincount(index, weights=data.reshape(-1).view(np.float64), minlength=rows * size)
    return sums.view(np.complex128).reshape(data.shape[:-2] + (size // 2,))


def compose_series(
    B: VolterraSeries, A: VolterraSeries, max_order: int | None = DEFAULT_MAX_ORDER
) -> VolterraSeries:
    """Series composition: feed the output of A into B.

    A symmetric order-j kernel is a degree-j polynomial in the delay-line
    state z_d = x(t - d): the monomial with sorted delays beta has as
    coefficient the kernel's sum over the orbit of beta (Schetzen 1980).  So
    composition is substitution.  With L' = M_A + M_B - 1 the composite
    support (nothing wraps) and U_{l, sigma} the polynomial of a_l with every
    delay moved by sigma,

        c_j = sum_{k <= n_B} sum_P n(P)
              sum_sigma b~_k(sigma) prod_r U_{P_r, sigma_r}

    P runs over the multisets of k inner orders (all >= 1: A must have no
    constant term) adding up to j, as sorted parts P_r; n(P) counts their
    distinct orderings and b~_k is b_k symmetrized (b_k itself when A has one
    inner order: the product of equal factors commutes).  Each term contracts
    n(P) b~_k with one (M_B, C(L' + l - 1, l)) matrix of delayed coefficients
    per block, and merges each new block into the partial product by the
    ranks of the joined delays, so it stays C(L' + d - 1, d) coefficients
    wide at degree d.  The DFT of the kernel at L' is the spectral formula,
    S_p the block-sum matrix:

        sum_k sum_p b_hat_k(S_p Omega_j) * prod_r a_hat_{p_r}(theta_r)

    Orders above ``max_order`` are dropped with a TruncationWarning that
    lists those some multiset reaches; coefficients are built only for an
    inner order that a kept multiset uses.  Only the integer rank tables are
    cached, by shape (``_delay_ranks``, ``_merge_index``).  The composite
    kernels of order >= 2 are packed, and no {0..L'-1}^j array is built.
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
            b = symmetrize_plain(b) if len(inner) > 1 else b
            for parts in itertools.combinations_with_replacement(inner, k):
                weight = multinomial(k, [parts.count(p) for p in set(parts)])
                groups.setdefault(sum(parts), []).append((weight, b, parts))

    @functools.cache
    def coefficients(l):
        return _delayed_coefficients(Ac.kernels[l], Lp)

    def term(multiset):
        weight, b, parts = multiset
        data, degree = weight * b.data, 0
        for part in parts:
            data = _contract_leading(data, coefficients(part)[: b.memory])
            data = _merge(data, degree, part, Lp) if degree else data
            degree += part
        return data

    return _assemble("compose", max_order, groups, term, Lp)


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

    Kernel-level: per-order max abs deviation between the kernels of
    (C . B) . A and C . (B . A), on orbit values where packed, never padded;
    output-level: max deviation on random signals.  Also checks the label
    multisets of the two expansions coincide order by order.
    """
    if A.constant != 0 or B.constant != 0:
        raise ContractViolation("associativity harness assumes zero constant terms for A and B")
    left = compose_series(compose_series(C, B, max_order=None), A, max_order=None)
    right = compose_series(C, compose_series(B, A, max_order=None), max_order=None)
    orders = tuple(sorted(set(left.orders()) | set(right.orders())))
    per_order = {}
    for j in orders:
        # one memory, M_A + M_B + M_C - 2, and one kind on both sides: packed from order 2 up
        kernels = left.kernels[j], right.kernels[j]
        ld, rd = (k.values if isinstance(k, PackedKernel) else k.data for k in kernels)
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
