"""Integer compositions, weak compositions, multicombinations and multinomials.

These enumerations index every interconnection formula in the kernel algebra:
weak compositions split a composite order into block sizes, multicombinations
collect repeated inputs or lattice points, and multinomial coefficients count
the permutations a symmetric kernel absorbs.  All enumeration orders are
lexicographic so kernel assembly is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ContractViolation

__all__ = [
    "Composition",
    "WeakComposition",
    "Multicombination",
    "compositions",
    "weak_compositions",
    "multicombinations",
    "multinomial",
]


@dataclass(frozen=True)
class Composition:
    """An ordered way of writing ``total`` as a sum of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ContractViolation(f"composition parts must be positive: {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class WeakComposition:
    """An ordered way of writing ``total`` as ``arity`` non-negative parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.parts):
            raise ContractViolation(f"weak composition parts must be >= 0: {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def arity(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class Multicombination:
    """A multiset of ``total`` draws from symbols ``0 .. len(counts)-1``.

    ``counts[b]`` is the multiplicity of symbol ``b``.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ContractViolation(f"multiplicities must be >= 0: {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def canonical_sequence(self) -> tuple[int, ...]:
        """The sorted symbol sequence representing this multiset."""
        return tuple(
            b for b, c in enumerate(self.counts) for _ in range(c)
        )

    def multinomial(self) -> int:
        """Number of distinct orderings of the multiset."""
        return multinomial(self.total, self.counts)


def _parts(cuts: tuple[int, ...], total: int) -> tuple[int, ...]:
    """Gaps between consecutive cut points of 0 .. total."""
    return tuple(b - a for a, b in itertools.pairwise((0, *cuts, total)))


def weak_compositions(j: int, k: int) -> list[WeakComposition]:
    """All weak k-compositions of j, in lexicographic order on parts.

    There are binom(j+k-1, k-1) of them: one per multiset of k - 1 cut
    points in 0 .. j.  ``k = 0`` is an empty domain unless ``j = 0`` as
    well, in which case the single empty composition is returned.
    """
    if j < 0 or k < 0:
        raise ContractViolation(f"weak_compositions needs j >= 0, k >= 0, got ({j}, {k})")
    if k == 0:
        if j == 0:
            return [WeakComposition(())]
        raise ContractViolation(f"no weak 0-compositions of {j} > 0")
    cuts = itertools.combinations_with_replacement(range(j + 1), k - 1)
    return [WeakComposition(_parts(c, j)) for c in cuts]


def compositions(n: int, m: int) -> list[Composition]:
    """All m-compositions of n (positive parts), lexicographic.

    Counted by binom(n-1, m-1): one per set of m - 1 distinct cut points in
    1 .. n-1, so ``m > n`` yields the empty list.
    """
    if n < 1 or m < 1:
        raise ContractViolation(f"compositions needs n >= 1, m >= 1, got ({n}, {m})")
    return [Composition(_parts(c, n)) for c in itertools.combinations(range(1, n), m - 1)]


def multinomial(j: int, parts) -> int:
    """j! / prod(parts!) for non-negative parts summing to j."""
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ContractViolation(f"multinomial parts must be >= 0: {parts}")
    if sum(parts) != j:
        raise ContractViolation(f"multinomial parts {parts} do not sum to {j}")
    out = math.factorial(j)
    for p in parts:
        out //= math.factorial(p)
    return out


def multicombinations(B: int, j: int) -> list[Multicombination]:
    """All multisets of size j over B symbols.

    Enumerated in lexicographic order of the sorted symbol sequences, i.e.
    ``(0,0) < (0,1) < (1,1)`` for ``B = 2, j = 2``.  The multinomials of the
    returned multisets sum to ``B**j``.
    """
    if B < 1 or j < 0:
        raise ContractViolation(f"multicombinations needs B >= 1, j >= 0, got ({B}, {j})")
    out = []
    for seq in itertools.combinations_with_replacement(range(B), j):
        counts = [0] * B
        for b in seq:
            counts[b] += 1
        out.append(Multicombination(tuple(counts)))
    return out
