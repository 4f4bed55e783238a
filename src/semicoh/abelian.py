"""Canonical finitely generated abelian groups.

A group is stored as a free rank plus its torsion invariant factors
(a divisibility chain, smallest first, every factor > 1).  The canonical
form is unique, so equality is structural equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mod


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; torsion orders here are tiny."""
    result: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            result[d] = result.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        result[n] = result.get(n, 0) + 1
    return result


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + a torsion divisibility chain.

    >>> AbelianGroup.from_factors(1, [2, 6])
    AbelianGroup(rank=1, torsion=(2, 6))
    >>> AbelianGroup.from_factors(0, [2, 3]) == AbelianGroup.from_factors(0, [6])
    True
    >>> print(AbelianGroup.from_factors(2, [2, 2, 3]))
    Z^2 + (Z/2)^2 + (Z/3)
    >>> AbelianGroup.from_counts(1, {2: 3, 3: 1, 5: 0})
    AbelianGroup(rank=1, torsion=(2, 2, 6))
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        if any(map(mod, self.torsion[1:], self.torsion)):
            raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if self.torsion and min(self.torsion) < 2:
            raise ValueError("torsion factors must exceed 1")

    @classmethod
    def from_factors(cls, rank: int, factors) -> "AbelianGroup":
        """Canonicalize an arbitrary multiset of cyclic orders (see from_counts)."""
        return cls.from_counts(rank, Counter(abs(int(f)) for f in factors))

    @classmethod
    def from_counts(cls, rank: int, counts) -> "AbelianGroup":
        """Canonicalize {cyclic order: copies}, factoring each distinct order once.

        Order 1 is dropped, order 0 counts toward the rank, and the rest
        are recombined into a divisibility chain.
        """
        rank = int(rank) + counts.get(0, 0)
        levels = {}  # (p, k) -> the copies whose p-exponent is at least k
        for f in counts.keys() - {0, 1}:
            for p, e in _factorint(f).items():
                for k in range(1, e + 1):
                    levels[p, k] = levels.get((p, k), 0) + counts[f]
        # level (p, k) puts a factor p into its count's worth of the largest
        # invariant factors, so the chain is built run by run, smallest first
        torsion, value, size = [], 1, max(levels.values(), default=0)
        for count, p in sorted([(n, p) for (p, _), n in levels.items()], reverse=True) + [(0, 1)]:
            torsion += [value] * (size - count - len(torsion))
            value *= p
        return cls(rank, tuple(torsion))

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(rank, ())

    @classmethod
    def direct_sum(cls, *groups: "AbelianGroup") -> "AbelianGroup":
        rank = sum(g.rank for g in groups)
        factors = [f for g in groups for f in g.torsion]
        return cls.from_factors(rank, factors)

    def p_multiplicity(self, p: int) -> int:
        """Number of Z/p^e summands for the prime p (counting multiplicity)."""
        count = 0
        for f in self.torsion:
            while f % p == 0:
                f //= p
                count += 1
        return count

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        counts: dict[int, int] = {}
        for f in self.torsion:
            for p, e in sorted(_factorint(f).items()):
                counts[p**e] = counts.get(p**e, 0) + 1
        for q in sorted(counts):
            k = counts[q]
            parts.append(f"(Z/{q})" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts) if parts else "0"
