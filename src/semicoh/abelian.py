"""Canonical finitely generated abelian groups.

A group is stored as a free rank plus its primary decomposition: a sorted
tuple of (prime power, copies).  That form is unique, so equality is
structural equality, and its length is set by the distinct prime powers,
not by the copies.  Tables print and parse exactly these counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n > 1."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _factorint(n: int) -> Counter[int]:
    """Prime factorization by trial division; torsion orders here are tiny."""
    result = Counter()
    while n > 1:
        result[p := _smallest_factor(n)] += 1
        n //= p
    return result


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + the sum of (Z/q)^copies over primary's (q, copies).

    >>> AbelianGroup.from_counts(1, {2: 1, 6: 1})
    AbelianGroup(rank=1, primary=((2, 2), (3, 1)))
    >>> AbelianGroup.from_counts(0, {2: 1, 3: 1}) == AbelianGroup.from_counts(0, {6: 1})
    True
    >>> print(AbelianGroup.from_counts(2, {2: 2, 3: 1, 5: 0}))
    Z^2 + (Z/2)^2 + (Z/3)
    """

    rank: int
    primary: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        orders = [q for q, _ in self.primary]
        # q > 1 is a prime power iff it divides a power of its smallest prime factor
        powers = all(q > 1 and _smallest_factor(q) ** q.bit_length() % q == 0 for q in orders)
        counts = all(k > 0 for _, k in self.primary)
        if self.rank < 0 or orders != sorted(set(orders)) or not (powers and counts):
            raise ValueError(f"rank {self.rank} and primary {self.primary} are not canonical")

    @classmethod
    def from_counts(cls, rank: int, counts) -> "AbelianGroup":
        """Canonicalize {cyclic order >= 0: copies}, factoring each distinct order once.

        Order 1 is dropped, order 0 counts toward the rank, and every other
        order adds its copies to each prime power it splits into.  A list of
        cyclic orders becomes a group as ``from_counts(rank, Counter(orders))``.
        """
        rank = int(rank) + counts.get(0, 0)
        primary = Counter()
        for f in counts.keys() - {0, 1}:
            for p, e in _factorint(f).items():
                primary[p**e] += counts[f]
        return cls(rank, tuple(sorted((q, k) for q, k in primary.items() if k)))

    @classmethod
    def direct_sum(cls, *groups: "AbelianGroup") -> "AbelianGroup":
        primary = sum((Counter(dict(g.primary)) for g in groups), Counter())
        return cls(sum(g.rank for g in groups), tuple(sorted(primary.items())))

    def p_multiplicity(self, p: int) -> int:
        """Sum of the p-exponents of the torsion summands, so Z/4 counts 2.

        For square-free m every p-primary summand is Z/p, and this is theta_p.
        """
        return sum(copies * _factorint(q)[p] for q, copies in self.primary)

    def __str__(self) -> str:
        parts = [] if self.rank == 0 else ["Z" if self.rank == 1 else f"Z^{self.rank}"]
        parts += [f"(Z/{q})" + (f"^{k}" if k > 1 else "") for q, k in self.primary]
        return " + ".join(parts) or "0"
