"""Finitely generated abelian groups of the paper's shape.

For square-free m the answer in each degree is Z^rank plus (Z/p)^theta_p
over the primes p of m.  A group is stored as exactly that: a free rank
and a sorted tuple of (p, theta_p) with theta_p > 0.  That form is unique,
so equality is structural equality.  Nothing here factors: whether each p
is a prime of m is checked by the table that holds the group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + the sum of (Z/p)^theta over primary's (p, theta).

    >>> AbelianGroup.from_counts(1, {3: 1, 2: 2})
    AbelianGroup(rank=1, primary=((2, 2), (3, 1)))
    >>> print(AbelianGroup.from_counts(2, {2: 2, 3: 1, 5: 0}))
    Z^2 + (Z/2)^2 + (Z/3)
    """

    rank: int
    primary: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        primes = [p for p, _ in self.primary]
        increasing = primes == sorted(set(primes)) and min(primes, default=2) > 1
        counts = all(k > 0 for _, k in self.primary)
        if type(self.rank) is not int or self.rank < 0 or not (increasing and counts):
            raise ValueError(f"rank {self.rank} and primary {self.primary} are not canonical")

    @classmethod
    def from_counts(cls, rank: int, counts) -> "AbelianGroup":
        """Z^rank plus (Z/p)^theta for each {p: theta}; zero counts are dropped, p < 2 refused."""
        if bad := [p for p in counts if p < 2]:
            raise ValueError(f"cyclic orders {sorted(bad)} are below 2")
        return cls(rank, tuple(sorted((p, k) for p, k in counts.items() if k)))

    @classmethod
    def direct_sum(cls, *groups: "AbelianGroup") -> "AbelianGroup":
        primary = sum((Counter(dict(g.primary)) for g in groups), Counter())
        return cls(sum(g.rank for g in groups), tuple(sorted(primary.items())))

    def p_multiplicity(self, p: int) -> int:
        """theta_p, the number of Z/p summands."""
        return dict(self.primary).get(p, 0)

    def __str__(self) -> str:
        parts = [] if self.rank == 0 else ["Z" if self.rank == 1 else f"Z^{self.rank}"]
        parts += [f"(Z/{q})" + (f"^{k}" if k > 1 else "") for q, k in self.primary]
        return " + ".join(parts) or "0"
