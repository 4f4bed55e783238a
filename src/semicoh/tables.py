"""Cohomology tables: degree -> abelian group, tagged with provenance."""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup
from .errors import NotSquareFree, TorsionExponentViolation
from .groups import _factorint


@dataclass(frozen=True)
class CohomologyTable:
    """One table H^0..H^max_degree with the engine that produced it.

    ``stable_from`` is the degree beyond which 2-periodicity is certified
    (None when the producing engine certifies nothing).  ``assumptions``
    records what the numbers are conditional on.  Construction is the one
    check of a table against m: m is square-free and every torsion
    summand is Z/p for a prime p of m.
    """

    engine: str
    n: int
    m: int
    max_degree: int
    groups: tuple[AbelianGroup, ...]
    stable_from: int | None = None
    variant: str | None = None
    assumptions: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.groups) != self.max_degree + 1:
            raise ValueError("need one group per degree 0..max_degree")
        if self.groups[0] != AbelianGroup(1):
            raise TorsionExponentViolation(f"degree 0 must be Z, got {self.groups[0]}")
        primes = _factorint(self.m)
        if self.m < 1 or max(primes.values(), default=1) > 1:
            raise NotSquareFree(f"m={self.m} is not a positive square-free integer")
        for l, g in enumerate(self.groups):
            if p := next((p for p, _ in g.primary if p not in primes), None):
                why = "is not a prime of" if self.m % p == 0 else "does not divide"
                raise TorsionExponentViolation(f"torsion order {p} in degree {l} {why} m={self.m}")

    def rank_column(self) -> tuple[int, ...]:
        return tuple(g.rank for g in self.groups)
