"""Cohomology tables: degree -> abelian group, tagged with provenance."""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup
from .errors import TorsionExponentViolation


@dataclass(frozen=True)
class CohomologyTable:
    """One table H^0..H^max_degree with the engine that produced it.

    ``stable_from`` is the degree beyond which 2-periodicity is certified
    (None when the producing engine certifies nothing).  ``assumptions``
    records what the numbers are conditional on.
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
        # every invariant factor divides m iff every prime power does
        for l, g in enumerate(self.groups):
            if any(self.m % q for q, _ in g.primary):
                check_chain(self.m, l, g.torsion)

    def rank_column(self) -> tuple[int, ...]:
        return tuple(g.rank for g in self.groups)


def check_chain(m: int, l: int, chain):
    """Return degree l's torsion list, refusing it unless it is a chain of divisors of m."""
    if not all(type(f) is int and f > 1 for f in chain) or any(b % a for a, b in zip(chain, chain[1:])):
        raise ValueError(f"torsion in degree {l} is not an invariant-factor chain")
    if f := next((f for f in chain if m % f), None):
        raise TorsionExponentViolation(f"torsion order {f} in degree {l} does not divide m={m}")
    return chain
