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
        for l, g in enumerate(self.groups):
            check_orders(self.m, l, [q for q, _ in g.primary])

    def rank_column(self) -> tuple[int, ...]:
        return tuple(g.rank for g in self.groups)


def check_orders(m: int, l: int, orders) -> None:
    """Refuse degree l's torsion unless every order divides m, naming the first that does not."""
    if q := next((q for q in orders if m % q), None):
        raise TorsionExponentViolation(f"torsion order {q} in degree {l} does not divide m={m}")
