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
        first = self.groups[0]
        if first.rank != 1 or first.torsion:
            raise TorsionExponentViolation(f"degree 0 must be Z, got {first}")
        # each degree's torsion is a divisibility chain: its largest factor
        # divides m iff every factor does
        for l, g in enumerate(self.groups):
            if g.torsion and self.m % g.torsion[-1]:
                f = next(f for f in g.torsion if self.m % f)
                raise TorsionExponentViolation(
                    f"torsion order {f} in degree {l} does not divide m={self.m}"
                )

    def rank_column(self) -> tuple[int, ...]:
        return tuple(g.rank for g in self.groups)
