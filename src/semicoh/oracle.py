"""Independent Smith-form evaluator for H^*(Z^n x| Z/m).

Evaluates the two-column periodic complex of each cyclic coefficient
module exactly and assembles degrees as

    H^l = direct sum over gamma of H^(l-gamma)(Z/m; wedge^gamma of the dual lattice)

which computes the full cohomology for square-free m (the relevant
spectral sequence collapses and the square-free torsion exponent splits
the abutment).  Each cyclic group is read off Smith invariant factors
of psi - 1 or N; no part of the closed-form machinery is consulted, so
this engine is a genuinely independent arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .abelian import AbelianGroup
from .errors import (
    BadInvariantFactors,
    DimensionTooLarge,
    NotADivisor,
    NotSquare,
    WrongOrder,
)
from .groups import GroupSpec, validate
from .intmat import (
    IntMatrix,
    contragredient,
    invariant_factors,
    norm_and_power,
    wedge_power,
)
from .tables import CohomologyTable

_MAX_RANK = 24

ORACLE_ASSUMPTIONS = (
    "collapse: the degree assembly is the direct-sum E2 page, valid for square-free m",
    "splitting: square-free torsion exponent splits every extension in sight",
)


@dataclass(frozen=True)
class CyclicRep:
    """A lattice with an action of Z/q given by the matrix psi of a generator.

    Construction runs one chain of products psi^1..psi^q: it checks
    psi^q = 1 (WrongOrder otherwise) and keeps the norm
    N = 1 + psi + ... + psi^(q-1) for the even degrees.
    """

    q: int
    matrix: IntMatrix
    norm: IntMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.matrix.is_square():
            raise NotSquare("cyclic representations need a square matrix")
        norm, power = norm_and_power(self.matrix, self.q)
        if not power.is_identity():
            raise WrongOrder(f"matrix order does not divide q={self.q}")
        object.__setattr__(self, "norm", norm)

    @cached_property
    def psi_minus_one_factors(self) -> tuple[int, ...]:
        """Nonzero invariant factors of psi - 1: one reduction for alpha 0 and odd."""
        return invariant_factors(self.matrix - IntMatrix.identity(self.matrix.rows))


def cyclic_cohomology(rep: CyclicRep, alpha: int) -> AbelianGroup:
    """Classical cyclic-group cohomology of a lattice, exactly.

    alpha = 0: the fixed lattice (free).  alpha odd: ker(N)/im(psi - 1);
    alpha even > 0: ker(psi - 1)/im(N).  Since psi^q = 1 the image of
    each map has the kernel of the other as its saturation, so these are
    the torsion of coker(psi - 1) and of coker(N): their nonunit
    invariant factors, each of which must divide q.
    """
    if alpha < 0:
        raise ValueError("negative degree")
    q = rep.q
    if alpha == 0:
        return AbelianGroup.free(rep.matrix.rows - len(rep.psi_minus_one_factors))
    factors = rep.psi_minus_one_factors if alpha % 2 else invariant_factors(rep.norm)
    if any(q % d for d in factors):
        raise BadInvariantFactors(f"invariant factors {factors} do not all divide q={q}")
    return AbelianGroup.from_factors(0, factors)


@lru_cache(maxsize=64)
def _layer_data(spec: GroupSpec):
    """Per-gamma cyclic cohomology of the dual exterior powers.

    Only alpha in {0, 1, 2} is ever evaluated; positive degrees are
    2-periodic, so these three values determine every degree.
    """
    phi_star = contragredient(spec.phi)
    layers = []
    for gamma in range(spec.n + 1):
        rep = CyclicRep(spec.m, wedge_power(phi_star, gamma))
        layers.append(
            (
                cyclic_cohomology(rep, 0),
                cyclic_cohomology(rep, 1),
                cyclic_cohomology(rep, 2),
            )
        )
    return layers


def e2_table(spec: GroupSpec, max_degree: int) -> CohomologyTable:
    """H^0..H^max_degree of Z^n x| Z/m by direct E2 evaluation."""
    validate(spec)
    if spec.n > _MAX_RANK:
        raise DimensionTooLarge(
            f"n={spec.n} exceeds the exterior-power budget (max {_MAX_RANK})"
        )
    if max_degree < 0:
        raise ValueError("negative max degree")
    layers = _layer_data(spec)
    groups = []
    for l in range(max_degree + 1):
        parts = []
        for gamma in range(min(l, spec.n) + 1):
            alpha = l - gamma
            if alpha == 0:
                parts.append(layers[gamma][0])
            elif alpha % 2:
                parts.append(layers[gamma][1])
            else:
                parts.append(layers[gamma][2])
        groups.append(AbelianGroup.direct_sum(*parts))
    return CohomologyTable(
        engine="oracle",
        n=spec.n,
        m=spec.m,
        max_degree=max_degree,
        groups=tuple(groups),
        stable_from=spec.n + 1,
        assumptions=ORACLE_ASSUMPTIONS,
    )


def subgroup_oracle(spec: GroupSpec, q: int, max_degree: int) -> CohomologyTable:
    """e2_table for the sub-semidirect product Z^n x| Z/q, q | m."""
    validate(spec)
    if q < 1 or spec.m % q:
        raise NotADivisor(f"{q} does not divide m={spec.m}")
    sub = GroupSpec(
        n=spec.n,
        m=q,
        phi=spec.phi ** (spec.m // q),
        name=f"{spec.name or 'group'}-sub{q}",
    )
    return e2_table(sub, max_degree)
