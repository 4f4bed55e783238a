"""Table builders: closed-form engines and the rank computations."""

from __future__ import annotations

from .abelian import AbelianGroup
from .cyclotomic import count_wedge_roots, exponent_multiset, matrix_census, molien_rank
from .groups import GroupSpec, validate
from .oracle import e2_table
from .tables import CohomologyTable
from .torsion import VARIANTS, TorsionVariant, assemble_p_torsion, check_variant


def full_exponents(spec: GroupSpec):
    """Eigenvalue exponents of phi itself, modulus m."""
    return exponent_multiset(matrix_census(spec.phi, spec.m))


def rank_column(spec: GroupSpec, max_degree: int) -> tuple[int, ...]:
    """Free rank of H^l for l = 0..max_degree: H(l, m, Z^n)."""
    validate(spec)
    x = full_exponents(spec)
    return tuple(count_wedge_roots(x, l, spec.m) for l in range(max_degree + 1))


def molien_column(spec: GroupSpec, max_degree: int) -> tuple[int, ...]:
    """The same ranks as a trace average over the group, from charpoly(phi^j)."""
    validate(spec)
    return tuple(molien_rank(spec.phi, spec.m, l) for l in range(max_degree + 1))


def formula_table(
    spec: GroupSpec, max_degree: int, variant: TorsionVariant
) -> CohomologyTable:
    """Closed-form table: ranks from the wedge count, torsion from theta.

    stable_from is an observed marker: the largest window check available
    within the computed range, not a certificate (the published pin is
    4-periodic on some inputs).
    """
    validate(spec)
    check_variant(variant)
    ranks = rank_column(spec, max_degree)
    thetas = {
        p: [assemble_p_torsion(spec, p, l, variant) for l in range(max_degree + 1)]
        for p in spec.primes
    }
    groups = []
    for l in range(max_degree + 1):
        factors = []
        for p in spec.primes:
            factors.extend([p] * thetas[p][l])
        groups.append(AbelianGroup.from_factors(ranks[l], factors))
    stable = None
    if max_degree >= spec.n + 3:
        window = range(spec.n + 1, max_degree - 1)
        if all(groups[l] == groups[l + 2] for l in window):
            stable = spec.n + 1
    return CohomologyTable(
        engine=f"formula-{variant}",
        n=spec.n,
        m=spec.m,
        max_degree=max_degree,
        groups=tuple(groups),
        stable_from=stable,
        variant=variant,
    )


def build_table(spec: GroupSpec, max_degree: int, engine: str) -> CohomologyTable:
    """Dispatch: engine is 'oracle', 'formula-published' or 'formula-corrected'."""
    if engine == "oracle":
        return e2_table(spec, max_degree)
    if engine.startswith("formula-"):
        variant = engine.removeprefix("formula-")
        if variant in VARIANTS:
            return formula_table(spec, max_degree, variant)  # type: ignore[arg-type]
    raise ValueError(f"unknown engine {engine!r}")
