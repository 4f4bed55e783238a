"""Table builders: closed-form engines and the rank computations."""

from __future__ import annotations

from functools import lru_cache

from .abelian import AbelianGroup
from .cyclotomic import chain_census, count_wedge_roots, exponent_multiset, molien_rank
from .errors import NonIntegralOrbitCount
from .groups import GroupSpec, validate
from .oracle import e2_table
from .tables import CohomologyTable
from .torsion import VARIANTS, TorsionVariant, assemble_p_torsion, check_variant


def full_exponents(spec: GroupSpec):
    """Eigenvalue exponents of phi itself, modulus m, read off phi's power chain."""
    return exponent_multiset(chain_census(spec.phi, spec.m))


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError("negative max degree")


@lru_cache(maxsize=256)
def _wedge_ranks(spec: GroupSpec) -> tuple[int, ...]:
    # keyed by the spec, never by its census: conjugates share censuses
    return count_wedge_roots(full_exponents(spec), spec.m)


def rank_column(spec: GroupSpec, max_degree: int) -> tuple[int, ...]:
    """Free rank of H^l for l = 0..max_degree: H(l, m, Z^n).

    phi's census and the wedge-count column H(0..n, m) are taken once per
    spec; degrees above n have rank 0.  ValueError for a negative
    max_degree.
    """
    validate(spec)
    _check_degree(max_degree)
    column = _wedge_ranks(spec)
    return column[: max_degree + 1] + (0,) * (max_degree + 1 - len(column))


def molien_column(spec: GroupSpec, max_degree: int) -> tuple[int, ...]:
    """The same ranks as a trace average over the group, from one chain phi^0..phi^(m-1)."""
    validate(spec)
    _check_degree(max_degree)
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
    ranks = rank_column(spec, max_degree)  # refuses a negative max_degree first
    thetas = {}
    for p in spec.primes:  # the first null cell, prime by prime in degree order, is raised
        thetas[p] = assemble_p_torsion(spec, p, max_degree, variant)
        for theta in thetas[p]:
            if isinstance(theta, NonIntegralOrbitCount):
                raise theta
    groups = [
        AbelianGroup.from_counts(ranks[l], {p: column[l] for p, column in thetas.items()})
        for l in range(max_degree + 1)
    ]
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
