"""Group specifications and their per-prime lattice decompositions.

For each prime p | m the lattice Z^n, viewed over Z/p via psi = phi^(m/p),
splits p-locally as

    Z^r (trivial)  +  Z[Z/p]^s (regular)  +  I^t (augmentation ideal),

and the torsion formulas consume r, s, t together with the eigenvalue
censuses of phi on the trivial block and the free-origin block.  The
counts come from the classical kernel/cokernel procedure

    t = #(invariant factors = p) in ker(N)/im(psi - 1),    N = 1 + psi + ... + psi^(p-1)
    r = #(invariant factors = p) in ker(psi - 1)/im(N),

run once per isotypic sublattice ker(Phi_e(phi) * Phi_pe(phi)) rather than
once globally.  The refinement is what makes the block censuses canonical:
each isotypic piece is phi-stable by construction, the counts are basis
independent, and k_d = m_d/(p-1) is an integer by construction (it equals
the t-count of one isotypic piece).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .abelian import _factorint
from .cyclotomic import (
    CyclotomicCensus,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    matrix_census,
)
from .errors import (
    BadInvariantFactors,
    NonIntegralK,
    NonInvariantBlock,
    NotADivisor,
    NotASublattice,
    NotFreeAction,
    NotSquare,
    NotSquareFree,
    NotUnimodular,
    UnexpectedOrder,
    WrongOrder,
)
from .intmat import (
    IntMatrix,
    det,
    invariant_factors,
    kernel_basis,
    norm_and_power,
    rank,
    restrict_to_basis,
    saturate_span,
    smith_transforms,
    solve_columns,
)


@dataclass(frozen=True)
class GroupSpec:
    """The data (n, m, phi) defining Z^n semidirect Z/m."""

    n: int
    m: int
    phi: IntMatrix
    name: str | None = None

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(_factorint(self.m))) if self.m > 1 else ()

    def psi(self, p: int) -> IntMatrix:
        """Action of the generator of the order-p subgroup."""
        return self.phi ** (self.m // p)


def validate(spec: GroupSpec) -> GroupSpec:
    """Check all GroupSpec invariants; returns the spec unchanged.

    m must be square-free, phi must be n x n with determinant +-1, and
    phi^m must be the identity (the order may properly divide m).
    """
    if spec.n < 1:
        raise NotSquare(f"lattice rank must be positive, got {spec.n}")
    if spec.phi.rows != spec.n or spec.phi.cols != spec.n:
        raise NotSquare(
            f"phi is {spec.phi.rows}x{spec.phi.cols}, expected {spec.n}x{spec.n}"
        )
    if spec.m < 1:
        raise NotSquareFree(f"cyclic order must be positive, got {spec.m}")
    for p, e in _factorint(spec.m).items():
        if e > 1:
            raise NotSquareFree(f"m={spec.m} is divisible by {p}^{e}")
    if abs(det(spec.phi)) != 1:
        raise NotUnimodular("phi is not invertible over the integers")
    if not (spec.phi ** spec.m).is_identity():
        raise WrongOrder(f"phi^{spec.m} is not the identity")
    return spec


# ---------------------------------------------------------------------------
# (r, s, t) decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RstDecomposition:
    """Per-prime decomposition data.

    ``r_basis`` and, when phi-stable, ``t_basis`` are saturated column
    bases of the trivial and free-origin sublattices; ``r_census`` and
    ``t_census`` are the eigenvalue censuses of phi on those blocks, and
    phi's restriction to each stable block is checked against them.
    """

    p: int
    r: int
    s: int
    t: int
    adapted_basis: IntMatrix
    r_census: CyclotomicCensus
    t_census: CyclotomicCensus
    r_basis: IntMatrix
    t_basis: IntMatrix | None
    t_generators: IntMatrix


def _p_quotient(ambient: IntMatrix, generators: IntMatrix, p: int):
    """(count of p-factors, generator columns) of span(ambient)/span(generators).

    Every invariant factor must be 1 or p; anything else violates the
    structure theory for Z/p-lattices and raises BadInvariantFactors.
    """
    coords = solve_columns(ambient, generators)
    data = smith_transforms(coords, uinv=True)
    gens = []
    count = 0
    for i, d in enumerate(data["diagonal"]):
        if d == 1:
            continue
        if d != p:
            raise BadInvariantFactors(
                f"invariant factor {d} outside {{1, {p}}} in a Z/{p} quotient"
            )
        count += 1
        gens.append(i)
    if len(data["diagonal"]) < coords.rows:
        raise BadInvariantFactors("kernel/image quotient is not finite")
    uinv = data["uinv"]
    local = IntMatrix([[uinv.data[i][j] for j in gens] for i in range(coords.rows)])
    return count, ambient @ local


def _cyclic_counts(psi: IntMatrix, p: int):
    """(r, s, t, r_gens, w_gens) for one Z/p-lattice with generator action psi."""
    n = psi.rows
    one = IntMatrix.identity(n)
    norm, _ = norm_and_power(psi, p)
    t, w_gens = _p_quotient(kernel_basis(norm), psi - one, p)
    r, r_gens = _p_quotient(kernel_basis(psi - one), norm, p)
    rest = n - r - (p - 1) * t
    if rest < 0 or rest % p:
        raise BadInvariantFactors(
            f"counts r={r}, t={t} do not satisfy r + p*s + (p-1)*t = {n}"
        )
    return r, rest // p, t, r_gens, w_gens


def _is_stable_block(phi: IntMatrix, basis: IntMatrix, census: CyclotomicCensus) -> bool:
    """Whether span(basis) is a nonzero phi-stable block.

    A stable block whose restricted census disagrees with ``census``
    raises NonInvariantBlock.
    """
    if not basis.cols:
        return False
    try:
        block = restrict_to_basis(phi, basis)
    except NotASublattice:  # span not phi-stable
        return False
    if matrix_census(block, census.m).as_dict() != census.as_dict():
        raise NonInvariantBlock("restricted block census disagrees with the isotypic census")
    return True


def _adapted_basis(n: int, r_basis: IntMatrix, w_gens: IntMatrix) -> IntMatrix:
    """Unimodular basis [r block | complement | t generators], best effort.

    When the r block and the t generators are not jointly primitive the
    joint saturation is completed instead (still unimodular).
    """
    from .intmat import complete_to_unimodular

    joint = r_basis.hstack(w_gens) if w_gens.cols else r_basis
    if joint.cols == 0:
        return IntMatrix.identity(n)
    if all(f == 1 for f in invariant_factors(joint)):
        full = complete_to_unimodular(saturate_span(joint))
        rest = IntMatrix(
            [[full.data[i][j] for j in range(joint.cols, n)] for i in range(n)]
        )
        cols: list[tuple[int, ...]] = r_basis.columns() + rest.columns() + w_gens.columns()
        return IntMatrix.from_columns(cols, n)
    sat = saturate_span(joint)
    return complete_to_unimodular(sat)


@lru_cache(maxsize=256)
def rst_decompose(spec: GroupSpec, p: int) -> RstDecomposition:
    """Decompose Z^n over Z/p (psi = phi^(m/p)) into (r, s, t) data.

    Runs the kernel/cokernel counting procedure on each isotypic
    sublattice ker(Phi_e(phi)*Phi_pe(phi)), e | m/p, and cross-checks the
    totals against the same procedure run globally.
    """
    validate(spec)
    if p not in spec.primes:
        raise NotADivisor(f"{p} is not a prime factor of m={spec.m}")
    phi, n, m = spec.phi, spec.n, spec.m
    psi = spec.psi(p)

    r = s = t = 0
    r_mults: dict[int, int] = {}
    t_mults: dict[int, int] = {}
    r_cols: list[tuple[int, ...]] = []
    t_cols: list[tuple[int, ...]] = []
    w_cols: list[tuple[int, ...]] = []
    for e in divisors(m // p):
        poly = cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)
        u_basis = kernel_basis(poly.eval_matrix(phi))
        if u_basis.cols == 0:
            continue
        psi_e = restrict_to_basis(psi, u_basis)
        r_e, s_e, t_e, r_gens, w_gens = _cyclic_counts(psi_e, p)
        r += r_e
        s += s_e
        t += t_e
        phi_e = euler_phi(e)
        if r_e % phi_e or t_e % phi_e:
            raise NonInvariantBlock(
                f"isotypic counts at e={e} are not multiples of phi({e})"
            )
        if r_e:
            r_mults[e] = r_e // phi_e
            r_cols.extend((u_basis @ r_gens).columns())
        if t_e:
            t_mults[p * e] = t_e // phi_e
            w_amb = u_basis @ w_gens
            w_cols.extend(w_amb.columns())
            span_cols = []
            power = IntMatrix.identity(n)
            for _ in range(p - 1):
                span_cols.extend((power @ w_amb).columns())
                power = power @ psi
            t_cols.extend(
                saturate_span(IntMatrix.from_columns(span_cols, n)).columns()
            )

    r_glob, _, t_glob, _, _ = _cyclic_counts(psi, p)
    if (r_glob, t_glob) != (r, t) or r + p * s + (p - 1) * t != n:
        raise NonInvariantBlock(
            f"isotypic totals (r={r}, t={t}) disagree with the global counts "
            f"(r={r_glob}, t={t_glob})"
        )

    r_census = CyclotomicCensus.of(m, r_mults)
    t_census = CyclotomicCensus.of(m, t_mults)
    r_basis = saturate_span(IntMatrix.from_columns(r_cols, n)) if r_cols else IntMatrix.zeros(n, 0)
    t_basis_raw = saturate_span(IntMatrix.from_columns(t_cols, n)) if t_cols else IntMatrix.zeros(n, 0)
    w_gen_matrix = IntMatrix.from_columns(w_cols, n) if w_cols else IntMatrix.zeros(n, 0)

    _is_stable_block(phi, r_basis, r_census)  # for its census check only
    t_stable = _is_stable_block(phi, t_basis_raw, t_census)
    adapted = _adapted_basis(n, r_basis, w_gen_matrix)
    return RstDecomposition(
        p=p,
        r=r,
        s=s,
        t=t,
        adapted_basis=adapted,
        r_census=r_census,
        t_census=t_census,
        r_basis=r_basis,
        t_basis=t_basis_raw if t_stable else None,
        t_generators=w_gen_matrix,
    )


# ---------------------------------------------------------------------------
# Isotropy data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropyData:
    """The divisor set D with eigenvalue counts m_d and k_d = m_d/(p-1).

    d | m/p belongs to D when phi has an eigenvalue of exact order m/d on
    the free-origin block; every eigenvalue order there is divisible by p.
    """

    p: int
    divisors: tuple[int, ...]
    m_d: tuple[tuple[int, int], ...]
    k_d: tuple[tuple[int, int], ...]

    def k(self, d: int) -> int:
        return dict(self.k_d).get(d, 0)


def isotropy_data(spec: GroupSpec, p: int, rst: RstDecomposition | None = None) -> IsotropyData:
    """Census the free-origin block of phi and read off D, m_d, k_d."""
    if rst is None:
        rst = rst_decompose(spec, p)
    m = spec.m
    census = rst.t_census
    for order, mu in census.multiplicities:
        if mu and order % p:
            raise UnexpectedOrder(
                f"free-origin block has an eigenvalue of order {order} not divisible by {p}"
            )
    m_d: dict[int, int] = {}
    k_d: dict[int, int] = {}
    total = 0
    for d in divisors(m // p):
        count = census.multiplicity(m // d) * euler_phi(m // d)
        if count == 0:
            continue
        if count % (p - 1):
            raise NonIntegralK(f"m_d={count} for d={d} is not divisible by p-1={p - 1}")
        m_d[d] = count
        k_d[d] = count // (p - 1)
        total += count
    if total != (p - 1) * rst.t:
        raise NonIntegralK(
            f"eigenvalue counts sum to {total}, expected (p-1)*t = {(p - 1) * rst.t}"
        )
    ds = tuple(sorted(m_d))
    return IsotropyData(
        p=p,
        divisors=ds,
        m_d=tuple(sorted(m_d.items())),
        k_d=tuple(sorted(k_d.items())),
    )


# ---------------------------------------------------------------------------
# Free actions and maximal finite subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeActionReport:
    per_prime: tuple[tuple[int, bool], ...]
    overall: bool

    def is_free(self, p: int) -> bool:
        return dict(self.per_prime)[p]


def free_outside_origin(spec: GroupSpec) -> FreeActionReport:
    """True per prime iff psi_p fixes no nonzero lattice vector."""
    validate(spec)
    flags = []
    for p in spec.primes:
        psi = spec.psi(p)
        flags.append((p, rank(psi - IntMatrix.identity(spec.n)) == spec.n))
    return FreeActionReport(tuple(flags), all(f for _, f in flags))


@dataclass(frozen=True)
class MaxFiniteCensus:
    """Counts of conjugacy classes of finite subgroups for a free action.

    ``class_counts`` maps a subgroup order q to its class count: for each
    prime p the count of order-p classes inside the index-(m/p) subgroup
    Z^n x| Z/p (this is p^(n/(p-1)) = |det(psi - 1)|, the order of
    H^1(Z/p; Z^n) = coker(psi - 1) when psi fixes no nonzero vector),
    and 1 for the full cyclic part q = m.  ``nonzero_type_counts`` is the
    closed-form count p*(p^(n/(p-1)) - 1)/m of maximal order-p classes in
    the full group, reported for reference.
    """

    class_counts: tuple[tuple[int, int], ...]
    nonzero_type_counts: tuple[tuple[int, int | None], ...]

    def count(self, q: int) -> int:
        return dict(self.class_counts)[q]


def max_finite_subgroup_census(spec: GroupSpec) -> MaxFiniteCensus:
    report = free_outside_origin(spec)
    if not report.overall:
        raise NotFreeAction("the action has nonzero fixed vectors for some prime")
    counts: dict[int, int] = {}
    closed: dict[int, int | None] = {}
    for p in spec.primes:
        if spec.n % (p - 1):
            raise NonIntegralK(f"free Z/{p}-action needs (p-1) | n, got n={spec.n}")
        k = spec.n // (p - 1)
        quotient = abs(det(spec.psi(p) - IntMatrix.identity(spec.n)))
        if quotient != p**k:
            raise NonIntegralK(
                f"class count {quotient} differs from p^(n/(p-1)) = {p**k}"
            )
        counts[p] = p**k
        num = p * (p**k - 1)
        closed[p] = num // spec.m if num % spec.m == 0 else None
    # For prime m the maximal cyclic part coincides with the Sylow subgroup
    # and the H^1-based count above is the authoritative one; only add the
    # separate q = m entry when it is a genuinely different order.
    if spec.m not in counts:
        counts[spec.m] = 1
    return MaxFiniteCensus(
        class_counts=tuple(sorted(counts.items())),
        nonzero_type_counts=tuple(sorted(closed.items())),
    )

