"""Group specifications and their per-prime lattice decompositions.

For each prime p | m the lattice Z^n, viewed over Z/p via psi = phi^(m/p),
splits p-locally as

    Z^r (trivial)  +  Z[Z/p]^s (regular)  +  I^t (augmentation ideal),

and the torsion formulas consume r, s, t together with the eigenvalue
censuses of phi on the trivial block and the free-origin block.  Both
are read off phi's census and one rank mod p per isotypic piece, with no
Smith form.  Since p does not divide m/p, the idempotents of
Z_(p)[Z/(m/p)] split the p-local lattice into the pieces
ker(Phi_e(phi) * Phi_pe(phi)), e | m/p.  On the piece at e, psi has the
eigenvalue 1 where phi's eigenvalues have order e and a primitive p-th
root of unity where they have order pe.  Each copy of Z or Z[Z/p] carries
one eigenvalue 1 of psi, and each copy of Z[Z/p] or I carries p - 1 of the
others, so with c_d the multiplicity of Phi_d in phi's census

    r_e + s_e = phi(e) * c_e,    s_e + t_e = phi(e) * c_pe.

Mod p, Z, I and Z[Z/p] reduce to the Jordan blocks J_1, J_(p-1) and J_p
(Diederichsen-Reiner; Curtis-Reiner I, section 34), on which
N = 1 + psi + ... + psi^(p-1), congruent to (psi - 1)^(p-1), has rank 0,
0 and 1.  Mod p, Phi_pe is congruent to Phi_e^(p-1), so
Q_e(phi) = ((x^m - 1)/(Phi_e * Phi_pe))(phi) maps onto the piece's part
of M/pM, and s_e is the rank of N * Q_e(phi) mod p.  The block censuses
follow: Phi_e with multiplicity r_e/phi(e) on the trivial block and Phi_pe
with multiplicity t_e/phi(e) on the free-origin block, so
k_d = m_d/(p-1) is an integer by construction.

Every power of phi read here comes off one chain phi^0..phi^(m-1) per
group (cyclotomic.phi_powers), the chain that phi's census and the Molien
average also read: psi_p = phi^(m/p) is an entry, the global norm
N_p = sum_k phi^(k*m/p) a sum of entries, and each N_p * Q_e(phi),
reduced mod x^m - 1, a combination of entries.

rst_bases computes integral bases of the two blocks by the classical
Smith-form route (Brown, Cohomology of Groups, VI): since psi^p = 1, ker N
is the saturation of im(psi - 1) and ker(psi - 1) that of im N, so one
Smith run of each matrix on every isotypic piece gives t, r and their
generators.  It cross-checks its counts and censuses against
rst_decompose.  The census of a stable saturated block with basis U and
integral left inverse L is read off tr B^j = tr(phi^j U L) by Newton's
identities, with no power of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import prod
from operator import mul

from .abelian import _factorint
from .cyclotomic import (
    CyclotomicCensus,
    chain_census,
    cyclotomic_census,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    phi_powers,
)
from .errors import (
    BadInvariantFactors,
    NonIntegralK,
    NonInvariantBlock,
    NonUnityEigenvalues,
    NotADivisor,
    NotFreeAction,
    NotSquare,
    NotSquareFree,
    NotUnimodular,
    UnexpectedOrder,
    WrongOrder,
)
from .intmat import (
    IntMatrix,
    _smith_engine,
    charpoly_from_traces,
    det,
    invariant_factors,
    kernel_basis,
    norm_and_power,
    rank_mod_p,
    restrict_to_basis,
    saturate_span,
)
from .intpoly import IntPolynomial


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
        """Action of the generator of the order-p subgroup, phi^(m/p), read off phi's power chain.

        NotADivisor unless p | m and p > 1; WrongOrder unless phi^m = 1.
        """
        if p < 2 or self.m % p:
            raise NotADivisor(f"{p} does not divide m={self.m}")
        return phi_powers(self.phi, self.m)[self.m // p]


def validate(spec: GroupSpec) -> GroupSpec:
    """Check all GroupSpec invariants; returns the spec unchanged.

    m must be square-free, phi must be n x n with determinant +-1, and
    phi^m must be the identity (the order may properly divide m).  The
    checks run once per distinct spec; a spec that fails them raises on
    every call.
    """
    _check(spec)
    return spec


@lru_cache(maxsize=256)
def _check(spec: GroupSpec) -> None:
    # the determinant is checked before phi^m: a non-unimodular phi is
    # refused before powers whose entries can grow exponentially in m
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


# ---------------------------------------------------------------------------
# (r, s, t) decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RstDecomposition:
    """Per-prime counts (r, s, t) and the censuses of phi on the r and t blocks.

    ``r_census`` and ``t_census`` are the eigenvalue censuses of phi on
    the trivial block Z^r and the free-origin block I^t; for every
    e | m/p they hold Phi_e with multiplicity r_e/phi(e) and Phi_pe with
    multiplicity t_e/phi(e), the counts of the isotypic piece at e.
    """

    p: int
    r: int
    s: int
    t: int
    r_census: CyclotomicCensus
    t_census: CyclotomicCensus


def _chain_combination(powers, coeffs) -> IntMatrix:
    """sum_i coeffs[i] * phi^i off the chain phi^0..phi^(m-1), reading phi^m = 1."""
    m, n = len(powers), powers[0].rows
    folded = [0] * m
    for i, c in enumerate(coeffs):
        folded[i % m] += c
    used = [c for c in folded if c]
    if not used:
        return IntMatrix.zeros(n, n)
    flats = [chain.from_iterable(power.data) for c, power in zip(folded, powers) if c]
    entries = [sum(map(mul, used, column)) for column in zip(*flats)]
    return IntMatrix._trusted([entries[i * n:(i + 1) * n] for i in range(n)])


def _norm_coeffs(m: int, p: int) -> list[int]:
    """N_p(x) = sum_k x^(k*m/p), k < p, as m coefficients: N_p(phi) is the norm of psi_p."""
    return [int(i % (m // p) == 0) for i in range(m)]


@lru_cache(maxsize=None)
def _piece_norm_coeffs(m: int, p: int, e: int) -> tuple[int, ...]:
    """Coefficients of N_p(x) * Q_e(x), with Q_e = (x^m - 1)/(Phi_e(x) * Phi_pe(x))."""
    q_e, rem = IntPolynomial.x_pow_minus_one(m).divmod_exactly(
        cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)
    )
    assert rem.is_zero()
    return (IntPolynomial.of(*_norm_coeffs(m, p)) * q_e).coeffs


def _check_prime(spec: GroupSpec, p: int) -> None:
    """Validate spec and refuse a p that is not a prime factor of m (NotADivisor)."""
    validate(spec)
    if p not in spec.primes:
        raise NotADivisor(f"{p} is not a prime factor of m={spec.m}")


@lru_cache(maxsize=256)
def rst_decompose(spec: GroupSpec, p: int) -> RstDecomposition:
    """Decompose Z^n over Z/p (psi = phi^(m/p)) into (r, s, t) and both block censuses.

    With c_d the multiplicity of Phi_d in phi's census, each e | m/p
    with c_e or c_pe nonzero gives s_e = rank mod p of N_p*Q_e(phi),
    r_e = phi(e)*c_e - s_e and t_e = phi(e)*c_pe - s_e; no Smith form
    is run.  A negative count raises BadInvariantFactors; a count that
    is not a multiple of phi(e), or a total s other than the rank of N_p
    mod p on the whole lattice, raises NonInvariantBlock.
    """
    _check_prime(spec, p)
    m = spec.m
    powers = phi_powers(spec.phi, m)
    census = chain_census(spec.phi, m).as_dict()
    r = s = t = 0
    r_mults: dict[int, int] = {}
    t_mults: dict[int, int] = {}
    for e in divisors(m // p):
        c_e, c_pe = census.get(e, 0), census.get(p * e, 0)
        if not (c_e or c_pe):
            continue
        phi_e = euler_phi(e)
        s_e = rank_mod_p(_chain_combination(powers, _piece_norm_coeffs(m, p, e)), p)
        r_e, t_e = phi_e * c_e - s_e, phi_e * c_pe - s_e
        if r_e < 0 or t_e < 0:
            raise BadInvariantFactors(
                f"rank {s_e} of the isotypic norm at e={e} exceeds the census counts "
                f"{phi_e * c_e} and {phi_e * c_pe}"
            )
        if s_e % phi_e:
            raise NonInvariantBlock(
                f"isotypic counts at e={e} are not multiples of phi({e})"
            )
        r_mults[e], t_mults[p * e] = r_e // phi_e, t_e // phi_e
        r, s, t = r + r_e, s + s_e, t + t_e
    s_glob = rank_mod_p(_chain_combination(powers, _norm_coeffs(m, p)), p)
    if s_glob != s:
        raise NonInvariantBlock(
            f"isotypic ranks sum to s={s}, but N_{p} has rank {s_glob} mod {p}"
        )
    return RstDecomposition(
        p=p,
        r=r,
        s=s,
        t=t,
        r_census=CyclotomicCensus.of(m, r_mults),
        t_census=CyclotomicCensus.of(m, t_mults),
    )


# ---------------------------------------------------------------------------
# Integral bases of the blocks (Smith forms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RstBases:
    """Integral bases behind one decomposition, from Smith forms.

    ``r_basis`` saturates the span of the r generators found on each
    isotypic piece, and ``t_basis``, when phi-stable, that of the
    psi-orbits of ``t_generators``: ker(psi - 1) and ker N if s = 0, but
    Smith-pivot dependent if s > 0.  ``adapted_basis`` is unimodular,
    [r block | complement | t generators] when those are jointly
    primitive.
    """

    r_basis: IntMatrix
    t_basis: IntMatrix | None
    t_generators: IntMatrix
    adapted_basis: IntMatrix


def _count_p_factors(factors, p: int) -> int:
    """How many ``factors`` equal p; one other than 1 or p raises BadInvariantFactors."""
    count = 0
    for d in factors:
        if d not in (1, p):
            raise BadInvariantFactors(
                f"invariant factor {d} outside {{1, {p}}} in a Z/{p} quotient"
            )
        count += d == p
    return count


def _cokernel_torsion(a: IntMatrix, p: int) -> tuple[int, IntMatrix]:
    """(rank of a, generator columns of the torsion of coker a), from one Smith run.

    With U a V = D, a V = U^-1 D: the first rank(a) columns u_i of U^-1
    span the saturation of im a, and im a is spanned by the d_i u_i, so
    the u_i with d_i = p generate the torsion.  A nonzero factor other
    than 1 or p raises BadInvariantFactors.
    """
    eng = _smith_engine(a, need_uinv=True)
    factors = eng.diagonal[: eng.rank]
    _count_p_factors(factors, p)
    gens = [i for i, d in enumerate(factors) if d == p]
    return eng.rank, IntMatrix([[row[j] for j in gens] for row in eng.uinv])


def _cyclic_counts(psi: IntMatrix, p: int):
    """(r, s, t, r_gens, w_gens) for one Z/p-lattice with generator action psi.

    ker N is the saturation of im(psi - 1) and ker(psi - 1) that of im N
    exactly when their ranks add up to n; otherwise BadInvariantFactors.
    """
    n = psi.rows
    norm = norm_and_power(psi, p)[0]
    image_rank, w_gens = _cokernel_torsion(psi - IntMatrix.identity(n), p)
    norm_rank, r_gens = _cokernel_torsion(norm, p)
    if image_rank + norm_rank != n:
        raise BadInvariantFactors("kernel/image quotient is not finite")
    r, t = r_gens.cols, w_gens.cols
    rest = n - r - (p - 1) * t
    if rest < 0 or rest % p:
        raise BadInvariantFactors(
            f"counts r={r}, t={t} do not satisfy r + p*s + (p-1)*t = {n}"
        )
    return r, rest // p, t, r_gens, w_gens


def _block_census(powers, basis: IntMatrix, inverse: IntMatrix) -> CyclotomicCensus:
    """Census of phi on a phi-stable block span(basis), from traces.

    With phi U = U B and L U = 1 (``inverse``), B^j = L phi^j U, so
    tr B^j = tr(phi^j P) for the projector P = U L: one n^2 pairing with
    a chain entry per j = 0..rank, the exponent read mod m since B^m = 1.
    """
    m = len(powers)
    projector_t = list(chain.from_iterable((basis @ inverse).transpose().data))
    traces = [
        sum(map(mul, chain.from_iterable(powers[j % m].data), projector_t))
        for j in range(basis.cols + 1)
    ]
    return cyclotomic_census(charpoly_from_traces(traces), m)


def _is_stable_block(powers, basis: IntMatrix, inverse: IntMatrix,
                     census: CyclotomicCensus) -> bool:
    """Whether the saturated span(basis) is a nonzero phi-stable block.

    With L = ``inverse`` its integral left inverse, the span is stable
    when phi U lies in it, that is U L phi U = phi U.  A
    stable block whose census, read off the chain's traces, disagrees
    with ``census`` raises NonInvariantBlock; so do traces that are no
    census's at all.
    """
    if not basis.cols:
        return False
    image = powers[1 % len(powers)] @ basis
    if basis @ (inverse @ image) != image:  # span not phi-stable
        return False
    try:
        found = _block_census(powers, basis, inverse)
    except (ArithmeticError, NonUnityEigenvalues):
        found = None
    if found != census:
        raise NonInvariantBlock("restricted block census disagrees with the isotypic census")
    return True


def _adapted_basis(n: int, r_basis: IntMatrix, w_gens: IntMatrix) -> IntMatrix:
    """Unimodular basis [r block | complement | t generators], best effort.

    One Smith run of the joint matrix gives U^-1, whose first rank columns
    span the joint saturation and whose rest complete it to Z^n.  When
    the r block and the t generators are not jointly primitive (of full
    column rank with unit invariant factors) U^-1 is returned as it
    stands.
    """
    joint = r_basis.hstack(w_gens) if w_gens.cols else r_basis
    if joint.cols == 0:
        return IntMatrix.identity(n)
    eng = _smith_engine(joint, need_uinv=True)
    if eng.diagonal.count(1) != joint.cols:
        return IntMatrix(eng.uinv)
    rest = [row[joint.cols:] for row in eng.uinv]
    return r_basis.hstack(IntMatrix(rest)).hstack(w_gens)


def _saturated_block(cols, n: int) -> tuple[IntMatrix, IntMatrix]:
    """saturate_span of the columns ``cols`` of Z^n: (basis, left inverse); empty if no columns."""
    if not cols:
        return IntMatrix.zeros(n, 0), IntMatrix.zeros(0, n)
    return saturate_span(IntMatrix.from_columns(cols, n))


def _smith_rst(spec: GroupSpec, p: int) -> tuple[RstDecomposition, RstBases]:
    """(counts and censuses, bases) at p, all from Smith forms.

    Reads r and t off the cokernels of N and psi - 1 on each isotypic
    sublattice ker(Phi_e(phi)*Phi_pe(phi)), e | m/p, cross-checks the
    totals against the same counts on the whole lattice, saturates the
    blocks and checks each stable block's census; a factor outside
    {1, p} raises BadInvariantFactors.
    """
    _check_prime(spec, p)
    n, m = spec.n, spec.m
    powers = phi_powers(spec.phi, m)
    psi = spec.psi(p)

    r = s = t = 0
    r_mults: dict[int, int] = {}
    t_mults: dict[int, int] = {}
    r_cols: list[tuple[int, ...]] = []
    t_cols: list[tuple[int, ...]] = []
    w_cols: list[tuple[int, ...]] = []
    for e in divisors(m // p):
        poly = cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)
        u_basis = kernel_basis(_chain_combination(powers, poly.coeffs))
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
            orbit = w_amb  # psi^k applied to the generator columns
            for _ in range(p - 1):
                t_cols.extend(orbit.columns())
                orbit = psi @ orbit

    norm = _chain_combination(powers, _norm_coeffs(m, p))
    r_glob = _count_p_factors(invariant_factors(norm), p)
    t_glob = _count_p_factors(_psi_minus_one_factors(spec, p), p)
    if (r_glob, t_glob) != (r, t) or r + p * s + (p - 1) * t != n:
        raise NonInvariantBlock(
            f"isotypic totals (r={r}, t={t}) disagree with the global counts "
            f"(r={r_glob}, t={t_glob})"
        )

    r_census = CyclotomicCensus.of(m, r_mults)
    t_census = CyclotomicCensus.of(m, t_mults)
    r_basis, r_inverse = _saturated_block(r_cols, n)
    t_basis_raw, t_inverse = _saturated_block(t_cols, n)
    w_gen_matrix = IntMatrix.from_columns(w_cols, n) if w_cols else IntMatrix.zeros(n, 0)

    _is_stable_block(powers, r_basis, r_inverse, r_census)  # for its census check only
    t_stable = _is_stable_block(powers, t_basis_raw, t_inverse, t_census)
    adapted = _adapted_basis(n, r_basis, w_gen_matrix)
    return RstDecomposition(p, r, s, t, r_census, t_census), RstBases(
        r_basis=r_basis,
        t_basis=t_basis_raw if t_stable else None,
        t_generators=w_gen_matrix,
        adapted_basis=adapted,
    )


def rst_bases(spec: GroupSpec, p: int) -> RstBases:
    """The r and t blocks' integral bases at p, from Smith forms.

    The Smith route's own counts and censuses must equal rst_decompose's,
    else NonInvariantBlock: every call cross-checks the two readings.
    """
    counts, bases = _smith_rst(spec, p)
    if counts != rst_decompose(spec, p):
        raise NonInvariantBlock(
            "Smith-form counts or block censuses disagree with the census-and-rank reading"
        )
    return bases


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
    """Census the free-origin block of phi and read off D, m_d, k_d (``rst`` at p)."""
    if rst is None:
        rst = rst_decompose(spec, p)
    elif rst.p != p:
        raise ValueError(f"decomposition at p={rst.p} passed for p={p}")
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


@lru_cache(maxsize=256)
def _psi_minus_one_factors(spec: GroupSpec, p: int) -> tuple[int, ...]:
    """The nonzero invariant factors of psi_p - 1 on the whole lattice.

    psi_p fixes no nonzero vector iff there are n of them, and then their
    product is |det(psi_p - 1)|, the order of coker(psi_p - 1).
    """
    return invariant_factors(spec.psi(p) - IntMatrix.identity(spec.n))


def free_outside_origin(spec: GroupSpec) -> FreeActionReport:
    """True per prime iff psi_p fixes no nonzero lattice vector."""
    validate(spec)
    flags = tuple(
        (p, len(_psi_minus_one_factors(spec, p)) == spec.n) for p in spec.primes
    )
    return FreeActionReport(flags, all(f for _, f in flags))


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
    if not free_outside_origin(spec).overall:
        raise NotFreeAction("the action has nonzero fixed vectors for some prime")
    counts: dict[int, int] = {}
    closed: dict[int, int | None] = {}
    for p in spec.primes:
        factors = _psi_minus_one_factors(spec, p)
        if spec.n % (p - 1):
            raise NonIntegralK(f"free Z/{p}-action needs (p-1) | n, got n={spec.n}")
        k = spec.n // (p - 1)
        quotient = prod(factors)
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

