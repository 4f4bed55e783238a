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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

from .cyclotomic import (
    CyclotomicCensus,
    chain_census,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    phi_powers,
)
from .errors import (
    BadInvariantFactors,
    DimensionTooLarge,
    NonIntegralK,
    NonInvariantBlock,
    NotADivisor,
    NotFreeAction,
    NotSquare,
    NotSquareFree,
    NotUnimodular,
    WrongOrder,
)
from .intmat import IntMatrix, det, rank_mod_p
from .intpoly import IntPolynomial


def _factorint(n: int) -> Counter[int]:
    """Prime factorization of n >= 1 by trial division; m and q here are small."""
    result, d = Counter(), 2
    while d * d <= n:
        while n % d == 0:
            result[d] += 1
            n //= d
        d += 1
    if n > 1:
        result[n] += 1
    return result


@dataclass(frozen=True)
class GroupSpec:
    """The data (n, m, phi) defining Z^n semidirect Z/m."""

    n: int
    m: int
    phi: IntMatrix
    name: str | None = None

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(_factorint(self.m)))

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


# every engine runs over all m powers of phi: at n = 1 each took at most
# 3.5 s at m = 102102, and 15 s at 510510 (README, "Known limits")
_MAX_M = 100_000


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
    if spec.m > _MAX_M:
        raise DimensionTooLarge(f"m={spec.m} is over the cap of {_MAX_M}")
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


def isotropy_data(spec: GroupSpec, p: int, rst: RstDecomposition | None = None) -> IsotropyData:
    """D, m_d and k_d read off the free-origin census of ``rst`` (decomposed at p if omitted).

    rst_decompose puts Phi_pe with multiplicity t_e/phi(e) in that census
    for each e | m/p, and p does not divide e, so the eigenvalues of
    order pe give d = m/(pe), m_d = (p-1)*t_e and k_d = t_e: every m_d is
    a multiple of p-1, and together they sum to (p-1)*t.
    """
    if rst is None:
        rst = rst_decompose(spec, p)
    elif rst.p != p:
        raise ValueError(f"decomposition at p={rst.p} passed for p={p}")
    t_e = {spec.m // order: mu * euler_phi(order // p)
           for order, mu in rst.t_census.multiplicities}
    k_d = tuple(sorted(t_e.items()))
    return IsotropyData(
        p=p,
        divisors=tuple(d for d, _ in k_d),
        m_d=tuple((d, (p - 1) * k) for d, k in k_d),
        k_d=k_d,
    )


# ---------------------------------------------------------------------------
# Free actions and maximal finite subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeActionReport:
    per_prime: tuple[tuple[int, bool], ...]
    overall: bool


@lru_cache(maxsize=256)
def _psi_minus_one_det(spec: GroupSpec, p: int) -> int:
    """det(psi_p - 1) on the whole lattice.

    psi_p fixes no nonzero vector iff it is nonzero, and then its absolute
    value is the order of coker(psi_p - 1).
    """
    return det(spec.psi(p) - IntMatrix.identity(spec.n))


def free_outside_origin(spec: GroupSpec) -> FreeActionReport:
    """True per prime iff psi_p fixes no nonzero lattice vector."""
    validate(spec)
    flags = tuple((p, _psi_minus_one_det(spec, p) != 0) for p in spec.primes)
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
        if spec.n % (p - 1):
            raise NonIntegralK(f"free Z/{p}-action needs (p-1) | n, got n={spec.n}")
        k = spec.n // (p - 1)
        quotient = abs(_psi_minus_one_det(spec, p))
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

