"""Cyclotomic censuses and exact root-of-unity counting.

A finite-order integer matrix has characteristic polynomial a product of
cyclotomics; the multiplicity map d -> mult(Phi_d) determines the full
eigenvalue multiset exactly, so eigenvalues are never represented as
complex floats.  Eigenvalues appear as exponents a in Z/m, standing for
exp(2*pi*i*a/m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import NonIntegralAverage, NonUnityEigenvalues, NotADivisor
from .intmat import IntMatrix, charpoly
from .intpoly import IntPolynomial


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    result = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            result -= result // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """Phi_d, computed as (x^d - 1) / prod of the lower cyclotomics.

    >>> print(cyclotomic_polynomial(6))
    x^2 - x + 1
    """
    if d < 1:
        raise ValueError("d must be positive")
    poly = IntPolynomial.x_pow_minus_one(d)
    for e in divisors(d):
        if e != d:
            poly, rem = poly.divmod_exactly(cyclotomic_polynomial(e))
            assert rem.is_zero()
    return poly


def companion_of_cyclotomic(d: int) -> IntMatrix:
    """Companion matrix of Phi_d: an integer matrix of order d."""
    poly = cyclotomic_polynomial(d)
    k = poly.degree
    out = [[0] * k for _ in range(k)]
    for i in range(1, k):
        out[i][i - 1] = 1
    for i in range(k):
        out[i][k - 1] = -poly.coeffs[i]
    return IntMatrix(out)


@dataclass(frozen=True)
class CyclotomicCensus:
    """Multiplicity of Phi_d in a characteristic polynomial, for d | m."""

    m: int
    multiplicities: tuple[tuple[int, int], ...]  # (d, mult), d ascending

    @classmethod
    def of(cls, m: int, mults: dict[int, int]) -> "CyclotomicCensus":
        return cls(m, tuple(sorted((d, mu) for d, mu in mults.items() if mu)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.multiplicities)

    @property
    def dimension(self) -> int:
        return sum(mu * euler_phi(d) for d, mu in self.multiplicities)

    def multiplicity(self, d: int) -> int:
        return dict(self.multiplicities).get(d, 0)


@dataclass(frozen=True)
class ExponentMultiset:
    """Eigenvalues as exponents in Z/m with multiplicities; Galois-closed."""

    m: int
    counts: tuple[tuple[int, int], ...]  # (residue, count), residue ascending

    @classmethod
    def of(cls, m: int, counts: dict[int, int]) -> "ExponentMultiset":
        return cls(m, tuple(sorted((a % m, c) for a, c in counts.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def dimension(self) -> int:
        return sum(c for _, c in self.counts)

    def expand(self) -> list[int]:
        out: list[int] = []
        for a, c in self.counts:
            out.extend([a] * c)
        return out


def cyclotomic_census(f: IntPolynomial, m: int) -> CyclotomicCensus:
    """Exact multiplicities of Phi_d (d | m) in a monic polynomial.

    Raises NonUnityEigenvalues when f is not a product of cyclotomics with
    d | m; for a characteristic polynomial of phi this signals phi^m != I.
    """
    if not f.is_monic():
        raise ValueError("census needs a monic polynomial")
    mults: dict[int, int] = {}
    rem = f
    for d in divisors(m):
        phi_d = cyclotomic_polynomial(d)
        while rem.degree >= phi_d.degree:
            quo, r = rem.divmod_exactly(phi_d)
            if not r.is_zero():
                break
            mults[d] = mults.get(d, 0) + 1
            rem = quo
    if rem.degree != 0 or rem.coeffs[0] != 1:
        raise NonUnityEigenvalues(
            f"polynomial has a factor with roots that are not m-th roots of unity (m={m})"
        )
    return CyclotomicCensus.of(m, mults)


def matrix_census(a: IntMatrix, m: int) -> CyclotomicCensus:
    return cyclotomic_census(charpoly(a), m)


def exponent_multiset(census: CyclotomicCensus) -> ExponentMultiset:
    """Each Phi_d copy contributes exponents j*(m/d) mod m, gcd(j, d) = 1."""
    m = census.m
    counts: dict[int, int] = {}
    for d, mu in census.multiplicities:
        step = m // d
        for j in range(d):
            if gcd(j, d) == 1 or d == 1:
                a = (j * step) % m
                counts[a] = counts.get(a, 0) + mu
    return ExponentMultiset.of(m, counts)


def count_wedge_roots(x: ExponentMultiset, l: int, d: int) -> int:
    """Number of l-element position subsets whose exponent sum is 0 mod d.

    This is the count of coordinates of the l-th exterior power's
    eigenvalue vector that are (m/d)-th roots of unity.  Dynamic program
    over (chosen count <= l, residue mod d); never enumerates subsets.
    """
    if l < 0:
        raise ValueError("negative degree")
    if d < 1 or x.m % d != 0:
        raise NotADivisor(f"{d} does not divide m={x.m}")
    n = x.dimension
    if l > n:
        return 0
    if l == 0:
        return 1
    # table[k][r] = number of k-subsets of the scanned prefix with sum r (mod d)
    table = [[0] * d for _ in range(l + 1)]
    table[0][0] = 1
    for a, c in x.counts:
        ad = a % d
        for _ in range(c):
            for k in range(min(l, n) - 1, -1, -1):
                row = table[k]
                nxt = table[k + 1]
                if ad == 0:
                    for r in range(d):
                        if row[r]:
                            nxt[r] += row[r]
                else:
                    for r in range(d):
                        if row[r]:
                            nxt[(r + ad) % d] += row[r]
    return table[l][0]


def molien_rank(phi: IntMatrix, m: int, l: int) -> int:
    """Invariant count (1/m) * sum_j trace(wedge_power(phi^j, l)).

    The trace of the l-th exterior power is evaluated as the sum of
    principal l x l minors.  The average is a character inner product, so
    it must be an integer; anything else raises NonIntegralAverage.
    """
    from .intmat import det as _det

    n = phi.rows
    if l < 0:
        raise ValueError("negative degree")
    if l > n:
        return 0
    from itertools import combinations

    total = 0
    power = IntMatrix.identity(n)
    for _ in range(m):
        for subset in combinations(range(n), l):
            minor = IntMatrix([[power.data[i][j] for j in subset] for i in subset])
            total += _det(minor)
        power = power @ phi
    q, r = divmod(total, m)
    if r:
        raise NonIntegralAverage(f"trace average {total}/{m} is not an integer")
    return q
