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

from .errors import NonIntegralAverage, NonUnityEigenvalues, NotADivisor, WrongOrder
from .intmat import IntMatrix, charpoly, charpoly_from_traces, power_chain
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


@dataclass(frozen=True)
class ExponentMultiset:
    """Eigenvalues as exponents in Z/m with multiplicities; Galois-closed."""

    m: int
    counts: tuple[tuple[int, int], ...]  # (residue, count), residue ascending

    @classmethod
    def of(cls, m: int, counts: dict[int, int]) -> "ExponentMultiset":
        return cls(m, tuple(sorted((a % m, c) for a, c in counts.items() if c)))


def cyclotomic_census(f: IntPolynomial, m: int) -> CyclotomicCensus:
    """Exact multiplicities of Phi_d (d | m) in a monic polynomial.

    Raises NonUnityEigenvalues when f is not a product of cyclotomics with
    d | m; for a characteristic polynomial of phi this signals phi^m != I.
    A Phi_d of degree phi(d) above the degree still left is never built.
    """
    if not f.is_monic():
        raise ValueError("census needs a monic polynomial")
    mults: dict[int, int] = {}
    rem = f
    for d in divisors(m):
        if euler_phi(d) > rem.degree:
            continue
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


def count_wedge_roots(x: ExponentMultiset, d: int) -> tuple[int, ...]:
    """The column H(0, d), ..., H(n, d), n = dim x, as a tuple of length n + 1.

    H(l, d) is the number of l-element position subsets whose exponent
    sum is 0 mod d: the count of coordinates of the l-th exterior power's
    eigenvalue vector that are (m/d)-th roots of unity.  One dynamic
    program over (chosen count, residue mod d) gives the whole column in
    O(n^2 d) steps; it never enumerates subsets.
    """
    if d < 1 or x.m % d != 0:
        raise NotADivisor(f"{d} does not divide m={x.m}")
    # table[k][r] = number of k-subsets of the scanned prefix with sum r (mod d)
    table = [[1] + [0] * (d - 1)]
    for a, c in x.counts:
        shift = a % d
        for _ in range(c):
            table.append([0] * d)
            for k in range(len(table) - 1, 0, -1):
                prev = table[k - 1]  # not yet updated: k runs downwards
                table[k] = [u + v for u, v in zip(table[k], prev[-shift:] + prev[:-shift])]
    return tuple(row[0] for row in table)


@lru_cache(maxsize=4)
def phi_powers(phi: IntMatrix, m: int) -> tuple[IntMatrix, ...]:
    """phi^0..phi^(m-1) from one power_chain; WrongOrder unless phi^m = 1.

    Every fact the ranks and the (r, s, t) decompositions read off powers
    of phi comes from this one chain.  It holds m*n^2 integers, and each
    of its consumers caches its own result, so only a few chains are kept.
    """
    powers, is_one = power_chain(phi, m)
    if not is_one:
        raise WrongOrder(f"phi^{m} is not the identity")
    return powers


@lru_cache(maxsize=64)
def _power_charpolys(phi: IntMatrix, m: int) -> tuple[IntPolynomial, ...]:
    """charpoly(phi^j), j < m, off one chain: phi^m = 1 gives tr (phi^j)^k = tr phi^(jk mod m)."""
    traces = [power.trace() for power in phi_powers(phi, m)]
    n = phi.rows
    return tuple(charpoly_from_traces([traces[j * k % m] for k in range(n + 1)]) for j in range(m))


@lru_cache(maxsize=64)
def chain_census(phi: IntMatrix, m: int) -> CyclotomicCensus:
    """phi's census, from the traces of phi^0..phi^n off phi's chain (phi^k = phi^(k mod m)).

    Its characteristic polynomial is the j = 1 entry of _power_charpolys,
    read here without the other m - 1.
    """
    powers = phi_powers(phi, m)
    traces = [powers[k % m].trace() for k in range(phi.rows + 1)]
    return cyclotomic_census(charpoly_from_traces(traces), m)


def molien_rank(phi: IntMatrix, m: int, l: int) -> int:
    """Invariant count (1/m) * sum_j trace(wedge_power(phi^j, l)).

    Each trace is a charpoly coefficient (the census count's routine too):
    tr wedge^l(A) = (-1)^l [x^(n-l)] det(xI - A).  WrongOrder unless
    phi^m = 1; the average is then a character inner product, hence an
    integer, else NonIntegralAverage.
    """
    n = phi.rows
    if l < 0:
        raise ValueError("negative degree")
    if l > n:
        return 0
    total = (-1) ** l * sum(f.coeffs[n - l] for f in _power_charpolys(phi, m))
    q, r = divmod(total, m)
    if r:
        raise NonIntegralAverage(f"trace average {total}/{m} is not an integer")
    return q
