"""Censuses, exponent multisets, root counting, trace averages."""

import random
from itertools import combinations
from math import gcd

import pytest

from semicoh.cyclotomic import (
    CyclotomicCensus,
    count_wedge_roots,
    cyclotomic_census,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    exponent_multiset,
    matrix_census,
    molien_rank,
)
from semicoh.errors import NonUnityEigenvalues, NotADivisor
from semicoh.fixtures import FLAGSHIP_MATRIX, companion_of_cyclotomic, fixture_suite
from semicoh.intmat import IntMatrix, block_diagonal, charpoly, det
from semicoh.intpoly import IntPolynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == IntPolynomial.of(-1, 1)
    assert cyclotomic_polynomial(2) == IntPolynomial.of(1, 1)
    # derived by dividing x^6 - 1 by Phi_1 * Phi_2 * Phi_3 directly
    x6 = IntPolynomial.x_pow_minus_one(6)
    lower = (
        cyclotomic_polynomial(1) * cyclotomic_polynomial(2) * cyclotomic_polynomial(3)
    )
    quo, rem = x6.divmod_exactly(lower)
    assert rem.is_zero()
    assert cyclotomic_polynomial(6) == quo == IntPolynomial.of(1, -1, 1)


def test_product_of_cyclotomics_is_x_pow_minus_one():
    for m in (2, 3, 5, 6, 10, 15, 30):
        prod = IntPolynomial.of(1)
        for d in divisors(m):
            prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPolynomial.x_pow_minus_one(m)


def test_census_examples():
    assert cyclotomic_census(IntPolynomial.of(1, 1, 1), 6).as_dict() == {3: 1}
    assert cyclotomic_census(IntPolynomial.of(-1, 1) * IntPolynomial.of(-1, 1), 6).as_dict() == {1: 2}
    assert matrix_census(FLAGSHIP_MATRIX, 6).as_dict() == {1: 1, 2: 2, 3: 1}


def test_census_dimension_invariant():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        census = matrix_census(fixture.spec.phi, fixture.spec.m)
        assert census.dimension == fixture.spec.n


def test_census_rejects_non_unity():
    with pytest.raises(NonUnityEigenvalues):
        cyclotomic_census(IntPolynomial.of(-2, 1), 6)  # root 2
    with pytest.raises(NonUnityEigenvalues):
        cyclotomic_census(IntPolynomial.of(1, 1, 1), 4)  # cube roots, m = 4


def test_exponent_multisets():
    assert exponent_multiset(CyclotomicCensus.of(2, {2: 1})).as_dict() == {1: 1}
    assert exponent_multiset(CyclotomicCensus.of(6, {3: 1})).as_dict() == {2: 1, 4: 1}
    assert exponent_multiset(CyclotomicCensus.of(6, {1: 2})).as_dict() == {0: 2}


def test_exponent_multiset_galois_closed():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.choice((2, 3, 5, 6, 10, 15, 30))
        mults = {d: rng.randrange(3) for d in divisors(m)}
        census = CyclotomicCensus.of(m, mults)
        x = exponent_multiset(census)
        counts = x.as_dict()
        for a, c in counts.items():
            order = m // gcd(a, m)
            for b in range(m):
                if m // gcd(b, m) == order:
                    assert counts.get(b, 0) == c  # equal order => equal count


def _brute_count(x, l, d):
    return sum(1 for sub in combinations(x.expand(), l) if sum(sub) % d == 0)


def test_count_wedge_roots_examples():
    from semicoh.cyclotomic import ExponentMultiset

    # trivial-block exponents of the flagship at p = 2: primitive cube roots
    x = ExponentMultiset.of(6, {2: 1, 4: 1})
    assert [count_wedge_roots(x, l, 3) for l in (0, 1, 2)] == [1, 0, 1]
    assert count_wedge_roots(x, 0, 1) == 1
    sign = ExponentMultiset.of(2, {1: 1})
    assert count_wedge_roots(sign, 1, 2) == 0
    with pytest.raises(NotADivisor):
        count_wedge_roots(x, 1, 4)


def test_count_wedge_roots_matches_bruteforce(rng):
    for _ in range(25):
        m = rng.choice((2, 3, 6, 10, 12, 15))
        n = rng.randint(1, 8)
        counts = {}
        for _ in range(n):
            a = rng.randrange(m)
            counts[a] = counts.get(a, 0) + 1
        from semicoh.cyclotomic import ExponentMultiset

        x = ExponentMultiset.of(m, counts)
        for d in divisors(m):
            for l in range(n + 2):
                assert count_wedge_roots(x, l, d) == _brute_count(x, l, d)


def test_molien_identity_on_identity_matrix():
    from math import comb

    for n in (1, 2, 3):
        for l in range(n + 1):
            assert molien_rank(IntMatrix.identity(n), 3, l) == comb(n, l)


def test_molien_flagship():
    assert molien_rank(FLAGSHIP_MATRIX, 6, 2) == 2
    assert molien_rank(FLAGSHIP_MATRIX, 6, 5) == 1


def test_molien_rejects_non_integral_average():
    from semicoh.errors import NonIntegralAverage

    # order-2 matrix averaged over a group of order 3: not a character average
    with pytest.raises(NonIntegralAverage):
        molien_rank(IntMatrix([[0, 1], [1, 0]]), 3, 1)


def test_molien_equals_wedge_count_on_fixtures():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        for l in range(spec.n + 1):
            assert count_wedge_roots(x, l, spec.m) == molien_rank(spec.phi, spec.m, l)


def test_alternating_sum_identity():
    """sum_l (-1)^l H(l, m) equals the average of det(I - phi^j)."""
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        lhs = sum((-1) ** l * count_wedge_roots(x, l, spec.m) for l in range(spec.n + 1))
        one = IntMatrix.identity(spec.n)
        total = 0
        power = IntMatrix.identity(spec.n)
        for _ in range(spec.m):
            total += det(one - power)
            power = power @ spec.phi
        assert total % spec.m == 0
        assert lhs == total // spec.m


def test_count_wedge_roots_block_matrix(rng):
    # DP equals brute force on root-of-unity matrices built from companions
    for _ in range(6):
        m = rng.choice((6, 10, 15))
        blocks = []
        size = 0
        while size < 6:
            e = rng.choice([e for e in divisors(m) if euler_phi(e) <= 6 - size] or [1])
            blocks.append(companion_of_cyclotomic(e))
            size += euler_phi(e)
        phi = block_diagonal(blocks)
        x = exponent_multiset(matrix_census(phi, m))
        for d in divisors(m):
            for l in range(size + 1):
                assert count_wedge_roots(x, l, d) == _brute_count(x, l, d)
