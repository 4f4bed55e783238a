"""Censuses, exponent multisets, root counting, trace averages."""

import random
from itertools import combinations
from math import gcd

import pytest

import semicoh.cyclotomic
import semicoh.engines
import semicoh.intmat
import semicoh.torsion
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
from semicoh.engines import formula_table, full_exponents, molien_column, rank_column
from semicoh.errors import NonIntegralAverage, NonUnityEigenvalues, NotADivisor, WrongOrder
from semicoh.fixtures import (
    FLAGSHIP_MATRIX,
    companion_of_cyclotomic,
    fixture_by_name,
    fixture_suite,
)
from semicoh.groups import GroupSpec
from semicoh.intmat import IntMatrix, contragredient, det
from semicoh.intpoly import IntPolynomial

from conftest import (
    block_diagonal,
    count_calls,
    random_companion_spec,
    random_unimodular,
    scalar_matrix,
)


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
        assert sum(mu * euler_phi(d) for d, mu in census.multiplicities) == fixture.spec.n


def test_census_builds_no_cyclotomic_above_the_degree_left(monkeypatch):
    # (x + 1)^6 at m = 30030: Phi_2 takes all six degrees, and no Phi_d with
    # phi(d) > 6 (Phi_30030 has degree 5760) is built or cached
    cyclotomic_polynomial.cache_clear()
    built = count_calls(monkeypatch, semicoh.cyclotomic, "cyclotomic_polynomial")
    assert cyclotomic_census(IntPolynomial.of(1, 6, 15, 20, 15, 6, 1), 30030).as_dict() == {2: 6}
    assert built and max(euler_phi(d) for (d,) in built) <= 6, built
    assert cyclotomic_polynomial.cache_info().currsize == len(set(built))


def test_census_rejects_non_unity():
    with pytest.raises(NonUnityEigenvalues):
        cyclotomic_census(IntPolynomial.of(-2, 1), 6)  # root 2
    with pytest.raises(NonUnityEigenvalues):
        cyclotomic_census(IntPolynomial.of(1, 1, 1), 4)  # cube roots, m = 4


def test_exponent_multisets():
    assert dict(exponent_multiset(CyclotomicCensus.of(2, {2: 1})).counts) == {1: 1}
    assert dict(exponent_multiset(CyclotomicCensus.of(6, {3: 1})).counts) == {2: 1, 4: 1}
    assert dict(exponent_multiset(CyclotomicCensus.of(6, {1: 2})).counts) == {0: 2}


def test_exponent_multiset_galois_closed():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.choice((2, 3, 5, 6, 10, 15, 30))
        mults = {d: rng.randrange(3) for d in divisors(m)}
        census = CyclotomicCensus.of(m, mults)
        x = exponent_multiset(census)
        counts = dict(x.counts)
        for a, c in counts.items():
            order = m // gcd(a, m)
            for b in range(m):
                if m // gcd(b, m) == order:
                    assert counts.get(b, 0) == c  # equal order => equal count


def _brute_count(x, l, d):
    return sum(1 for sub in combinations([a for a, c in x.counts for _ in range(c)], l) if sum(sub) % d == 0)


def test_count_wedge_roots_examples():
    from semicoh.cyclotomic import ExponentMultiset

    # trivial-block exponents of the flagship at p = 2: primitive cube roots
    x = ExponentMultiset.of(6, {2: 1, 4: 1})
    assert count_wedge_roots(x, 3) == (1, 0, 1)
    # d = 1 counts every root: H(l, 1) = C(r, l), here with r = 2; the
    # column stops at l = r, above which every count is 0
    assert count_wedge_roots(x, 1) == (1, 2, 1)
    sign = ExponentMultiset.of(2, {1: 1})
    assert count_wedge_roots(sign, 2)[1] == 0
    with pytest.raises(NotADivisor):
        count_wedge_roots(x, 4)


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
            column = count_wedge_roots(x, d) + (0,)
            for l in range(n + 2):
                assert column[l] == _brute_count(x, l, d)


def test_molien_identity_on_identity_matrix():
    from math import comb

    for n in (1, 2, 3):
        for l in range(n + 1):
            assert molien_rank(IntMatrix.identity(n), 3, l) == comb(n, l)


def test_molien_flagship():
    assert molien_rank(FLAGSHIP_MATRIX, 6, 2) == 2
    assert molien_rank(FLAGSHIP_MATRIX, 6, 5) == 1


def test_molien_rejects_wrong_order():
    # order-2 matrix averaged over a group of order 3: the chain's own
    # phi^m = 1 check refuses it before any average is formed
    with pytest.raises(WrongOrder):
        molien_rank(IntMatrix([[0, 1], [1, 0]]), 3, 1)


def test_molien_rejects_non_integral_average(monkeypatch):
    # one trace off by one: for n = 1 Newton's identities divide by 1 only,
    # so the error surfaces at the average, (1 + 0) / 2
    original = semicoh.cyclotomic.phi_powers.__wrapped__

    def off_by_one(phi, m):
        powers = original(phi, m)
        last = powers[-1]
        return powers[:-1] + (last + IntMatrix.identity(last.rows),)

    # the uncached functions, so that no perturbed entry outlives the test
    uncached = semicoh.cyclotomic._power_charpolys.__wrapped__
    monkeypatch.setattr(semicoh.cyclotomic, "_power_charpolys", uncached)
    monkeypatch.setattr(semicoh.cyclotomic, "phi_powers", off_by_one)
    with pytest.raises(NonIntegralAverage):
        molien_rank(IntMatrix([[-1]]), 2, 1)


def test_molien_equals_wedge_count_on_fixtures():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        column = count_wedge_roots(x, spec.m)
        for l in range(spec.n + 1):
            assert column[l] == molien_rank(spec.phi, spec.m, l)


def test_molien_column_costs_one_chain_and_no_charpoly_or_det(monkeypatch):
    # one power chain phi^0..phi^(m-1) for the whole column, read by
    # Newton's identities: no characteristic polynomial of a power of phi
    # and no determinant
    spec = fixture_by_name("z5_z6").spec
    expected = rank_column(spec, spec.n + 3)
    semicoh.cyclotomic.phi_powers.cache_clear()
    semicoh.cyclotomic._power_charpolys.cache_clear()
    chains = count_calls(monkeypatch, semicoh.cyclotomic, "power_chain")
    charpolys = count_calls(monkeypatch, semicoh.cyclotomic, "charpoly")
    dets = count_calls(monkeypatch, semicoh.intmat, "det")
    assert molien_column(spec, spec.n + 3) == expected
    assert chains == [(spec.phi, spec.m)]
    assert charpolys == []
    assert dets == []


def test_ranks_take_one_census_and_one_wedge_column_per_spec(monkeypatch):
    # rank_column and both formula tables share one power chain of phi, whose
    # j = 1 entry gives phi's census, and one wedge-count column; a conjugate
    # with the same census runs both again, so no cache lets one spec's
    # result serve another
    spec = fixture_by_name("z5_z6").spec
    conj = random_unimodular(random.Random(19), spec.n)
    other = GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose())
    assert other.phi != spec.phi
    assert matrix_census(other.phi, other.m) == matrix_census(spec.phi, spec.m)
    semicoh.engines._wedge_ranks.cache_clear()
    semicoh.torsion._context_and_rblock.cache_clear()
    semicoh.cyclotomic.phi_powers.cache_clear()
    semicoh.cyclotomic._power_charpolys.cache_clear()
    chains = count_calls(monkeypatch, semicoh.cyclotomic, "power_chain")
    charpolys = count_calls(monkeypatch, semicoh.cyclotomic, "charpoly")
    columns = count_calls(monkeypatch, semicoh.engines, "count_wedge_roots")
    for current in (spec, other):
        top = current.n + 3
        ranks = rank_column(current, top)
        for variant in ("published", "corrected"):
            assert formula_table(current, top, variant).rank_column() == ranks
        assert chains == [(current.phi, current.m)]
        assert charpolys == []
        assert columns == [(full_exponents(current), current.m)]
        chains.clear()
        columns.clear()


@pytest.mark.parametrize(
    "n, m, phi",
    [
        (3, 30, scalar_matrix(3, -1)),
        (3, 6, IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        (4, 1, IntMatrix.identity(4)),
    ],
    ids=["minus-one-m30", "three-cycle-m6", "m1"],
)
def test_molien_equals_wedge_count_when_order_divides_m(n, m, phi):
    # phi's order 2, 3 or 1 divides m (properly in the first two), and
    # tr (phi^j)^k = tr phi^(jk mod m) still holds
    spec = GroupSpec(n, m, phi)
    assert molien_column(spec, n + 3) == rank_column(spec, n + 3)


def test_molien_equals_wedge_count_on_wide_conjugates():
    # dense conjugates at n in 12..14
    rng = random.Random(1214)
    checked = 0
    while checked < 8:
        spec = random_companion_spec(rng, n_max=14, orders=(2, 3, 5, 6, 10, 15, 30))
        if spec.n < 12:
            continue
        conj = random_unimodular(rng, spec.n)
        spec = GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose())
        assert rank_column(spec, spec.n + 3) == molien_column(spec, spec.n + 3)
        checked += 1


def test_alternating_sum_identity():
    """sum_l (-1)^l H(l, m) equals the average of det(I - phi^j)."""
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        column = count_wedge_roots(x, spec.m)
        lhs = sum((-1) ** l * column[l] for l in range(spec.n + 1))
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
            column = count_wedge_roots(x, d)
            for l in range(size + 1):
                assert column[l] == _brute_count(x, l, d)
