"""Bounded compositions, orbit coefficients, torsion assembly."""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd

import pytest

from semicoh.engines import formula_table
from semicoh.errors import NonIntegral, NonIntegralOrbitCount, NotPrimeOrder
from semicoh.fixtures import companion_of_cyclotomic, fixture_by_name
from semicoh.groups import GroupSpec, rst_decompose
from semicoh.intmat import IntMatrix
from semicoh.oracle import e2_table
from semicoh.tables import p_part
from semicoh.torsion import (
    CUTOFFS,
    ThetaContext,
    assemble_p_torsion,
    bounded_composition_count,
    one_prime_theta,
    s_delta,
    theta_coefficient,
    theta_coefficient_exact,
)


from conftest import CYCLE_PLUS_TRIVIAL, random_companion_spec


def brute_compositions(k, p, i):
    return sum(1 for tup in iproduct(range(p), repeat=k) if sum(tup) == i)


def test_bounded_compositions_examples():
    assert [bounded_composition_count(1, 3, i) for i in range(4)] == [1, 1, 1, 0]
    assert bounded_composition_count(2, 2, 1) == 2
    assert bounded_composition_count(3, 2, 2) == 3
    assert bounded_composition_count(0, 5, 0) == 1
    assert bounded_composition_count(0, 5, 3) == 0


def test_bounded_compositions_bruteforce_and_total():
    for p in (2, 3, 5):
        for k in range(5):
            total = 0
            for i in range(k * (p - 1) + 2):
                value = bounded_composition_count(k, p, i)
                assert value == brute_compositions(k, p, i)
                total += value
            assert total == p**k


def ctx(p, m, s, k_d, variant):
    return ThetaContext(
        p=p,
        m=m,
        s=s,
        divisors=tuple(sorted(k_d)),
        k_d=tuple(sorted(k_d.items())),
        variant=variant,
    )


def test_theta_flagship_p2_published_is_zero_on_singleton():
    # k_3 = 1 makes every composition stratum a singleton, so each
    # published factor P - 1 vanishes
    context = ctx(2, 6, 1, {3: 1}, "published")
    for beta in range(0, 12, 2):
        assert theta_coefficient(context, {3}, beta) == 0


def test_theta_empty_set_conventions():
    pub = ctx(2, 6, 1, {3: 1}, "published")
    cor = ctx(2, 6, 1, {3: 1}, "corrected")
    # beta = 4: both variants give 1 (the published pin keeps multiples of 4)
    assert theta_coefficient(pub, set(), 4) == 1
    assert theta_coefficient(cor, set(), 4) == 1
    # the pinned published convention: nonzero exactly for beta = 0 mod 4
    assert [theta_coefficient(pub, set(), b) for b in (0, 2, 4, 6, 8)] == [1, 0, 1, 0, 1]
    # corrected: the zero class enters in degree 2
    assert [theta_coefficient(cor, set(), b) for b in (0, 2, 4, 6)] == [0, 1, 1, 1]
    for context in (pub, cor):
        assert theta_coefficient(context, set(), -2) == 0
        assert theta_coefficient(context, set(), 3) == 0


def test_theta_flagship_p3_corrected():
    context = ctx(3, 6, 0, {2: 1}, "corrected")
    assert theta_coefficient(context, {2}, 2) == 1


def test_unknown_variant_or_cutoff_is_refused():
    # a misspelt variant used to assemble the corrected table under its own
    # label, and an unknown cutoff used to mean beta - 1; degree 0 too
    spec = fixture_by_name("z5_z6").spec
    for l in (0, 4):
        with pytest.raises(ValueError, match="variant 'corected'"):
            assemble_p_torsion(spec, 2, l, "corected")
        with pytest.raises(ValueError, match="cutoff 'halve'"):
            assemble_p_torsion(spec, 2, l, "corrected", corrected_cutoff="halve")
    # m = 1 has no prime to assemble, and p3 is prime for one_prime_theta
    for table_spec in (spec, GroupSpec(1, 1, IntMatrix.identity(1))):
        with pytest.raises(ValueError, match="variant 'corected'"):
            formula_table(table_spec, 8, "corected")
    with pytest.raises(ValueError, match="variant 'corected'"):
        one_prime_theta(fixture_by_name("p3").spec, 0, "corected")
    for coefficient in (theta_coefficient, theta_coefficient_exact):
        with pytest.raises(ValueError, match="variant 'corected'"):
            coefficient(ctx(3, 6, 0, {2: 1}, "corected"), {2}, 2)
        with pytest.raises(ValueError, match="cutoff 'halve'"):
            coefficient(ctx(3, 6, 0, {2: 1}, "corrected"), {2}, 2, corrected_cutoff="halve")


def test_theta_non_integral_is_reported():
    # order-6 action on the plane: strata are not stable under the
    # complementary action and the coefficient fails integrality
    context = ctx(2, 6, 0, {1: 2}, "corrected")
    with pytest.raises(NonIntegralOrbitCount):
        theta_coefficient(context, {1}, 2)
    # ... but the saturated union of strata is a whole orbit set again
    assert theta_coefficient(context, {1}, 4) == 1


def test_corrected_orbit_accounting_matches_enumeration(rng):
    """sum_A T(A, beta) * |G_p| / |cap A| counts classes of weight <= beta/2."""
    cases = [
        (2, 6, {3: 1}),
        (3, 6, {2: 1}),
        (2, 30, {3: 2, 15: 1}),
        (3, 15, {5: 3}),
        (2, 10, {5: 2, 1: 1}),
    ]
    for p, m, k_d in cases:
        context = ctx(p, m, 0, k_d, "corrected")
        divisors_ = context.divisors
        for beta in range(2, 10, 2):
            total = Fraction(0)
            for mask in range(1 << len(divisors_)):
                a_set = frozenset(
                    d for i, d in enumerate(divisors_) if mask >> i & 1
                )
                g = 0
                for d in a_set:
                    g = gcd(g, d)
                stabilizer = g if a_set else m // p
                value = theta_coefficient_exact(context, a_set, beta)
                total += value * Fraction(m // p, stabilizer)
            budget = beta // 2
            count = 0
            bounds = [k_d[d] * (p - 1) for d in divisors_]
            for tup in iproduct(*(range(b + 1) for b in bounds)):
                if sum(tup) <= budget:
                    prod = 1
                    for d, i in zip(divisors_, tup):
                        prod *= bounded_composition_count(k_d[d], p, i)
                    count += prod
            assert total == count, (p, m, k_d, beta)


def reference_theta(p, m, k_d, variant, cutoff, a_set, beta):
    """The orbit coefficient summed tuple by tuple, straight from its statement."""
    if beta < 0 or beta % 2 or (variant == "corrected" and beta == 0):
        return Fraction(0)
    if not a_set:
        return Fraction(1 if variant == "corrected" or beta % 4 == 0 else 0)
    ratio = Fraction(p * gcd(*a_set), m)
    if variant == "published":
        # tuples over all of D, entries from 0; only A's strata are weighted
        members = sorted(k_d)
        budget, low = beta, 0
        factor = ratio ** len(a_set)
    else:
        # tuples over A only, strictly positive entries
        members = sorted(a_set)
        budget, low = (beta // 2 if cutoff == "half" else beta - 1), 1
        factor = ratio
    total = 0
    ranges = [range(low, k_d[d] * (p - 1) + 1) for d in members]
    for tup in iproduct(*ranges):
        if sum(tup) > budget:
            continue
        prod = 1
        for d, i in zip(members, tup):
            if d in a_set:
                count = brute_compositions(k_d[d], p, i)
                prod *= count - 1 if variant == "published" else count
        total += prod
    return factor * total


def test_theta_matches_tuple_enumeration():
    cases = [
        (2, 6, {3: 1}),
        (3, 6, {2: 1}),
        (2, 30, {3: 2, 15: 1}),
        (3, 15, {5: 3}),
        (2, 10, {5: 2, 1: 1}),
        (2, 6, {1: 2}),
    ]
    pairs = (("published", "half"), ("corrected", "half"), ("corrected", "beta_minus_1"))
    for p, m, k_d in cases:
        for variant, cutoff in pairs:
            context = ctx(p, m, 0, k_d, variant)
            divisors_ = context.divisors
            for mask in range(1 << len(divisors_)):
                a_set = frozenset(d for i, d in enumerate(divisors_) if mask >> i & 1)
                for beta in range(-2, 13):
                    got = theta_coefficient_exact(
                        context, a_set, beta, corrected_cutoff=cutoff
                    )
                    want = reference_theta(p, m, k_d, variant, cutoff, a_set, beta)
                    assert got == want, (p, m, k_d, variant, cutoff, sorted(a_set), beta)


FLAGSHIP_PUBLISHED = {
    2: [0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2],
    3: [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
}
# Frozen from the independent derivation that was cross-checked against the
# Smith-form oracle before this module was written.
FLAGSHIP_CORRECTED = {
    2: [0, 0, 2, 0, 6, 0, 8, 0, 8, 0, 8, 0, 8],
    3: [0, 0, 2, 0, 5, 0, 6, 0, 6, 0, 6, 0, 6],
}


def test_assemble_flagship_published_reproduces_reference_table():
    spec = fixture_by_name("z5_z6").spec
    for p in (2, 3):
        got = [assemble_p_torsion(spec, p, l, "published") for l in range(13)]
        assert got == FLAGSHIP_PUBLISHED[p]


def test_assemble_flagship_corrected():
    spec = fixture_by_name("z5_z6").spec
    for p in (2, 3):
        got = [assemble_p_torsion(spec, p, l, "corrected") for l in range(13)]
        assert got == FLAGSHIP_CORRECTED[p]


def test_assemble_degree_zero_is_torsion_free(rng):
    for name in ("z5_z6", "dinfty", "p3", "id_n2_m3", "phi5"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            for variant in ("published", "corrected"):
                assert assemble_p_torsion(spec, p, 0, variant) == 0


def test_identity_action_corrected_matches_product_group():
    # Z^2 x Z/3: torsion rank at degree l is sum over even l2 >= 2 of C(2, l - l2)
    spec = GroupSpec(2, 3, IntMatrix.identity(2))
    expected = []
    for l in range(8):
        expected.append(
            sum(comb(2, l - l2) for l2 in range(2, l + 1, 2) if l2 % 2 == 0 and (l - l2) % 2 == 0)
        )
    got = [assemble_p_torsion(spec, 3, l, "corrected") for l in range(8)]
    assert got == expected


def test_one_prime_consistency():
    for name in ("dinfty", "p3", "phi5", "id_n2_m3", "id_n1_m2"):
        spec = fixture_by_name(name).spec
        if len(spec.primes) != 1:
            continue
        for variant in ("published", "corrected"):
            for l in range(spec.n + 5):
                assert one_prime_theta(spec, l, variant) == assemble_p_torsion(
                    spec, spec.m, l, variant
                ), (name, variant, l)


def test_one_prime_rejects_composite():
    with pytest.raises(NotPrimeOrder):
        one_prime_theta(fixture_by_name("z5_z6").spec, 2, "corrected")


def test_one_prime_dihedral_oracle_value():
    # Smith-form oracle gives (Z/2)^2 in degree 2 for the infinite dihedral
    # group; the corrected engine reproduces it, the published engine is
    # recorded as printed.
    spec = fixture_by_name("dinfty").spec
    assert one_prime_theta(spec, 2, "corrected") == 2
    assert one_prime_theta(spec, 2, "published") == 0


def test_s_delta_examples():
    assert s_delta(1, 2, 1) == 1
    assert s_delta(1, 2, 2) == 0
    assert s_delta(2, 3, 3) == 6


def test_s_delta_rank_identity():
    for p in (2, 3, 5):
        for s in range(4):
            for delta in range(p * s + 1):
                lhs = comb(p * s, delta)
                fixed = comb(s, delta // p) if delta % p == 0 else 0
                assert lhs == fixed + p * s_delta(s, p, delta)


def test_s_delta_range_check():
    with pytest.raises(ValueError):
        s_delta(1, 2, 3)


def test_formula_theta_eventually_periodic_corrected():
    # Every coefficient saturates once floor(beta/2) clears the total class
    # weight, so the corrected column is 2-periodic from
    # max(n, 2 * total_weight + p*s) + 1 on.
    from semicoh.groups import isotropy_data, rst_decompose

    for name in ("dinfty", "p3", "z5_z6", "phi5", "id_n2_m3"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            iso = isotropy_data(spec, p, rst)
            weight = sum(k * (p - 1) for _, k in iso.k_d)
            start = max(spec.n, 2 * weight + p * rst.s) + 1
            top = start + 5
            col = [assemble_p_torsion(spec, p, l, "corrected") for l in range(top + 1)]
            for l in range(start, top - 1):
                assert col[l] == col[l + 2], (name, p, l)


def test_beta_minus_1_cutoff_matches_oracle_when_s_is_zero():
    # the s = 0 observation: wherever the corrected engine with the beta - 1
    # cutoff has integral coefficients, it equals the oracle in every even
    # degree (companion sums always have s = 0)
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        spec = random_companion_spec(rng, n_max=6, orders=(2, 3, 5, 6, 10, 15, 30))
        top = spec.n + 3
        oracle = e2_table(spec, top)
        for p in spec.primes:
            assert rst_decompose(spec, p).s == 0
            try:
                column = [
                    assemble_p_torsion(spec, p, l, "corrected", corrected_cutoff="beta_minus_1")
                    for l in range(0, top + 1, 2)
                ]
            except NonIntegralOrbitCount:
                continue
            assert column == list(p_part(oracle, p)[::2]), (spec.phi, spec.m, p)
            checked += 1
    assert checked >= 60


@pytest.mark.xfail(
    strict=True,
    reason="known limit: with s > 0 the corrected engine misses the trivial x regular "
    "cross terms, also at odd p (1 instead of 2 at l = 5 and l = 6 here)",
)
def test_corrected_theta_matches_oracle_with_trivial_and_regular_blocks():
    spec = CYCLE_PLUS_TRIVIAL
    oracle = list(p_part(e2_table(spec, 8), 3))
    for cutoff in CUTOFFS:
        column = [
            assemble_p_torsion(spec, 3, l, "corrected", corrected_cutoff=cutoff)
            for l in range(9)
        ]
        assert column == oracle, cutoff
