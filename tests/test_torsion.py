"""Bounded compositions, orbit coefficients, torsion assembly."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd

import pytest

import semicoh.torsion
from semicoh.abelian import AbelianGroup
from semicoh.cyclotomic import companion_of_cyclotomic, count_wedge_roots, exponent_multiset
from semicoh.engines import formula_table, rank_column
from semicoh.errors import NonIntegralOrbitCount
from semicoh.fixtures import fixture_by_name, fixture_suite
from semicoh.groups import GroupSpec, isotropy_data, rst_decompose
from semicoh.intmat import IntMatrix
from semicoh.iojson import canonical_dumps, group_to_json_dict, parse_table, render_table, table_markdown
from semicoh.oracle import e2_table
from semicoh.report import compare_report
from semicoh.torsion import (
    CUTOFFS,
    VARIANTS,
    ThetaContext,
    _coefficient_series,
    _composition_poly,
    assemble_p_torsion,
)


from conftest import (
    CYCLE_PLUS_TRIVIAL,
    block_diagonal,
    count_calls,
    cycle_matrix,
    random_companion_spec,
    random_permutation_spec,
    run_cli,
)


def brute_compositions(k, p, i):
    return sum(1 for tup in iproduct(range(p), repeat=k) if sum(tup) == i)


def compositions(k, p, i):
    """Coefficient of x^i in (1 + ... + x^(p-1))^k; 0 past the top degree."""
    poly = _composition_poly(k, p)
    return poly[i] if i < len(poly) else 0


def test_bounded_compositions_examples():
    assert [compositions(1, 3, i) for i in range(4)] == [1, 1, 1, 0]
    assert compositions(2, 2, 1) == 2
    assert compositions(3, 2, 2) == 3
    assert compositions(0, 5, 0) == 1
    assert compositions(0, 5, 3) == 0


def test_bounded_compositions_bruteforce_and_total():
    for p in (2, 3, 5):
        for k in range(5):
            total = 0
            for i in range(k * (p - 1) + 2):
                value = compositions(k, p, i)
                assert value == brute_compositions(k, p, i)
                total += value
            assert total == p**k


def test_composition_poly_sweeps_once_per_k_and_p(monkeypatch):
    # across formula tables of every valid fixture, each distinct (k, p)
    # costs one truncated product of k factors 1 + x + ... + x^(p-1);
    # the coefficient series' own products have a factor with a zero entry
    requests = count_calls(monkeypatch, semicoh.torsion, "_composition_poly")
    products = count_calls(monkeypatch, semicoh.torsion, "_truncated_product")
    _composition_poly.cache_clear()
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        spec = GroupSpec(spec.n, spec.m, spec.phi, name=f"sweep-{fixture.name}")  # no memo hit
        for variant in VARIANTS:
            try:
                formula_table(spec, spec.n + 6, variant)
            except NonIntegralOrbitCount:
                pass
    sweeps = list(dict.fromkeys(requests))
    assert len(sweeps) >= 3, sweeps
    assert [
        (len(factors), len(factors[0]), top)
        for factors, top in products
        if factors and all(factor == [1] * len(factors[0]) for factor in factors)
    ] == [(k, p, k * (p - 1)) for k, p in sweeps]


def ctx(p, m, s, k_d):
    return ThetaContext(
        p=p,
        m=m,
        s=s,
        divisors=tuple(sorted(k_d)),
        k_d=tuple(sorted(k_d.items())),
    )


def theta(context, variant, a_set, beta, cutoff="half"):
    """T(A, beta) as an exact fraction, read off the series the assembly uses; 0 below 0."""
    series = _coefficient_series(context, variant, a_set, max(beta, 0), cutoff)
    return Fraction(*series[beta]) if beta >= 0 else Fraction(0)


def test_theta_flagship_p2_published_is_zero_on_singleton():
    # k_3 = 1 makes every composition stratum a singleton, so each
    # published factor P - 1 vanishes
    context = ctx(2, 6, 1, {3: 1})
    for beta in range(0, 12, 2):
        assert theta(context, "published", {3}, beta) == 0


def test_theta_empty_set_conventions():
    context = ctx(2, 6, 1, {3: 1})
    # beta = 4: both variants give 1 (the published pin keeps multiples of 4)
    assert theta(context, "published", set(), 4) == 1
    assert theta(context, "corrected", set(), 4) == 1
    # the pinned published convention: nonzero exactly for beta = 0 mod 4
    assert [theta(context, "published", set(), b) for b in (0, 2, 4, 6, 8)] == [1, 0, 1, 0, 1]
    # corrected: the zero class enters in degree 2
    assert [theta(context, "corrected", set(), b) for b in (0, 2, 4, 6)] == [0, 1, 1, 1]
    for variant in VARIANTS:
        assert theta(context, variant, set(), -2) == 0
        assert theta(context, variant, set(), 3) == 0


def test_theta_flagship_p3_corrected():
    context = ctx(3, 6, 0, {2: 1})
    assert theta(context, "corrected", {2}, 2) == 1


def test_unknown_variant_or_cutoff_is_refused():
    # a misspelt variant used to assemble the corrected table under its own
    # label, and an unknown cutoff used to mean beta - 1; degree 0 too
    spec = fixture_by_name("z5_z6").spec
    for top in (0, 4):
        with pytest.raises(ValueError, match="variant 'corected'"):
            assemble_p_torsion(spec, 2, top, "corected")
        with pytest.raises(ValueError, match="cutoff 'halve'"):
            assemble_p_torsion(spec, 2, top, "corrected", corrected_cutoff="halve")
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="negative max degree"):
            assemble_p_torsion(spec, 2, -1, variant)
    # m = 1 has no prime to assemble
    for table_spec in (spec, GroupSpec(1, 1, IntMatrix.identity(1))):
        with pytest.raises(ValueError, match="variant 'corected'"):
            formula_table(table_spec, 8, "corected")


def test_theta_non_integral_is_reported():
    # order-6 action on the plane: strata are not stable under the
    # complementary action and the coefficient fails integrality
    context = ctx(2, 6, 0, {1: 2})
    assert theta(context, "corrected", {1}, 2).denominator != 1
    # ... but the saturated union of strata is a whole orbit set again
    assert theta(context, "corrected", {1}, 4) == 1


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
        context = ctx(p, m, 0, k_d)
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
                value = theta(context, "corrected", a_set, beta)
                total += value * Fraction(m // p, stabilizer)
            budget = beta // 2
            count = 0
            bounds = [k_d[d] * (p - 1) for d in divisors_]
            for tup in iproduct(*(range(b + 1) for b in bounds)):
                if sum(tup) <= budget:
                    prod = 1
                    for d, i in zip(divisors_, tup):
                        prod *= compositions(k_d[d], p, i)
                    count += prod
            assert total == count, (p, m, k_d, beta)


PAIRS = (("published", "half"), ("corrected", "half"), ("corrected", "beta_minus_1"))


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
    for p, m, k_d in cases:
        context = ctx(p, m, 0, k_d)
        divisors_ = context.divisors
        for variant, cutoff in PAIRS:
            for mask in range(1 << len(divisors_)):
                a_set = frozenset(d for i, d in enumerate(divisors_) if mask >> i & 1)
                for beta in range(-2, 13):
                    got = theta(context, variant, a_set, beta, cutoff)
                    want = reference_theta(p, m, k_d, variant, cutoff, a_set, beta)
                    assert got == want, (p, m, k_d, variant, cutoff, sorted(a_set), beta)


def reference_column(spec, p, top, variant, cutoff):
    """theta(0..top) cell by cell, from brute-force coefficients, as the closed form reads.

    l2 ascending, A in subset order, tau ascending; a cell's first
    non-integral coefficient makes it null, recorded by its message text.
    """
    rst = rst_decompose(spec, p)
    iso = isotropy_data(spec, p, rst)
    k_d = dict(iso.k_d)
    x_r = exponent_multiset(rst.r_census)
    subsets = [
        [d for i, d in enumerate(iso.divisors) if mask >> i & 1]
        for mask in range(1 << len(iso.divisors))
    ]
    memo = {}

    def coefficient(a_set, beta):
        key = (tuple(a_set), beta)
        if key not in memo:
            memo[key] = reference_theta(p, spec.m, k_d, variant, cutoff, a_set, beta)
        value = memo[key]
        if value.denominator != 1:
            raise NonIntegralOrbitCount(
                f"coefficient {value} for A={sorted(a_set)}, beta={beta} ({variant}) "
                "is not an integer"
            )
        return value

    column = [0]
    for l in range(1, top + 1):
        theta = 0
        try:
            for l2 in range(l % 2, l + 1, 2):
                if l - l2 > rst.r:
                    continue
                for a_set in subsets:
                    coeff = sum(
                        comb(rst.s, tau) * coefficient(a_set, l2 - p * tau)
                        for tau in range(rst.s + 1)
                    )
                    d = gcd(*a_set) if a_set else spec.m // p
                    theta += coeff * count_wedge_roots(x_r, d)[l - l2]
        except NonIntegralOrbitCount as exc:
            theta = str(exc)
        column.append(theta)
    return column


def test_column_matches_per_cell_reference():
    rng = random.Random(26)
    specs = [fixture.spec for fixture in fixture_suite() if fixture.valid] + [CYCLE_PLUS_TRIVIAL]
    # two regular Z/3 blocks and a trivial line: s = 2 at p = 3
    blocks = [cycle_matrix(3), cycle_matrix(3), IntMatrix.identity(1)]
    specs.append(GroupSpec(7, 3, block_diagonal(blocks)))
    orders = (2, 3, 5, 6, 10, 15, 30)
    specs += [random_companion_spec(rng, n_max=6, orders=orders) for _ in range(30)]
    specs += [random_permutation_spec(rng, n_max=6, orders=orders) for _ in range(30)]
    regular = nulls = 0
    for spec in specs:
        top = spec.n + 6
        for p in spec.primes:
            regular += rst_decompose(spec, p).s > 0
            for variant, cutoff in PAIRS:
                got = [
                    str(theta) if isinstance(theta, NonIntegralOrbitCount) else theta
                    for theta in assemble_p_torsion(spec, p, top, variant, corrected_cutoff=cutoff)
                ]
                assert got == reference_column(spec, p, top, variant, cutoff), (
                    spec.phi, spec.m, p, variant, cutoff
                )
                nulls += sum(isinstance(theta, str) for theta in got)
                for shorter in range(top):  # p * tau can overshoot a short column
                    column = assemble_p_torsion(spec, p, shorter, variant, corrected_cutoff=cutoff)
                    assert list(map(str, column)) == list(map(str, got[: shorter + 1]))
    assert regular >= 15 and nulls >= 50, (regular, nulls)


def test_one_product_per_subset_and_counts_into_the_group(monkeypatch):
    valid = [fixture for fixture in fixture_suite() if fixture.valid]
    # a cold _composition_poly entry costs a product of its own: warm them all first
    for spec in (fixture.spec for fixture in valid):
        for p in spec.primes:
            for variant in VARIANTS:
                assemble_p_torsion(spec, p, spec.n + 6, variant)
    products = count_calls(monkeypatch, semicoh.torsion, "_truncated_product")
    per_prime = count_calls(monkeypatch, AbelianGroup, "from_counts")
    tables = 0
    for fixture in valid:
        spec = fixture.spec
        subsets = sum(
            2 ** len(isotropy_data(spec, p, rst_decompose(spec, p)).divisors)
            for p in spec.primes
        )
        for variant in VARIANTS:
            products.clear()
            try:
                formula_table(spec, spec.n + 6, variant)
            except NonIntegralOrbitCount:
                # raised at the first prime with a null cell: later primes are skipped
                assert 0 < len(products) <= subsets, (fixture.name, variant)
            else:
                assert len(products) == subsets, (fixture.name, variant)
                tables += 1
        products.clear()
        compare_report(spec, spec.n + 3)
        assert len(products) == 3 * subsets, fixture.name
        # every engine builds a group from one count per prime of m
        assert all(set(counts) <= set(spec.primes) for _, counts in per_prime), fixture.name
        per_prime.clear()
    assert tables >= 8, tables


@pytest.mark.parametrize("k", [4, 12])
def test_the_closed_forms_answer_past_the_chain_wall(k, tmp_path):
    # m = 6, phi = (Phi_2 + Phi_2 + Phi_3 + Phi_3)^k.  At n = 24 the longest
    # invariant-factor chain has 3,354,763 factors; at n = 72 theta reaches
    # 7.9e20.  A group stores and prints one count per prime of m, so both
    # tables and their renderings stay small.
    blocks = [companion_of_cyclotomic(e) for e in (2, 2, 3, 3)] * k
    spec = GroupSpec(n=6 * k, m=6, phi=block_diagonal(blocks))
    top = spec.n + 3
    ranks, largest = rank_column(spec, top), 0
    for variant in VARIANTS:
        table = formula_table(spec, top, variant)
        assert table.rank_column() == ranks, variant
        for p in spec.primes:
            column = assemble_p_torsion(spec, p, top, variant)
            assert [g.p_multiplicity(p) for g in table.groups] == list(column), (variant, p)
            largest = max(largest, *column)
        # distinct p, each a prime of m: at most one entry per prime
        assert all({q for q, _ in g.primary} <= set(spec.primes) for g in table.groups)
        text = render_table(table)
        assert len(text) < 10_000 and len(table_markdown(table)) < 10_000, variant
        assert parse_table(text) == table, variant
    assert largest == (3_354_763 if k == 4 else 788_639_418_567_827_072_233)
    if k == 4:
        path = tmp_path / "n24.json"
        path.write_text(canonical_dumps(group_to_json_dict(spec)), encoding="utf-8")
        result = run_cli("analyze", "--engine", "formula", "--format", "csv", "--no-cache", str(path))
        assert result.returncode == 0, result.stderr
        assert len(result.stdout) < 10_000 and result.stdout.count("\n") == top + 2


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
        assert assemble_p_torsion(spec, p, 12, "published") == FLAGSHIP_PUBLISHED[p]


def test_assemble_flagship_corrected():
    spec = fixture_by_name("z5_z6").spec
    for p in (2, 3):
        assert assemble_p_torsion(spec, p, 12, "corrected") == FLAGSHIP_CORRECTED[p]


def test_assemble_degree_zero_is_torsion_free(rng):
    for name in ("z5_z6", "dinfty", "p3", "id_n2_m3", "phi5"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            for variant in ("published", "corrected"):
                assert assemble_p_torsion(spec, p, 0, variant) == [0]
                assert assemble_p_torsion(spec, p, 6, variant)[0] == 0


def test_identity_action_corrected_matches_product_group():
    # Z^2 x Z/3: torsion rank at degree l is sum over even l2 >= 2 of C(2, l - l2)
    spec = GroupSpec(2, 3, IntMatrix.identity(2))
    expected = []
    for l in range(8):
        expected.append(
            sum(comb(2, l - l2) for l2 in range(2, l + 1, 2) if l2 % 2 == 0 and (l - l2) % 2 == 0)
        )
    assert assemble_p_torsion(spec, 3, 7, "corrected") == expected


def test_one_prime_dihedral_oracle_value():
    # The infinite dihedral group has H^2 = (Z/2)^2.  The rank-mod-p oracle
    # reads it, the corrected engine reproduces it, and the published engine
    # is recorded as printed.
    spec = fixture_by_name("dinfty").spec
    assert e2_table(spec, 2).groups[2].p_multiplicity(2) == 2
    assert assemble_p_torsion(spec, 2, 2, "corrected")[2] == 2
    assert assemble_p_torsion(spec, 2, 2, "published")[2] == 0


def test_formula_theta_eventually_periodic_corrected():
    # Every coefficient saturates once floor(beta/2) clears the total class
    # weight, so the corrected column is 2-periodic from
    # max(n, 2 * total_weight + p*s) + 1 on.
    for name in ("dinfty", "p3", "z5_z6", "phi5", "id_n2_m3"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            iso = isotropy_data(spec, p, rst)
            weight = sum(k * (p - 1) for _, k in iso.k_d)
            start = max(spec.n, 2 * weight + p * rst.s) + 1
            top = start + 5
            col = assemble_p_torsion(spec, p, top, "corrected")
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
            column = assemble_p_torsion(spec, p, top, "corrected", corrected_cutoff="beta_minus_1")
            column = column[::2]
            if any(isinstance(theta, NonIntegralOrbitCount) for theta in column):
                continue
            expected = [g.p_multiplicity(p) for g in oracle.groups[::2]]
            assert column == expected, (spec.phi, spec.m, p)
            checked += 1
    assert checked >= 60


def test_complete_prime_order_census_against_the_oracle():
    # for p <= 19 the class number of Q(zeta_p) is 1, so by Diederichsen-Reiner
    # every Z[C_p]-lattice is r*Z + s*Z[C_p] + t*Z[zeta_p] and (r, s, t) fixes
    # it: these 181 block sums are every group Z^n x| Z/p with p <= 13 and
    # n <= 8, so the counts below are complete, not sampled
    columns = (("published", "half"), ("corrected", "half"), ("corrected", "beta_minus_1"))
    classes, matches = Counter(), Counter()
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 9):
            for s in range(n // p + 1):
                for t in range((n - p * s) // (p - 1) + 1):
                    r = n - p * s - (p - 1) * t
                    blocks = [IntMatrix.identity(r)] * (r > 0)
                    blocks += [cycle_matrix(p)] * s + [companion_of_cyclotomic(p)] * t
                    spec = GroupSpec(n, p, block_diagonal(blocks))
                    rst = rst_decompose(spec, p)
                    assert (rst.r, rst.s, rst.t) == (r, s, t)
                    top = n + 3
                    oracle = [g.p_multiplicity(p) for g in e2_table(spec, top).groups[::2]]
                    classes[s > 0] += 1
                    for variant, cutoff in columns:
                        column = assemble_p_torsion(spec, p, top, variant, corrected_cutoff=cutoff)
                        assert not any(isinstance(c, NonIntegralOrbitCount) for c in column)
                        matches[s > 0, variant, cutoff] += column[::2] == oracle
    assert classes == {False: 109, True: 72}
    # s = 0: beta - 1 matches everywhere, the default floor(beta/2) misses
    # some even degree when t > 0, and the published pin never matches
    assert matches[False, "corrected", "beta_minus_1"] == 109
    assert matches[False, "corrected", "half"] == 70
    assert matches[False, "published", "half"] == 0
    # s > 0: the known limit (README "Known limits"), pinned so a change shows
    assert matches[True, "corrected", "beta_minus_1"] == 13
    assert matches[True, "corrected", "half"] == 12
    assert matches[True, "published", "half"] == 1


@pytest.mark.xfail(
    strict=True,
    reason="known limit: with s > 0 the corrected engine misses the trivial x regular "
    "cross terms, also at odd p (1 instead of 2 at l = 5 and l = 6 here)",
)
def test_corrected_theta_matches_oracle_with_trivial_and_regular_blocks():
    spec = CYCLE_PLUS_TRIVIAL
    oracle = [g.p_multiplicity(3) for g in e2_table(spec, 8).groups]
    for cutoff in CUTOFFS:
        column = assemble_p_torsion(spec, 3, 8, "corrected", corrected_cutoff=cutoff)
        assert column == oracle, cutoff
