"""Acceptance suite: one test per criterion, one PASS line each.

Criterion 8 (one-prime consistency) has no test of its own: for prime m the
assembly's H(l1, 1) is C(r, l1), which test_count_wedge_roots_matches_bruteforce
checks at d = 1.

All checks are exact integer comparisons; the only tolerances anywhere are
the two wall-clock budgets in criteria 1 and 10.
"""

import time
from itertools import product as iproduct
from pathlib import Path

from semicoh.abelian import AbelianGroup
from semicoh.cyclotomic import (
    ExponentMultiset,
    count_wedge_roots,
    exponent_multiset,
    matrix_census,
    molien_rank,
)
from semicoh.engines import build_table, formula_table, rank_column
from semicoh.fixtures import companion_of_cyclotomic, fixture_by_name, fixture_suite
from semicoh.groups import (
    GroupSpec,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
)
from semicoh.intmat import contragredient
from semicoh.oracle import e2_table
from semicoh.report import compare_report, render_report_json
from semicoh.torsion import _composition_poly, assemble_p_torsion

from conftest import block_diagonal, cyclic_sum, random_companion_spec, random_unimodular

GOLDEN = Path(__file__).resolve().parent / "golden" / "z5_z6_compare.json"

# Reference values for the fixture corpus, each marked with its provenance:
# published-table (stated in the paper's reference computation of Z^5 x| Z/6)
# or hand-checked (an independent hand computation).  Keys: "rst" p -> (r, s, t),
# "k_d" p -> {d: k_d}, "ranks" the prefix H^0.. of the rank column, "groups"
# degree -> (rank, torsion factors) against the oracle, "published" the same
# against the published formula table.
FIXTURE_EXPECTATIONS = {
    "dinfty": {
        "rst": {2: (0, 0, 1)},  # hand-checked
        "k_d": {2: {1: 1}},  # hand-checked
        "ranks": (1, 0, 0, 0),  # hand-checked
        # hand-checked: free product of two order-2 groups
        "groups": {0: (1, ()), 1: (0, ()), 2: (0, (2, 2)), 3: (0, ()), 4: (0, (2, 2))},
    },
    "p3": {
        "rst": {3: (0, 0, 1)},  # hand-checked
        "k_d": {3: {1: 1}},  # hand-checked
        "ranks": (1, 0, 1, 0, 0),  # hand-checked
        "groups": {1: (0, ()), 2: (1, (3, 3))},  # hand-checked: kernel/image quotients
    },
    "z5_z6": {
        "rst": {2: (2, 1, 1), 3: (3, 0, 1)},  # published-table
        "k_d": {2: {3: 1}, 3: {2: 1}},  # published-table
        "ranks": (1, 1, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0),  # published-table
        # published-table; an erratum, the oracle gives Z^2 + (Z/6)^2 here
        "published": {2: (2, (2, 2, 3))},
    },
    "id_n1_m2": {
        "rst": {2: (1, 0, 0)},  # hand-checked: trivial action
        "k_d": {2: {}},  # hand-checked
    },
    "id_n2_m3": {
        "rst": {3: (2, 0, 0)},  # hand-checked
        "k_d": {3: {}},  # hand-checked
        "groups": {2: (1, (3,))},  # hand-checked: direct product with a cyclic factor
    },
    "id_n3_m6": {
        "rst": {2: (3, 0, 0), 3: (3, 0, 0)},  # hand-checked: trivial action
        "k_d": {2: {}, 3: {}},  # hand-checked
    },
    "phi5": {
        "rst": {5: (0, 0, 1)},  # hand-checked: free outside the origin
        "k_d": {5: {1: 1}},  # hand-checked
    },
    "p6": {
        "rst": {2: (0, 0, 2), 3: (0, 0, 1)},  # hand-checked: free outside the origin
        "k_d": {2: {1: 2}, 3: {1: 1}},  # hand-checked
    },
}


def _ok(label):
    print(f"PASS {label}")


def test_criterion_1_rank_reproduction():
    """Ranks 1,1,2,2,1,1 then 0, three independent engines, under 1 s."""
    spec = fixture_by_name("z5_z6").spec
    expected = (1, 1, 2, 2, 1, 1) + (0,) * 7
    start = time.perf_counter()
    x = exponent_multiset(matrix_census(spec.phi, spec.m))
    column = count_wedge_roots(x, spec.m)
    wedge = column + (0,) * (13 - len(column))
    molien = tuple(molien_rank(spec.phi, spec.m, l) for l in range(13))
    oracle = e2_table(spec, 12).rank_column()
    elapsed = time.perf_counter() - start
    assert wedge == molien == oracle == expected
    assert elapsed < 1.0, f"rank engines took {elapsed:.2f}s"
    _ok(f"criterion 1: rank column {expected[:6]}... three ways in {elapsed:.3f}s")


def test_criterion_2_decomposition_reproduction():
    spec = fixture_by_name("z5_z6").spec
    rst2 = rst_decompose(spec, 2)
    rst3 = rst_decompose(spec, 3)
    assert (rst2.r, rst2.s, rst2.t) == (2, 1, 1)
    assert (rst3.r, rst3.s, rst3.t) == (3, 0, 1)
    iso2 = isotropy_data(spec, 2, rst2)
    iso3 = isotropy_data(spec, 3, rst3)
    assert iso2.divisors == (3,) and dict(iso2.k_d) == {3: 1}
    assert iso3.divisors == (2,) and dict(iso3.k_d) == {2: 1}
    _ok("criterion 2: (r,s,t) = (2,1,1)/(3,0,1), D = {3}/{2}, k = 1/1")


def test_criterion_3_published_formula_reproduction():
    spec = fixture_by_name("z5_z6").spec
    theta2 = assemble_p_torsion(spec, 2, 12, "published")
    theta3 = assemble_p_torsion(spec, 3, 12, "published")
    for l in range(13):
        expected2 = 2 if (l % 2 == 0 and l >= 2) else 0
        expected3 = 1 if (l % 2 == 0 and l >= 2) else 0
        assert theta2[l] == expected2, l
        assert theta3[l] == expected3, l
    _ok("criterion 3: published engine reproduces theta(2)=2, theta(3)=1 on even 2..12")


def test_criterion_4_oracle_fixed_points():
    dinfty = e2_table(fixture_by_name("dinfty").spec, 9)
    assert str(dinfty.groups[0]) == "Z"
    assert dinfty.groups[1] == AbelianGroup(0)
    for l in range(2, 10):
        if l % 2 == 0:
            assert dinfty.groups[l].rank == 0
            assert dinfty.groups[l].primary == ((2, 2),)
        else:
            assert dinfty.groups[l] == AbelianGroup(0)
    p3 = e2_table(fixture_by_name("p3").spec, 3)
    assert p3.groups[1] == AbelianGroup(0)
    assert p3.groups[2].rank == 1 and p3.groups[2].primary == ((3, 2),)
    ident = e2_table(fixture_by_name("id_n2_m3").spec, 2)
    assert ident.groups[2].rank == 1 and ident.groups[2].primary == ((3, 1),)
    _ok("criterion 4: oracle fixed points (dinfty, p3, identity n=2 m=3)")


def test_fixture_expectations_hold():
    checked = 0
    for name, expected in FIXTURE_EXPECTATIONS.items():
        spec = fixture_by_name(name).spec
        assert expected["k_d"].keys() == expected["rst"].keys() == set(spec.primes), name
        for p, rst_expected in expected["rst"].items():
            rst = rst_decompose(spec, p)
            assert (rst.r, rst.s, rst.t) == rst_expected, (name, p)
            assert dict(isotropy_data(spec, p, rst).k_d) == expected["k_d"][p], (name, p)
            checked += 2
        if "ranks" in expected:
            ranks = expected["ranks"]
            assert rank_column(spec, len(ranks) - 1) == ranks, name
            checked += 1
        for engine, key in (("oracle", "groups"), ("formula-published", "published")):
            for degree, (rank, torsion) in expected.get(key, {}).items():
                group = build_table(spec, degree, engine).groups[degree]
                assert group == cyclic_sum(rank, torsion), (name, engine, degree)
                checked += 1
    # the published table's z5_z6 H^2 = Z^2 + (Z/2)^2 + Z/3 is a documented
    # erratum: the oracle gives Z^2 + (Z/6)^2, and the golden report itemizes
    # the 3-part (published 1, oracle and corrected 2)
    assert e2_table(fixture_by_name("z5_z6").spec, 2).groups[2] == cyclic_sum(2, (6, 6))
    assert checked == 34
    _ok(f"fixture expectations: {checked} published-table and hand-checked values hold")


def test_criterion_5_reconciliation_report_and_golden():
    mismatch_total = 0
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        report = compare_report(spec, spec.n + 3)
        assert report["ranks"]["all_agree"], fixture.name
        for row in report["torsion"]:
            assert {"degree", "prime", "published", "corrected", "oracle"} <= set(row)
        mismatch_total += report["summary"]["torsion_mismatch_cells"]
    spec = fixture_by_name("z5_z6").spec
    text = render_report_json(compare_report(spec, 12))
    assert text == GOLDEN.read_text(encoding="utf-8"), "golden report drifted"
    _ok(
        "criterion 5: suite reconciliation complete, ranks 100% agree, "
        f"{mismatch_total} torsion disagreements itemized, golden report stable"
    )


def test_criterion_6_combinatorial_oracle_equivalence():
    # the stated domain (i <= k(p-1)) is covered, plus out-of-support
    # values per (p, k) where both sides must vanish
    cases = 0
    for p in (2, 3, 5):
        for k in range(5):
            total = 0
            for i in range(k * (p - 1) + 8):
                brute = sum(
                    1 for tup in iproduct(range(p), repeat=k) if sum(tup) == i
                )
                poly = _composition_poly(k, p)
                assert (poly[i] if i < len(poly) else 0) == brute
                if i <= k * (p - 1):
                    total += brute
                cases += 1
            assert total == p**k
    assert cases >= 180
    _ok(f"criterion 6: bounded compositions match enumeration ({cases} cases)")


def test_criterion_7_invariant_suite(rng):
    checked = 0
    while checked < 200:
        spec = random_companion_spec(rng, n_max=6, orders=(2, 3, 5, 6, 10, 15))
        conj = random_unimodular(rng, spec.n)
        conj_inv = contragredient(conj).transpose()
        twisted = GroupSpec(spec.n, spec.m, conj @ spec.phi @ conj_inv)
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            assert rst.r + p * rst.s + (p - 1) * rst.t == spec.n
            iso = isotropy_data(spec, p, rst)
            for d, count in iso.m_d:
                assert count % (p - 1) == 0
            twisted_rst = rst_decompose(twisted, p)
            assert (rst.r, rst.s, rst.t) == (
                twisted_rst.r,
                twisted_rst.s,
                twisted_rst.t,
            )
        table = e2_table(spec, spec.n + 4)
        for g in table.groups:
            for q, _ in g.primary:
                assert spec.m % q == 0
        for l in range(spec.n + 1, spec.n + 3):
            assert table.groups[l] == table.groups[l + 2]
        checked += 1
    _ok("criterion 7: 200 random specs pass all structural invariants")


def test_criterion_9_free_action_census():
    for name in ("dinfty", "p3", "phi5", "p6"):
        spec = fixture_by_name(name).spec
        assert free_outside_origin(spec).overall
        census = max_finite_subgroup_census(spec)
        for p in spec.primes:
            k = spec.n // (p - 1)
            assert census.count(p) == p**k
            sub = e2_table(GroupSpec(spec.n, p, spec.phi ** (spec.m // p)), spec.n + 4)
            for l in range(spec.n + 1, spec.n + 5):
                if l % 2 == 0:
                    assert sub.groups[l].p_multiplicity(p) == p**k
    _ok("criterion 9: free-action class counts = p^(n/(p-1)) = stable theta")


def test_criterion_10_performance():
    blocks = (
        [companion_of_cyclotomic(3)] * 3
        + [companion_of_cyclotomic(2)] * 2
        + [companion_of_cyclotomic(1)] * 2
    )
    spec = GroupSpec(10, 6, block_diagonal(blocks), name="perf_n10_m6")
    start = time.perf_counter()
    published = formula_table(spec, 12, "published")
    corrected = formula_table(spec, 12, "corrected")
    oracle = e2_table(spec, 12)
    elapsed = time.perf_counter() - start
    assert published.rank_column() == corrected.rank_column() == oracle.rank_column()
    assert elapsed < 10.0, f"n=10 analyze took {elapsed:.2f}s"

    counts = {a: 1 for a in range(24)}
    x = ExponentMultiset.of(24, counts)
    start_dp = time.perf_counter()
    value = count_wedge_roots(x, 24)[12]
    dp_elapsed = time.perf_counter() - start_dp
    assert value > 0
    assert dp_elapsed < 1.0, f"rank-24 DP took {dp_elapsed:.3f}s"
    _ok(
        f"criterion 10: n=10 analyze in {elapsed:.2f}s (< 10s), "
        f"rank-24 DP column l=0..24 in {dp_elapsed * 1000:.1f}ms (< 1s)"
    )
