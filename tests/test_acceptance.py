"""Acceptance suite: one test per criterion, one PASS line each.

All checks are exact integer comparisons; the only tolerances anywhere are
the two wall-clock budgets in criteria 1 and 10.
"""

import json
import time
from itertools import product as iproduct
from pathlib import Path

from semicoh.cyclotomic import (
    ExponentMultiset,
    count_wedge_roots,
    exponent_multiset,
    matrix_census,
    molien_rank,
)
from semicoh.engines import formula_table
from semicoh.fixtures import companion_of_cyclotomic, fixture_by_name, fixture_suite
from semicoh.groups import (
    GroupSpec,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
)
from semicoh.intmat import IntMatrix, block_diagonal, contragredient
from semicoh.oracle import e2_table, subgroup_oracle
from semicoh.report import compare_report, render_report_json
from semicoh.tables import p_part
from semicoh.torsion import assemble_p_torsion, bounded_composition_count, one_prime_theta

from conftest import random_companion_spec, random_unimodular

GOLDEN = Path(__file__).resolve().parent / "golden" / "z5_z6_compare.json"


def _ok(label):
    print(f"PASS {label}")


def test_criterion_1_rank_reproduction():
    """Ranks 1,1,2,2,1,1 then 0, three independent engines, under 1 s."""
    spec = fixture_by_name("z5_z6").spec
    expected = (1, 1, 2, 2, 1, 1) + (0,) * 7
    start = time.perf_counter()
    x = exponent_multiset(matrix_census(spec.phi, spec.m))
    wedge = tuple(count_wedge_roots(x, l, spec.m) for l in range(13))
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
    assert iso2.divisors == (3,) and iso2.k(3) == 1
    assert iso3.divisors == (2,) and iso3.k(2) == 1
    _ok("criterion 2: (r,s,t) = (2,1,1)/(3,0,1), D = {3}/{2}, k = 1/1")


def test_criterion_3_published_formula_reproduction():
    spec = fixture_by_name("z5_z6").spec
    for l in range(13):
        expected2 = 2 if (l % 2 == 0 and l >= 2) else 0
        expected3 = 1 if (l % 2 == 0 and l >= 2) else 0
        assert assemble_p_torsion(spec, 2, l, "published") == expected2, l
        assert assemble_p_torsion(spec, 3, l, "published") == expected3, l
    _ok("criterion 3: published engine reproduces theta(2)=2, theta(3)=1 on even 2..12")


def test_criterion_4_oracle_fixed_points():
    dinfty = e2_table(fixture_by_name("dinfty").spec, 9)
    assert str(dinfty.groups[0]) == "Z"
    assert dinfty.groups[1].is_zero()
    for l in range(2, 10):
        if l % 2 == 0:
            assert dinfty.groups[l].rank == 0
            assert dinfty.groups[l].torsion == (2, 2)
        else:
            assert dinfty.groups[l].is_zero()
    p3 = e2_table(fixture_by_name("p3").spec, 3)
    assert p3.groups[1].is_zero()
    assert p3.groups[2].rank == 1 and p3.groups[2].torsion == (3, 3)
    ident = e2_table(fixture_by_name("id_n2_m3").spec, 2)
    assert ident.groups[2].rank == 1 and ident.groups[2].torsion == (3,)
    _ok("criterion 4: oracle fixed points (dinfty, p3, identity n=2 m=3)")


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
                assert bounded_composition_count(k, p, i) == brute
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
            for f in g.torsion:
                assert spec.m % f == 0
        for l in range(spec.n + 1, spec.n + 3):
            assert table.groups[l] == table.groups[l + 2]
        checked += 1
    _ok("criterion 7: 200 random specs pass all structural invariants")


def test_criterion_8_one_prime_consistency():
    count = 0
    for fixture in fixture_suite():
        if not fixture.valid or len(fixture.spec.primes) != 1:
            continue
        spec = fixture.spec
        if spec.m not in spec.primes:
            continue
        for variant in ("published", "corrected"):
            for l in range(spec.n + 5):
                assert one_prime_theta(spec, l, variant) == assemble_p_torsion(
                    spec, spec.m, l, variant
                )
                count += 1
    assert count
    _ok(f"criterion 8: one-prime shortcut consistent with assembly ({count} checks)")


def test_criterion_9_free_action_census():
    for name in ("dinfty", "p3", "phi5", "p6"):
        spec = fixture_by_name(name).spec
        assert free_outside_origin(spec).overall
        census = max_finite_subgroup_census(spec)
        for p in spec.primes:
            k = spec.n // (p - 1)
            assert census.count(p) == p**k
            sub = subgroup_oracle(spec, p, spec.n + 4)
            col = p_part(sub, p)
            for l in range(spec.n + 1, spec.n + 5):
                if l % 2 == 0:
                    assert col[l] == p**k
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
    value = count_wedge_roots(x, 12, 24)
    dp_elapsed = time.perf_counter() - start_dp
    assert value > 0
    assert dp_elapsed < 1.0, f"rank-24 DP took {dp_elapsed:.3f}s"
    _ok(
        f"criterion 10: n=10 analyze in {elapsed:.2f}s (< 10s), "
        f"rank-24 DP at l=12 in {dp_elapsed * 1000:.1f}ms (< 1s)"
    )
