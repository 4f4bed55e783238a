"""Validation, (r, s, t) decompositions, isotropy data, class censuses."""

import pytest

import semicoh.groups
import semicoh.intmat
from semicoh.cyclotomic import cyclotomic_polynomial, divisors
from semicoh.engines import formula_table, molien_column, rank_column
from semicoh.errors import (
    NotADivisor,
    NotFreeAction,
    NotSquareFree,
    NotUnimodular,
    WrongOrder,
)
from semicoh.fixtures import (
    FLAGSHIP_MATRIX,
    companion_of_cyclotomic,
    fixture_by_name,
    fixture_suite,
)
from semicoh.groups import (
    GroupSpec,
    _adapted_basis,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
    validate,
)
from semicoh.intmat import (
    IntMatrix,
    contragredient,
    det,
    invariant_factors,
    kernel_basis,
    norm_and_power,
    saturate_span,
)
from semicoh.torsion import VARIANTS

from conftest import count_calls, random_companion_spec, random_unimodular


def span_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Same saturated column span (compare canonical saturations)."""
    if a.cols != b.cols:
        return False
    if a.cols == 0:
        return True
    from semicoh.intmat import solve_columns

    try:
        solve_columns(saturate_span(a), b)
        solve_columns(saturate_span(b), a)
    except Exception:  # noqa: BLE001
        return False
    return True


def test_validate_flagship():
    spec = GroupSpec(5, 6, FLAGSHIP_MATRIX)
    assert validate(spec) is spec


def test_validate_dihedral():
    validate(GroupSpec(1, 2, IntMatrix([[-1]])))


def test_validate_rejects_m4():
    with pytest.raises(NotSquareFree):
        validate(GroupSpec(3, 4, IntMatrix.identity(3)))


def test_validate_rejects_wrong_order():
    with pytest.raises(WrongOrder):
        validate(GroupSpec(2, 3, IntMatrix([[1, 1], [0, 1]])))


def test_validate_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        validate(GroupSpec(1, 2, IntMatrix([[2]])))


def test_validate_checks_each_spec_once(monkeypatch, rng):
    # a ranks-wide op validates one spec about nine times (both rank columns,
    # each formula table and the rank column inside it, rst per prime)
    dets = count_calls(monkeypatch, semicoh.groups, "det")
    powers = count_calls(monkeypatch, IntMatrix, "__pow__")
    refused = GroupSpec(1, 30, IntMatrix([[2]]))
    for _ in range(2):  # refused on every call, before phi^m is formed
        with pytest.raises(NotUnimodular):
            validate(refused)
    assert len(dets) == 2 and powers == []
    dets.clear()
    flagship = fixture_by_name("z5_z6").spec
    conj = random_unimodular(rng, flagship.n)
    phi = conj @ flagship.phi @ contragredient(conj).transpose()
    spec = GroupSpec(flagship.n, flagship.m, phi, name="validated-once")
    top = spec.n + 3
    rank_column(spec, top)
    molien_column(spec, top)
    for variant in VARIANTS:
        formula_table(spec, top, variant)
    for p in spec.primes:
        rst_decompose(spec, p)
    assert validate(spec) is spec
    assert len(dets) == 1


def test_rst_flagship_p2():
    spec = fixture_by_name("z5_z6").spec
    rst = rst_decompose(spec, 2)
    assert (rst.r, rst.s, rst.t) == (2, 1, 1)
    e = IntMatrix
    assert span_equal(rst.t_basis, e([[1], [0], [0], [0], [0]]))
    assert span_equal(rst.r_basis, e([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]]))
    assert abs(det(rst.adapted_basis)) == 1
    assert rst.r_census.as_dict() == {3: 1}
    assert rst.t_census.as_dict() == {2: 1}


def test_rst_flagship_p3():
    spec = fixture_by_name("z5_z6").spec
    rst = rst_decompose(spec, 3)
    assert (rst.r, rst.s, rst.t) == (3, 0, 1)
    expected_t = IntMatrix([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])
    assert span_equal(rst.t_basis, expected_t)
    assert abs(det(rst.adapted_basis)) == 1
    assert rst.t_census.as_dict() == {3: 1}


def test_rst_identity_action():
    spec = GroupSpec(3, 6, IntMatrix.identity(3))
    for p in (2, 3):
        rst = rst_decompose(spec, p)
        assert (rst.r, rst.s, rst.t) == (3, 0, 0)


def test_rst_counts_are_basis_stable(rng):
    for _ in range(8):
        spec = random_companion_spec(rng)
        conj = random_unimodular(rng, spec.n)
        conj_inv = None
        # build the inverse exactly via the contragredient of the transpose
        from semicoh.intmat import contragredient

        conj_inv = contragredient(conj).transpose()
        assert (conj @ conj_inv).is_identity()
        twisted = GroupSpec(spec.n, spec.m, conj @ spec.phi @ conj_inv)
        for p in spec.primes:
            a = rst_decompose(spec, p)
            b = rst_decompose(twisted, p)
            assert (a.r, a.s, a.t) == (b.r, b.s, b.t)
            assert a.r_census == b.r_census
            assert a.t_census == b.t_census


def test_rst_invariants_random(rng):
    for _ in range(20):
        spec = random_companion_spec(rng)
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            assert rst.r + p * rst.s + (p - 1) * rst.t == spec.n
            assert abs(det(rst.adapted_basis)) == 1
            assert all(f == 1 for f in invariant_factors(rst.r_basis))
            iso = isotropy_data(spec, p, rst)
            assert sum(v for _, v in iso.m_d) == (p - 1) * rst.t
            for d, v in iso.m_d:
                assert v % (p - 1) == 0
                assert (spec.m // p) % d == 0


def test_rst_global_check_reads_cokernel_factors(monkeypatch):
    # each non-empty isotypic piece takes two kernel/image quotients (t and
    # r); the whole-lattice cross-check reads invariant factors and takes none
    quotients = count_calls(monkeypatch, semicoh.groups, "_p_quotient")
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        for p in spec.primes:
            pieces = sum(
                1
                for e in divisors(spec.m // p)
                if kernel_basis(
                    (cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)).eval_matrix(spec.phi)
                ).cols
            )
            rst_decompose.cache_clear()
            quotients.clear()
            rst_decompose(spec, p)
            assert len(quotients) == 2 * pieces, (fixture.name, p)
            assert pieces == (2 if fixture.name == "z5_z6" else 1), (fixture.name, p)


def test_adapted_basis_is_unimodular_when_columns_repeat():
    e1 = IntMatrix([[1], [0], [0]])
    assert abs(det(_adapted_basis(3, e1, e1))) == 1


def test_adapted_basis_reduces_the_joint_matrix_once(monkeypatch):
    # one Smith run of [r block | t generators] gives both its saturation and
    # the primitivity test; the only other run completes the saturation
    calls = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    monkeypatch.setattr(semicoh.groups, "_smith_engine", semicoh.intmat._smith_engine)
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            joint = rst.r_basis.hstack(rst.t_generators)
            calls.clear()
            assert _adapted_basis(spec.n, rst.r_basis, rst.t_generators) == rst.adapted_basis
            if joint.cols:
                assert len(calls) == 2 and calls[0][0] == joint, (fixture.name, p)
            else:
                assert calls == [], (fixture.name, p)


def test_isotropy_flagship():
    spec = fixture_by_name("z5_z6").spec
    iso2 = isotropy_data(spec, 2)
    assert iso2.divisors == (3,)
    assert iso2.k(3) == 1 and iso2.k(1) == 0
    iso3 = isotropy_data(spec, 3)
    assert iso3.divisors == (2,)
    assert iso3.k(2) == 1


def test_isotropy_t_zero():
    spec = GroupSpec(2, 3, IntMatrix.identity(2))
    iso = isotropy_data(spec, 3)
    assert iso.divisors == ()


def test_free_outside_origin():
    assert free_outside_origin(GroupSpec(1, 2, IntMatrix([[-1]]))).overall
    assert free_outside_origin(GroupSpec(2, 3, companion_of_cyclotomic(3))).overall
    report = free_outside_origin(fixture_by_name("z5_z6").spec)
    assert not report.overall
    assert report.per_prime == ((2, False), (3, False))


def test_max_finite_census_counts():
    mf = max_finite_subgroup_census(GroupSpec(1, 2, IntMatrix([[-1]])))
    assert mf.count(2) == 2
    mf = max_finite_subgroup_census(GroupSpec(2, 3, companion_of_cyclotomic(3)))
    assert mf.count(3) == 3
    assert dict(mf.nonzero_type_counts)[3] == 2  # closed form p(p^k - 1)/m
    with pytest.raises(NotFreeAction):
        max_finite_subgroup_census(fixture_by_name("z5_z6").spec)


def test_max_finite_census_reads_one_reduction_per_prime(monkeypatch):
    # the class count p^(n/(p-1)) is the product of the n invariant factors
    # of psi - 1, whose count is also the freeness test: the two together
    # reduce each psi - 1 once, and no det is taken
    reductions = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    dets = count_calls(monkeypatch, semicoh.groups, "det")
    free_specs = [
        f.spec for f in fixture_suite() if f.valid and free_outside_origin(f.spec).overall
    ]
    assert len(free_specs) >= 4
    semicoh.groups._psi_minus_one_factors.cache_clear()
    for spec in free_specs:
        reductions.clear()
        dets.clear()
        free_outside_origin(spec)
        max_finite_subgroup_census(spec)
        one = IntMatrix.identity(spec.n)
        assert [args[0] for args in reductions] == [spec.psi(p) - one for p in spec.primes]
        assert dets == [], spec.name


def test_whole_lattice_psi_minus_one_reduced_once_per_prime(monkeypatch, rng):
    # the rst cross-check, the freeness test and the class count read one
    # reduction of the whole-lattice psi_p - 1 per (spec, p)
    reduced = count_calls(monkeypatch, semicoh.groups, "invariant_factors")
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    specs += [random_companion_spec(rng) for _ in range(5)]
    for i, spec in enumerate(specs):
        spec = GroupSpec(spec.n, spec.m, spec.phi, name=f"unseen-{i}")  # no memo hit
        reduced.clear()
        for p in spec.primes:
            rst_decompose(spec, p)
        if free_outside_origin(spec).overall:
            max_finite_subgroup_census(spec)
        # per prime, rst_decompose reduces N once and psi - 1 once; nothing
        # reduces psi - 1 again
        one = IntMatrix.identity(spec.n)
        expected = []
        for p in spec.primes:
            expected += [norm_and_power(spec.psi(p), p)[0], spec.psi(p) - one]
        assert [a for (a,) in reduced] == expected, spec


def test_isotropy_data_refuses_another_primes_decomposition():
    spec = fixture_by_name("z5_z6").spec
    with pytest.raises(ValueError, match="p=2 passed for p=3"):
        isotropy_data(spec, 3, rst_decompose(spec, 2))
    assert isotropy_data(spec, 3, rst_decompose(spec, 3)) == isotropy_data(spec, 3)


def test_rst_decompose_is_the_prime_membership_check():
    spec = fixture_by_name("z5_z6").spec
    for p in (0, 5, -2):
        with pytest.raises(NotADivisor, match=f"{p} is not a prime factor of m=6"):
            rst_decompose(spec, p)
        with pytest.raises(NotADivisor):
            isotropy_data(spec, p)


def test_free_action_forces_pure_free_origin_type(rng):
    # wherever the prime acts freely outside the origin, the whole lattice
    # is free-origin type: (r, s, t) = (0, 0, n/(p-1))
    specs = [fixture_by_name(name).spec for name in ("dinfty", "p3", "phi5", "p6")]
    for _ in range(10):
        specs.append(random_companion_spec(rng))
    for spec in specs:
        report = free_outside_origin(spec)
        for p in spec.primes:
            if report.is_free(p):
                rst = rst_decompose(spec, p)
                assert (rst.r, rst.s, rst.t) == (0, 0, spec.n // (p - 1))


def test_max_finite_census_composite_m():
    mf = max_finite_subgroup_census(fixture_by_name("p6").spec)
    assert dict(mf.class_counts) == {2: 4, 3: 3, 6: 1}
    assert dict(mf.nonzero_type_counts) == {2: 1, 3: 1}
