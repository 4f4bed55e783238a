"""Validation, (r, s, t) decompositions, isotropy data, class censuses."""

import dataclasses
from collections import Counter

import pytest

import semicoh.cyclotomic
import semicoh.groups
import semicoh.intmat
from semicoh.cyclotomic import (
    CyclotomicCensus,
    companion_of_cyclotomic,
    cyclotomic_polynomial,
    divisors,
    matrix_census,
    phi_powers,
)
from semicoh.engines import formula_table, molien_column, rank_column
from semicoh.errors import (
    BadInvariantFactors,
    NonIntegralOrbitCount,
    NonInvariantBlock,
    NotADivisor,
    NotFreeAction,
    NotSquareFree,
    NotUnimodular,
    WrongOrder,
)
from semicoh.fixtures import (
    FLAGSHIP_MATRIX,
    fixture_by_name,
    fixture_suite,
)
from semicoh.groups import (
    GroupSpec,
    _adapted_basis,
    _block_census,
    _chain_combination,
    _cyclic_counts,
    _norm_coeffs,
    _piece_norm_coeffs,
    _smith_rst,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_bases,
    rst_decompose,
    validate,
)
from semicoh.intmat import (
    IntMatrix,
    block_diagonal,
    contragredient,
    det,
    invariant_factors,
    kernel_basis,
    lattice_quotient,
    norm_and_power,
    restrict_to_basis,
    saturate_span,
)
from semicoh.intpoly import IntPolynomial
from semicoh.torsion import VARIANTS

from conftest import (
    CYCLE_PLUS_TRIVIAL,
    count_calls,
    random_companion_spec,
    random_permutation_spec,
    random_unimodular,
)


def span_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Same saturated column span (compare canonical saturations)."""
    if a.cols != b.cols:
        return False
    if a.cols == 0:
        return True
    from semicoh.intmat import solve_columns

    try:
        solve_columns(saturate_span(a)[0], b)
        solve_columns(saturate_span(b)[0], a)
    except Exception:  # noqa: BLE001
        return False
    return True


def poly_at(poly, a: IntMatrix) -> IntMatrix:
    """poly(a) from separate powers a**k: the isotypic projectors' reference."""
    value = IntMatrix.zeros(a.rows, a.cols)
    for k, c in enumerate(poly.coeffs):
        value = value + IntMatrix.scalar(a.rows, c) @ a**k
    return value


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
    bases = rst_bases(spec, 2)
    e = IntMatrix
    assert span_equal(bases.t_basis, e([[1], [0], [0], [0], [0]]))
    assert span_equal(bases.r_basis, e([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]]))
    assert abs(det(bases.adapted_basis)) == 1
    assert rst.r_census.as_dict() == {3: 1}
    assert rst.t_census.as_dict() == {2: 1}


def test_rst_flagship_p3():
    spec = fixture_by_name("z5_z6").spec
    rst = rst_decompose(spec, 3)
    assert (rst.r, rst.s, rst.t) == (3, 0, 1)
    bases = rst_bases(spec, 3)
    expected_t = IntMatrix([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])
    assert span_equal(bases.t_basis, expected_t)
    assert abs(det(bases.adapted_basis)) == 1
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
            bases = rst_bases(spec, p)
            assert abs(det(bases.adapted_basis)) == 1
            assert all(f == 1 for f in invariant_factors(bases.r_basis))
            iso = isotropy_data(spec, p, rst)
            assert sum(v for _, v in iso.m_d) == (p - 1) * rst.t
            for d, v in iso.m_d:
                assert v % (p - 1) == 0
                assert (spec.m // p) % d == 0


def test_rst_global_check_reads_cokernel_factors(monkeypatch):
    # on the Smith route, each non-empty isotypic piece reads t off one Smith
    # run of psi - 1 and r off one of N; the whole-lattice cross-check reads
    # invariant factors
    runs = count_calls(monkeypatch, semicoh.groups, "_cokernel_torsion")
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        for p in spec.primes:
            pieces = sum(
                1
                for e in divisors(spec.m // p)
                if kernel_basis(
                    poly_at(cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e), spec.phi)
                ).cols
            )
            runs.clear()
            rst_bases(spec, p)
            assert len(runs) == 2 * pieces, (fixture.name, p)
            assert pieces == (2 if fixture.name == "z5_z6" else 1), (fixture.name, p)


def test_rst_smith_runs_per_decomposition(monkeypatch):
    # rst_decompose runs none.  rst_bases runs four per isotypic piece (its
    # kernel basis, the restriction of psi, psi - 1 and N), two for the
    # whole-lattice cross-check, then one per non-empty block saturation,
    # which also gives the left inverse that tests the block's stability,
    # and one for the adapted basis: p3 has one piece and no r block,
    # z5_z6 two
    calls = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    monkeypatch.setattr(semicoh.groups, "_smith_engine", semicoh.intmat._smith_engine)
    for name, p, runs in (("p3", 3, 8), ("z5_z6", 2, 13), ("z5_z6", 3, 13)):
        spec = fixture_by_name(name).spec
        spec = GroupSpec(spec.n, spec.m, spec.phi, name=f"unseen-{name}")  # no memo hit
        calls.clear()
        rst_decompose(spec, p)
        assert calls == [], (name, p)
        rst_bases(spec, p)
        assert len(calls) == runs, (name, p)


def test_rst_generators_match_the_kernel_image_quotients(rng):
    # reference for the cokernel reading: the t generators complete
    # im(psi - 1) to ker N and the r block completes im N to ker(psi - 1),
    # as the kernel-basis quotients of the classical procedure say
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    for _ in range(5):
        spec = random_companion_spec(rng)
        conj = random_unimodular(rng, spec.n)
        specs.append(GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose()))
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(5)]  # s > 0 too
    for spec in specs:
        one = IntMatrix.identity(spec.n)
        for p in spec.primes:
            bases = rst_bases(spec, p)
            psi_minus_one = spec.psi(p) - one
            norm = norm_and_power(spec.psi(p), p)[0]
            assert (norm @ bases.t_generators).is_zero(), (spec, p)
            assert (psi_minus_one @ bases.r_basis).is_zero(), (spec, p)
            assert bases.t_generators.cols == rst_decompose(spec, p).t, (spec, p)
            t_quotient = lattice_quotient(
                kernel_basis(norm), psi_minus_one.hstack(bases.t_generators)
            )
            r_quotient = lattice_quotient(
                kernel_basis(psi_minus_one), norm.hstack(bases.r_basis)
            )
            assert t_quotient.is_zero(), (spec, p)
            assert r_quotient.is_zero(), (spec, p)


def test_rst_blocks_are_the_kernels_when_s_is_zero(rng):
    # with s = 0 the blocks are canonical: r_basis spans ker(psi - 1), and a
    # phi-stable t_basis spans ker N (each lies in its kernel, with a zero
    # quotient)
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    for _ in range(6):
        spec = random_companion_spec(rng, n_max=8)
        conj = random_unimodular(rng, spec.n)
        specs.append(GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose()))
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(12)]
    checked = stable = 0
    for spec in specs:
        for p in spec.primes:
            if rst_decompose(spec, p).s:
                continue
            bases = rst_bases(spec, p)
            psi = spec.psi(p)
            fixed = kernel_basis(psi - IntMatrix.identity(spec.n))
            assert lattice_quotient(fixed, bases.r_basis).is_zero(), (spec, p)
            if bases.t_basis is not None:
                norm_kernel = kernel_basis(norm_and_power(psi, p)[0])
                assert lattice_quotient(norm_kernel, bases.t_basis).is_zero(), (spec, p)
                stable += 1
            checked += 1
    assert checked >= 20 and stable >= 10, (checked, stable)


def test_cyclic_counts_refuses_an_infinite_quotient():
    # psi = [[1, 1], [0, 1]] has psi^3 != 1: rank(psi - 1) + rank(N) = 1 + 2
    with pytest.raises(BadInvariantFactors, match="not finite"):
        _cyclic_counts(IntMatrix([[1, 1], [0, 1]]), 3)


def test_adapted_basis_is_unimodular_when_columns_repeat():
    e1 = IntMatrix([[1], [0], [0]])
    assert abs(det(_adapted_basis(3, e1, e1))) == 1


def test_adapted_basis_reduces_the_joint_matrix_once(monkeypatch):
    # one Smith run of [r block | t generators] gives its saturation, the
    # primitivity test and, in U^-1, the completion to Z^n
    calls = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    monkeypatch.setattr(semicoh.groups, "_smith_engine", semicoh.intmat._smith_engine)
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        for p in spec.primes:
            bases = rst_bases(spec, p)
            joint = bases.r_basis.hstack(bases.t_generators)
            calls.clear()
            assert _adapted_basis(spec.n, bases.r_basis, bases.t_generators) == bases.adapted_basis
            if joint.cols:
                assert len(calls) == 1 and calls[0][0] == joint, (fixture.name, p)
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
    # the Smith route's cross-check, the freeness test and the class count
    # read one reduction of the whole-lattice psi_p - 1 per (spec, p)
    reduced = count_calls(monkeypatch, semicoh.groups, "invariant_factors")
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    specs += [random_companion_spec(rng) for _ in range(5)]
    for i, spec in enumerate(specs):
        spec = GroupSpec(spec.n, spec.m, spec.phi, name=f"unseen-{i}")  # no memo hit
        reduced.clear()
        for p in spec.primes:
            rst_bases(spec, p)
        if free_outside_origin(spec).overall:
            max_finite_subgroup_census(spec)
        # per prime, rst_bases reduces N once and psi - 1 once; nothing
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


def _chain_specs(rng, count):
    """Every valid fixture, CYCLE_PLUS_TRIVIAL and ``count`` random specs, s > 0 among them."""
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    specs.append(CYCLE_PLUS_TRIVIAL)
    for i in range(count):
        if i % 3:
            specs.append(random_permutation_spec(rng, n_max=8))
        else:
            spec = random_companion_spec(rng, n_max=8)
            conj = random_unimodular(rng, spec.n)
            specs.append(GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose()))
    return specs


def test_ranks_path_builds_one_chain_of_phi_per_spec(monkeypatch, rng):
    # rank_column, molien_column, both formula tables and rst/isotropy at
    # every prime read psi_p, the norms, the isotypic projectors and every
    # census off one chain phi^0..phi^(m-1): no charpoly of phi and no
    # binary power of phi.  validate's own phi^m check comes first, and
    # refuses an infinite-order phi before any chain is built.
    assert not hasattr(IntPolynomial, "eval_matrix")
    flagship = fixture_by_name("z5_z6").spec
    specs = [flagship, CYCLE_PLUS_TRIVIAL]
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(6)]
    chains = count_calls(monkeypatch, semicoh.cyclotomic, "power_chain")
    charpolys = count_calls(monkeypatch, semicoh.intmat, "charpoly")
    monkeypatch.setattr(semicoh.cyclotomic, "charpoly", semicoh.intmat.charpoly)
    powers = count_calls(monkeypatch, IntMatrix, "__pow__")
    for i, spec in enumerate(specs):
        spec = validate(GroupSpec(spec.n, spec.m, spec.phi, name=f"chain-once-{i}"))
        chains.clear()
        powers.clear()
        top = spec.n + 3
        rank_column(spec, top)
        molien_column(spec, top)
        for variant in VARIANTS:
            try:
                formula_table(spec, top, variant)
            except NonIntegralOrbitCount:
                pass
        for p in spec.primes:
            isotropy_data(spec, p, rst_decompose(spec, p))
        assert chains == [(spec.phi, spec.m)], spec
        assert [a for a, *_ in charpolys if a == spec.phi] == [], spec
        assert [a for a, *_ in powers if a == spec.phi] == [], spec


def test_psi_is_the_chain_entry():
    spec = fixture_by_name("z5_z6").spec
    for p in spec.primes:
        assert spec.psi(p) is phi_powers(spec.phi, spec.m)[spec.m // p]
        assert spec.psi(p) == spec.phi ** (spec.m // p)
    for p in (0, 1, 5):
        with pytest.raises(NotADivisor):
            spec.psi(p)


def test_chain_combinations_are_the_polynomials_at_phi(rng):
    # each isotypic projector, each isotypic norm N_p * Q_e and the global
    # norm, read off the chain, equal the polynomial evaluated at phi by
    # separate powers, with Q_e the product of the other Phi_d, d | m; for
    # prime m the projector Phi_1 * Phi_m reduces mod x^m - 1 to zero
    primes_m = 0
    for spec in _chain_specs(rng, 30):
        powers = phi_powers(spec.phi, spec.m)
        for p in spec.primes:
            norm = _chain_combination(powers, _norm_coeffs(spec.m, p))
            assert norm == norm_and_power(spec.psi(p), p)[0], spec
            for e in divisors(spec.m // p):
                poly = cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)
                assert _chain_combination(powers, poly.coeffs) == poly_at(poly, spec.phi), spec
                q_e = IntPolynomial.of(1)
                for d in divisors(spec.m):
                    if d not in (e, p * e):
                        q_e = q_e * cyclotomic_polynomial(d)
                piece = _chain_combination(powers, _piece_norm_coeffs(spec.m, p, e))
                assert piece == norm @ poly_at(q_e, spec.phi), (spec, p, e)
        if spec.primes == (spec.m,):
            poly = cyclotomic_polynomial(1) * cyclotomic_polynomial(spec.m)
            assert _chain_combination(powers, poly.coeffs).is_zero(), spec
            primes_m += 1
    assert primes_m >= 5


def test_trace_read_block_census_matches_the_restricted_charpoly(rng):
    # the census read off tr(phi^j U L) equals the census of phi restricted
    # to the block, on every stable r and t block
    blocks = regular = 0
    for spec in _chain_specs(rng, 150):
        powers = phi_powers(spec.phi, spec.m)
        for p in spec.primes:
            bases = rst_bases(spec, p)
            for block in (bases.r_basis, bases.t_basis):
                if block is None or not block.cols:
                    continue
                basis, inverse = saturate_span(block)
                expected = matrix_census(restrict_to_basis(spec.phi, basis), spec.m)
                assert _block_census(powers, basis, inverse) == expected, (spec, p)
                blocks += 1
                regular += rst_decompose(spec, p).s > 0
    assert blocks >= 150 and regular >= 20, (blocks, regular)


def test_tampered_chain_entry_raises_non_invariant_block(monkeypatch):
    # on the Smith route at m = 10, p = 5: psi, N and both projectors read
    # only even entries and phi^5, stability reads phi^1, so phi^3 reaches
    # only the block census, which rst_bases checks before it compares its
    # counts with rst_decompose's
    spec = GroupSpec(4, 10, companion_of_cyclotomic(5), name="tampered-chain")
    assert (rst_decompose(spec, 5).r, rst_decompose(spec, 5).t) == (0, 1)
    monkeypatch.setattr(semicoh.groups, "phi_powers", _tampered_chain(3, IntMatrix.identity(4)))
    rst_decompose.cache_clear()
    with pytest.raises(NonInvariantBlock, match="restricted block census"):
        rst_bases(spec, 5)
    rst_decompose.cache_clear()


def _tampered_chain(j, delta):
    """A phi_powers whose entry j is off by ``delta``."""
    honest = phi_powers.__wrapped__

    def tampered(phi, m):
        powers = honest(phi, m)
        return powers[:j] + (powers[j] + delta,) + powers[j + 1:]

    return tampered


def test_rst_decompose_equals_the_smith_counts_on_the_fixtures():
    # the census-and-rank reading against the Smith-form route's own
    # counts and block censuses
    specs = [f.spec for f in fixture_suite() if f.valid] + [CYCLE_PLUS_TRIVIAL]
    for spec in specs:
        for p in spec.primes:
            assert rst_decompose(spec, p) == _smith_rst(spec, p)[0], (spec.name, p)
    assert (rst_decompose(CYCLE_PLUS_TRIVIAL, 3).r, rst_decompose(CYCLE_PLUS_TRIVIAL, 3).s) == (1, 1)


def test_rst_decompose_equals_the_smith_counts_on_random_specs(rng):
    orders = (2, 3, 5, 6, 7, 10, 14, 15, 21, 30)
    pairs = 0
    regular = Counter()
    for i in range(400):
        if i % 2:
            spec = random_permutation_spec(rng, n_max=9, orders=orders)
        else:
            spec = random_companion_spec(rng, n_max=9, orders=orders)
            conj = random_unimodular(rng, spec.n)
            spec = GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose())
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            assert rst == _smith_rst(spec, p)[0], (spec, p)
            pairs += 1
            regular[spec.m] += rst.s > 0
    assert pairs >= 400 and sum(regular.values()) >= 100, (pairs, regular)
    assert all(regular[m] for m in (7, 14, 21)), regular


def test_ranks_path_runs_no_smith_form(monkeypatch, rng):
    # rank_column, molien_column, both formula tables and rst/isotropy at
    # every prime read counts off phi's census and ranks mod p only
    specs = [f.spec for f in fixture_suite() if f.valid] + [CYCLE_PLUS_TRIVIAL]
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(10)]  # conjugated by Smith
    calls = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    monkeypatch.setattr(semicoh.groups, "_smith_engine", semicoh.intmat._smith_engine)
    regular = 0
    for i, spec in enumerate(specs):
        spec = validate(GroupSpec(spec.n, spec.m, spec.phi, name=f"no-smith-{i}"))
        top = spec.n + 3
        rank_column(spec, top)
        molien_column(spec, top)
        for variant in VARIANTS:
            try:
                formula_table(spec, top, variant)
            except NonIntegralOrbitCount:
                pass
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            isotropy_data(spec, p, rst)
            regular += rst.s > 0
    assert calls == []
    assert regular >= 3


def test_rst_decompose_refuses_a_tampered_census(monkeypatch):
    # CYCLE_PLUS_TRIVIAL at p = 3 has census {1: 2, 3: 1} and s_1 = 1; a
    # census of the same dimension claiming {3: 2} leaves r_1 = 0 - 1
    spec = dataclasses.replace(CYCLE_PLUS_TRIVIAL, name="tampered-census")
    monkeypatch.setattr(semicoh.groups, "chain_census",
                        lambda phi, m: CyclotomicCensus.of(m, {3: 2}))
    with pytest.raises(BadInvariantFactors, match="exceeds the census counts"):
        rst_decompose(spec, 3)


def test_rst_decompose_refuses_a_tampered_chain_entry(monkeypatch):
    # Phi_3 + Phi_6 companions at m = 6, p = 2: one piece, e = 3, with
    # N_2 * Q_3 = (1 + x^3)(x^2 - 1), so phi^5 enters it but not N_2.  The
    # honest piece norm is 0 mod 2; a unit added at one entry of phi^5
    # makes its rank 1, not a multiple of phi(3) = 2
    spec = GroupSpec(4, 6, block_diagonal([companion_of_cyclotomic(3), companion_of_cyclotomic(6)]),
                     name="tampered-piece")
    assert rst_decompose(spec, 2) == _smith_rst(spec, 2)[0]
    assert (rst_decompose(spec, 2).s, rst_decompose(spec, 2).t) == (0, 2)
    unit = IntMatrix([[int(i == j == 0) for j in range(4)] for i in range(4)])
    monkeypatch.setattr(semicoh.groups, "phi_powers", _tampered_chain(5, unit))
    rst_decompose.cache_clear()
    with pytest.raises(NonInvariantBlock, match="not multiples of phi"):
        rst_decompose(spec, 2)
    rst_decompose.cache_clear()


def test_rst_decompose_refuses_isotypic_ranks_that_miss_the_global_rank(monkeypatch):
    # z5_z6 at p = 2 has s = 1; one more on the whole-lattice rank of N_2
    # mod 2 breaks sum_e s_e = rk_2(N_2)
    flagship = fixture_by_name("z5_z6").spec
    spec = GroupSpec(flagship.n, flagship.m, flagship.phi, name="broken-sum")
    norm = norm_and_power(spec.psi(2), 2)[0]
    honest = semicoh.intmat.rank_mod_p
    monkeypatch.setattr(semicoh.groups, "rank_mod_p", lambda a, p: honest(a, p) + (a == norm))
    with pytest.raises(NonInvariantBlock, match="isotypic ranks sum to s=1"):
        rst_decompose(spec, 2)


def test_rst_bases_cross_checks_rst_decompose(monkeypatch):
    spec = fixture_by_name("z5_z6").spec
    honest = rst_decompose(spec, 3)
    swapped = dataclasses.replace(honest, r_census=honest.t_census, t_census=honest.r_census)
    monkeypatch.setattr(semicoh.groups, "rst_decompose", lambda spec, p: swapped)
    with pytest.raises(NonInvariantBlock, match="census-and-rank"):
        rst_bases(spec, 3)
