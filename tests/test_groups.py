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
    euler_phi,
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
    RstDecomposition,
    _chain_combination,
    _norm_coeffs,
    _piece_norm_coeffs,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
    validate,
)
from semicoh.intmat import IntMatrix, contragredient, norm_and_power
from semicoh.intpoly import IntPolynomial
from semicoh.torsion import VARIANTS

from conftest import (
    CYCLE_PLUS_TRIVIAL,
    block_diagonal,
    count_calls,
    random_companion_spec,
    random_permutation_spec,
    random_unimodular,
    scalar_matrix,
)
from smith_support import invariant_factors, kernel_basis, solve_columns


def poly_at(poly, a: IntMatrix) -> IntMatrix:
    """poly(a) by Horner's rule, without a power chain: the isotypic projectors' reference."""
    value = IntMatrix.zeros(a.rows, a.cols)
    for c in reversed(poly.coeffs):
        value = value @ a + scalar_matrix(a.rows, c)
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
    assert rst.r_census.as_dict() == {3: 1}
    assert rst.t_census.as_dict() == {2: 1}


def test_rst_flagship_p3():
    spec = fixture_by_name("z5_z6").spec
    rst = rst_decompose(spec, 3)
    assert (rst.r, rst.s, rst.t) == (3, 0, 1)
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
    # isotropy_data reads D, m_d and k_d off the free-origin census without
    # re-checking them: these are the facts rst_decompose's census makes true
    specs = [random_companion_spec(rng) for _ in range(20)]
    specs += [random_permutation_spec(rng) for _ in range(20)]
    regular = 0
    for spec in specs:
        for p in spec.primes:
            rst = rst_decompose(spec, p)
            regular += rst.s > 0
            assert rst.r + p * rst.s + (p - 1) * rst.t == spec.n
            assert all(order % p == 0 for order, _ in rst.t_census.multiplicities)
            iso = isotropy_data(spec, p, rst)
            assert sum(v for _, v in iso.m_d) == (p - 1) * rst.t
            for d, v in iso.m_d:
                assert v % (p - 1) == 0
                assert (spec.m // p) % d == 0
            for d, k in iso.k_d:
                e = spec.m // (p * d)  # the piece ker(Phi_e(phi) * Phi_pe(phi))
                assert k == rst.t_census.as_dict().get(p * e, 0) * euler_phi(e)  # t_e
    assert regular >= 5, regular


def test_rst_smith_runs_per_decomposition(monkeypatch):
    # rst_decompose reads its counts off phi's census and ranks mod p: it
    # runs no Smith form
    calls = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    for name, p in (("p3", 3), ("z5_z6", 2), ("z5_z6", 3)):
        spec = fixture_by_name(name).spec
        spec = GroupSpec(spec.n, spec.m, spec.phi, name=f"unseen-{name}")  # no memo hit
        calls.clear()
        rst_decompose(spec, p)
        assert calls == [], (name, p)


def test_isotropy_flagship():
    spec = fixture_by_name("z5_z6").spec
    iso2 = isotropy_data(spec, 2)
    assert iso2.divisors == (3,)
    assert dict(iso2.k_d) == {3: 1}
    iso3 = isotropy_data(spec, 3)
    assert iso3.divisors == (2,)
    assert dict(iso3.k_d) == {2: 1}


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
    # the class count p^(n/(p-1)) is |det(psi - 1)|, whose being nonzero is
    # also the freeness test: the two together take one det of each psi - 1
    # and run no Smith form
    smith = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    dets = count_calls(monkeypatch, semicoh.groups, "det")
    free_specs = [
        f.spec for f in fixture_suite() if f.valid and free_outside_origin(f.spec).overall
    ]
    assert len(free_specs) >= 4
    semicoh.groups._psi_minus_one_det.cache_clear()
    for spec in free_specs:
        dets.clear()
        free_outside_origin(spec)
        max_finite_subgroup_census(spec)
        one = IntMatrix.identity(spec.n)
        assert [args[0] for args in dets] == [spec.psi(p) - one for p in spec.primes], spec.name
    assert smith == []


def test_whole_lattice_psi_minus_one_reduced_once_per_prime(monkeypatch, rng):
    # the freeness test and the class count read one det of the
    # whole-lattice psi_p - 1 per (spec, p); rst_decompose takes none
    dets = count_calls(monkeypatch, semicoh.groups, "det")
    smith = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    specs = [f.spec for f in fixture_suite() if f.valid and f.spec.m > 1]
    specs += [random_companion_spec(rng) for _ in range(5)]
    for i, spec in enumerate(specs):
        spec = validate(GroupSpec(spec.n, spec.m, spec.phi, name=f"unseen-{i}"))  # no memo hit
        dets.clear()
        for p in spec.primes:
            rst_decompose(spec, p)
        if free_outside_origin(spec).overall:
            max_finite_subgroup_census(spec)
        one = IntMatrix.identity(spec.n)
        assert [a for (a,) in dets] == [spec.psi(p) - one for p in spec.primes], spec
    assert smith == []


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
            if dict(report.per_prime)[p]:
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
            assert _chain_combination(powers, poly.coeffs) == IntMatrix.zeros(spec.n, spec.n), spec
            primes_m += 1
    assert primes_m >= 5


def _tampered_chain(j, delta):
    """A phi_powers whose entry j is off by ``delta``."""
    honest = phi_powers.__wrapped__

    def tampered(phi, m):
        powers = honest(phi, m)
        return powers[:j] + (powers[j] + delta,) + powers[j + 1:]

    return tampered


def smith_rst_reference(spec: GroupSpec, p: int) -> RstDecomposition:
    """Counts and block censuses at p from Smith forms, the census-and-rank reading's reference.

    On each isotypic sublattice ker(Phi_e(phi) * Phi_pe(phi)), e | m/p,
    with psi_e the restriction of psi: r_e and t_e are the numbers of
    invariant factors equal to p of N(psi_e) and of psi_e - 1 (each copy
    of Z gives one to N, each copy of I one to psi - 1, and Z[Z/p] none),
    and s_e is what the dimension leaves.
    """
    m = spec.m
    psi = spec.phi ** (m // p)
    r = s = t = 0
    r_mults: dict[int, int] = {}
    t_mults: dict[int, int] = {}
    for e in divisors(m // p):
        piece = cyclotomic_polynomial(e) * cyclotomic_polynomial(p * e)
        u = kernel_basis(poly_at(piece, spec.phi))
        if not u.cols:
            continue
        psi_e = solve_columns(u, psi @ u)
        norm_factors = invariant_factors(norm_and_power(psi_e, p)[0])
        minus_factors = invariant_factors(psi_e - IntMatrix.identity(u.cols))
        assert set(norm_factors + minus_factors) <= {1, p}, (spec, p, e)
        assert len(norm_factors) + len(minus_factors) == u.cols, (spec, p, e)
        r_e, t_e = norm_factors.count(p), minus_factors.count(p)
        s_e, rest = divmod(u.cols - r_e - (p - 1) * t_e, p)
        phi_e = euler_phi(e)
        assert rest == 0 and s_e >= 0, (spec, p, e)
        assert not (r_e % phi_e or s_e % phi_e or t_e % phi_e), (spec, p, e)
        r_mults[e], t_mults[p * e] = r_e // phi_e, t_e // phi_e
        r, s, t = r + r_e, s + s_e, t + t_e
    return RstDecomposition(
        p, r, s, t, CyclotomicCensus.of(m, r_mults), CyclotomicCensus.of(m, t_mults)
    )


def test_rst_decompose_equals_the_smith_counts_on_the_fixtures():
    # the census-and-rank reading against the Smith-form counts and block
    # censuses
    specs = [f.spec for f in fixture_suite() if f.valid] + [CYCLE_PLUS_TRIVIAL]
    for spec in specs:
        for p in spec.primes:
            assert rst_decompose(spec, p) == smith_rst_reference(spec, p), (spec.name, p)
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
            assert rst == smith_rst_reference(spec, p), (spec, p)
            pairs += 1
            regular[spec.m] += rst.s > 0
    assert pairs >= 400 and sum(regular.values()) >= 100, (pairs, regular)
    assert all(regular[m] for m in (7, 14, 21)), regular


def test_ranks_path_runs_no_smith_form(monkeypatch, rng):
    # rank_column, molien_column, both formula tables and rst/isotropy at
    # every prime read counts off phi's census and ranks mod p only
    specs = [f.spec for f in fixture_suite() if f.valid] + [CYCLE_PLUS_TRIVIAL]
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(10)]  # conjugated by Smith
    calls = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
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
    assert rst_decompose(spec, 2) == smith_rst_reference(spec, 2)
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
