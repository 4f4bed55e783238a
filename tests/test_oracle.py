"""The Smith-form evaluator: cyclic layers and assembled tables."""

import sys
from math import comb

import pytest

import semicoh.intmat
import semicoh.oracle
from semicoh.abelian import AbelianGroup
from semicoh.cyclotomic import (
    count_wedge_roots,
    divisors,
    euler_phi,
    exponent_multiset,
    matrix_census,
)
from semicoh.engines import molien_column, rank_column
from semicoh.errors import BadInvariantFactors, DimensionTooLarge, NotADivisor
from semicoh.fixtures import companion_of_cyclotomic, fixture_by_name, fixture_suite
from semicoh.groups import GroupSpec, rst_decompose
from semicoh.intmat import (
    IntMatrix,
    block_diagonal,
    contragredient,
    kernel_basis,
    lattice_quotient,
    wedge_power,
)
from semicoh.oracle import CyclicRep, cyclic_cohomology, e2_table, subgroup_oracle
from semicoh.tables import p_part

from conftest import (
    CYCLE_PLUS_TRIVIAL,
    count_calls,
    cycle_matrix,
    random_companion_spec,
    random_permutation_spec,
    random_unimodular,
)


def G(rank, *torsion):
    return AbelianGroup.from_factors(rank, torsion)


def test_cyclic_cohomology_augmentation_ideal():
    for p in (2, 3, 5):
        rep = CyclicRep(p, companion_of_cyclotomic(p))
        assert cyclic_cohomology(rep, 1) == G(0, p)
        assert cyclic_cohomology(rep, 2) == G(0)
        assert cyclic_cohomology(rep, 0) == G(0)


def test_cyclic_cohomology_trivial_module():
    for q in (2, 3, 6, 10):
        rep = CyclicRep(q, IntMatrix.identity(1))
        assert cyclic_cohomology(rep, 0) == G(1)
        assert cyclic_cohomology(rep, 1) == G(0)
        assert cyclic_cohomology(rep, 2) == G(0, q)
        assert cyclic_cohomology(rep, 4) == G(0, q)


def test_cyclic_cohomology_sign_module():
    rep = CyclicRep(2, IntMatrix([[-1]]))
    assert cyclic_cohomology(rep, 2) == G(0)
    assert cyclic_cohomology(rep, 1) == G(0, 2)


def test_cyclic_cohomology_guard_refuses_factor_not_dividing_q():
    # [[4]] does not have order 2; bypass the CyclicRep check to reach the
    # guard: psi - 1 = [[3]] has the invariant factor 3, which cannot divide 2
    rep = object.__new__(CyclicRep)
    object.__setattr__(rep, "q", 2)
    object.__setattr__(rep, "matrix", IntMatrix([[4]]))
    with pytest.raises(BadInvariantFactors):
        cyclic_cohomology(rep, 1)


def _quotient_reference(rep, alpha):
    """The periodic complex as literal kernel/image lattice quotients."""
    psi = rep.matrix
    one = IntMatrix.identity(psi.rows)
    if alpha == 0:
        return G(kernel_basis(psi - one).cols)
    norm = IntMatrix.zeros(psi.rows, psi.rows)
    for k in range(rep.q):
        norm = norm + psi**k
    if alpha % 2:
        return lattice_quotient(kernel_basis(norm), psi - one)
    return lattice_quotient(kernel_basis(psi - one), norm)


def _check_layers_and_ranks(spec):
    """Every layer against the quotient reference; the three rank columns agree."""
    phi_star = contragredient(spec.phi)
    for gamma in range(spec.n + 1):
        rep = CyclicRep(spec.m, wedge_power(phi_star, gamma))
        for alpha in (0, 1, 2):
            assert cyclic_cohomology(rep, alpha) == _quotient_reference(rep, alpha)
    top = spec.n + 3
    oracle_ranks = e2_table(spec, top).rank_column()
    assert rank_column(spec, top) == molien_column(spec, top) == oracle_ranks


def test_cyclic_cohomology_matches_quotient_reference(rng):
    for _ in range(40):
        spec = random_companion_spec(rng, n_max=6, orders=(2, 3, 5, 6, 10, 15, 30))
        conj = random_unimodular(rng, spec.n)
        spec = GroupSpec(spec.n, spec.m, conj @ spec.phi @ contragredient(conj).transpose())
        _check_layers_and_ranks(spec)


def test_cyclic_cohomology_matches_quotient_reference_with_regular_blocks(rng):
    # companion sums never have a regular Z[Z/p] summand (s = 0); cyclic
    # permutation blocks supply one
    regular_pairs = 0
    for _ in range(60):
        spec = random_permutation_spec(rng, n_max=7)
        _check_layers_and_ranks(spec)
        regular_pairs += sum(1 for p in spec.primes if rst_decompose(spec, p).s > 0)
    assert regular_pairs >= 20


def test_trivial_plus_regular_block_pinned():
    # phi = (3-cycle) + 1: Z + Z[Z/3].  wedge^g(Z + R) = wedge^g R + wedge^(g-1) R
    # has a trivial summand at g = 0, 1, 3, 4, each adding Z/3 in every
    # even alpha >= 2, so H^5 gets (Z/3)^2 (g = 1, 3) and H^6 too (g = 0, 4)
    spec = CYCLE_PLUS_TRIVIAL
    rst = rst_decompose(spec, 3)
    assert (rst.r, rst.s, rst.t) == (1, 1, 0)
    column = p_part(e2_table(spec, 8), 3)
    assert (column[5], column[6]) == (2, 2)


def _page_p_part(blocks, m, p, top, sign=1):
    """p-part per degree 0..top of the direct-sum E2 page of block_diagonal(blocks).

    ``sign=-1`` negates every layer's action (m even).  An empty block list
    is the rank-0 lattice, whose one layer is wedge^0 = Z.
    """
    if blocks:
        phi_star = contragredient(block_diagonal(blocks))
        wedges = [wedge_power(phi_star, g) for g in range(phi_star.rows + 1)]
    else:
        wedges = [IntMatrix.identity(1)]
    layers = []  # (odd alpha, even alpha > 0) p-multiplicities per layer
    for wedge in wedges:
        rep = CyclicRep(m, IntMatrix.scalar(wedge.rows, sign) @ wedge)
        layers.append([cyclic_cohomology(rep, a).p_multiplicity(p) for a in (1, 2)])
    return [
        sum(layers[g][(l - g + 1) % 2] for g in range(min(l, len(layers))))
        for l in range(top + 1)
    ]


def _companion_sum(rng, m, rank):
    """Cyclotomic companion blocks Phi_e, e | m, of total size ``rank``."""
    blocks = []
    while sum(b.rows for b in blocks) < rank:
        room = rank - sum(b.rows for b in blocks)
        blocks.append(companion_of_cyclotomic(
            rng.choice([e for e in divisors(m) if euler_phi(e) <= room])))
    return blocks


def test_regular_blocks_shift_the_p_part(rng):
    # M = M' + R^s with R a p-cycle block (Z[Z/p] under psi): wedge^b(R^s) is
    # trivial of rank [x^b](1 + x^p)^s plus a Z/p-free summand, so
    #     theta_M(l) = sum_j C(s, j) theta_M'^(j)(l - j*p),
    # where theta^(j) is the page of M' with every layer action negated when
    # p = 2 and j is odd (the sign action on wedge^2 of a 2-cycle).  A second
    # check of the oracle at s > 0 that does not use the quotient reference.
    cases = [(m, p, s) for m in (2, 3, 5, 6, 10, 15, 30) for p in (2, 3, 5)
             for s in (1, 2) if m % p == 0 and s * p <= 7]
    twisted = 0
    for m, p, s in cases * 3:
        rest = _companion_sum(rng, m, rng.randint(0, 7 - s * p))  # M', rank <= 7 - sp
        blocks = rest + [cycle_matrix(p)] * s
        n = sum(b.rows for b in blocks)
        conj = random_unimodular(rng, n)
        spec = GroupSpec(n, m, conj @ block_diagonal(blocks) @ contragredient(conj).transpose())
        assert rst_decompose(spec, p).s == s
        top = n + 3
        pages = [_page_p_part(rest, m, p, top, sign)
                 for sign in ((1, -1) if p == 2 else (1,))]
        expected = [
            sum(comb(s, j) * pages[j % len(pages)][l - j * p]
                for j in range(s + 1) if l >= j * p)
            for l in range(top + 1)
        ]
        assert list(p_part(e2_table(spec, top), p)) == expected, (m, p, s, rest)
        twisted += p == 2 and bool(rest)
    assert twisted >= 5


def test_e2_table_reduces_each_layer_matrix_once(monkeypatch):
    # per layer: psi - 1 once (alpha 0 and odd alpha) and N once (even
    # alpha); plus one reduction for the contragredient
    calls = count_calls(monkeypatch, semicoh.intmat, "_smith_engine")
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        calls.clear()
        e2_table(spec, spec.n + 3)
        assert len(calls) == 2 * (spec.n + 1) + 1, fixture.name


def test_e2_table_builds_each_layer_power_chain_once(monkeypatch):
    # psi^1..psi^q come from one norm_and_power chain per layer, which
    # yields both N and the psi^q = 1 check; the oracle takes no other power
    chains = count_calls(monkeypatch, semicoh.oracle, "norm_and_power")
    oracle_powers = []
    original_pow = IntMatrix.__pow__

    def pow_counted(self, k):
        if sys._getframe(1).f_globals["__name__"] == "semicoh.oracle":
            oracle_powers.append(k)
        return original_pow(self, k)

    monkeypatch.setattr(IntMatrix, "__pow__", pow_counted)
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        chains.clear()
        e2_table(spec, spec.n + 3)
        assert len(chains) == spec.n + 1, fixture.name
        assert oracle_powers == [], fixture.name


def test_e2_dinfty():
    table = e2_table(fixture_by_name("dinfty").spec, 7)
    assert [str(g) for g in table.groups] == [
        "Z", "0", "(Z/2)^2", "0", "(Z/2)^2", "0", "(Z/2)^2", "0",
    ]
    assert table.stable_from == 2


def test_e2_p3():
    table = e2_table(fixture_by_name("p3").spec, 6)
    assert table.groups[1] == G(0)
    assert table.groups[2] == G(1, 3, 3)
    assert table.groups[4] == G(0, 3, 3, 3)
    assert table.groups[6] == G(0, 3, 3, 3)


def test_e2_identity_product():
    table = e2_table(fixture_by_name("id_n2_m3").spec, 5)
    assert table.groups[2] == G(1, 3)
    # Kunneth for the direct product: torsion rank C(2, l - l2) summed over
    # even l2 >= 2
    assert table.groups[3] == G(0, 3, 3)
    assert table.groups[4] == G(0, 3, 3)


def test_e2_flagship_ranks_and_table():
    spec = fixture_by_name("z5_z6").spec
    table = e2_table(spec, 12)
    assert table.rank_column() == (1, 1, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert p_part(table, 2) == (0, 0, 2, 1, 4, 3, 4, 4, 4, 4, 4, 4, 4)
    assert p_part(table, 3) == (0, 0, 2, 2, 5, 5, 6, 6, 6, 6, 6, 6, 6)


def test_e2_rank_three_way_agreement():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        table = e2_table(spec, spec.n + 3)
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        from semicoh.cyclotomic import molien_rank

        for l in range(spec.n + 4):
            expected = count_wedge_roots(x, l, spec.m)
            assert table.groups[l].rank == expected
            assert molien_rank(spec.phi, spec.m, l) == expected


def test_e2_torsion_square_free_divides_m(rng):
    for _ in range(10):
        spec = random_companion_spec(rng, n_max=5)
        table = e2_table(spec, spec.n + 3)
        for g in table.groups:
            for f in g.torsion:
                assert spec.m % f == 0


def test_e2_two_periodicity_above_n(rng):
    for _ in range(10):
        spec = random_companion_spec(rng, n_max=5)
        table = e2_table(spec, spec.n + 4)
        for l in range(spec.n + 1, spec.n + 3):
            assert table.groups[l] == table.groups[l + 2]


def test_subgroup_oracle_flagship():
    spec = fixture_by_name("z5_z6").spec
    sub2 = subgroup_oracle(spec, 2, 4)
    assert sub2.groups[2].p_multiplicity(2) == 2
    sub1 = subgroup_oracle(spec, 1, 6)
    assert sub1.rank_column() == (1, 5, 10, 10, 5, 1, 0)
    # hand Kunneth: Z^5 x| Z/3 = Z^3 x (Z^2 x| Z/3)
    sub3 = subgroup_oracle(spec, 3, 4)
    assert sub3.groups[1] == G(3)
    assert sub3.groups[2].rank == 4
    assert sub3.groups[2].p_multiplicity(3) == 2
    with pytest.raises(NotADivisor):
        subgroup_oracle(spec, 4, 4)


def test_localization_bound():
    spec = fixture_by_name("z5_z6").spec
    full = e2_table(spec, 9)
    for p in spec.primes:
        sub = subgroup_oracle(spec, p, 9)
        for a, b in zip(p_part(full, p), p_part(sub, p)):
            assert a <= b


def test_free_origin_stable_theta_is_class_count():
    for name in ("dinfty", "p3", "phi5", "p6"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            k = spec.n // (p - 1)
            sub = subgroup_oracle(spec, p, spec.n + 4)
            col = p_part(sub, p)
            for l in range(spec.n + 1, spec.n + 5):
                if l % 2 == 0:
                    assert col[l] == p**k


def test_dimension_limit():
    big = IntMatrix.identity(25)
    with pytest.raises(DimensionTooLarge):
        e2_table(GroupSpec(25, 2, big), 3)


def test_degree_zero_is_z(rng):
    for _ in range(5):
        spec = random_companion_spec(rng, n_max=4)
        table = e2_table(spec, 2)
        assert table.groups[0] == G(1)
