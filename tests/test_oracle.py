"""The rank-mod-p evaluator: cyclic layers and assembled tables."""

import ast
import sys
from collections import Counter
from math import comb, gcd
from pathlib import Path

import numpy as np
import pytest

import semicoh.intmat
import semicoh.layers
import semicoh.oracle
from semicoh.abelian import AbelianGroup
from semicoh.cyclotomic import (
    count_wedge_roots,
    divisors,
    euler_phi,
    exponent_multiset,
    matrix_census,
)
from semicoh.engines import formula_table, molien_column, rank_column
from semicoh.errors import (
    BadInvariantFactors,
    DimensionTooLarge,
    InternalInvariantError,
    NonIntegralOrbitCount,
    NotSquareFree,
)
from semicoh.fixtures import companion_of_cyclotomic, fixture_by_name, fixture_suite
from semicoh.groups import GroupSpec, rst_decompose
from semicoh.intmat import (
    IntMatrix,
    contragredient,
    det,
    norm_and_power,
    wedge_power,
)
from semicoh.layers import exterior_powers
from semicoh.oracle import CyclicRep, cyclic_cohomology, e2_table
from semicoh.torsion import VARIANTS

from conftest import (
    CYCLE_PLUS_TRIVIAL,
    block_diagonal,
    count_calls,
    cycle_matrix,
    cyclic_sum,
    random_companion_spec,
    random_permutation_spec,
    random_unimodular,
    scalar_matrix,
)
from smith_support import invariant_factors, kernel_basis, lattice_quotient


def G(rank, *torsion):
    return cyclic_sum(rank, torsion)


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
    norm, power = IntMatrix.zeros(psi.rows, psi.rows), one
    for _ in range(rep.q):  # norm = psi^0 + ... + psi^(q-1), by a running product
        norm, power = norm + power, power @ psi
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
    column = [g.p_multiplicity(3) for g in e2_table(spec, 8).groups]
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
        rep = CyclicRep(m, scalar_matrix(wedge.rows, sign) @ wedge)
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
        column = [g.p_multiplicity(p) for g in e2_table(spec, top).groups]
        assert column == expected, (m, p, s, rest)
        twisted += p == 2 and bool(rest)
    assert twisted >= 5


def _smith_cyclic_reference(psi, q, alpha):
    """One layer read off integer Smith forms: the reference for the rank-mod-p reading."""
    minus_one = invariant_factors(psi - IntMatrix.identity(psi.rows))
    if alpha == 0:
        return G(psi.rows - len(minus_one))
    if alpha % 2:
        return G(0, *minus_one)
    norm = norm_and_power(psi, q)[0]
    return G(0, *invariant_factors(norm))


def _assembled(layers, top):
    """H^0..H^top of the direct-sum E2 page from each layer's (H^0, H^1, H^2)."""
    n = len(layers) - 1
    return [
        AbelianGroup.direct_sum(*(
            layers[g][0 if l == g else 2 - (l - g) % 2] for g in range(min(l, n) + 1)
        ))
        for l in range(top + 1)
    ]


def _smith_table_reference(spec, top):
    phi_star = contragredient(spec.phi)
    return _assembled([
        [_smith_cyclic_reference(wedge_power(phi_star, g), spec.m, a) for a in (0, 1, 2)]
        for g in range(spec.n + 1)
    ], top)


def _reference_specs(rng):
    """Valid fixtures, 12 dense companion conjugates (m = 6, 10, 15), 12 permutation specs."""
    specs = [fixture.spec for fixture in fixture_suite() if fixture.valid]
    for m in (6, 10, 15):
        for _ in range(4):
            spec = random_companion_spec(rng, n_max=8, orders=(m,))
            conj = random_unimodular(rng, spec.n)
            specs.append(GroupSpec(spec.n, m, conj @ spec.phi @ contragredient(conj).transpose()))
    return specs + [random_permutation_spec(rng, n_max=8) for _ in range(12)]


def test_e2_table_matches_the_smith_reference(rng):
    for spec in _reference_specs(rng):
        top = spec.n + 3
        assert list(e2_table(spec, top).groups) == _smith_table_reference(spec, top), spec


def test_e2_table_on_python_int_layers_matches_the_smith_reference(monkeypatch):
    # a rank-6 conjugate with 95-bit entries: its layers are arrays, and
    # layers 1..6 hold Python ints
    k = 1 << 31
    p = _shear(6, 0, 1, k) @ _shear(6, 2, 0, k) @ _shear(6, 3, 2, k)
    swap = IntMatrix([[0, 1], [1, 0]])
    s = block_diagonal([swap, IntMatrix([[-1]]), IntMatrix.identity(1), swap])
    spec = GroupSpec(6, 2, p @ s @ contragredient(p).transpose())
    assert spec.n >= semicoh.intmat._NUMPY_MIN_DIM
    chains = count_calls(monkeypatch, semicoh.layers, "norm_trace_chain")
    assert list(e2_table(spec, 9).groups) == _smith_table_reference(spec, 9)
    assert [a.dtype == object for a, _ in chains] == [False] + [True] * 6


def _shear(n, i, j, k):
    """The identity of rank n with k added at (i, j)."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][j] = k
    return IntMatrix(rows)


def _wide_specs(rng):
    """Dense conjugates of rank 6 and 7, whose oracle layers are numpy arrays."""
    layouts = ((15, (5, 3)), (10, (10, 2, 1)), (6, (6, 2, 3, 1, 1)))
    specs = []
    for m, orders in layouts:
        phi = block_diagonal([companion_of_cyclotomic(e) for e in orders])
        conj = random_unimodular(rng, phi.rows)
        specs.append(GroupSpec(phi.rows, m, conj @ phi @ contragredient(conj).transpose()))
    return specs


def test_exterior_powers_match_wedge_power(rng):
    for spec in _reference_specs(rng):
        phi_star = contragredient(spec.phi)
        layers = list(exterior_powers(phi_star))
        assert len(layers) == spec.n + 1
        for gamma, layer in enumerate(layers):
            assert layer.tolist() == [list(row) for row in wedge_power(phi_star, gamma).data]


def _computed_layers(spec):
    """Layers e2_table evaluates: gamma <= n/2 when det phi = 1 (the rest by duality), else all."""
    return spec.n // 2 + 1 if det(spec.phi) == 1 else spec.n + 1


def test_e2_table_reduces_each_layer_matrix_once(monkeypatch):
    # no Smith reduction at all: phi* is the power (phi^(m-1))^T; per
    # computed layer, only N is eliminated, once mod every prime of m,
    # shared by odd and even degrees; the certificate prime gets one
    # product check of N and no elimination
    smith = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    ranks = count_calls(monkeypatch, semicoh.oracle, "_rank_mod_p")
    certificates = count_calls(monkeypatch, semicoh.oracle, "certifies_rank")
    reps = []
    original_init = CyclicRep.__post_init__

    def init_recorded(self):
        original_init(self)
        reps.append(self)

    monkeypatch.setattr(CyclicRep, "__post_init__", init_recorded)
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        smith.clear()
        ranks.clear()
        certificates.clear()
        reps.clear()
        e2_table(spec, spec.n + 3)
        assert smith == [], fixture.name
        assert len(reps) == _computed_layers(spec), fixture.name
        norms = [id(rep.norm) for rep in reps]
        assert sorted((id(a), p) for a, p in ranks) == sorted(
            (norm, p) for norm in norms for p in spec.primes
        ), fixture.name
        ell = semicoh.oracle._certificate_prime(spec.m)
        assert sorted((id(a), q, p) for a, _, q, p in certificates) == sorted(
            (norm, spec.m, ell) for norm in norms
        ), fixture.name


def test_e2_table_builds_each_layer_power_chain_once(monkeypatch, rng):
    # psi^1..psi^q come from one chain per computed layer, which yields N,
    # the traces of psi^0..psi^(q-1) and the psi^q = 1 check:
    # norm_and_power on the pure-Python layers of n < _NUMPY_MIN_DIM (every
    # fixture), norm_trace_chain on the array layers of the wider
    # conjugates; the only other power is phi^(m-1), whose transpose is the
    # dual action, and no psi - 1 is built
    narrow = count_calls(monkeypatch, semicoh.oracle, "norm_and_power")
    wide = count_calls(monkeypatch, semicoh.layers, "norm_trace_chain")
    oracle_ops = []
    for op in ("__pow__", "__sub__"):
        def counted(self, other, op=op, original=getattr(IntMatrix, op)):
            if sys._getframe(1).f_globals["__name__"] == "semicoh.oracle":
                oracle_ops.append((op, self, other))
            return original(self, other)

        monkeypatch.setattr(IntMatrix, op, counted)
    specs = [fixture.spec for fixture in fixture_suite() if fixture.valid] + _wide_specs(rng)
    wide_layers = 0
    for spec in specs:
        narrow.clear()
        wide.clear()
        oracle_ops.clear()
        e2_table(spec, spec.n + 3)
        in_python = spec.n < semicoh.intmat._NUMPY_MIN_DIM
        assert len(narrow if in_python else wide) == _computed_layers(spec), spec
        assert len(wide if in_python else narrow) == 0, spec
        assert oracle_ops == [("__pow__", spec.phi, spec.m - 1)], spec
        wide_layers += len(wide)
    # every wide conjugate took the array branch; the (5, 3) one has det 1
    assert [det(spec.phi) for spec in specs[-3:]] == [1, -1, -1]
    assert wide_layers == 4 + 7 + 8, wide_layers


def _every_layer(spec):
    """(H^0, H^1, H^2) of each layer wedge^gamma phi*, gamma = 0..n, every one built and evaluated."""
    phi_star = contragredient(spec.phi)
    if spec.n < semicoh.intmat._NUMPY_MIN_DIM:
        wedges = [wedge_power(phi_star, gamma) for gamma in range(spec.n + 1)]
    else:
        wedges = list(exterior_powers(phi_star))
    return [tuple(cyclic_cohomology(CyclicRep(spec.m, w), a) for a in (0, 1, 2)) for w in wedges]


def test_dual_layers_have_the_same_cohomology_when_det_is_one(rng):
    # the wedge pairing makes layer n - gamma the Z-dual of layer gamma
    # twisted by det phi; for Z/m, Tate duality and 2-periodicity give a
    # lattice and its dual the same groups, which e2_table relies on to
    # skip the upper layers when det phi = 1.  With det phi = -1 the twist
    # shows: layer 0 is Z, layer n is Z_det, whose H^0 is 0.  Checked on
    # layers built directly, then e2_table against the all-layer assembly,
    # here and on one dense conjugate per oracle-dense size (n, m)
    specs = [fixture.spec for fixture in fixture_suite() if fixture.valid]
    specs += [random_companion_spec(rng, n_max=8) for _ in range(100)]
    specs += [random_permutation_spec(rng, n_max=8, orders=(2, 3, 6, 10)) for _ in range(100)]
    for n, m in ((8, 6), (9, 6), (8, 10), (9, 10), (8, 15), (9, 15)):
        phi, conj = block_diagonal(_companion_sum(rng, m, n)), random_unimodular(rng, n)
        specs.append(GroupSpec(n, m, conj @ phi @ contragredient(conj).transpose()))
    signs, regular = Counter(), 0
    for spec in specs:
        layers, sign = _every_layer(spec), det(spec.phi)
        signs[sign] += 1
        if sign == 1:
            assert layers == layers[::-1], spec
        else:
            assert layers[0] != layers[-1], spec
        top = spec.n + 3
        assert list(e2_table(spec, top).groups) == _assembled(layers, top), spec
        regular += any(rst_decompose(spec, p).s for p in spec.primes)
    assert signs[1] >= 100 and signs[-1] >= 40 and regular >= 40, (signs, regular)


def test_oracle_imports_no_closed_form_machinery():
    # the oracle inverts phi by a power of phi itself: it imports nothing
    # from the census, Molien or torsion modules, and from groups only the
    # spec, its validation and the factoring of q into primes
    tree = ast.parse(Path(semicoh.oracle.__file__).read_text(encoding="utf-8"))
    imported = {
        node.module: {alias.name for alias in node.names}
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert set(imported) == {"abelian", "errors", "groups", "intmat", "tables", None}
    assert imported[None] == {"layers"}
    assert imported["groups"] == {"GroupSpec", "_factorint", "validate"}


def test_certificate_rank_mismatch_is_an_internal_error(monkeypatch):
    # N^2 = qN and tr N = q dim Fix psi are theorems once psi^q = 1, and
    # they prove rk_l(N) = tr(N)/q, so one corrupted entry of N must surface
    # as an internal invariant failure naming l: entry (0, 0) of every layer
    # through the trace, entry (0, d - 1) of every layer wider than 1
    # through the square; z5_z6 plus a trivial summand (rank 6) has array
    # layers, z5_z6 and p3 pure-Python ones
    ell = semicoh.oracle._certificate_prime(6)
    assert ell == semicoh.oracle._certificate_prime(3) == 1048573
    z5_z6 = fixture_by_name("z5_z6").spec
    z6_z6 = GroupSpec(6, 6, block_diagonal([z5_z6.phi, IntMatrix.identity(1)]))
    assert z6_z6.n == semicoh.intmat._NUMPY_MIN_DIM
    for off_diagonal in (False, True):
        def corrupt(norm, off_diagonal=off_diagonal):
            array = isinstance(norm, np.ndarray)
            rows = norm.tolist() if array else [list(row) for row in norm.data]
            if not off_diagonal or len(rows) > 1:
                rows[0][-1 if off_diagonal else 0] += 1
            return np.array(rows, dtype=norm.dtype) if array else IntMatrix(rows)

        for module, name in ((semicoh.oracle, "norm_and_power"), (semicoh.layers, "norm_trace_chain")):
            def chain(a, q, original=getattr(module, name)):
                norm, traces, is_one = original(a, q)
                return corrupt(norm), traces, is_one

            monkeypatch.setattr(module, name, chain)
        for spec in (z6_z6, z5_z6, fixture_by_name("p3").spec):
            with pytest.raises(InternalInvariantError, match=f"mod {ell}"):
                e2_table(spec, spec.n + 3)
        monkeypatch.undo()


def test_certificate_product_stays_exact_in_float64():
    # layers.certifies_rank squares N mod l in one float64 product of width
    # up to _MAX_LAYER_DIM: each entry sums that many terms below (l - 1)^2,
    # exact only below 2**53; q = 1048573 is itself the default l
    cap = semicoh.oracle._MAX_LAYER_DIM
    for q in (1, 2, 6, 30030, 1048573):
        ell = semicoh.oracle._certificate_prime(q)
        assert q % ell and ell > cap, q
        assert cap * (ell - 1) ** 2 < 1 << 53, q


@pytest.mark.parametrize("q, dim, traces, match", [
    # q = 6, Z: tr N = 6 still, but f_2 = 2 * (1 + 2 + 1) / 6 is not an integer
    (6, 1, [1, 0, 2, 1, 1, 1], "Fix psi\\^2"),
    # q = 3, Z: f = 1, f_3 = 2, Herbrand shift (3 - 2) / 2 is not an integer
    (3, 1, [2, 1, 0], "shift 0.5"),
    # q = 2, Z: f = 1, even 1, f_2 = 0, shift 2 leaves odd = -1; then the
    # array path on Z^4 with f = 4, f_2 = 3
    (2, 1, [0, 2], "even rank 1"),
    (2, 4, [3, 5], "even rank 4"),
])
def test_tampered_chain_traces_are_an_internal_error(monkeypatch, q, dim, traces, match):
    # f_p = dim Fix psi^p and the Herbrand shift (p f - f_p)/(p - 1) are
    # integers, and the odd exponent is nonnegative, once psi^q = 1; traces
    # that break one of them must surface as an internal invariant failure
    for module, name in ((semicoh.oracle, "norm_and_power"), (semicoh.layers, "norm_trace_chain")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, order, f=original: (f(a, order)[0], traces, True))
    one = IntMatrix.identity(dim)
    rep = CyclicRep(q, one if dim < 4 else np.array(one.data))
    assert cyclic_cohomology(rep, 0) == G(sum(traces) // q)
    for alpha in (1, 2):
        with pytest.raises(BadInvariantFactors, match=match):
            cyclic_cohomology(rep, alpha)


def test_cyclic_rep_needs_a_square_free_order():
    # the p-parts are read off ranks mod p, which needs a square-free q
    with pytest.raises(NotSquareFree):
        CyclicRep(4, IntMatrix([[-1]]))


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
    assert [g.p_multiplicity(2) for g in table.groups] == [0, 0, 2, 1, 4, 3, 4, 4, 4, 4, 4, 4, 4]
    assert [g.p_multiplicity(3) for g in table.groups] == [0, 0, 2, 2, 5, 5, 6, 6, 6, 6, 6, 6, 6]


def test_e2_rank_three_way_agreement():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        table = e2_table(spec, spec.n + 3)
        x = exponent_multiset(matrix_census(spec.phi, spec.m))
        from semicoh.cyclotomic import molien_rank

        column = count_wedge_roots(x, spec.m) + (0,) * 3
        for l in range(spec.n + 4):
            expected = column[l]
            assert table.groups[l].rank == expected
            assert molien_rank(spec.phi, spec.m, l) == expected


def test_e2_torsion_square_free_divides_m(rng):
    for _ in range(10):
        spec = random_companion_spec(rng, n_max=5)
        table = e2_table(spec, spec.n + 3)
        for g in table.groups:
            for q, _ in g.primary:
                assert spec.m % q == 0


def test_e2_two_periodicity_above_n(rng):
    for _ in range(10):
        spec = random_companion_spec(rng, n_max=5)
        table = e2_table(spec, spec.n + 4)
        for l in range(spec.n + 1, spec.n + 3):
            assert table.groups[l] == table.groups[l + 2]


def subgroup(spec, q):
    """The sub-semidirect product Z^n x| Z/q, q | m, generated by phi^(m/q)."""
    return GroupSpec(spec.n, q, spec.phi ** (spec.m // q))


def test_subgroup_oracle_flagship():
    spec = fixture_by_name("z5_z6").spec
    sub2 = e2_table(subgroup(spec, 2), 4)
    assert sub2.groups[2].p_multiplicity(2) == 2
    sub1 = e2_table(subgroup(spec, 1), 6)
    assert sub1.rank_column() == (1, 5, 10, 10, 5, 1, 0)
    # hand Kunneth: Z^5 x| Z/3 = Z^3 x (Z^2 x| Z/3)
    sub3 = e2_table(subgroup(spec, 3), 4)
    assert sub3.groups[1] == G(3)
    assert sub3.groups[2].rank == 4
    assert sub3.groups[2].p_multiplicity(3) == 2


def test_localization_bound():
    spec = fixture_by_name("z5_z6").spec
    full = e2_table(spec, 9)
    for p in spec.primes:
        sub = e2_table(subgroup(spec, p), 9)
        for a, b in zip(full.groups, sub.groups):
            assert a.p_multiplicity(p) <= b.p_multiplicity(p)


def test_a_trivially_acting_coprime_factor_splits_off_by_kunneth(rng):
    # phi^q = 1 and m = q*k with k prime to q: Z/k acts trivially and is
    # central, so Z^n x| Z/m = Gamma x Z/k with Gamma = Z^n x| Z/q, and
    # Kunneth gives H^l = H^l(Gamma) + (Z/k)^a, where a sums rank H^i(Gamma)
    # over i <= l - 2 with i = l mod 2.  At m, phi's order properly divides
    # m, so e2_table's dual action (phi^(m-1))^T takes a power past that order
    cells = 0
    for _ in range(30):
        spec = random_permutation_spec(rng, n_max=5, orders=(2, 3, 5, 6))
        q, top = spec.m, spec.n + 4
        base = e2_table(spec, top)
        ranks = base.rank_column()
        for k in (5, 7):
            if q % k == 0:
                continue
            wide = GroupSpec(spec.n, q * k, spec.phi)
            table = e2_table(wide, top)
            for l in range(top + 1):
                a = sum(ranks[i] for i in range(l % 2, l - 1, 2))
                expected = AbelianGroup.direct_sum(base.groups[l], G(0, *[k] * a))
                assert table.groups[l] == expected, (spec, k, l)
                cells += 1
            assert rank_column(wide, top) == rank_column(spec, top), (spec, k)
    assert cells >= 400, cells


def test_a_trivial_summand_is_a_product_with_z(rng):
    # phi + (1) presents G x Z, and H^*(Z) is free: Z in degrees 0 and 1.
    # So Kunneth gives H^l(G x Z) = H^l(G) + H^(l-1)(G), and the free ranks
    # obey the same relation
    specs = [random_companion_spec(rng, n_max=6) for _ in range(40)]
    specs += [random_permutation_spec(rng, n_max=6) for _ in range(40)]
    cells = 0
    for spec in specs:
        top = spec.n + 4
        wide = GroupSpec(spec.n + 1, spec.m, block_diagonal([spec.phi, IntMatrix.identity(1)]))
        base, table = e2_table(spec, top), e2_table(wide, top)
        for l in range(top + 1):
            below = base.groups[l - 1] if l else AbelianGroup(0)
            assert table.groups[l] == AbelianGroup.direct_sum(base.groups[l], below), (spec, l)
            cells += 1
        for column in (rank_column, molien_column):
            ranks = column(spec, top)
            assert column(wide, top) == tuple(map(sum, zip(ranks, (0,) + ranks))), (spec, column)
    assert cells >= 600, cells


def _euler_characteristic(spec: GroupSpec) -> int:
    """(1/m) * sum over j < m of det(1 - phi^j), in exact integers."""
    one, power, total = IntMatrix.identity(spec.n), IntMatrix.identity(spec.n), 0
    for _ in range(spec.m):
        total += det(one - power)
        power = power @ spec.phi
    chi, remainder = divmod(total, spec.m)
    assert remainder == 0, spec
    return chi


def _alternating_sum(ranks) -> int:
    return sum((-1) ** l * rank for l, rank in enumerate(ranks))


def test_the_ranks_sum_to_the_euler_characteristic(rng):
    # rank H^l is the dimension of the invariants of wedge^l of the dual of
    # Q^n, which is the group average of tr wedge^l(phi^-jT); the alternating
    # sum over l of those traces is det(1 - phi^-jT), and j -> -j permutes
    # the group.  It needs no oracle, so it checks rank_column at any n
    specs = [fixture.spec for fixture in fixture_suite() if fixture.valid]
    specs += [random_companion_spec(rng, n_max=8) for _ in range(30)]
    specs += [random_permutation_spec(rng, n_max=8) for _ in range(30)]
    for spec in specs:
        columns = (rank_column(spec, spec.n), molien_column(spec, spec.n),
                   e2_table(spec, spec.n).rank_column())
        chi = _euler_characteristic(spec)
        assert [_alternating_sum(column) for column in columns] == [chi] * 3, spec
    # the chain-wall specs of m = 6, n = 24 and n = 72, past the oracle's cap
    for k, chi in ((4, 559_872), (12, 1_579_460_446_107_205_632)):
        blocks = [companion_of_cyclotomic(e) for e in (2, 2, 3, 3)] * k
        spec = GroupSpec(n=6 * k, m=6, phi=block_diagonal(blocks))
        assert _euler_characteristic(spec) == _alternating_sum(rank_column(spec, spec.n)) == chi


def test_a_generator_power_prime_to_m_gives_the_same_tables(rng):
    # phi and phi^k with gcd(k, m) = 1 generate one cyclic group of
    # automorphisms of Z^n, so both specs present the same group and every
    # engine must return the same tables; a null formula cell is compared
    # by its message
    def tables(spec, top):
        out = [rank_column(spec, top), molien_column(spec, top), e2_table(spec, top)]
        for variant in VARIANTS:
            try:
                out.append(formula_table(spec, top, variant))
            except NonIntegralOrbitCount as exc:
                out.append(str(exc))
        return out

    orders = (3, 5, 6, 10, 15, 30)
    specs = [random_companion_spec(rng, n_max=6, orders=orders) for _ in range(60)]
    specs += [random_permutation_spec(rng, n_max=6, orders=orders) for _ in range(60)]
    nulls = 0
    for spec in specs:
        k = rng.choice([k for k in range(2, spec.m) if gcd(k, spec.m) == 1])
        top = spec.n + 3
        expected = tables(spec, top)
        assert tables(GroupSpec(spec.n, spec.m, spec.phi ** k), top) == expected, (spec, k)
        nulls += any(isinstance(table, str) for table in expected)
    assert nulls >= 10, nulls


def test_free_origin_stable_theta_is_class_count():
    for name in ("dinfty", "p3", "phi5", "p6"):
        spec = fixture_by_name(name).spec
        for p in spec.primes:
            k = spec.n // (p - 1)
            sub = e2_table(subgroup(spec, p), spec.n + 4)
            for l in range(spec.n + 1, spec.n + 5):
                if l % 2 == 0:
                    assert sub.groups[l].p_multiplicity(p) == p**k


def test_dimension_limit():
    big = IntMatrix.identity(25)
    with pytest.raises(DimensionTooLarge):
        e2_table(GroupSpec(25, 2, big), 3)


def test_dimension_limit_refuses_before_any_layer(monkeypatch):
    # n = 15: the widest layer, C(15, 7) = 6435 rows, is over the cap
    built = count_calls(monkeypatch, semicoh.layers, "exterior_powers")
    wedges = count_calls(monkeypatch, semicoh.oracle, "wedge_power")
    with pytest.raises(DimensionTooLarge, match="3432"):
        e2_table(GroupSpec(15, 2, IntMatrix.identity(15)), 3)
    assert built == [] and wedges == []


def test_degree_zero_is_z(rng):
    for _ in range(5):
        spec = random_companion_spec(rng, n_max=4)
        table = e2_table(spec, 2)
        assert table.groups[0] == G(1)
