"""Exact linear algebra: Smith forms, kernels, quotients, wedges."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoh.abelian import AbelianGroup
from semicoh.errors import DegreeOutOfRange, NotASublattice, NotUnimodular
from semicoh.intmat import (
    IntMatrix,
    _smith_engine,
    charpoly,
    complete_to_unimodular,
    contragredient,
    det,
    invariant_factors,
    kernel_basis,
    lattice_quotient,
    norm_and_power,
    saturate_span,
    smith_normal_form,
    solve_columns,
    wedge_power,
)
from semicoh.intpoly import IntPolynomial

from conftest import random_int_matrix, random_unimodular


def check_snf(a: IntMatrix):
    s = smith_normal_form(a)
    assert s.u @ a @ s.v == s.d
    assert abs(det(s.u)) == 1
    assert abs(det(s.v)) == 1
    diag = s.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros trail the chain
    assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
    return s


def test_snf_already_diagonal():
    s = check_snf(IntMatrix([[2, 0], [0, 6]]))
    assert s.diagonal == (2, 6)


def test_snf_order_three_block():
    # the "difference of the order-3 action from the identity" matrix has
    # cokernel Z/3
    s = check_snf(IntMatrix([[-2, -1], [1, -1]]))
    assert s.diagonal == (1, 3)


def test_snf_random_6x6_verifies():
    rng = random.Random(7)
    for _ in range(10):
        check_snf(random_int_matrix(rng, 6, 6))
    for _ in range(3):
        check_snf(random_int_matrix(rng, 30, 30, bound=4))


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=60, deadline=None)
def test_snf_property(rows):
    check_snf(IntMatrix(rows))


def test_smith_engine_tracks_u_uinv_and_v_in_one_run():
    rng = random.Random(11)
    cases = [IntMatrix([[4, 0], [0, 6]]), IntMatrix([[6, 0, 0], [0, 10, 0], [0, 0, 4]])]
    cases += [random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for a in cases:
        eng = _smith_engine(a, need_u=True, need_uinv=True, need_v=True)
        d = IntMatrix([
            [eng.diagonal[i] if i == j else 0 for j in range(a.cols)] for i in range(a.rows)
        ])
        assert IntMatrix(eng.u) @ a @ IntMatrix(eng.v) == d
        assert (IntMatrix(eng.u) @ IntMatrix(eng.uinv)).is_identity()
        assert IntMatrix(eng.a) == d
    # diag(4, 6) is not a divisibility chain: _fix_chain turns it into (2, 12)
    assert _smith_engine(cases[0]).diagonal == (2, 12)


def test_kernel_of_zero_matrix():
    k = kernel_basis(IntMatrix.zeros(2, 2))
    assert k.cols == 2
    assert abs(det(k)) == 1  # a basis of all of Z^2


def test_kernel_of_row():
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.cols == 1
    (a,), (b,) = k.data[0], k.data[1]
    assert a + b == 0 and abs(a) == 1


def test_kernel_norm_matrix_flagship_p2():
    from semicoh.fixtures import FLAGSHIP_MATRIX

    psi = FLAGSHIP_MATRIX**3
    n = IntMatrix.identity(5) + psi
    k = kernel_basis(n)
    assert k.cols == 2
    assert (n @ k).is_zero()
    # purity: all invariant factors of the stacked kernel columns are 1
    assert all(f == 1 for f in invariant_factors(k))


def test_kernel_purity_random(rng):
    for _ in range(15):
        a = random_int_matrix(rng, 3, 5)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert k.cols == 5 - len(invariant_factors(a))
        assert all(f == 1 for f in invariant_factors(k))


def test_lattice_quotient_diagonal():
    group = lattice_quotient(IntMatrix.identity(2), IntMatrix([[2, 0], [0, 3]]))
    assert group == AbelianGroup.from_factors(0, [6])


def test_lattice_quotient_flagship_h1():
    from semicoh.fixtures import FLAGSHIP_MATRIX

    psi = FLAGSHIP_MATRIX**3
    one = IntMatrix.identity(5)
    group = lattice_quotient(kernel_basis(one + psi), psi - one)
    assert group == AbelianGroup.from_factors(0, [2])  # (Z/2)^t with t = 1


def test_lattice_quotient_order3():
    group = lattice_quotient(IntMatrix.identity(2), IntMatrix([[-2, -1], [1, -1]]))
    assert group == AbelianGroup.from_factors(0, [3])


def test_lattice_quotient_order_equals_det(rng):
    for _ in range(10):
        w = random_int_matrix(rng, 3, 3)
        d = det(w)
        if d == 0:
            continue
        group = lattice_quotient(IntMatrix.identity(3), w)
        assert group.rank == 0
        assert group.torsion_order() == abs(d)


def test_lattice_quotient_membership_error():
    with pytest.raises(NotASublattice):
        lattice_quotient(IntMatrix([[2], [0]]), IntMatrix([[1], [0]]))


def test_charpoly_examples():
    assert charpoly(IntMatrix([[0, -1], [1, -1]])) == IntPolynomial.of(1, 1, 1)
    assert charpoly(IntMatrix.identity(3)) == IntPolynomial.of(-1, 3, -3, 1)


def test_charpoly_flagship():
    from semicoh.fixtures import FLAGSHIP_MATRIX

    expected = (
        IntPolynomial.of(1, 1)
        * IntPolynomial.of(-1, 0, 1)
        * IntPolynomial.of(1, 1, 1)
    )
    assert charpoly(FLAGSHIP_MATRIX) == expected


def _charpoly_cofactor(a: IntMatrix) -> IntPolynomial:
    """Independent oracle: expand det(xI - a) by cofactors over Z[x]."""
    n = a.rows
    entries = [
        [
            IntPolynomial.of(-a.data[i][j], 1) if i == j else IntPolynomial.of(-a.data[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def expand(rows, cols):
        if not rows:
            return IntPolynomial.of(1)
        i = rows[0]
        total = IntPolynomial.of(0)
        for pos, j in enumerate(cols):
            minor = expand(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = entries[i][j] * minor
            if pos % 2:
                term = IntPolynomial.of(*(-c for c in term.coeffs))
            total = IntPolynomial.of(
                *(
                    x + y
                    for x, y in zip(
                        list(total.coeffs) + [0] * max(0, len(term.coeffs) - len(total.coeffs)),
                        list(term.coeffs) + [0] * max(0, len(total.coeffs) - len(term.coeffs)),
                    )
                )
            )
        return total

    return expand(list(range(n)), list(range(n)))


def test_charpoly_against_cofactor_oracle(rng):
    for _ in range(12):
        a = random_int_matrix(rng, 4, 4, bound=3)
        assert charpoly(a) == _charpoly_cofactor(a)


def test_wedge_trivial_degrees():
    a = IntMatrix([[1, 2], [3, 4]])
    assert wedge_power(a, 0) == IntMatrix.identity(1)
    assert wedge_power(a, 2) == IntMatrix([[det(a)]])
    with pytest.raises(DegreeOutOfRange):
        wedge_power(a, 3)


def test_wedge_functoriality(rng):
    for _ in range(4):
        a = random_unimodular(rng, 5)
        b = random_unimodular(rng, 5)
        for gamma in range(4):
            assert wedge_power(a @ b, gamma) == wedge_power(a, gamma) @ wedge_power(b, gamma)


def test_wedge_trace_is_charpoly_coefficient(rng):
    for _ in range(6):
        a = random_int_matrix(rng, 5, 5, bound=3)
        poly = charpoly(a)
        for gamma in range(6):
            coeff = poly.coeffs[5 - gamma] if 5 - gamma < len(poly.coeffs) else 0
            assert wedge_power(a, gamma).trace() == (-1) ** gamma * coeff


def test_wedge_flagship_second_elementary_symmetric():
    from semicoh.fixtures import FLAGSHIP_MATRIX

    w = wedge_power(FLAGSHIP_MATRIX, 2)
    assert w.rows == w.cols == 10
    poly = charpoly(FLAGSHIP_MATRIX)
    assert w.trace() == poly.coeffs[3]  # (-1)^2 * coefficient of x^3


def test_contragredient():
    assert contragredient(IntMatrix.identity(3)) == IntMatrix.identity(3)
    assert contragredient(IntMatrix([[-1]])) == IntMatrix([[-1]])
    a = IntMatrix([[0, -1], [1, -1]])
    g = contragredient(a)
    assert (a @ g.transpose()).is_identity()
    assert g == IntMatrix([[-1, -1], [1, 0]])
    with pytest.raises(NotUnimodular):
        contragredient(IntMatrix([[2]]))


def test_solve_and_saturate(rng):
    basis = IntMatrix([[1, 0], [0, 2], [0, 0]])
    targets = IntMatrix([[3], [4], [0]])
    coords = solve_columns(basis, targets)
    assert basis @ coords == targets
    with pytest.raises(NotASublattice):
        solve_columns(basis, IntMatrix([[0], [1], [0]]))
    sat = saturate_span(IntMatrix([[2, 0], [0, 4], [0, 0]]))
    assert sat.cols == 2
    assert all(f == 1 for f in invariant_factors(sat))


def test_complete_to_unimodular():
    m = IntMatrix([[1], [1], [0]])
    full = complete_to_unimodular(m)
    assert abs(det(full)) == 1


def test_matmul_int64_guard_matches_python_product():
    # products of dimension >= 4 run in int64 exactly when
    # inner * max|a| * max|b| < 2**62; on either side of that bound the
    # result must equal the pure-Python big-integer product
    rng = random.Random(11)
    inner, amax = 5, 1 << 31
    inside = ((1 << 62) - 1) // (inner * amax)  # largest max|b| in int64
    # at 4 * inside the extreme entry, inner * amax * bmax, would wrap int64
    for bmax in (inside, inside + 1, 4 * inside):
        a = [[rng.randint(-amax, amax) for _ in range(inner)] for _ in range(4)]
        b = [[rng.randint(-bmax, bmax) for _ in range(6)] for _ in range(inner)]
        a[0] = [amax] * inner
        for row in b:
            row[0] = bmax
        expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert IntMatrix(a) @ IntMatrix(b) == IntMatrix(expected)


def test_add_and_sub_refuse_shape_mismatch():
    # zip used to truncate: [[1, 2], [3, 4]] + [[1]] gave [[2]]
    a = IntMatrix([[1, 2], [3, 4]])
    for other in (IntMatrix([[1]]), IntMatrix([[1, 2]]), IntMatrix([[1], [2]])):
        for left, right in ((a, other), (other, a)):
            with pytest.raises(ValueError, match="shape mismatch"):
                left + right
            with pytest.raises(ValueError, match="shape mismatch"):
                left - right


def test_entries_must_be_integers():
    # int() used to truncate floats and parse strings: [[0.9, 1.2], [True, "3"]]
    # became ((0, 1), (1, 3)), and [[-1.7]] passed validation as phi = (-1)
    for bad in ([[0.9, 1.2], [1, 3]], [[1, "3"]], [[-1.7]]):
        with pytest.raises(TypeError):
            IntMatrix(bad)
    np = pytest.importorskip("numpy")
    m = IntMatrix([[True, np.int64(3)], [np.int8(-2), 5]])
    assert m.data == ((1, 3), (-2, 5))
    assert all(type(x) is int for row in m.data for x in row)


def _power_chain_reference(a, q):
    norm = IntMatrix.zeros(a.rows, a.rows)
    for k in range(q):
        norm = norm + a**k
    return norm, a**q


def test_norm_and_power_int64_guard_matches_python_chain():
    # on c * ones(4x4) each product meets its bound d * max|P| * max|a|
    # exactly: a^k = 4^(k-1) c^k ones.  With c = 10**6, a^2 (4e12) is
    # proven in int64 and a^3 (1.6e19) lies between 2**63 and 2**64, so a
    # looser guard (a larger limit, or no factor d) would wrap it
    a = IntMatrix([[10**6] * 4 for _ in range(4)])
    for q in (0, 1, 2, 3, 4, 12):
        assert norm_and_power(a, q) == _power_chain_reference(a, q)
    # 2^20 * identity(4): the chain stays in int64 up to q = 2; the third
    # product's bound 4 * 2^40 * 2^20 is exactly 2^62, so q = 3 leaves
    # int64 at the bound, q = 4 just past it and q = 12 far past it
    diag = IntMatrix.scalar(4, 1 << 20)
    for q in (2, 3, 4, 12):
        assert norm_and_power(diag, q) == _power_chain_reference(diag, q)
    # -2^63 fits int64, but its absolute value does not
    low = [[0] * 4 for _ in range(4)]
    low[0][0], low[1][1], low[2][3], low[3][2] = -(1 << 63), 1, 1, 1
    low = IntMatrix(low)
    for q in (1, 2, 3):
        assert norm_and_power(low, q) == _power_chain_reference(low, q)
    # narrower than 4: the pure-Python chain, far past int64
    small = IntMatrix([[10**6, -3, 1], [7, 10**6, 0], [1, 1, 1]])
    assert norm_and_power(small, 9) == _power_chain_reference(small, 9)


def test_big_entries_stay_exact():
    # force the big-integer fallback: entries far beyond int64
    big = 10**30
    a = IntMatrix([[big, 1], [0, big]])
    s = check_snf(a)
    assert s.u @ a @ s.v == s.d
    assert det(a) == big * big
