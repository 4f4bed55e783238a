"""Exact linear algebra: Smith forms, wedges, charpolys; the tests' kernels and quotients."""

import random
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoh.cyclotomic import companion_of_cyclotomic
from semicoh.errors import DegreeOutOfRange, NotUnimodular
from semicoh.groups import _factorint
import semicoh.intmat
from semicoh.intmat import (
    _NUMPY_MIN_DIM,
    IntMatrix,
    charpoly,
    charpoly_from_traces,
    contragredient,
    det,
    norm_and_power,
    power_chain,
    rank_mod_p,
    smith_normal_form,
    wedge_power,
)
from semicoh.intpoly import IntPolynomial

from conftest import (
    block_diagonal,
    count_calls,
    cyclic_sum,
    random_int_matrix,
    random_unimodular,
    scalar_matrix,
)
from smith_support import (
    NotASublattice,
    invariant_factors,
    kernel_basis,
    lattice_quotient,
    solve_columns,
)


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
    # diag(4, 6) is not a divisibility chain: the chain fix turns it into (2, 12)
    assert check_snf(IntMatrix([[4, 0], [0, 6]])).diagonal == (2, 12)
    check_snf(IntMatrix([[6, 0, 0], [0, 10, 0], [0, 0, 4]]))


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
    rng = random.Random(11)
    for _ in range(40):
        check_snf(random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))


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


# kernel_basis, solve_columns and lattice_quotient are the tests' references
# (smith_support), read off the public smith_normal_form


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
    assert n @ k == IntMatrix.zeros(5, 2)
    # purity: all invariant factors of the stacked kernel columns are 1
    assert all(f == 1 for f in invariant_factors(k))


def test_kernel_purity_random(rng):
    for _ in range(15):
        a = random_int_matrix(rng, 3, 5)
        k = kernel_basis(a)
        assert a @ k == IntMatrix.zeros(3, k.cols)
        assert k.cols == 5 - len(invariant_factors(a))
        assert all(f == 1 for f in invariant_factors(k))


def test_lattice_quotient_diagonal():
    group = lattice_quotient(IntMatrix.identity(2), IntMatrix([[2, 0], [0, 3]]))
    assert group == cyclic_sum(0, [6])


def test_lattice_quotient_flagship_h1():
    from semicoh.fixtures import FLAGSHIP_MATRIX

    psi = FLAGSHIP_MATRIX**3
    one = IntMatrix.identity(5)
    group = lattice_quotient(kernel_basis(one + psi), psi - one)
    assert group == cyclic_sum(0, [2])  # (Z/2)^t with t = 1


def test_lattice_quotient_order3():
    group = lattice_quotient(IntMatrix.identity(2), IntMatrix([[-2, -1], [1, -1]]))
    assert group == cyclic_sum(0, [3])


def test_lattice_quotient_order_equals_det(rng):
    # Z^3 / W has order |det W|; it is a group of (p, theta) pairs only when
    # every invariant factor is square-free, and lattice_quotient refuses it otherwise
    for _ in range(10):
        w = random_int_matrix(rng, 3, 3)
        d = det(w)
        if d == 0:
            continue
        factors = invariant_factors(w)
        assert prod(factors) == abs(d)
        if any(e > 1 for f in factors for e in _factorint(f).values()):
            with pytest.raises(ValueError, match="not a square-free order"):
                lattice_quotient(IntMatrix.identity(3), w)
            continue
        group = lattice_quotient(IntMatrix.identity(3), w)
        assert group.rank == 0
        assert prod(p**k for p, k in group.primary) == abs(d)


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


def test_charpoly_against_cofactor_oracle_on_big_entries(rng):
    # entries up to 10^6: a^3 leaves int64, so the power chain takes the
    # big-integer product branch and Newton's identities divide big traces
    for n in (5, 6):
        for _ in range(2):
            a = random_int_matrix(rng, n, n, bound=10**6)
            assert charpoly(a) == _charpoly_cofactor(a)


def test_charpoly_empty_and_one_by_one():
    assert charpoly(IntMatrix([])) == IntPolynomial.of(1)
    assert charpoly(IntMatrix([[7]])) == IntPolynomial.of(-7, 1)
    assert charpoly(IntMatrix([[-10**30]])) == IntPolynomial.of(10**30, 1)


def test_charpoly_from_traces_refuses_non_trace_power_sums():
    # 2*c_2 = -(c_1*p_1 + p_2) = -1 for the power sums (p_1, p_2) = (1, 2)
    with pytest.raises(ArithmeticError):
        charpoly_from_traces([2, 1, 2])


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


def _jordan_type_mod_p(g: IntMatrix, p: int) -> dict[int, int]:
    """{block size: count} of g over F_p, from the ranks of (g - 1)^k, k <= p + 1."""
    nil = g - IntMatrix.identity(g.rows)
    ranks, power = [g.rows], IntMatrix.identity(g.rows)
    for _ in range(p + 1):
        power = IntMatrix([[x % p for x in row] for row in (power @ nil).data])
        ranks.append(rank_mod_p(power, p))
    assert ranks[p] == 0  # g^p = 1, so (g - 1)^p = g^p - 1 = 0 mod p
    sizes = {k: ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] for k in range(1, p + 1)}
    return {k: count for k, count in sizes.items() if count}


def test_wedge_powers_of_the_augmentation_ideal_are_omega_parity_plus_free():
    # Z[zeta_p] reduces mod p to the Jordan block J_(p-1), called omega in
    # the Green ring of C_p, with 1 = J_1 and the free block J_p; every
    # wedge^b, b < p, reduces to omega^(b mod 2) plus free blocks
    cases = 0
    for p in (2, 3, 5, 7):
        g = companion_of_cyclotomic(p)
        assert _jordan_type_mod_p(g, p) == {p - 1: 1}
        for b in range(p):
            base = p - 1 if b % 2 else 1
            free, rest = divmod(comb(p - 1, b) - base, p)
            assert rest == 0, (p, b)
            expected = {base: 1, p: free} if free else {base: 1}
            assert _jordan_type_mod_p(wedge_power(g, b), p) == expected, (p, b)
            cases += 1
    assert cases == 17


def test_contragredient():
    assert contragredient(IntMatrix.identity(3)) == IntMatrix.identity(3)
    assert contragredient(IntMatrix([[-1]])) == IntMatrix([[-1]])
    a = IntMatrix([[0, -1], [1, -1]])
    g = contragredient(a)
    assert (a @ g.transpose()).is_identity()
    assert g == IntMatrix([[-1, -1], [1, 0]])
    with pytest.raises(NotUnimodular):
        contragredient(IntMatrix([[2]]))


def test_solve_columns_and_non_sublattice_refusal():
    basis = IntMatrix([[1, 0], [0, 2], [0, 0]])
    targets = IntMatrix([[3], [4], [0]])
    coords = solve_columns(basis, targets)
    assert basis @ coords == targets
    with pytest.raises(NotASublattice):
        solve_columns(basis, IntMatrix([[0], [1], [0]]))


def test_matmul_int64_guard_matches_python_product(monkeypatch):
    # products at least _NUMPY_MIN_DIM wide run in int64 exactly when
    # inner * max|a| * max|b| < 2**62; on either side of that bound the
    # result must equal the pure-Python big-integer product
    python_products = count_calls(monkeypatch, semicoh.intmat, "_python_matmul")
    rng = random.Random(11)
    inner, amax = _NUMPY_MIN_DIM, 1 << 31
    inside = ((1 << 62) - 1) // (inner * amax)  # largest max|b| in int64
    # at 4 * inside the extreme entry, inner * amax * bmax, would wrap int64
    for bmax, in_int64 in ((inside, True), (inside + 1, False), (4 * inside, False)):
        a = [[rng.randint(-amax, amax) for _ in range(inner)] for _ in range(inner)]
        b = [[rng.randint(-bmax, bmax) for _ in range(inner + 1)] for _ in range(inner)]
        a[0] = [amax] * inner
        for row in b:
            row[0] = bmax
        expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        python_products.clear()
        assert IntMatrix(a) @ IntMatrix(b) == IntMatrix(expected)
        assert len(python_products) == (not in_int64), bmax


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


def test_built_results_hold_plain_ints_like_public_ones():
    # +, -, @ and transpose build their results without the per-entry
    # check; the entries must still be plain ints (never numpy.int64), and
    # the results must equal and hash like the public constructor's
    rng = random.Random(19)
    small = random_int_matrix(rng, 6, 7)
    wide = random_int_matrix(rng, 7, 8)
    big = IntMatrix([[rng.randint(-(10**30), 10**30) for _ in range(7)] for _ in range(6)])
    results = [
        small + small,
        small - big,
        small @ wide,  # 6 x 7 x 8 with entries <= 5: the int64 product
        big @ wide,  # entries near 10**30: the big-integer product
        small.transpose(),
        big.transpose(),
    ]
    for result in results:
        assert all(type(x) is int for row in result.data for x in row)
        public = IntMatrix([list(row) for row in result.data])
        assert result == public and hash(result) == hash(public)
        assert (result.rows, result.cols) == (public.rows, public.cols)
    for bad in ([[0.5]], [["1"]]):
        with pytest.raises(TypeError):
            IntMatrix(bad)


def test_power_chain_int64_guard_matches_exact_powers(monkeypatch):
    # each product of power_chain goes through _matmul's int64 guard, and
    # a^k shows in the powers for k < q (a^q only in the identity check);
    # norm_and_power builds the same chain in big integers only
    python_products = count_calls(monkeypatch, semicoh.intmat, "_python_matmul")

    def check(a, q, expected_powers, python_steps):
        python_products.clear()
        powers, is_one = power_chain(a, q)
        assert powers == tuple(expected_powers[:q])
        assert is_one == expected_powers[q].is_identity()
        assert len(python_products) == python_steps, (a, q)
        expected_norm = IntMatrix.zeros(a.rows, a.rows)
        for power in expected_powers[:q]:
            expected_norm = expected_norm + power
        assert norm_and_power(a, q) == (
            expected_norm, [power.trace() for power in expected_powers[:q]], is_one
        )

    # c * ones(6x6): a^k = 6^(k-1) c^k ones, and with c = 7 * 10**5, a^3
    # (1.23e19) lies between 2**63 and 2**64, so a looser guard would wrap
    # it; the first two products run in int64, every later one in big
    # integers
    n, c = _NUMPY_MIN_DIM, 7 * 10**5
    a = IntMatrix([[c] * n for _ in range(n)])
    assert 1 << 63 < n**2 * c**3 < 1 << 64
    powers = [IntMatrix.identity(n)] + [IntMatrix([[n ** (k - 1) * c**k] * n] * n) for k in range(1, 13)]
    for q in (0, 1, 2, 3, 4, 12):
        check(a, q, powers, max(q - 2, 0))
    # 2^29 * identity(16): the second product's bound 16 * 2^29 * 2^29 is
    # exactly 2^62, so q = 1 stays below the guard, q = 2 meets it at the
    # bound, q = 3 goes just past it and q = 12 far past it
    diag = scalar_matrix(16, 1 << 29)
    powers = [scalar_matrix(16, 1 << (29 * k)) for k in range(13)]
    for q in (1, 2, 3, 12):
        check(diag, q, powers, q - 1)
    # -2^63 fits int64, but its absolute value does not
    swap = IntMatrix([[0, 1], [1, 0]])
    low = block_diagonal([IntMatrix([[-(1 << 63)]]), IntMatrix.identity(3), swap])
    powers = [block_diagonal([IntMatrix([[(-(1 << 63)) ** k]]), IntMatrix.identity(3), swap**k])
              for k in range(4)]
    for q in (1, 2, 3):
        check(low, q, powers, q)


def test_big_entries_stay_exact():
    # force the big-integer fallback: entries far beyond int64
    big = 10**30
    a = IntMatrix([[big, 1], [0, big]])
    s = check_snf(a)
    assert s.u @ a @ s.v == s.d
    assert det(a) == big * big
