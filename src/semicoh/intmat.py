"""Exact arbitrary-precision integer matrix algebra.

Everything here is integer arithmetic; no floating point anywhere.
Smith elimination runs on pure-Python big integers only, and every
wrapper below reads its result off one engine run (_smith_engine).
Matrix products use int64 numpy arrays only when the bound
inner * max|a| * max|b| < 2**62 proves that no entry can overflow, and
big integers otherwise, so results are exact in all cases.  The powers
a^1..a^q behind a norm 1 + a + ... + a^(q-1) and the check a^q = 1 come
from one guarded chain, norm_and_power: int64 arrays while every product
and partial sum is proven below 2**62, then the plain IntMatrix loop,
whose products are exact by the same guard.  Matrices narrower than 4
never leave pure Python, so they never load numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import DegreeOutOfRange, NotASublattice, NotSquare, NotUnimodular
from .intpoly import IntPolynomial


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix:
    """Immutable integer matrix of row tuples; a float or str entry is a TypeError."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(tuple(map(operator.index, row)) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged rows")
        self.data = rows

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, c: int) -> "IntMatrix":
        return cls([[c if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        return cls([[col[i] for col in columns] for i in range(rows)])

    # -- basics ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.data))) if self.rows else IntMatrix([])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def trace(self) -> int:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return IntMatrix([ra + rb for ra, rb in zip(self.data, other.data)])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix([
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(_matmul(self.data, other.data))

    def __pow__(self, k: int) -> "IntMatrix":
        if not self.is_square():
            raise NotSquare("powers need a square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result


def block_diagonal(blocks) -> IntMatrix:
    """Square blocks placed along the diagonal, zeros elsewhere."""
    size = sum(b.rows for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out[offset + i][offset : offset + b.cols] = row
        offset += b.rows
    return IntMatrix(out)


# int64 arithmetic is used only for values proven below this bound, and
# only on matrices at least this wide (narrower ones never load numpy)
_INT64_LIMIT = 1 << 62
_NUMPY_MIN_DIM = 4


def _matmul(a, b):
    """Exact product of two list-of-row matrices, numpy-accelerated."""
    inner = len(b)
    if inner == 0 or len(a) == 0 or len(b[0]) == 0:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    amax = max(map(abs, chain.from_iterable(a)), default=0)
    bmax = max(map(abs, chain.from_iterable(b)), default=0)
    if min(len(a), inner, len(b[0])) >= _NUMPY_MIN_DIM and inner * amax * bmax < _INT64_LIMIT:
        # imported here so that callers which never take this branch
        # (the CLI on small fixtures) do not pay for loading numpy
        import numpy as np

        out = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
        return out.tolist()
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def norm_and_power(a: IntMatrix, q: int) -> tuple[IntMatrix, IntMatrix]:
    """(1 + a + ... + a^(q-1), a^q) from one chain of q products.

    Only the running power and the running sum are kept.  Matrices at
    least _NUMPY_MIN_DIM wide run as int64 arrays while each product
    bound d * max|power| * max|a| and the running total of the summed
    powers' maxima stay below _INT64_LIMIT.  Every other step, and every
    step of a narrower matrix, runs in the plain IntMatrix loop, whose
    products _matmul keeps exact.

    >>> [m.data for m in norm_and_power(IntMatrix([[0, -1], [1, -1]]), 3)]
    [((0, 0), (0, 0)), ((1, 0), (0, 1))]
    """
    if not a.is_square():
        raise NotSquare("powers need a square matrix")
    if q < 0:
        raise ValueError("negative power")
    d = a.rows
    power, total = IntMatrix.identity(d), IntMatrix.zeros(d, d)
    done = 0
    amax = max(map(abs, chain.from_iterable(a.data)), default=0)  # Python ints: no wrap
    if d >= _NUMPY_MIN_DIM and amax < _INT64_LIMIT:
        import numpy as np

        base = np.array(a.data, dtype=np.int64)
        npower = np.identity(d, dtype=np.int64)
        ntotal = np.zeros((d, d), dtype=np.int64)
        pmax, smax = 1, 0  # max|power| and a bound on max|total|
        while done < q and smax + pmax < _INT64_LIMIT and d * pmax * amax < _INT64_LIMIT:
            ntotal += npower
            npower = npower @ base
            smax += pmax
            pmax = int(np.abs(npower).max())
            done += 1
        power, total = IntMatrix(npower.tolist()), IntMatrix(ntotal.tolist())
    for _ in range(done, q):
        total = total + power
        power = power @ a
    return total, power


# ---------------------------------------------------------------------------
# Smith normal form engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D a nonnegative diagonal chain."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.data[i][i] for i in range(min(self.d.rows, self.d.cols)))


class _Smith:
    """Big-integer Smith elimination with optional transform tracking.

    Each elementary operation is one loop over the arrays it acts on.  Row
    operations act on A and U, column operations on A and V, and each row
    operation also applies its inverse as a column operation on U^-1, so
    U @ U^-1 stays the identity.  Transforms not asked for are None and
    take part in no operation.
    """

    def __init__(self, data, m, n, need_u, need_uinv, need_v):
        self.m, self.n = m, n
        self.a = [list(row) for row in data]
        self.u = [[int(i == j) for j in range(m)] for i in range(m)] if need_u else None
        self.uinv = [[int(i == j) for j in range(m)] for i in range(m)] if need_uinv else None
        self.v = [[int(i == j) for j in range(n)] for i in range(n)] if need_v else None
        self.row_arrays = [x for x in (self.a, self.u) if x is not None]
        self.col_arrays = [x for x in (self.a, self.v) if x is not None]
        self.inverse_rows = self.uinv or []

    def row_addmul(self, i, k, q):
        """row_i -= q * row_k; on U^-1, column_k += q * column_i."""
        for arr in self.row_arrays:
            ri, rk = arr[i], arr[k]
            for j, x in enumerate(rk):
                if x:
                    ri[j] -= q * x
        for row in self.inverse_rows:
            if row[i]:
                row[k] += q * row[i]

    def row_swap(self, i, k):
        for arr in self.row_arrays:
            arr[i], arr[k] = arr[k], arr[i]
        for row in self.inverse_rows:
            row[i], row[k] = row[k], row[i]

    def row_negate(self, i):
        for arr in self.row_arrays:
            arr[i] = [-x for x in arr[i]]
        for row in self.inverse_rows:
            row[i] = -row[i]

    def row_transform2(self, i, k, x, y, u, v):
        """rows (i,k) <- (x*ri + y*rk, u*ri + v*rk); x*v - y*u == 1."""
        for arr in self.row_arrays:
            ri, rk = arr[i], arr[k]
            for j, (p, q) in enumerate(zip(ri, rk)):
                ri[j] = x * p + y * q
                rk[j] = u * p + v * q
        for row in self.inverse_rows:
            p, q = row[i], row[k]
            row[i] = v * p - u * q
            row[k] = -y * p + x * q

    def col_addmul(self, j, k, q):
        """column_j -= q * column_k."""
        for arr in self.col_arrays:
            for row in arr:
                if row[k]:
                    row[j] -= q * row[k]

    def col_swap(self, j, k):
        for arr in self.col_arrays:
            for row in arr:
                row[j], row[k] = row[k], row[j]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.a[i][i] for i in range(min(self.m, self.n)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    def find_pivot(self, k):
        best = None
        for i in range(k, self.m):
            row = self.a[i]
            for j in range(k, self.n):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if best is None or x < best[0]:
                        best = (x, i, j)
                        if x == 1:
                            return best
        return best

    def run(self):
        m, n, a = self.m, self.n, self.a
        limit = min(m, n)
        for k in range(limit):
            pivot = self.find_pivot(k)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                self.row_swap(pi, k)
            if pj != k:
                self.col_swap(pj, k)
            while True:
                if a[k][k] < 0:
                    self.row_negate(k)
                piv = a[k][k]
                dirty = False
                for i in range(k + 1, m):
                    x = a[i][k]
                    if x:
                        self.row_addmul(i, k, x // piv)
                        if a[i][k]:
                            dirty = True
                if dirty:
                    best = min(
                        (i for i in range(k + 1, m) if a[i][k]),
                        key=lambda i: abs(a[i][k]),
                    )
                    self.row_swap(best, k)
                    continue
                for j in range(k + 1, n):
                    x = a[k][j]
                    if x:
                        self.col_addmul(j, k, x // piv)
                        if a[k][j]:
                            dirty = True
                if dirty:
                    best = min(
                        (j for j in range(k + 1, n) if a[k][j]),
                        key=lambda j: abs(a[k][j]),
                    )
                    self.col_swap(best, k)
                    continue
                break
        self._fix_chain(limit)
        return self

    def _fix_chain(self, limit):
        a = self.a
        for i in range(limit):
            for j in range(i + 1, limit):
                di, dj = a[i][i], a[j][j]
                if dj == 0 and di == 0:
                    continue
                if di != 0 and dj % di == 0:
                    continue
                # fold column j into column i, then split gcd/lcm
                self.col_addmul(i, j, -1)
                g, x, y = _xgcd(di, dj)
                self.row_transform2(i, j, x, y, -(dj // g), di // g)
                # clear the (i, j) fill-in; divisible by the new pivot g
                if a[i][j]:
                    self.col_addmul(j, i, a[i][j] // g)
        for i in range(limit):
            if a[i][i] < 0:
                self.row_negate(i)


def _smith_engine(matrix: IntMatrix, need_u=False, need_uinv=False, need_v=False) -> _Smith:
    """One Smith elimination of ``matrix``, tracking only the transforms asked for."""
    return _Smith(matrix.data, matrix.rows, matrix.cols, need_u, need_uinv, need_v).run()


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over Z: U @ a @ V = D with a divisibility chain on D.

    Total: works for any shape, including empty matrices.
    """
    eng = _smith_engine(a, need_u=True, need_v=True)
    d = [[0] * a.cols for _ in range(a.rows)]
    for i, x in enumerate(eng.diagonal):
        d[i][i] = x
    return SmithDecomposition(IntMatrix(eng.u), IntMatrix(d), IntMatrix(eng.v))


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith diagonal entries (no transform tracking)."""
    return tuple(x for x in _smith_engine(a).diagonal if x != 0)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel {x : a x = 0}, as columns.

    The span is pure: Z^cols / span is torsion-free.  A zero kernel gives
    a matrix with zero columns.
    """
    eng = _smith_engine(a, need_v=True)
    r = eng.rank
    return IntMatrix([row[r:] for row in eng.v])


def solve_columns(basis: IntMatrix, targets: IntMatrix) -> IntMatrix:
    """Integer coordinates C with basis @ C == targets.

    ``basis`` must have independent columns.  Raises NotASublattice when a
    target column is not an integral combination of the basis columns.
    """
    if basis.rows != targets.rows:
        raise ValueError("row mismatch")
    eng = _smith_engine(basis, need_u=True, need_v=True)
    d = eng.diagonal
    k = basis.cols
    if eng.rank != k:
        raise NotASublattice("ambient columns are not independent")
    ub = _matmul(eng.u, targets.data)
    for i in range(k, basis.rows):
        if any(ub[i][j] != 0 for j in range(targets.cols)):
            raise NotASublattice("column outside the rational span")
    w = []
    for i in range(k):
        di = d[i]
        row = []
        for j in range(targets.cols):
            q, r = divmod(ub[i][j], di)
            if r:
                raise NotASublattice("column not integrally in the span")
            row.append(q)
        w.append(row)
    return IntMatrix(_matmul(eng.v, w))


def lattice_quotient(ambient_basis: IntMatrix, sub_basis: IntMatrix):
    """V / W as a canonical abelian group.

    ``ambient_basis`` columns span V; ``sub_basis`` columns generate W
    (they may be dependent).  Invariant factors come from the Smith form
    of the coordinate matrix of W in the basis of V.
    """
    from .abelian import AbelianGroup

    coords = solve_columns(ambient_basis, sub_basis)
    factors = invariant_factors(coords)
    return AbelianGroup.from_factors(ambient_basis.cols - len(factors), factors)


def saturate_span(m: IntMatrix) -> IntMatrix:
    """Basis of the saturation (pure closure) of the column span."""
    eng = _smith_engine(m, need_uinv=True)
    r = eng.rank
    return IntMatrix([row[:r] for row in eng.uinv])


def restrict_to_basis(a: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Matrix of a on the span of ``basis``; NotASublattice if not stable."""
    return solve_columns(basis, a @ basis)


def complete_to_unimodular(m: IntMatrix) -> IntMatrix:
    """Extend the columns of a saturated basis to a basis of the whole Z^n."""
    eng = _smith_engine(m, need_uinv=True)
    if any(x != 1 for x in eng.diagonal):
        raise NotASublattice("columns do not form a saturated independent set")
    return IntMatrix(eng.uinv)


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise NotSquare("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a: IntMatrix) -> IntPolynomial:
    """det(xI - a) by the fraction-free Faddeev-LeVerrier recursion.

    >>> print(charpoly(IntMatrix([[0, -1], [1, -1]])))
    x^2 + x + 1
    """
    if not a.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        t = am.trace()
        if t % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            m = am + IntMatrix.scalar(n, c)
    return IntPolynomial.of(*coeffs)


def wedge_power(a: IntMatrix, gamma: int) -> IntMatrix:
    """Exterior power: the C(n, gamma)-dimensional matrix of gamma-minors.

    Rows and columns are indexed by lexicographically ordered index
    subsets; entry (R, S) is the minor det a[R, S], so the construction is
    functorial: wedge(a @ b) = wedge(a) @ wedge(b).
    """
    if not a.is_square():
        raise NotSquare("exterior powers need a square matrix")
    n = a.rows
    if gamma < 0 or gamma > n:
        raise DegreeOutOfRange(f"wedge degree {gamma} outside 0..{n}")
    subsets = list(combinations(range(n), gamma))
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)
    out = [[0] * dim for _ in range(dim)]
    cols = [a.column(j) for j in range(n)]
    for jj, s in enumerate(subsets):
        # expand column_{s1} ^ ... ^ column_{s_gamma} over the wedge basis
        acc: dict[tuple[int, ...], int] = {(): 1}
        for j in s:
            col = cols[j]
            nxt: dict[tuple[int, ...], int] = {}
            for t, coeff in acc.items():
                for r in range(n):
                    x = col[r]
                    if x == 0 or r in t:
                        continue
                    pos = 0
                    while pos < len(t) and t[pos] < r:
                        pos += 1
                    key = t[:pos] + (r,) + t[pos:]
                    term = coeff * x if (len(t) - pos) % 2 == 0 else -coeff * x
                    nxt[key] = nxt.get(key, 0) + term
            acc = {k: v for k, v in nxt.items() if v}
        for t, coeff in acc.items():
            out[index[t]][jj] = coeff
    return IntMatrix(out)


def contragredient(a: IntMatrix) -> IntMatrix:
    """Inverse transpose of a unimodular matrix, exactly."""
    if not a.is_square():
        raise NotSquare("contragredient needs a square matrix")
    eng = _smith_engine(a, need_u=True, need_v=True)
    if any(x != 1 for x in eng.diagonal):
        raise NotUnimodular("matrix determinant is not +-1")
    inv = _matmul(eng.v, eng.u)
    return IntMatrix(inv).transpose()
