"""Exact arbitrary-precision integer matrix algebra.

Everything here is integer arithmetic; no floating point anywhere.
Smith elimination runs on pure-Python big integers only.  Matrix
products use int64 numpy arrays only when the bound
inner * max|a| * max|b| < 2**62 proves that no entry can overflow, and
big integers otherwise, so results are exact in all cases.  The powers
a^0..a^(q-1) and the check a^q = 1 come from one chain of IntMatrix
products, power_chain; norm_and_power builds the same chain in big
integers, sums it and reads its traces, and charpoly turns the traces
into coefficients by Newton's identities.  Products narrower than
_NUMPY_MIN_DIM (6) never leave pure Python, so a lattice of rank at most
5 never loads numpy.  The oracle's float64 kernels for the exterior
layers of a lattice of rank at least 6 are in layers.py.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import DegreeOutOfRange, NotSquare, NotUnimodular
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
    def _trusted(cls, rows) -> "IntMatrix":
        """Rows this module built from ints, equally long: no per-entry check."""
        self = object.__new__(cls)
        self.data = tuple(map(tuple, rows))
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._trusted([[0] * n for _ in range(m)])

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(zip(*self.data))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def trace(self) -> int:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted([
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(_matmul(self.data, other.data))

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


# int64 arithmetic is used only for values proven below this bound, and
# only on products at least this wide in every dimension.  Every product
# of a lattice of rank at most 5 is narrower, so such a group never loads
# numpy; importing it costs more than a process spends on 5 x 5 products
_INT64_LIMIT = 1 << 62
_NUMPY_MIN_DIM = 6


def _python_matmul(a, b):
    """Exact product of two list-of-row matrices in big integers."""
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def _matmul(a, b):
    """Exact product of two list-of-row matrices, numpy-accelerated."""
    inner = len(b)
    if inner == 0 or len(a) == 0 or len(b[0]) == 0:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    amax = max(map(abs, chain.from_iterable(a)), default=0)
    bmax = max(map(abs, chain.from_iterable(b)), default=0)
    if min(len(a), inner, len(b[0])) >= _NUMPY_MIN_DIM and inner * amax * bmax < _INT64_LIMIT:
        # imported here so that callers which never take this branch
        # (the CLI on every shipped fixture) do not pay for loading numpy
        import numpy as np

        out = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
        return out.tolist()
    return _python_matmul(a, b)


def _chain(a: IntMatrix, q: int, product) -> tuple[tuple[IntMatrix, ...], bool]:
    """((a^0, ..., a^(q-1)), a^q == 1), each step by product(a^k rows, a rows)."""
    if not a.is_square():
        raise NotSquare("powers need a square matrix")
    if q < 0:
        raise ValueError("negative power")
    powers, power = [], IntMatrix.identity(a.rows)
    for _ in range(q):
        powers.append(power)
        power = IntMatrix._trusted(product(power.data, a.data))
    return tuple(powers), power.is_identity()


def power_chain(a: IntMatrix, q: int) -> tuple[tuple[IntMatrix, ...], bool]:
    """((a^0, ..., a^(q-1)), a^q == 1) from one chain of q products.

    _matmul keeps each product exact.

    >>> powers, is_one = power_chain(IntMatrix([[0, -1], [1, -1]]), 3)
    >>> [p.trace() for p in powers], is_one
    ([2, -1, -1], True)
    """
    return _chain(a, q, _matmul)


def norm_and_power(a: IntMatrix, q: int) -> tuple[IntMatrix, list[int], bool]:
    """(N = 1 + a + ... + a^(q-1), [tr a^k for k < q], a^q == 1) from one chain.

    The chain is power_chain's, but every product stays in big integers:
    the oracle hands it only the exterior layers of a lattice of rank at
    most 5 (at most 10 wide), which numpy would cost more to load than to
    multiply.  Wider layers arrive as arrays, for layers.norm_trace_chain.

    >>> norm, traces, is_one = norm_and_power(IntMatrix([[0, -1], [1, -1]]), 3)
    >>> norm.data, traces, is_one
    (((0, 0), (0, 0)), [2, -1, -1], True)
    """
    powers, is_one = _chain(a, q, _python_matmul)
    total = IntMatrix.zeros(a.rows, a.rows)
    for power in powers:
        total = total + power
    return total, [power.trace() for power in powers], is_one


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank over F_p of an integer matrix, by Gaussian elimination in pure Python.

    >>> rank_mod_p(IntMatrix([[1, 2], [3, 4]]), 2)
    1
    """
    rows = [[x % p for x in row] for row in a.data]
    rank = 0
    for j in range(a.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def certifies_rank(a: IntMatrix, rank: int, q: int, p: int) -> bool:
    """Whether a = qE over F_p for an idempotent E of trace ``rank``, which proves rk_p(a) = rank.

    The checks are a^2 == qa mod p, tr a == q * rank, p not dividing q,
    and 0 <= rank <= d < p for d the width of a: then rk_p(a) = rk_p(E)
    and rk_p(E) == tr E == rank mod p, with both sides in [0, d].  The
    square is one big-integer product of the residues in [0, p).

    >>> certifies_rank(IntMatrix([[2, 2], [1, 1]]), 1, 3, 5), certifies_rank(IntMatrix([[2, 2], [0, 1]]), 1, 3, 5)
    (True, False)
    """
    if not (q % p and 0 <= rank <= a.rows < p) or a.trace() != q * rank:
        return False
    residues = [[x % p for x in row] for row in a.data]
    square = _python_matmul(residues, residues)
    return all(
        (x - q * y) % p == 0
        for square_row, row in zip(square, residues)
        for x, y in zip(square_row, row)
    )


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
    """Big-integer Smith elimination tracking U and V.

    Each elementary operation is one loop over the arrays it acts on: row
    operations act on A and U, column operations on A and V.  U^-1 is not
    tracked.
    """

    def __init__(self, data, m, n):
        self.m, self.n = m, n
        self.a = [list(row) for row in data]
        self.u = [[int(i == j) for j in range(m)] for i in range(m)]
        self.v = [[int(i == j) for j in range(n)] for i in range(n)]
        self.row_arrays = (self.a, self.u)
        self.col_arrays = (self.a, self.v)

    def row_addmul(self, i, k, q):
        """row_i -= q * row_k."""
        for arr in self.row_arrays:
            ri, rk = arr[i], arr[k]
            for j, x in enumerate(rk):
                if x:
                    ri[j] -= q * x

    def row_swap(self, i, k):
        for arr in self.row_arrays:
            arr[i], arr[k] = arr[k], arr[i]

    def row_negate(self, i):
        for arr in self.row_arrays:
            arr[i] = [-x for x in arr[i]]

    def row_transform2(self, i, k, x, y, u, v):
        """rows (i,k) <- (x*ri + y*rk, u*ri + v*rk); x*v - y*u == 1."""
        for arr in self.row_arrays:
            ri, rk = arr[i], arr[k]
            for j, (p, q) in enumerate(zip(ri, rk)):
                ri[j] = x * p + y * q
                rk[j] = u * p + v * q

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


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over Z: U @ a @ V = D with a divisibility chain on D.

    Total: works for any shape, including empty matrices.
    """
    eng = _Smith(a.data, a.rows, a.cols).run()
    d = [[0] * a.cols for _ in range(a.rows)]
    for i, x in enumerate(eng.diagonal):
        d[i][i] = x
    return SmithDecomposition(
        IntMatrix._trusted(eng.u), IntMatrix._trusted(d), IntMatrix._trusted(eng.v)
    )


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
    """det(xI - a) from the traces of one power_chain a^0..a^n.

    >>> print(charpoly(IntMatrix([[0, -1], [1, -1]])))
    x^2 + x + 1
    """
    return charpoly_from_traces([power.trace() for power in power_chain(a, a.rows + 1)[0]])


def charpoly_from_traces(traces) -> IntPolynomial:
    """det(xI - a) from [tr a^k for k <= n] by Newton's identities; each division by k is exact."""
    coeffs = [1]
    for k in range(1, len(traces)):
        # k*c_k = -sum_(i<=k) c_(k-i)*tr a^i, with c_k the coefficient of x^(n-k)
        c, r = divmod(-sum(coeffs[k - i] * traces[i] for i in range(1, k + 1)), k)
        if r:
            raise ArithmeticError("Newton's identities: trace sum not divisible")
        coeffs.append(c)
    return IntPolynomial.of(*reversed(coeffs))


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
    return IntMatrix._trusted(out)


def contragredient(a: IntMatrix) -> IntMatrix:
    """Inverse transpose of a unimodular matrix, exactly."""
    if not a.is_square():
        raise NotSquare("contragredient needs a square matrix")
    s = smith_normal_form(a)
    if any(x != 1 for x in s.diagonal):
        raise NotUnimodular("matrix determinant is not +-1")
    return (s.v @ s.u).transpose()
