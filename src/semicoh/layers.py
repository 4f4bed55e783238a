"""numpy kernels for the oracle's exterior layers of a lattice of rank at least 6.

Imported only by oracle.e2_table for a lattice of rank at least
_NUMPY_MIN_DIM (6) (and by a CyclicRep given an array), so no group of
rank at most 5 loads this module or numpy for it.  Results are exact integers.
Floating point is used only on numpy float64 arrays whose every partial
sum is proven below 2**53, where float64 represents every integer
exactly; past a bound the arithmetic moves to arrays of Python ints.

- exterior_powers builds every exterior power by Laplace expansion, as
  int64 arrays while proven below 2**62, gathering through index arrays
  planned once per rank n.
- norm_trace_chain runs the chain a^1..a^q as float64 (BLAS) products
  while proven below 2**53, for N, the traces of a^k and a^q = 1.
- certifies_rank checks N^2 == qN mod a prime with one float64 product.
- rank_mod_p eliminates N over F_p in float64 panels, after dropping
  the rows and columns that vanish mod p.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import NotSquare
from .intmat import _INT64_LIMIT, IntMatrix

# float64 holds every integer below this bound exactly, so a float64 product
# or sum whose every partial sum is proven below it is exact
_FLOAT64_LIMIT = 1 << 53
# columns per panel of rank_mod_p; fewer for primes too large for this width
_PANEL_WIDTH = 64


def _abs_max(x) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _indices(values):
    """A read-only index array: the plans below are shared by every caller."""
    array = np.array(values, dtype=np.intp)
    array.setflags(write=False)
    return array


@lru_cache(maxsize=16)
def _laplace_plan(n: int):
    """For gamma = 1..n, the gathers of exterior_powers' Laplace step on an n x n matrix.

    Entry gamma - 1 is (lead, minor, terms) over the index subsets R of
    size gamma in wedge_power's order: lead[R] = R_0, minor[R] is the row
    of R - R_0 in layer gamma - 1, and terms[k] = (S_k, the row of S - S_k
    in layer gamma - 1) over the subsets S.
    """
    plan, index = [], {(): 0}
    for gamma in range(1, n + 1):
        subsets = list(combinations(range(n), gamma))
        plan.append((
            _indices([s[0] for s in subsets]),
            _indices([index[s[1:]] for s in subsets]),
            tuple(
                (_indices([s[k] for s in subsets]),
                 _indices([index[s[:k] + s[k + 1:]] for s in subsets]))
                for k in range(gamma)
            ),
        ))
        index = {s: i for i, s in enumerate(subsets)}
    return tuple(plan)


def exterior_powers(a: IntMatrix):
    """Yield wedge_power(a, gamma) for gamma = 0..n as numpy arrays, in one pass.

    Layer gamma comes from layer gamma - 1 by Laplace expansion along the
    first row index: for index subsets R, S of size gamma,

        det a[R, S] = sum_k (-1)^k a[R_0, S_k] det a[R - R_0, S - S_k],

    which is gamma gathered multiply-adds over the whole C(n, gamma)^2
    layer, through the index arrays of _laplace_plan(n).  Rows and
    columns are ordered as in wedge_power.  A layer is int64 while
    gamma * max|a| * max|layer gamma - 1| < _INT64_LIMIT proves that no
    entry or partial sum can overflow, and an array of Python ints
    otherwise.

    >>> [w.tolist() for w in exterior_powers(IntMatrix([[1, 2], [3, 4]]))]
    [[[1]], [[1, 2], [3, 4]], [[-2]]]
    """
    if not a.is_square():
        raise NotSquare("exterior powers need a square matrix")
    entries = np.array(a.data, dtype=object)
    amax = _abs_max(entries)
    layer = np.ones((1, 1), dtype=np.int64)
    yield layer
    for gamma, (lead, minor, terms) in enumerate(_laplace_plan(a.rows), 1):
        dtype = np.int64 if gamma * amax * _abs_max(layer) < _INT64_LIMIT else object
        lead_rows = entries.astype(dtype)[lead]  # row R_0 of a, per R
        minors = layer.astype(dtype)[minor]  # rows R - R_0
        layer = np.zeros((len(lead), len(lead)), dtype=dtype)
        for k, (column, drop_k) in enumerate(terms):
            term = lead_rows[:, column] * minors[:, drop_k]
            if k % 2:
                layer -= term
            else:
                layer += term
        yield layer


def norm_trace_chain(a, q: int):
    """(N = 1 + a + ... + a^(q-1), [tr a^k for k < q], a^q == 1) from one chain of q products.

    ``a`` is a square integer numpy array.  The chain runs as float64
    (BLAS) products while d * max|a^k| * max|a| and the bound on the
    running sum stay below _FLOAT64_LIMIT, so every partial sum, and every
    trace (|tr a^k| <= d * max|a^k|), is an exactly represented integer.
    From the first step that fails the bound it runs on arrays of Python
    ints, and never switches back.  N comes back as float64 (integers
    below 2**53) or as Python ints; the traces are Python ints.

    >>> norm, traces, is_one = norm_trace_chain(np.array([[0, -1], [1, -1]]), 3)
    >>> norm.tolist(), traces, is_one
    ([[0.0, 0.0], [0.0, 0.0]], [2, -1, -1], True)
    """
    d = len(a)
    amax = _abs_max(a)
    power, total, base, traces = np.identity(d), np.zeros((d, d)), None, []
    pmax, smax = 1, 0  # max|power| and a bound on max|total|
    for _ in range(q):
        if power.dtype != object and max(d * pmax * amax, smax + pmax) >= _FLOAT64_LIMIT:
            # every entry so far is an integer below 2**53, exact through int64
            power, total = (x.astype(np.int64).astype(object) for x in (power, total))
            base = None
        if base is None:
            # reached in float64 only when max|a| < 2**53, so the cast is exact
            base = a.astype(power.dtype)
        total += power
        traces.append(int(power.trace()))
        power = power @ base
        smax += pmax
        pmax = _abs_max(power)
    return total, traces, bool(np.array_equal(power, np.identity(d)))


def _reduce(x, p: int):
    """x mod p for a float64 array of integers with |x| + p < _FLOAT64_LIMIT, exactly.

    The rounded quotient x / p floors to the true quotient or to one of
    its neighbours, so x - p * floor(x / p) is computed exactly and lies
    in [-p, 2p); one correction each way brings it into [0, p).
    """
    r = x - p * np.floor(x / p)
    r[r < 0] += p
    r[r >= p] -= p
    return r


def _unit_lower_inverse(strict, p: int):
    """(1 + strict)^-1 mod p for a strictly lower triangular array with entries in [0, p).

    1 - N + N^2 - ... = (1 - N)(1 + N^2)(1 + N^4)..., and N^k = 0 for k x k N.
    """
    one = np.identity(len(strict))
    inverse, power = _reduce(one - strict, p), _reduce(strict @ strict, p)
    while power.any():
        inverse = _reduce(inverse @ (one + power), p)
        power = _reduce(power @ power, p)
    return inverse


def _residues(a, p: int):
    """a mod p as a float64 array of integers in [0, p).

    A float64 ``a`` must hold integers below 2**53, as a norm from
    norm_trace_chain does; it is reduced through int64, exactly.
    """
    if a.dtype == np.float64:
        a = a.astype(np.int64)
    return (a % p).astype(np.float64)


def certifies_rank(a, rank: int, q: int, p: int) -> bool:
    """Whether a = qE over F_p for an idempotent E of trace ``rank``, which proves rk_p(a) = rank.

    ``a`` is a square integer numpy array.  The checks are a^2 == qa mod
    p, tr a == q * rank, p not dividing q, and 0 <= rank <= d < p for d
    the width of a: then rk_p(a) = rk_p(E) and rk_p(E) == tr E == rank
    mod p, with both sides in [0, d].  The square is one float64 (BLAS)
    product of the residues in [0, p), exact because its sums of d terms
    below (p - 1)^2 stay below _FLOAT64_LIMIT; a width or prime past that
    bound is refused.  A float64 ``a`` must hold integers below 2**53, as
    a norm from norm_trace_chain does.

    >>> certifies_rank(np.array([[2, 2], [1, 1]]), 1, 3, 5)
    True
    >>> certifies_rank(np.array([[2, 2], [1, 1]]), 1, 5, 5), certifies_rank(np.array([[2, 2], [0, 1]]), 1, 3, 5)
    (False, False)
    """
    d = len(a)
    if d * (p - 1) ** 2 + p >= _FLOAT64_LIMIT:
        raise ValueError(f"prime {p} too large for an exact float64 square of width {d}")
    if not (q % p and 0 <= rank <= d < p) or sum(map(int, a.diagonal().tolist())) != q * rank:
        return False
    residues = _residues(a, p)
    return not _reduce(residues @ residues - (q % p) * residues, p).any()


def rank_mod_p(a, p: int) -> int:
    """Rank over F_p of an integer numpy array, for a prime p below 2**25.

    The entries, reduced mod p, go to float64; the rows and columns that
    vanish mod p are dropped, and the rest is eliminated a panel of
    columns at a time: one pivot at a time inside the panel (LU with
    row pivoting, multipliers stored in place), then one triangular solve
    and one BLAS product update the trailing columns.  Each of those
    products sums at most ``width`` terms below (p - 1)^2, and the width
    is chosen so that width * (p - 1)^2 + p < _FLOAT64_LIMIT, so the
    elimination is exact.  A float64 ``a`` must hold integers below 2**53,
    as a norm from norm_trace_chain does.

    >>> rank_mod_p(np.array([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]]), 3)
    3
    """
    width = min(_PANEL_WIDTH, _FLOAT64_LIMIT // max((p - 1) ** 2, 1) - 2)
    if width < 1:
        raise ValueError(f"prime {p} too large for exact float64 elimination")
    rest = _residues(a, p)
    rest = rest[np.ix_(rest.any(axis=1), rest.any(axis=0))]
    rank = 0
    while rest.shape[0] and rest.shape[1]:
        panel, trailing = rest[:, :width].copy(), rest[:, width:]
        order = list(range(len(panel)))
        pivots = []  # panel column of each pivot, in order
        # a column that is zero in every row not yet a pivot row stays zero
        for j in np.flatnonzero(panel.any(axis=0)).tolist():
            k = len(pivots)
            column = panel[k:, j] % p
            i = int((column != 0).argmax())
            if not column[i]:
                continue
            if i:
                row = panel[k].copy()
                panel[k], panel[k + i] = panel[k + i], row
                order[k], order[k + i] = order[k + i], order[k]
                column[0], column[i] = column[i], column[0]
            multipliers = column[1:] * pow(int(column[0]), -1, p) % p
            # entries below the pivot row are reduced only when they become a
            # pivot column: each step moves them by less than (p - 1)^2, so
            # they stay above -width * (p - 1)^2, which the width keeps exact
            panel[k + 1:, j + 1:] -= multipliers[:, None] * (panel[k, j + 1:] % p)
            panel[k + 1:, j] = multipliers
            pivots.append(j)
            if k + 1 == len(panel):
                break
        k = len(pivots)
        rank += k
        if not trailing.shape[1]:
            break
        lower = panel[:, pivots]  # multipliers of L below the diagonal
        top = _reduce(_unit_lower_inverse(np.tril(lower[:k], -1), p) @ trailing[order[:k]], p)
        rest = _reduce(trailing[order[k:]] - lower[k:] @ top, p)
    return rank
