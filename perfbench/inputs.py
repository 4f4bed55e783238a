"""Seeded input generator for the benchmark.

Every input is a dense conjugate ``P @ phi @ P^-1`` of a block-companion
matrix ``phi`` whose blocks are companion matrices of cyclotomic
polynomials ``Phi_d`` with ``d | m``.  ``P`` is a product of elementary
row operations (transvections, swaps, negations); its inverse is the
product of the inverted operations in reverse order, and ``P @ P^-1 == I``
is checked for every input.  Nothing here calls into the package except
to wrap the finished matrix in a ``GroupSpec`` and run ``validate``.

The same seed always gives the same sequence of matrices, and one
``GroupStream`` never hands out the same matrix twice.
"""

from __future__ import annotations

import random

# Transvection steps per conjugating matrix.  Twelve steps leave about a
# third to a half of the entries nonzero with small magnitudes, which
# keeps exterior powers inside the oracle's int64 fast path.
CONJUGATION_STEPS = 12


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (coefficients lowest first, monic den)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        for j, y in enumerate(den):
            num[k + j] -= c * y
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def cyclotomic(d: int) -> list[int]:
    """Coefficients of Phi_d, lowest degree first."""
    num = [-1] + [0] * (d - 1) + [1]
    den = [1]
    for e in _divisors(d)[:-1]:
        den = _poly_mul(den, cyclotomic(e))
    return _poly_divexact(num, den)


def companion(d: int) -> list[list[int]]:
    """Companion matrix of Phi_d; it has order d."""
    coeffs = cyclotomic(d)
    k = len(coeffs) - 1
    out = [[0] * k for _ in range(k)]
    for i in range(1, k):
        out[i][i - 1] = 1
    for i in range(k):
        out[i][k - 1] = -coeffs[i]
    return out


def block_layout(rng: random.Random, n: int, m: int) -> list[int]:
    """Random list of divisors d | m whose Phi_d degrees sum to n."""
    sizes = {d: len(cyclotomic(d)) - 1 for d in _divisors(m)}
    layout: list[int] = []
    size = 0
    while size < n:
        d = rng.choice([d for d, k in sizes.items() if k <= n - size])
        layout.append(d)
        size += sizes[d]
    return layout


def block_diagonal(layout: list[int]) -> list[list[int]]:
    blocks = [companion(d) for d in layout]
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(b)
    return out


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _apply_row_op(rows: list[list[int]], op: tuple) -> None:
    kind, i, j, q = op
    if kind == "add":
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [-x for x in rows[i]]


def unimodular_pair(rng: random.Random, n: int):
    """(P, P^-1) with P a product of CONJUGATION_STEPS elementary row operations."""
    ops = []
    for _ in range(CONJUGATION_STEPS):
        i, j = rng.sample(range(n), 2)
        kind = ("add", "swap", "negate")[rng.randrange(3)]
        q = rng.choice((-2, -1, 1, 2)) if kind == "add" else 0
        ops.append((kind, i, j, q))
    p = _identity(n)
    for op in ops:
        _apply_row_op(p, op)
    # P = E_k ... E_1, so P^-1 = E_1^-1 ... E_k^-1: the inverted operations
    # applied to I as row operations, last operation first.
    p_inv = _identity(n)
    for kind, i, j, q in reversed(ops):
        _apply_row_op(p_inv, (kind, i, j, -q))
    if matmul(p, p_inv) != _identity(n):
        raise ArithmeticError("conjugating matrix is not inverted exactly")
    return p, p_inv


def layout_for(n: int, m: int) -> list[int]:
    """The block layout of every input of size (n, m), the same for every seed.

    Op cost depends on the layout as well as on the conjugation; fixing
    the layout removes one of the two from the spread between seeds.  Even
    n gets a Phi_m block, which in every layout tried made the orbit
    coefficients non-integral (the formula engines report null cells), and
    odd n gets none, so both torsion paths are timed.
    """
    rng = random.Random(f"layout/{n}/{m}")
    while True:
        layout = block_layout(rng, n, m)
        if (m in layout) == (n % 2 == 0):
            return layout


class GroupStream:
    """Distinct seeded dense conjugates for one (seed, stream) pair.

    ``next(n, m)`` returns a validated ``GroupSpec`` conjugate to the
    block-companion matrix of ``layout_for(n, m)``; the seed chooses every
    conjugating matrix.  The stream remembers every matrix it handed out
    and draws again on a repeat, so each op gets a distinct group and
    in-process caches never serve a timed call.
    """

    def __init__(self, seed: int, stream: str):
        self.seed = seed
        self.stream = stream
        self.count = 0
        self._seen: set = set()

    def next(self, n: int, m: int):
        from semicoh.groups import GroupSpec, validate
        from semicoh.intmat import IntMatrix

        phi = block_diagonal(layout_for(n, m))
        while True:
            rng = random.Random(f"{self.seed}/{self.stream}/{self.count}")
            self.count += 1
            p, p_inv = unimodular_pair(rng, n)
            conjugate = matmul(matmul(p, phi), p_inv)
            key = (m, tuple(map(tuple, conjugate)))
            if key in self._seen:
                continue
            self._seen.add(key)
            name = f"{self.stream}-s{self.seed}-{self.count - 1}-n{n}-m{m}"
            return validate(GroupSpec(n=n, m=m, phi=IntMatrix(conjugate), name=name))
