"""Closed-form torsion: bounded compositions, orbit coefficients, assembly.

Two coefficient variants ship side by side.

* ``published``: the closed form exactly as its source states it, with two
  pinned reading conventions recorded in the erratum notes: tuple sums run
  over the support of the composition counts, and the empty-set
  coefficient is nonzero exactly in degrees divisible by 4.  That pin is
  the unique empty-set convention that reproduces the published reference
  table for the rank-5 order-6 flagship example through the published
  assembly; the convention "1 in every even degree >= 0" provably cannot.
* ``corrected``: the orbit count the constant-isotropy argument supports:
  exponent 1 on the index-ratio factor, strictly positive tuple entries
  over the chosen subset only, and degree cutoff sum(i_d) <= floor(beta/2)
  (a class of weight w enters the torsion in degree 2w; the zero class in
  degree 2).

Both are assembled through the same double sum over (l1, l2) with the
parity filter l2 = l (mod 2), which is how the closed form is stated; the
independent rank-mod-p evaluator is the arbiter whenever they disagree.
Every bounded tuple sum is a prefix sum of one product of the polynomials
(1 + x + ... + x^(p-1))^k_d, truncated at the top budget, so one product
per subset A of D gives T(A, beta) for every beta, and a torsion column is
the parity-filtered convolution of these series, times (1 + x^p)^s, with
the trivial block's wedge-count columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd
from operator import mul
from typing import Literal

from .cyclotomic import count_wedge_roots, divisors, exponent_multiset
from .errors import NonIntegralOrbitCount
from .groups import GroupSpec, isotropy_data, rst_decompose

TorsionVariant = Literal["published", "corrected"]
VARIANTS: tuple[TorsionVariant, ...] = ("published", "corrected")
CUTOFFS = ("half", "beta_minus_1")


def check_variant(variant: str, cutoff: str = "half") -> None:
    """ValueError unless ``variant`` is in VARIANTS and ``cutoff`` in CUTOFFS."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown torsion variant {variant!r}; expected one of {VARIANTS}")
    if cutoff not in CUTOFFS:
        raise ValueError(f"unknown corrected cutoff {cutoff!r}; expected one of {CUTOFFS}")


@dataclass(frozen=True)
class ThetaContext:
    """Everything the orbit coefficients depend on for one prime."""

    p: int
    m: int
    s: int
    divisors: tuple[int, ...]
    k_d: tuple[tuple[int, int], ...]


def _truncated_product(factors, top: int) -> list[int]:
    """Coefficients of x^0..x^top of the product of ``factors``.

    Each factor is a coefficient list, lowest degree first; terms above
    x^top are dropped as they arise, so the cost does not grow with the
    full degree of the product.

    >>> _truncated_product([[1, 1], [1, 1], [1, 1]], 2)
    [1, 3, 3]
    """
    out = [1] + [0] * top
    for factor in factors:
        nxt = [0] * (top + 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(factor[: top + 1 - i]):
                    nxt[i + j] += a * b
        out = nxt
    return out


@lru_cache(maxsize=256)
def _composition_poly(k: int, p: int) -> tuple[int, ...]:
    """Coefficients of (1 + x + ... + x^(p-1))^k, lowest degree first, once per (k, p).

    The coefficient of x^i counts the k-tuples with entries in [0, p-1]
    summing to i.

    >>> _composition_poly(3, 2)
    (1, 3, 3, 1)
    """
    return tuple(_truncated_product([[1] * p] * k, k * (p - 1)))


def _coefficient_series(
    ctx: ThetaContext, variant: TorsionVariant, a_set, top: int, cutoff: str
) -> list:
    """T(A, beta) for beta = 0..top as pairs (numerator, m^e) from one truncated product.

    The numerator is (p * gcd A)^e times a prefix sum of the product, with
    e = |A| (published) or 1 (corrected) and gcd of the empty set read as m/p.
    """
    kd = dict(ctx.k_d)
    if variant == "published":
        # tuples over all of D, entries from 0; only A's strata are weighted.  Pinned:
        # the empty set takes the empty product and is nonzero iff beta = 0 (mod 4)
        e, first, step, budgets = len(a_set), 0, (2 if a_set else 4), list(range(top + 1))
        polys = [(d, _composition_poly(kd[d], ctx.p)) for d in ctx.divisors if a_set]
        factors = [[c - 1 for c in poly] if d in a_set else [1] * len(poly) for d, poly in polys]
    else:
        # tuples over A only, strictly positive entries
        e, first, step = 1, 2, 2
        budgets = [b // 2 if cutoff == "half" else b - 1 for b in range(top + 1)]
        factors = [(0, *_composition_poly(kd[d], ctx.p)[1:]) for d in a_set]
    prefix = list(accumulate(_truncated_product(factors, max(budgets[-1], 0))))
    scale = (ctx.p * (gcd(*a_set) if a_set else ctx.m // ctx.p)) ** e
    return [(scale * prefix[budgets[b]] if b >= first and b % step == 0 else 0, ctx.m**e)
            for b in range(top + 1)]


def _null_cell(
    variant: TorsionVariant, a_set, beta: int, value: Fraction
) -> NonIntegralOrbitCount:
    return NonIntegralOrbitCount(f"coefficient {value} for A={sorted(a_set)}, "
                                 f"beta={beta} ({variant}) is not an integer")


@lru_cache(maxsize=256)
def _context_and_rblock(spec: GroupSpec, p: int):
    """(ThetaContext, r, {d: H(0..r, d) on the trivial block} for d | m/p).

    Keyed by (spec, p) alone: both variants share one context and one
    wedge-count column per divisor, and no cache is keyed by the r
    block's census, which conjugate specs share.
    """
    rst = rst_decompose(spec, p)
    iso = isotropy_data(spec, p, rst)
    ctx = ThetaContext(p=p, m=spec.m, s=rst.s, divisors=iso.divisors, k_d=iso.k_d)
    x_r = exponent_multiset(rst.r_census)
    return ctx, rst.r, {d: count_wedge_roots(x_r, d) for d in divisors(spec.m // p)}


def assemble_p_torsion(
    spec: GroupSpec,
    p: int,
    max_degree: int,
    variant: TorsionVariant,
    *,
    corrected_cutoff: str = "half",
) -> list:
    """Exponents theta(0..max_degree), with p-torsion (Z/p)^theta(l) in degree l.

    theta(l) = sum over l1 + l2 = l with l2 = l (mod 2), and over A within D, of

        (sum_tau T(A, l2 - p*tau) C(s, tau)) * H(l1, gcd(A), trivial block)

    where gcd(empty set) is read as m/p (the intersection of no isotropy
    subgroups is the whole complementary group).  One truncated product
    per A gives T(A, 0..max_degree); the tau sum folds (1 + x^p)^s into it
    once, and the column is its even-l1 convolution with H(., gcd A).
    Degree 0 is Z and carries no torsion, which the published empty-set
    convention must be prevented from contradicting.  A null cell is the
    NonIntegralOrbitCount, returned and not raised, of the first
    non-integral T(A, beta) it meets: l2 ascending, then A in subset
    (bit mask) order, then tau ascending.  ValueError for max_degree < 0.
    """
    check_variant(variant, corrected_cutoff)
    if max_degree < 0:
        raise ValueError("negative max degree")
    ctx, r, columns = _context_and_rblock(spec, p)
    nulls = [None] * (max_degree + 1)  # per l2, the first null: A in subset order, then tau
    folded = {}  # gcd A -> sum of the folded series of those A
    for mask in range(1 << len(ctx.divisors)):
        a_set = frozenset(d for i, d in enumerate(ctx.divisors) if mask >> i & 1)
        series = _coefficient_series(ctx, variant, a_set, max_degree, corrected_cutoff)
        exact = [num // den if num % den == 0
                 else _null_cell(variant, a_set, beta, Fraction(num, den))
                 for beta, (num, den) in enumerate(series)]
        acc = folded.setdefault(gcd(*a_set) if a_set else spec.m // p, [0] * (max_degree + 1))
        for tau in range(ctx.s + 1):  # times (1 + x^p)^s
            weight, shift = comb(ctx.s, tau), p * tau
            for l2, c in zip(range(shift, max_degree + 1), exact):
                if not isinstance(c, NonIntegralOrbitCount):
                    acc[l2] += weight * c
                elif nulls[l2] is None:
                    nulls[l2] = c
    column = [0]
    for l in range(1, max_degree + 1):
        low = l - min(r, l) // 2 * 2  # l2 = low, low + 2, ..., l, so l1 = l - l2 is even and <= r
        null = next((c for c in nulls[low:l + 1:2] if c is not None), None)
        column.append(null if null is not None else sum(  # sums[l2] * H(l - l2, d)
            sum(map(mul, sums[low:l + 1:2], columns[d][l - low::-2]))
            for d, sums in folded.items()))
    return column
