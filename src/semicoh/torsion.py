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

Every bounded tuple sum in either variant is a coefficient, or a prefix sum
of coefficients, of a product of per-divisor polynomials built from
(1 + x + ... + x^(p-1))^k_d, truncated at the degree budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
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


def _comb0(a: int, b: int) -> int:
    """Binomial with the convention C(a, b) = 0 whenever a < 0 or b < 0."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


def bounded_composition_count(k: int, p: int, i: int) -> int:
    """Number of k-tuples with entries in [0, p-1] summing to i.

    Inclusion-exclusion over the entries that overflow the bound:

        sum_j (-1)^j C(k, j) C(i - j*p + k - 1, k - 1)

    >>> bounded_composition_count(2, 2, 1)
    2
    >>> bounded_composition_count(3, 2, 2)
    3
    """
    if k < 0 or i < 0:
        return 0
    if k == 0:
        return 1 if i == 0 else 0
    total = 0
    for j in range(k + 1):
        term = comb(k, j) * _comb0(i - j * p + k - 1, k - 1)
        total += term if j % 2 == 0 else -term
    return total


@dataclass(frozen=True)
class ThetaContext:
    """Everything the orbit coefficients depend on for one prime."""

    p: int
    m: int
    s: int
    divisors: tuple[int, ...]
    k_d: tuple[tuple[int, int], ...]
    variant: TorsionVariant


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
    """Coefficients of (1 + x + ... + x^(p-1))^k, lowest degree first, once per (k, p)."""
    return tuple(bounded_composition_count(k, p, i) for i in range(k * (p - 1) + 1))


def _theta_published(ctx: ThetaContext, a_set: frozenset[int], beta: int) -> Fraction:
    if beta < 0 or beta % 2:
        return Fraction(0)
    if not a_set:
        # Pinned: nonzero exactly when beta = 0 (mod 4); see module docstring.
        return Fraction(1 if beta % 4 == 0 else 0)
    kd = dict(ctx.k_d)
    factors = []
    for d in ctx.divisors:
        poly = _composition_poly(kd[d], ctx.p)
        factors.append([c - 1 for c in poly] if d in a_set else [1] * len(poly))
    total = sum(_truncated_product(factors, beta))
    factor = Fraction(ctx.p * gcd(*a_set), ctx.m) ** len(a_set)
    return factor * total


def _theta_corrected(
    ctx: ThetaContext, a_set: frozenset[int], beta: int, cutoff: str
) -> Fraction:
    if beta <= 0 or beta % 2:
        return Fraction(0)
    if not a_set:
        return Fraction(1)
    budget = beta // 2 if cutoff == "half" else beta - 1
    kd = dict(ctx.k_d)
    factors = [(0, *_composition_poly(kd[d], ctx.p)[1:]) for d in a_set]
    total = sum(_truncated_product(factors, budget))
    return Fraction(ctx.p * gcd(*a_set), ctx.m) * total


def theta_coefficient_exact(
    ctx: ThetaContext, a_set, beta: int, *, corrected_cutoff: str = "half"
) -> Fraction:
    """The orbit coefficient as an exact fraction (before integrality)."""
    check_variant(ctx.variant, corrected_cutoff)
    a_set = frozenset(a_set)
    if not a_set <= set(ctx.divisors):
        raise ValueError(f"{sorted(a_set)} is not a subset of D={ctx.divisors}")
    if ctx.variant == "published":
        return _theta_published(ctx, a_set, beta)
    return _theta_corrected(ctx, a_set, beta, corrected_cutoff)


def theta_coefficient(
    ctx: ThetaContext, a_set, beta: int, *, corrected_cutoff: str = "half"
) -> int:
    """Integer orbit coefficient; NonIntegralOrbitCount when it is not one.

    A non-clearing denominator means the weight strata of the class set
    are not stable under the complementary group action, so the closed
    form does not count orbits there; comparison reports record this
    instead of aborting.
    """
    value = theta_coefficient_exact(ctx, a_set, beta, corrected_cutoff=corrected_cutoff)
    if value.denominator != 1:
        raise NonIntegralOrbitCount(
            f"coefficient {value} for A={sorted(set(a_set))}, beta={beta} "
            f"({ctx.variant}) is not an integer"
        )
    return int(value)


def _subsets(items: tuple[int, ...]):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


@lru_cache(maxsize=256)
def _context_and_rblock(spec: GroupSpec, p: int):
    """({variant: ThetaContext}, r, {d: H(0..r, d) on the trivial block} for d | m/p).

    Keyed by (spec, p) alone: both variants share one decomposition and
    one wedge-count column per divisor, and no cache is keyed by the
    r block's census, which conjugate specs share.
    """
    rst = rst_decompose(spec, p)
    iso = isotropy_data(spec, p, rst)
    contexts = {
        variant: ThetaContext(p=p, m=spec.m, s=rst.s, divisors=iso.divisors, k_d=iso.k_d,
                              variant=variant)
        for variant in VARIANTS
    }
    x_r = exponent_multiset(rst.r_census)
    return contexts, rst.r, {d: count_wedge_roots(x_r, d) for d in divisors(spec.m // p)}


def assemble_p_torsion(
    spec: GroupSpec,
    p: int,
    l: int,
    variant: TorsionVariant,
    *,
    corrected_cutoff: str = "half",
) -> int:
    """Exponent theta with p-torsion (Z/p)^theta in degree l.

    theta = sum over l1 + l2 = l with l2 = l (mod 2), and over A within D, of

        (sum_tau T(A, l2 - p*tau) C(s, tau)) * H(l1, gcd(A), trivial block)

    where gcd(empty set) is read as m/p (the intersection of no isotropy
    subgroups is the whole complementary group).  Degree 0 is Z and
    carries no torsion, which the published empty-set convention must be
    prevented from contradicting.
    """
    check_variant(variant, corrected_cutoff)
    if l < 0:
        raise ValueError("negative degree")
    if l == 0:
        return 0
    contexts, r, columns = _context_and_rblock(spec, p)
    ctx = contexts[variant]
    m, s = spec.m, ctx.s
    theta = 0
    for l2 in range(l % 2, l + 1, 2):
        l1 = l - l2
        if l1 > r:
            continue
        for a_set in _subsets(ctx.divisors):
            coeff = 0
            for tau in range(s + 1):
                c = theta_coefficient(
                    ctx, a_set, l2 - p * tau, corrected_cutoff=corrected_cutoff
                )
                if c:
                    coeff += c * comb(s, tau)
            if coeff == 0:
                continue
            d_param = gcd(*a_set) if a_set else m // p
            theta += coeff * columns[d_param][l1]
    return theta
