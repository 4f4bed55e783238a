"""Independent rank-mod-p evaluator for H^*(Z^n x| Z/m).

Evaluates the two-column periodic complex of each cyclic coefficient
module exactly and assembles degrees as

    H^l = direct sum over gamma of H^(l-gamma)(Z/m; wedge^gamma of the dual lattice)

which computes the full cohomology for square-free m (the relevant
spectral sequence collapses and the square-free torsion exponent splits
the abutment).  Each layer is read off ranks: since psi^q = 1 with q
square-free, every nonunit invariant factor of psi - 1 and of N divides
q, so the p-part of each cyclic group is how far a rank over Q drops mod
p.  The rank over Q comes from the layer's own trace identity
dim Fix psi = tr(N)/q, certified by a rank mod a prime that does not
divide q.  No part of the closed-form machinery is consulted (no
eigenvalue census, Molien series or torsion formula), so this engine is
a genuinely independent arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isqrt

from .abelian import AbelianGroup, _factorint
from .errors import (
    BadInvariantFactors,
    DimensionTooLarge,
    NotADivisor,
    NotSquare,
    NotSquareFree,
    WrongOrder,
)
from .groups import GroupSpec, validate
from .intmat import (
    _NUMPY_MIN_DIM,
    IntMatrix,
    contragredient,
    norm_and_power,
    rank_mod_p,
    wedge_power,
)
from .tables import CohomologyTable

# the widest exterior layer, C(n, n // 2), may have at most this many rows:
# n = 14 (94 MB per float64 layer array); n = 16 would need 1.3 GB per array
_MAX_LAYER_DIM = 3432

ORACLE_ASSUMPTIONS = (
    "collapse: the degree assembly is the direct-sum E2 page, valid for square-free m",
    "splitting: square-free torsion exponent splits every extension in sight",
)


@dataclass(frozen=True, eq=False)
class CyclicRep:
    """A lattice with an action of Z/q, q square-free, given by the matrix psi of a generator.

    ``matrix`` is an IntMatrix or, for e2_table's layers at least
    _NUMPY_MIN_DIM wide, a square integer numpy array.  Construction runs
    one chain of products psi^1..psi^q: it checks psi^q = 1 (WrongOrder
    otherwise) and keeps the norm N = 1 + psi + ... + psi^(q-1) and its
    trace for the ranks.
    """

    q: int
    matrix: object

    def __post_init__(self):
        rows, cols = _shape(self.matrix)
        if rows != cols:
            raise NotSquare("cyclic representations need a square matrix")
        if self.q < 1 or any(e > 1 for e in _factorint(self.q).values()):
            raise NotSquareFree(f"q={self.q} is not a positive square-free integer")
        if not self._chain[2]:
            raise WrongOrder(f"matrix order does not divide q={self.q}")

    @cached_property
    def _chain(self):
        """(N, tr N, psi^q == 1) from one chain of products psi^1..psi^q."""
        if isinstance(self.matrix, IntMatrix):
            norm, power = norm_and_power(self.matrix, self.q)
            return norm, norm.trace(), power.is_identity()
        from . import layers

        return layers.norm_trace_chain(self.matrix, self.q)

    @property
    def norm(self):
        """N = 1 + psi + ... + psi^(q-1), of the same kind as ``matrix``."""
        return self._chain[0]

    @cached_property
    def fixed_rank(self) -> int:
        """rk_Q(N) = dim Fix psi = tr(N)/q, certified by the rank of N mod a prime not dividing q.

        Both facts hold once psi^q = 1: N/q projects onto the fixed
        space, and every nonzero invariant factor of N divides q.  So a
        non-integral trace quotient or a different certificate rank means
        the evaluation itself went wrong.
        """
        rank, remainder = divmod(self._chain[1], self.q)
        if remainder:
            raise BadInvariantFactors(f"tr N = {self._chain[1]} is not divisible by q={self.q}")
        ell = _certificate_prime(self.q)
        certificate = _rank_mod_p(self.norm, ell)
        if certificate != rank:
            raise BadInvariantFactors(f"rank of N mod {ell} is {certificate}, tr(N)/q is {rank}")
        return rank


@lru_cache(maxsize=64)
def _certificate_prime(q: int) -> int:
    """The largest prime below 2**23 that does not divide q.

    Primes this small keep layers.rank_mod_p exact in 64-column panels.

    >>> _certificate_prime(6), _certificate_prime(8388593)
    (8388593, 8388587)
    """
    ell = 1 << 23
    while True:
        ell -= 1
        if q % ell and all(ell % d for d in range(2, isqrt(ell) + 1)):
            return ell


def _shape(matrix) -> tuple[int, int]:
    return (matrix.rows, matrix.cols) if isinstance(matrix, IntMatrix) else matrix.shape


def _rank_mod_p(matrix, p: int) -> int:
    if isinstance(matrix, IntMatrix):
        return rank_mod_p(matrix, p)
    from . import layers

    return layers.rank_mod_p(matrix, p)


def _minus_identity(matrix):
    if isinstance(matrix, IntMatrix):
        return matrix - IntMatrix.identity(matrix.rows)
    shifted = matrix.copy()
    shifted.flat[:: len(matrix) + 1] -= 1  # the diagonal
    return shifted


def cyclic_cohomology(rep: CyclicRep, alpha: int) -> AbelianGroup:
    """Classical cyclic-group cohomology of a lattice, exactly.

    alpha = 0: the fixed lattice, free of rank tr(N)/q.  alpha odd:
    ker(N)/im(psi - 1); alpha even > 0: ker(psi - 1)/im(N).  Since
    psi^q = 1 the image of each map has the kernel of the other as its
    saturation, so these are the torsion of coker(psi - 1) and of
    coker(N), whose nonunit invariant factors all divide the square-free
    q.  The p-exponent is therefore rk_Q - rk_p of that map, with
    rk_Q(N) = tr(N)/q and rk_Q(psi - 1) = dim - tr(N)/q.
    """
    if alpha < 0:
        raise ValueError("negative degree")
    fixed = rep.fixed_rank
    if alpha == 0:
        return AbelianGroup.free(fixed)
    if alpha % 2:
        matrix, rank = _minus_identity(rep.matrix), _shape(rep.matrix)[0] - fixed
    else:
        matrix, rank = rep.norm, fixed
    factors = []
    for p in sorted(_factorint(rep.q)):
        drop = rank - _rank_mod_p(matrix, p)
        if drop < 0:
            raise BadInvariantFactors(f"rank mod {p} exceeds the rank {rank} over Q")
        factors += [p] * drop
    return AbelianGroup.from_factors(0, factors)


def e2_table(spec: GroupSpec, max_degree: int) -> CohomologyTable:
    """H^0..H^max_degree of Z^n x| Z/m by direct E2 evaluation.

    Each layer gamma is the cyclic cohomology of the dual exterior power
    at alpha in {0, 1, 2} only: positive degrees are 2-periodic, so these
    three values determine every degree.  A lattice of rank below
    _NUMPY_MIN_DIM has no layer that wide, and its layers come from
    wedge_power in pure Python; a wider one imports layers.py and gets
    every layer as a numpy array from one pass of exterior_powers.
    """
    validate(spec)
    widest = comb(spec.n, spec.n // 2)
    if widest > _MAX_LAYER_DIM:
        raise DimensionTooLarge(
            f"n={spec.n}: the widest exterior layer has {widest} rows, over the "
            f"oracle's cap of {_MAX_LAYER_DIM} rows (n <= 14)"
        )
    if max_degree < 0:
        raise ValueError("negative max degree")
    phi_star = contragredient(spec.phi)
    if spec.n < _NUMPY_MIN_DIM:
        wedges = (wedge_power(phi_star, gamma) for gamma in range(spec.n + 1))
    else:
        from . import layers

        wedges = layers.exterior_powers(phi_star)
    per_layer = []
    for wedge in wedges:
        rep = CyclicRep(spec.m, wedge)
        per_layer.append(tuple(cyclic_cohomology(rep, alpha) for alpha in (0, 1, 2)))
    groups = []
    for l in range(max_degree + 1):
        parts = []
        for gamma in range(min(l, spec.n) + 1):
            alpha = l - gamma
            if alpha == 0:
                parts.append(per_layer[gamma][0])
            elif alpha % 2:
                parts.append(per_layer[gamma][1])
            else:
                parts.append(per_layer[gamma][2])
        groups.append(AbelianGroup.direct_sum(*parts))
    return CohomologyTable(
        engine="oracle",
        n=spec.n,
        m=spec.m,
        max_degree=max_degree,
        groups=tuple(groups),
        stable_from=spec.n + 1,
        assumptions=ORACLE_ASSUMPTIONS,
    )


def subgroup_oracle(spec: GroupSpec, q: int, max_degree: int) -> CohomologyTable:
    """e2_table for the sub-semidirect product Z^n x| Z/q, q | m."""
    validate(spec)
    if q < 1 or spec.m % q:
        raise NotADivisor(f"{q} does not divide m={spec.m}")
    sub = GroupSpec(
        n=spec.n,
        m=q,
        phi=spec.phi ** (spec.m // q),
        name=f"{spec.name or 'group'}-sub{q}",
    )
    return e2_table(sub, max_degree)
