"""Independent rank-mod-p evaluator for H^*(Z^n x| Z/m).

Evaluates the cyclic cohomology of each coefficient module exactly and
assembles degrees as

    H^l = direct sum over gamma of H^(l-gamma)(Z/m; wedge^gamma of the dual lattice)

which computes the full cohomology for square-free m (the relevant
spectral sequence collapses and the square-free torsion exponent splits
the abutment).  Each layer is read off one matrix, its norm N, and the
traces of the powers that build it: the rank over Q of N is the trace
identity dim Fix psi = tr(N)/q, certified by one product, N^2 == qN mod
a prime ell that does not divide q, which proves that N has that rank
mod ell; the p-part of even degrees is how far that rank drops mod p,
so N is eliminated once per prime p of q; and the Herbrand quotient, a
trace count, gives the odd degrees from the even ones.  No part of the
closed-form machinery is consulted (no eigenvalue census, Molien series
or torsion formula), so this engine is a genuinely independent arbiter.

The wedge pairing makes layer n - gamma the Z-dual of layer gamma
twisted by det phi.  For a cyclic group, Tate duality (H^i(G; L*) is dual
to H^(-i)(G; L), Brown, Cohomology of Groups, VI.7) and 2-periodicity
give a lattice and its dual the same groups in every degree, so when
det phi = 1 only layers gamma <= n/2 are evaluated.  When det phi = -1
the sign twist changes them (layer 0 is Z, layer n is Z_det).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isqrt

from .abelian import AbelianGroup
from .errors import (
    BadInvariantFactors,
    DimensionTooLarge,
    NotSquare,
    NotSquareFree,
    WrongOrder,
)
from .groups import GroupSpec, _factorint, validate
from .intmat import (
    _NUMPY_MIN_DIM,
    IntMatrix,
    certifies_rank,
    det,
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

    ``matrix`` is an IntMatrix or, for e2_table's layers of a lattice of
    rank at least _NUMPY_MIN_DIM, a square integer numpy array.
    Construction runs one chain of products psi^1..psi^q, in big integers
    on an IntMatrix (norm_and_power) and in layers.norm_trace_chain on an
    array: it checks psi^q = 1 (WrongOrder otherwise) and keeps the norm
    N = 1 + psi + ... + psi^(q-1) and the traces of psi^0..psi^(q-1),
    which are all the ranks read.
    """

    q: int
    matrix: object

    def __post_init__(self):
        m = self.matrix
        rows, cols = (m.rows, m.cols) if isinstance(m, IntMatrix) else m.shape
        if rows != cols:
            raise NotSquare("cyclic representations need a square matrix")
        if self.q < 1 or any(e > 1 for e in _factorint(self.q).values()):
            raise NotSquareFree(f"q={self.q} is not a positive square-free integer")
        if not self._chain[2]:
            raise WrongOrder(f"matrix order does not divide q={self.q}")

    @cached_property
    def _chain(self):
        """(N, [tr psi^k for k < q], psi^q == 1) from one chain of products psi^1..psi^q."""
        if isinstance(self.matrix, IntMatrix):
            return norm_and_power(self.matrix, self.q)
        from . import layers

        return layers.norm_trace_chain(self.matrix, self.q)

    @property
    def norm(self):
        """N = 1 + psi + ... + psi^(q-1), of the same kind as ``matrix``."""
        return self._chain[0]

    def _fixed_dim(self, k: int) -> int:
        """dim Fix psi^k = (k/q)(tr psi^0 + tr psi^k + ... + tr psi^(q-k)), for k dividing q."""
        dim, remainder = divmod(k * sum(self._chain[1][::k]), self.q)
        if remainder:
            raise BadInvariantFactors(f"traces give dim Fix psi^{k} = {dim + remainder / self.q}")
        return dim

    @cached_property
    def fixed_rank(self) -> int:
        """rk_Q(N) = dim Fix psi = tr(N)/q, certified mod a prime ell not dividing q.

        Once psi^q = 1, psi N = N, so N^2 = qN over Z and N/q projects onto
        the fixed space: rk_Q(N) = tr(N)/q, and every nonzero invariant
        factor of N divides q, so rk_ell(N) is the same rank.  The
        certificate checks N^2 == qN mod ell, tr N == q f and 0 <= f <= d
        for f the trace average and d the width of N, which proves
        rk_ell(N) = f (certifies_rank).  So a non-integral trace average
        or a failed certificate means the evaluation itself went wrong.
        """
        rank = self._fixed_dim(1)
        ell = _certificate_prime(self.q)
        if isinstance(self.norm, IntMatrix):
            certified = certifies_rank(self.norm, rank, self.q, ell)
        else:
            from . import layers

            certified = layers.certifies_rank(self.norm, rank, self.q, ell)
        if not certified:
            raise BadInvariantFactors(
                f"N is not {self.q} times an idempotent of trace {rank} mod {ell}"
            )
        return rank

    @cached_property
    def p_ranks(self) -> dict[int, tuple[int, int]]:
        """{p: (p-rank of H^even, p-rank of H^odd)} in positive degrees, for each prime p of q.

        The p-part of H^i(Z/q; M), i >= 1, is H^i(Z/p; L) for L the
        psi^p-fixed part of M localised at p (stable elements, as p does
        not divide q/p).  Over Z_(p), L is Z^r + Z[zeta_p]^t + Z[Z/p]^s
        with H^even = (Z/p)^r and H^odd = (Z/p)^t.  Every nonunit
        invariant factor of N divides q, so r = rk_Q(N) - rk_p(N).  With
        f = r + s = dim Fix psi and f_p = rank L = dim Fix psi^p, the
        Herbrand quotient gives r - t = (p f - f_p)/(p - 1).
        """
        fixed, ranks = self.fixed_rank, {}
        for p in sorted(_factorint(self.q)):
            even = fixed - _rank_mod_p(self.norm, p)
            shift, remainder = divmod(p * fixed - self._fixed_dim(p), p - 1)
            if remainder or min(even, even - shift) < 0:
                raise BadInvariantFactors(
                    f"mod {p}: even rank {even}, Herbrand shift {shift + remainder / (p - 1)}"
                )
            ranks[p] = (even, even - shift)
        return ranks


@lru_cache(maxsize=64)
def _certificate_prime(q: int) -> int:
    """The largest prime below 2**20 that does not divide q.

    Primes this small keep layers.certifies_rank's one float64 product
    exact on every layer the oracle admits: _MAX_LAYER_DIM * (ell - 1)**2
    is below 2**53.

    >>> _certificate_prime(6), _certificate_prime(1048573)
    (1048573, 1048571)
    """
    ell = 1 << 20
    while True:
        ell -= 1
        if q % ell and all(ell % d for d in range(2, isqrt(ell) + 1)):
            return ell


def _rank_mod_p(matrix, p: int) -> int:
    if isinstance(matrix, IntMatrix):
        return rank_mod_p(matrix, p)
    from . import layers

    return layers.rank_mod_p(matrix, p)


def cyclic_cohomology(rep: CyclicRep, alpha: int) -> AbelianGroup:
    """Classical cyclic-group cohomology of a lattice, exactly.

    alpha = 0: the fixed lattice, free of rank tr(N)/q.  alpha > 0: a sum
    of (Z/p)^e over the primes p of q, e read off CyclicRep.p_ranks.
    """
    if alpha < 0:
        raise ValueError("negative degree")
    if alpha == 0:
        return AbelianGroup(rep.fixed_rank)
    return AbelianGroup.from_counts(0, {p: ranks[alpha % 2] for p, ranks in rep.p_ranks.items()})


def e2_table(spec: GroupSpec, max_degree: int) -> CohomologyTable:
    """H^0..H^max_degree of Z^n x| Z/m by direct E2 evaluation.

    Each layer gamma is the cyclic cohomology of the dual exterior power
    at alpha in {0, 1, 2} only: positive degrees are 2-periodic, so these
    three values determine every degree.  A lattice of rank below
    _NUMPY_MIN_DIM (6) has layers at most C(5, 2) = 10 wide; they come
    from wedge_power and norm_and_power in pure Python, which never load
    numpy.  A lattice of rank at least 6 imports layers.py and gets its
    layers as numpy arrays from one pass of exterior_powers.  When det phi
    = 1, layer n - gamma is read off layer gamma by duality (module
    docstring), so layers past n // 2 are never built.
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
    # validate guarantees phi^m = 1, so the dual action phi^-T is (phi^(m-1))^T
    phi_star = (spec.phi ** (spec.m - 1)).transpose()
    if spec.n < _NUMPY_MIN_DIM:
        wedges = (wedge_power(phi_star, gamma) for gamma in range(spec.n + 1))
    else:
        from . import layers

        wedges = layers.exterior_powers(phi_star)
    computed = spec.n // 2 + 1 if det(spec.phi) == 1 else spec.n + 1
    per_layer = []
    # zip draws from range first, so no layer past the computed ones is built
    for _, wedge in zip(range(computed), wedges):
        rep = CyclicRep(spec.m, wedge)
        per_layer.append(tuple(cyclic_cohomology(rep, alpha) for alpha in (0, 1, 2)))
    per_layer += [per_layer[spec.n - gamma] for gamma in range(computed, spec.n + 1)]
    groups = [
        AbelianGroup.direct_sum(*(
            per_layer[gamma][0 if l == gamma else 2 - (l - gamma) % 2]
            for gamma in range(min(l, spec.n) + 1)
        ))
        for l in range(max_degree + 1)
    ]
    return CohomologyTable(
        engine="oracle",
        n=spec.n,
        m=spec.m,
        max_degree=max_degree,
        groups=tuple(groups),
        stable_from=spec.n + 1,
        assumptions=ORACLE_ASSUMPTIONS,
    )
