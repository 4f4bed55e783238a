"""Kernels, solves and lattice quotients read off the public Smith normal form.

These are references for the tests only: no computing path of the package
reads a Smith form.  Each helper runs one ``smith_normal_form``, U @ A @ V
= D, whose nonzero diagonal entries lead the diagonal.
"""

from semicoh.abelian import AbelianGroup
from semicoh.intmat import IntMatrix, smith_normal_form

from conftest import cyclic_sum


class NotASublattice(ValueError):
    """Columns do not lie integrally in the span of the ambient basis."""


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith diagonal entries."""
    return tuple(x for x in smith_normal_form(a).diagonal if x)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel {x : a x = 0}, as columns.

    The span is pure: Z^cols / span is torsion-free.  A zero kernel gives
    a matrix with zero columns.
    """
    s = smith_normal_form(a)
    rank = sum(1 for x in s.diagonal if x)
    return IntMatrix([row[rank:] for row in s.v.data])


def solve_columns(basis: IntMatrix, targets: IntMatrix) -> IntMatrix:
    """Integer coordinates C with basis @ C == targets.

    ``basis`` must have independent columns.  Raises NotASublattice when a
    target column is not an integral combination of the basis columns.
    """
    if basis.rows != targets.rows:
        raise ValueError("row mismatch")
    s = smith_normal_form(basis)
    k = basis.cols
    if sum(1 for x in s.diagonal if x) != k:
        raise NotASublattice("ambient columns are not independent")
    ub = (s.u @ targets).data
    if any(any(row) for row in ub[k:]):
        raise NotASublattice("column outside the rational span")
    w = []
    for d, row in zip(s.diagonal, ub):
        quotients = [divmod(x, d) for x in row]
        if any(r for _, r in quotients):
            raise NotASublattice("column not integrally in the span")
        w.append([q for q, _ in quotients])
    return s.v @ IntMatrix(w)


def lattice_quotient(ambient_basis: IntMatrix, sub_basis: IntMatrix) -> AbelianGroup:
    """V / W as a canonical abelian group.

    ``ambient_basis`` columns span V; ``sub_basis`` columns generate W
    (they may be dependent).  Invariant factors come from the Smith form
    of the coordinate matrix of W in the basis of V.
    """
    factors = invariant_factors(solve_columns(ambient_basis, sub_basis))
    return cyclic_sum(ambient_basis.cols - len(factors), factors)
