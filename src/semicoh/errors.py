"""Exception hierarchy.

Three user-visible failure classes, mirrored by the CLI exit codes:

* ``InputError`` (exit 2): the input violates a precondition the caller can fix.
* ``InternalInvariantError`` (exit 3): a structural fact that the theory
  guarantees failed to hold; either the input is inconsistent in a way
  validation cannot see, or there is a bug.
* ``DimensionTooLarge`` (exit 4): the request is exact-arithmetic-feasible
  only in principle; refused instead of thrashing.
"""


class CohomologyError(Exception):
    """Base class for every error raised by this package."""


class InputError(CohomologyError):
    """Invalid input (CLI exit code 2)."""


class InternalInvariantError(CohomologyError):
    """A guaranteed invariant failed (CLI exit code 3)."""


class DimensionTooLarge(CohomologyError):
    """Refusing a computation whose widest exterior power is over the oracle's cap."""


# -- input errors -----------------------------------------------------------

class NotSquare(InputError):
    """Matrix operation that requires a square matrix."""


class NotUnimodular(InputError):
    """Matrix determinant is not +-1."""


class NotSquareFree(InputError):
    """The cyclic order m has a repeated prime factor."""


class WrongOrder(InputError):
    """phi^m is not the identity."""


class NotADivisor(InputError):
    """A parameter that must divide m (or m/p) does not."""


class DegreeOutOfRange(InputError):
    """Exterior-power degree outside 0..n."""


class NotFreeAction(InputError):
    """The census requires an action that is free outside the origin."""


class NonUnityEigenvalues(InputError):
    """Polynomial is not a product of cyclotomics Phi_d with d | m."""


class SpecInputError(InputError):
    """A JSON group description failed schema validation."""

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


# -- internal invariant violations ------------------------------------------

class BadInvariantFactors(InternalInvariantError):
    """Ranks that contradict the invariant factors the structure theory
    allows.  rst_decompose raises it for an isotypic rank mod p above the
    census counts (a negative r_e or t_e); the oracle, for trace averages
    or ranks of a cyclic layer that contradict each other (a non-integral
    dim Fix psi^k or Herbrand shift, a rank mod l other than tr(N)/q, or
    a rank mod p that leaves a negative exponent)."""


class NonInvariantBlock(InternalInvariantError):
    """A computed sublattice that must be action-stable is not."""


class NonIntegralK(InternalInvariantError):
    """A free action whose class count contradicts p^(n/(p-1)): n is not
    a multiple of p - 1, or |det(psi - 1)| is another number."""


class NonIntegralAverage(InternalInvariantError):
    """A character average (always an integer) failed to divide evenly."""


class NonIntegralOrbitCount(InternalInvariantError):
    """An orbit-count coefficient did not clear its denominator.

    Returned as a null cell of a torsion column by assemble_p_torsion, and
    raised by formula_table, when the degree strata of the class set are
    not stable under the complementary group action; comparison reports
    record this instead of aborting.
    """


class TorsionExponentViolation(InternalInvariantError):
    """Torsion appeared whose order does not divide m."""
