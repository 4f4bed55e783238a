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
    """Refusing a computation whose exterior powers are astronomically large."""


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


class NotPrimeOrder(InputError):
    """The one-prime shortcut needs m itself to be prime."""


class DegreeOutOfRange(InputError):
    """Exterior-power degree outside 0..n."""


class NotASublattice(InputError):
    """Columns do not lie integrally in the span of the ambient basis."""


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
    """An invariant factor the structure theory forbids: outside {1, p} in
    an (r, s, t) quotient or in the cokernel of psi - 1 or N over Z/p, or
    not dividing q in a cyclic cohomology group."""


class NonInvariantBlock(InternalInvariantError):
    """A computed sublattice that must be action-stable is not."""


class NonIntegralK(InternalInvariantError):
    """An eigenvalue count m_d was not divisible by p - 1."""


class UnexpectedOrder(InternalInvariantError):
    """The free-origin block has an eigenvalue the theory forbids."""


class NonIntegralAverage(InternalInvariantError):
    """A character average (always an integer) failed to divide evenly."""


class NonIntegralOrbitCount(InternalInvariantError):
    """An orbit-count coefficient did not clear its denominator.

    Raised by the closed-form torsion coefficients when the degree strata
    of the class set are not stable under the complementary group action;
    comparison reports record this instead of aborting.
    """


class NonIntegral(InternalInvariantError):
    """An exact integer division inside a combinatorial identity failed."""


class TorsionExponentViolation(InternalInvariantError):
    """Torsion appeared whose order does not divide m."""
