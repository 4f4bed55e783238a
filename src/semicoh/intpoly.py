"""Dense integer polynomials, lowest degree first.

Only the handful of exact operations the cohomology engines need:
multiplication, exact division, evaluation at integers and at matrices.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial over Z; ``coeffs[i]`` is the coefficient of x^i.

    >>> IntPolynomial.of(1, 1, 1).degree
    2
    >>> print(IntPolynomial.of(-1, 0, 1))
    x^2 - 1
    """

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, *coeffs: int) -> "IntPolynomial":
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        return cls(tuple(int(c) for c in coeffs[:end]))

    @classmethod
    def x_pow_minus_one(cls, d: int) -> "IntPolynomial":
        """x^d - 1."""
        return cls.of(-1, *([0] * (d - 1)), 1)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.of(*out)

    def divmod_exactly(self, divisor: "IntPolynomial"):
        """(quotient, remainder) over Z; requires a monic divisor."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            q = rem[i + dd]
            if q:
                quo[i] = q
                for j, b in enumerate(divisor.coeffs):
                    rem[i + j] -= q * b
        return IntPolynomial.of(*quo), IntPolynomial.of(*rem)

    def eval_matrix(self, a):
        """Evaluate at a square IntMatrix by Horner's rule."""
        from .intmat import IntMatrix

        if a.rows != a.cols:
            raise ValueError("matrix evaluation needs a square matrix")
        value = IntMatrix.zeros(a.rows, a.cols)
        for c in reversed(self.coeffs):
            value = value @ a
            if c:
                value = value + IntMatrix.scalar(a.rows, c)
        return value

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)
