"""Exact sign determination in Q(sqrt(d)).

The asymptotic criteria compare numbers of the form a + b*sqrt(d) with
rational a, b and a nonnegative rational radicand d.  Signs are decided
by case analysis and squaring, never by floating point.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .rationals import Scalar, sign


class QuadExtValue:
    """The real number a + b*sqrt(d) with a, b, d rational and d >= 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Scalar, b: Scalar = 0, d: Scalar = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = Fraction(d)
        if self.d < 0:
            raise DomainError("negative radicand has no real square root")

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        b = self.b if self.d else Fraction(0)
        if not b:
            return sign(self.a)
        if not self.a:
            return sign(b)
        sa, sb = sign(self.a), sign(b)
        if sa == sb:
            return sa
        lhs, rhs = self.a * self.a, b * b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def __repr__(self) -> str:
        if not self.b or not self.d:
            return f"QuadExtValue({self.a})"
        return f"QuadExtValue({self.a} + {self.b}*sqrt({self.d}))"
