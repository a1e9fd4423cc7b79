"""Laurent polynomials in one variable with exact rational coefficients.

A polynomial is integer numerators over one positive denominator:
``(low, num, den)`` is sum(num[i] * t**(low + i)) / den, with no zero at
either end of ``num`` and gcd(den, *num) == 1, so equal polynomials have
equal triples.  The curvature quantities of a canonical variation live
in Z[t, 1/t] tensored with Q, so this is the workhorse type of the
package.  Ring operations align, convolve and rescale integers, and a
scalar operand only rescales; ``Fraction`` appears only at the boundary.
Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from ..errors import DomainError
from . import intpoly
from .rationals import Scalar, format_rational


class LaurentPoly:
    """An exact Laurent polynomial sum(c_k * t**k) over the rationals."""

    __slots__ = ("_low", "_num", "_den")

    def __init__(self, coeffs: Mapping[int, Scalar] = MappingProxyType({})):
        terms = {}
        for exp, val in coeffs.items():
            if not isinstance(exp, int):
                raise TypeError(f"exponent must be an int, got {exp!r}")
            c = val if isinstance(val, (int, Fraction)) else Fraction(val)
            if c:
                terms[exp] = c
        # Over the lcm of the denominators the numerators are in lowest terms.
        self._low = low = min(terms, default=0)
        self._den = den = lcm(*[c.denominator for c in terms.values()])
        num = [0] * (max(terms, default=-1) - low + 1)
        for exp, c in terms.items():
            num[exp - low] = c.numerator * (den // c.denominator)
        self._num = tuple(num)

    @classmethod
    def const(cls, value: Scalar) -> "LaurentPoly":
        return cls.t_power(0, value)

    @classmethod
    def t_power(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        if not isinstance(exp, int):
            raise TypeError(f"exponent must be an int, got {exp!r}")
        c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
        return _make(exp, [c.numerator], c.denominator)

    def coeff(self, exp: int) -> Fraction:
        i = exp - self._low
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        low, den = self._low, self._den
        return tuple([(low + i, Fraction(c, den)) for i, c in enumerate(self._num) if c])

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def min_exp(self) -> int:
        if not self._num:
            raise DomainError("zero polynomial has no minimal exponent")
        return self._low

    @property
    def max_exp(self) -> int:
        if not self._num:
            raise DomainError("zero polynomial has no maximal exponent")
        return self._low + len(self._num) - 1

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self._low, [-c for c in self._num], self._den)

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return _sum(self, other, -1)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return _sum(other, self, -1)

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return _make(self._low, [c * other.numerator for c in self._num], self._den * other.denominator)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _make(self._low + other._low, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "LaurentPoly":
        c = scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        return _make(self._low, [x * c.denominator for x in self._num], self._den * c.numerator)

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("only nonnegative integer powers are supported")
        result = self if exponent else LaurentPoly.const(1)
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._low, self._num, self._den) == (other._low, other._num, other._den)

    def __hash__(self) -> int:
        return hash((self._low, self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, t: Scalar) -> Fraction:
        """Exact value at a rational point; t = 0 needs no negative exponents."""
        if not isinstance(t, (int, Fraction)):
            t = Fraction(t)
        if not (t and self._num):
            if self._low < 0:
                raise DomainError("evaluation at 0 with negative exponents present")
            return self.coeff(0)
        # t = p / q: the value is p**low * q**deg(P) * P(p / q) / (den * q**high), P the numerators.
        p, q = t.numerator, t.denominator
        low, high = self._low, self._low + len(self._num) - 1
        top = intpoly.evaluate(self._num, p, q) * p ** max(low, 0) * q ** max(-high, 0)
        return Fraction(top, self._den * q ** max(high, 0) * p ** max(-low, 0))

    __call__ = evaluate

    def clear_denominators(self) -> tuple[tuple[int, ...], int]:
        """Convert to an integer polynomial q with q(t) = m * t**shift * p(t).

        Returns ``(coeffs, shift)`` where ``coeffs`` lists q ascending from
        its constant term, ``shift`` is the minimal power of t clearing the
        negative exponents, and m is the least common multiple of the
        coefficient denominators (a positive integer, not returned): the
        stored denominator.  Positive roots are preserved exactly.
        """
        if not self._num:
            raise DomainError("cannot clear denominators of the zero polynomial")
        return (0,) * max(self._low, 0) + self._num, -min(self._low, 0)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object keyed by exponent (ascending), values in p/q form."""
        out, low, den = {}, self._low, self._den
        for i, c in enumerate(self._num):
            if c:
                g = gcd(c, den)
                out[str(low + i)] = f"{c // g}/{den // g}" if g != den else str(c // g)
        return out

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for exp, c in self.items():
            if exp == 0:
                term = format_rational(c)
            else:
                mag = format_rational(abs(c))
                coeff = "" if mag == "1" else f"{mag}*"
                var = "t" if exp == 1 else f"t^{exp}"
                term = f"{coeff}{var}"
                if c < 0:
                    term = "-" + term
            parts.append(term)
        text = " + ".join(parts).replace("+ -", "- ")
        return text


def _make(low: int, num: Sequence[int], den: int) -> LaurentPoly:
    """t**low * sum(num[i] * t**i) / den, trimmed and in lowest terms with den > 0."""
    start, stop = 0, len(num)
    while stop and not num[stop - 1]:
        stop -= 1
    while start < stop and not num[start]:
        start += 1
    g = gcd(den, *num[start:stop]) if den > 0 else -gcd(den, *num[start:stop])
    poly = LaurentPoly.__new__(LaurentPoly)
    # Lists, not generators: tuple(generator) shrinks a tuple onto the free lists.
    poly._num, poly._den = tuple([c // g for c in num[start:stop]]), den // g
    # With no numerator left g == den, and the zero polynomial is (0, (), 1).
    poly._low = low + start if poly._num else 0
    return poly


def _sum(a: object, b: object, sign: int) -> LaurentPoly:
    """a + sign * b, aligned over one denominator and normalised once."""
    a, b = _coerce(a), _coerce(b)
    if a is NotImplemented or b is NotImplemented:
        return NotImplemented
    den = lcm(a._den, b._den)
    low = min(a._low, b._low)
    out = [0] * (max(a._low + len(a._num), b._low + len(b._num)) - low)
    for poly, scale in ((a, den // a._den), (b, sign * (den // b._den))):
        offset = poly._low - low
        for i, c in enumerate(poly._num):
            out[offset + i] += c * scale
    return _make(low, out, den)


def _coerce(value: object) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return _make(0, [value.numerator], value.denominator)
    return NotImplemented
