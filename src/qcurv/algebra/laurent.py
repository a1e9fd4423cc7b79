"""Laurent polynomials in one variable with exact rational coefficients.

A Laurent polynomial is stored sparsely as a map from integer exponent
(possibly negative) to a nonzero Fraction.  All the curvature quantities
of a canonical variation live in Z[t, 1/t] tensored with Q, so this is
the workhorse type of the package.  Values are immutable: every
operation returns a new polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Union

from ..errors import DomainError
from .rationals import format_rational

Scalar = Union[int, Fraction]


class LaurentPoly:
    """An exact Laurent polynomial sum(c_k * t**k) over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] = MappingProxyType({})):
        data: dict[int, Fraction] = {}
        for exp, val in coeffs.items():
            if not isinstance(exp, int):
                raise TypeError(f"exponent must be an int, got {exp!r}")
            c = Fraction(val)
            if c:
                data[exp] = c
        self._coeffs = {k: data[k] for k in sorted(data)}

    @classmethod
    def const(cls, value: Scalar) -> "LaurentPoly":
        return cls({0: Fraction(value)})

    @classmethod
    def t_power(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls({exp: Fraction(coeff)})

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(self._coeffs.items())

    def exponents(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise DomainError("zero polynomial has no minimal exponent")
        return next(iter(self._coeffs))

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise DomainError("zero polynomial has no maximal exponent")
        return next(reversed(self._coeffs))

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = data.get(exp, Fraction(0)) + c
            if s:
                data[exp] = s
            else:
                data.pop(exp, None)
        return _wrap(data)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = data.get(e, Fraction(0)) + c1 * c2
                if s:
                    data[e] = s
                else:
                    del data[e]
        return _wrap(data)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "LaurentPoly":
        c = Fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        return _wrap({k: v / c for k, v in self._coeffs.items()})

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("only nonnegative integer powers are supported")
        result = LaurentPoly.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/dt (the t**0 term drops, t**-1 becomes -t**-2)."""
        return _wrap({k - 1: k * c for k, c in self._coeffs.items() if k != 0})

    def __call__(self, t: Scalar) -> Fraction:
        return self.evaluate(t)

    def evaluate(self, t: Scalar) -> Fraction:
        """Exact value at a rational point; t = 0 needs no negative exponents."""
        t = Fraction(t)
        if not t:
            if self._coeffs and self.min_exp < 0:
                raise DomainError("evaluation at 0 with negative exponents present")
            return self.coeff(0)
        # Horner on the ordinary-polynomial part of p * t**shift.
        shift = -min(self.min_exp, 0) if self._coeffs else 0
        acc = Fraction(0)
        if self._coeffs:
            for exp in range(self.max_exp, -shift - 1, -1):
                acc = acc * t + self.coeff(exp)
        return acc * t ** (-shift) if shift else acc

    def clear_denominators(self) -> tuple[tuple[int, ...], int]:
        """Convert to an integer polynomial q with q(t) = m * t**shift * p(t).

        Returns ``(coeffs, shift)`` where ``coeffs`` lists q ascending from
        its constant term, ``shift`` is the minimal power of t clearing the
        negative exponents, and m is the least common multiple of the
        coefficient denominators (a positive integer, not returned).
        Positive roots are preserved exactly.
        """
        if not self._coeffs:
            raise DomainError("cannot clear denominators of the zero polynomial")
        shift = -min(self.min_exp, 0)
        m = lcm(*(c.denominator for c in self._coeffs.values()))
        top = self.max_exp + shift
        out = [0] * (top + 1)
        for exp, c in self._coeffs.items():
            scaled = c * m
            out[exp + shift] = int(scaled)
        return tuple(out), shift

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object keyed by exponent (ascending), values in p/q form."""
        return {str(k): format_rational(c) for k, c in self._coeffs.items()}

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exp, c in self._coeffs.items():
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


def _wrap(data: dict[int, Fraction]) -> LaurentPoly:
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._coeffs = {k: data[k] for k in sorted(data)}
    return poly


def _coerce(value: object) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    return NotImplemented
