from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.quadext import QuadExtValue
from qcurv.errors import DomainError

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=25)
radicands = st.fractions(min_value=0, max_value=900, max_denominator=25)


def sqrt_interval(d: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational [lo, hi] containing sqrt(d) with width at most 2**-bits."""
    if not d:
        return Fraction(0), Fraction(0)
    num, den = d.numerator, d.denominator
    shift = bits + den.bit_length()
    s = isqrt(num * den << (2 * shift))
    scale = den << shift
    return Fraction(s, scale), Fraction(s + 1, scale)


def interval(a: Fraction, b: Fraction, d: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of a + b*sqrt(d), the oracle for sign()."""
    extra = abs(b.numerator).bit_length() + b.denominator.bit_length()
    slo, shi = sqrt_interval(d, bits + extra + 1)
    if b >= 0:
        return a + b * slo, a + b * shi
    return a + b * shi, a + b * slo


def sign_of(a: Fraction, b: Fraction, d: Fraction) -> int:
    return QuadExtValue(a, b, d).sign()


def test_sign_case_analysis() -> None:
    assert sign_of(Fraction(0), Fraction(0), Fraction(7)) == 0
    assert sign_of(Fraction(3), Fraction(0), Fraction(7)) == 1
    assert sign_of(Fraction(0), Fraction(-2), Fraction(7)) == -1
    assert sign_of(Fraction(1), Fraction(1), Fraction(2)) == 1
    assert sign_of(Fraction(-1), Fraction(-1), Fraction(2)) == -1
    # Mixed signs resolved by squaring: 3 - 2*sqrt(2) > 0, 3 - sqrt(10) < 0.
    assert sign_of(Fraction(3), Fraction(-2), Fraction(2)) == 1
    assert sign_of(Fraction(3), Fraction(-1), Fraction(10)) == -1
    # Perfect-square radicand cancelling exactly: -4 + 2*sqrt(4) == 0.
    assert sign_of(Fraction(-4), Fraction(2), Fraction(4)) == 0


def test_worked_value_is_an_integer() -> None:
    # -31/4 + sqrt(3481/16) = -31/4 + 59/4 = 7 exactly.
    a, b, d = Fraction(-31, 4), Fraction(1), Fraction(3481, 16)
    assert QuadExtValue(a, b, d).sign() == 1
    assert QuadExtValue(a - 7, b, d).sign() == 0
    assert QuadExtValue(a - 7 - Fraction(1, 10**30), b, d).sign() == -1
    assert QuadExtValue(a - 7 + Fraction(1, 10**30), b, d).sign() == 1


def test_negative_radicand_rejected() -> None:
    with pytest.raises(DomainError):
        QuadExtValue(Fraction(1), Fraction(1), Fraction(-2))


def test_sqrt_interval_brackets() -> None:
    lo, hi = sqrt_interval(Fraction(2), 64)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 2**64)
    lo, hi = sqrt_interval(Fraction(9, 4), 16)
    assert lo <= Fraction(3, 2) <= hi


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, radicands)
def test_sign_agrees_with_high_precision_interval(a: Fraction, b: Fraction, d: Fraction) -> None:
    declared = sign_of(a, b, d)
    lo, hi = interval(a, b, d, 200)
    assert lo <= hi
    if declared > 0:
        assert hi > 0
    elif declared < 0:
        assert lo < 0
    if lo > 0:
        assert declared == 1
    elif hi < 0:
        assert declared == -1


@settings(max_examples=100, deadline=None)
@given(rationals, rationals, radicands, rationals)
def test_sign_of_shifted_value_orders_it_against_a_rational(
    a: Fraction, b: Fraction, d: Fraction, x: Fraction
) -> None:
    # sign(a - x + b sqrt(d)) orders a + b sqrt(d) against x; check it on
    # an enclosure of a + b sqrt(d), and for equality on a rational value.
    declared = sign_of(a - x, b, d)
    lo, hi = interval(a, b, d, 200)
    if lo > x:
        assert declared == 1
    elif hi < x:
        assert declared == -1
    root = isqrt(d.numerator * d.denominator)
    if root * root == d.numerator * d.denominator:
        exact = a + b * Fraction(root, d.denominator)
        assert declared == (exact > x) - (exact < x)
