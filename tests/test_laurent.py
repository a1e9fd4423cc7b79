from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from qcurv.algebra.laurent import LaurentPoly
from qcurv.algebra.rationals import format_rational, parse_rational
from qcurv.errors import DomainError

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=40)
terms = st.dictionaries(st.integers(min_value=-4, max_value=4), coeffs, max_size=6)
polys = terms.map(LaurentPoly)
points = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=30)


def test_parse_and_format_roundtrip() -> None:
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"


@pytest.mark.parametrize("bad", ["0.5", "1e3", "3/0", "1/-2", "", "a/b", "1/2/3"])
def test_parse_rejects_non_rationals(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_eval_of_worked_q_polynomial() -> None:
    # Oracle: term-by-term sum of the five coefficients at t = 1.
    terms = [
        Fraction(51, 200),
        Fraction(486, 25),
        Fraction(1149, 50),
        Fraction(36, 5),
        Fraction(-21, 2),
    ]
    expected = sum(terms, Fraction(0))
    assert expected == Fraction(315, 8)
    p = LaurentPoly({-2: terms[0], -1: terms[1], 0: terms[2], 1: terms[3], 2: terms[4]})
    assert p.evaluate(1) == Fraction(315, 8)


def test_eval_at_zero() -> None:
    assert LaurentPoly({0: 5, 2: 1}).evaluate(0) == 5
    with pytest.raises(DomainError):
        LaurentPoly({-1: 1}).evaluate(0)


def test_clear_denominators_worked_example() -> None:
    p = LaurentPoly(
        {
            2: 21,
            1: Fraction(-112, 5),
            0: Fraction(4771, 25),
            -1: Fraction(-392, 25),
            -2: Fraction(-51, 100),
        }
    )
    coeffs_out, shift = p.clear_denominators()
    assert coeffs_out == (-51, -1568, 19084, -2240, 2100)
    assert shift == 2
    # Oracle: q(t) must be m * t**shift * p(t) for a positive integer m.
    q = LaurentPoly(dict(enumerate(coeffs_out)))
    m = q.coeff(q.max_exp) / p.coeff(p.max_exp)
    assert m == 100 and m.denominator == 1
    assert q == m * LaurentPoly({shift: 1}) * p


def test_clear_denominators_keeps_positive_low_exponents() -> None:
    assert LaurentPoly({1: 3}).clear_denominators() == ((0, 3), 0)
    with pytest.raises(DomainError):
        LaurentPoly().clear_denominators()


@given(polys, polys, points)
def test_product_evaluation_identity(p: LaurentPoly, q: LaurentPoly, t: Fraction) -> None:
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)


@given(polys, polys, points)
def test_sum_evaluation_identity(p: LaurentPoly, q: LaurentPoly, t: Fraction) -> None:
    assert (p + q).evaluate(t) == p.evaluate(t) + q.evaluate(t)


# A dict[int, Fraction] oracle with no zero values, built term by term.
Terms = dict[int, Fraction]


def nonzero(terms: Terms) -> Terms:
    return {k: Fraction(c) for k, c in sorted(terms.items()) if c}


def oracle_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return nonzero(out)


def oracle_scale(a: Terms, c: Fraction) -> Terms:
    return nonzero({k: v * c for k, v in a.items()})


def oracle_mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return nonzero(out)


def oracle_cleared(a: Terms) -> tuple[tuple[int, ...], int]:
    """lcm(coefficient denominators) x coefficients, from exponent min(0, min_exp)."""
    m = lcm(*(c.denominator for c in a.values()))
    low = min(0, min(a))
    return tuple(int(a.get(e, 0) * m) for e in range(low, max(a) + 1)), -low


scalars_or_zero = st.one_of(coeffs, st.integers(min_value=-9, max_value=9))
scalars = scalars_or_zero.filter(bool)


@given(terms, terms, scalars, st.integers(min_value=0, max_value=3))
def test_operations_match_dict_oracle(a: Terms, b: Terms, c: Fraction, k: int) -> None:
    p, q = LaurentPoly(a), LaurentPoly(b)
    a, b = nonzero(a), nonzero(b)
    power: Terms = {0: Fraction(1)}
    for _ in range(k):
        power = oracle_mul(power, a)
    cases = [
        (p, a),
        (p + q, oracle_add(a, b)),
        (p - q, oracle_add(a, oracle_scale(b, -1))),
        (c - p, oracle_add({0: c}, oracle_scale(a, -1))),
        (p * q, oracle_mul(a, b)),
        (c * p, oracle_scale(a, c)),
        (p / c, oracle_scale(a, 1 / Fraction(c))),
        (p**k, power),
    ]
    for poly, want in cases:
        assert poly.items() == tuple(want.items())
        assert all(poly.coeff(e) == want.get(e, 0) for e in range(-13, 14))
        assert poly.is_zero == (not want)
        if want:
            assert (poly.min_exp, poly.max_exp) == (min(want), max(want))
            assert poly.clear_denominators() == oracle_cleared(want)
        assert poly == LaurentPoly(want) and hash(poly) == hash(LaurentPoly(want))
    assert (p == q) == (a == b)
    assert p == LaurentPoly(dict(reversed(list(a.items()))))


@given(polys)
def test_clear_denominators_reconstructs(p: LaurentPoly) -> None:
    if p.is_zero:
        return
    coeffs_out, shift = p.clear_denominators()
    assert all(isinstance(c, int) for c in coeffs_out)
    assert shift >= 0 and coeffs_out[-1] != 0
    q = LaurentPoly(dict(enumerate(coeffs_out)))
    lead = q.coeff(q.max_exp) / p.coeff(p.max_exp)
    assert lead.denominator == 1 and lead > 0
    assert q == lead * LaurentPoly({shift: 1}) * p


@given(polys)
def test_json_roundtrip(p: LaurentPoly) -> None:
    blob = p.to_json()
    assert list(blob) == [str(e) for e in sorted(int(k) for k in blob)]
    assert LaurentPoly({int(k): parse_rational(v) for k, v in blob.items()}) == p


def test_power_and_scalar_arithmetic() -> None:
    t = LaurentPoly.t_power(1)
    assert (1 - t) ** 2 == LaurentPoly({0: 1, 1: -2, 2: 1})
    assert (3 * t / 3) == t
    with pytest.raises(DomainError):
        t ** -1


def test_zero_scalar_operands_give_the_zero_polynomial() -> None:
    p = LaurentPoly({-2: Fraction(1, 3), 1: 4})
    zero = LaurentPoly()
    for poly in (
        p * 0,
        0 * p,
        p * Fraction(0),
        LaurentPoly.const(0),
        LaurentPoly.t_power(3, 0),
        LaurentPoly.t_power(-2, Fraction(0)),
        p - p,
        zero**1,
        zero**3,
    ):
        assert poly == zero and poly == 0 and 0 == poly and hash(poly) == hash(zero)
        assert poly.is_zero and not poly and poly.items() == ()
        assert poly.evaluate(Fraction(-2, 3)) == 0
    assert p + 0 == 0 + p == p - 0 == p
    assert zero**0 == 1 and p != 0


@given(terms, scalars_or_zero, st.integers(min_value=-4, max_value=4))
def test_scalar_operands_match_dict_oracle(a: Terms, c: Fraction, e: int) -> None:
    p = LaurentPoly(a)
    a = nonzero(a)
    constant = nonzero({0: c})
    cases = [
        (p * c, oracle_scale(a, c)),
        (c * p, oracle_scale(a, c)),
        (p + c, oracle_add(a, constant)),
        (c + p, oracle_add(a, constant)),
        (LaurentPoly.const(c), constant),
        (LaurentPoly.t_power(e, c), nonzero({e: c})),
        (LaurentPoly.t_power(e, 0), {}),
        (p**0, {0: Fraction(1)}),
        (p**1, a),
    ]
    for poly, want in cases:
        assert poly.items() == tuple(want.items())
        assert poly == LaurentPoly(want) and hash(poly) == hash(LaurentPoly(want))
    assert (p == c) == (c == p) == (a == constant)


@given(polys, st.one_of(polys, coeffs, st.integers(min_value=-9, max_value=9)))
def test_difference_is_the_sum_with_the_negation(p: LaurentPoly, q) -> None:
    assert p - q == p + (-q)
    assert q - p == -(p - q)


@given(polys)
def test_json_prints_each_coefficient_in_lowest_terms(p: LaurentPoly) -> None:
    assert p.to_json() == {str(k): str(c) for k, c in p.items()}


def test_scalar_paths_keep_their_errors() -> None:
    p = LaurentPoly({-1: 2, 1: Fraction(1, 3)})
    for exp in (Fraction(1), 1.0, "1"):
        with pytest.raises(TypeError, match="exponent must be an int"):
            LaurentPoly.t_power(exp)
    for op in (p.__add__, p.__radd__, p.__sub__, p.__rsub__, p.__mul__, p.__rmul__, p.__eq__):
        assert op(0.5) is NotImplemented
    for operate, symbol in ((lambda: p * 0.5, "*"), (lambda: 0.5 + p, "+"), (lambda: 0.5 - p, "-")):
        with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
            operate()
    for exponent in (-1, 2.0, Fraction(2)):
        with pytest.raises(DomainError):
            p**exponent
    with pytest.raises(ZeroDivisionError):
        p / 0


signed_points = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    st.integers(min_value=-6, max_value=6),
).filter(bool)


@pytest.mark.parametrize("low", [-3, 0, 2])
@given(st.lists(coeffs, min_size=1, max_size=5).filter(lambda cs: cs[0] != 0), signed_points)
def test_evaluate_matches_a_term_by_term_sum(low: int, cs: list[Fraction], t: Fraction) -> None:
    p = LaurentPoly({low + i: c for i, c in enumerate(cs)})
    assert p.min_exp == low
    value = p.evaluate(t)
    assert type(value) is Fraction
    assert value == sum((c * Fraction(t) ** (low + i) for i, c in enumerate(cs)), Fraction(0))
