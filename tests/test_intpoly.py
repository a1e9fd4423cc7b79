"""Exact oracle for the integer gcd, squarefree part, Sturm count and root bound: sympy.

Polynomials are drawn with planted shared factors and repeated factors, so
the gcd and the squarefree part are not trivial.  Results are compared up
to sign and content, the freedom a gcd over Z[x] leaves.  Root counts are
compared with ``Poly.count_roots`` on intervals whose ends are often
planted roots, dyadic or not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.intpoly import (
    cauchy_root_bound_pow2,
    count_roots_halfopen,
    poly_gcd,
    primitive,
    squarefree_part,
    trim,
)

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product(factors: list[list[int]]) -> list[int]:
    out = [1]
    for f in factors:
        out = conv(out, f)
    return out


def normal(p) -> tuple[int, ...]:
    """Primitive, leading coefficient positive: the class of p up to sign and content."""
    q = primitive([int(c) for c in trim(list(p))])
    return tuple(-c for c in q) if q and q[-1] < 0 else q


def to_sympy(p: list[int]):
    return sympy.Poly(list(reversed(p)), X, domain="ZZ")


def from_sympy(poly) -> tuple[int, ...]:
    return normal(reversed(poly.all_coeffs()))


def sympy_count(p: list[int], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of p in (lo, hi]; count_roots counts the closed interval."""
    poly = to_sympy(p)
    at = [sympy.Rational(x.numerator, x.denominator) for x in (lo, hi)]
    return poly.count_roots(*at) - (poly.eval(at[0]) == 0)


# Low-degree integer factors (linear q t - p and irreducible-or-not quadratics),
# each drawn with a multiplicity of 1 to 3.
factor = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda pq: [pq[0], pq[1]]),
    st.tuples(st.integers(-9, 9), st.integers(-5, 5), st.integers(1, 3)).map(list),
)
factors = st.lists(st.tuples(factor, st.integers(1, 3)), max_size=3).map(
    lambda drawn: [f for f, times in drawn for _ in range(times)]
)
scale = st.integers(-12, 12).filter(bool)


@settings(max_examples=80, deadline=None)
@given(factors, factors, factors, scale, scale)
def test_poly_gcd_matches_sympy(shared, only_p, only_q, cp: int, cq: int) -> None:
    p = [cp * c for c in product(shared + only_p)]
    q = [cq * c for c in product(shared + only_q)]
    got = poly_gcd(p, q)
    assert got == normal(got)  # primitive, leading coefficient positive
    assert got == from_sympy(to_sympy(p).gcd(to_sympy(q)))
    assert poly_gcd(q, p) == got


@settings(max_examples=80, deadline=None)
@given(factors, scale)
def test_squarefree_part_matches_sympy(planted, c: int) -> None:
    p = [c * x for x in product(planted)]
    got = squarefree_part(p)
    assert normal(got) == from_sympy(to_sympy(p).sqf_part())


def test_gcd_with_zero_and_constants() -> None:
    assert poly_gcd((), ()) == ()
    assert poly_gcd((0, -6, -4), ()) == (0, 3, 2)
    assert poly_gcd((3, 1), (5,)) == (1,)


dyadic = st.tuples(st.integers(-64, 64), st.integers(0, 4)).map(lambda mk: Fraction(mk[0], 2 ** mk[1]))
non_dyadic = st.fractions(min_value=-8, max_value=8, max_denominator=15)


@settings(max_examples=80, deadline=None)
@given(factors, scale, st.data())
def test_count_roots_halfopen_matches_sympy(planted, c: int, data) -> None:
    p = [c * x for x in product(planted)]
    # Rational roots of the linear factors a + b t; repeated ones are multiple roots.
    roots = [Fraction(-f[0], f[1]) for f in planted if len(f) == 2]
    ends = st.one_of(dyadic, non_dyadic, *([st.sampled_from(roots)] if roots else []))
    lo, hi = sorted(data.draw(st.tuples(ends, ends)))
    assert count_roots_halfopen(p, lo, hi) == sympy_count(p, lo, hi)


# Sturm chains with degree gaps (t**4 + a t + b is the smallest case): a
# pseudo-remainder can then scale by an odd power of a negative leading
# coefficient, which must not flip the sign of a chain term.
@pytest.mark.parametrize("p", [(1, 4, 0, 0, 1), (1, -4, 0, 0, 1), (-1, 4, 0, 0, -1), (1, 0, 4, 0, 0, 0, -1)])
def test_count_roots_halfopen_across_a_degree_gap(p: tuple[int, ...]) -> None:
    ends = [Fraction(k, 2) for k in range(-6, 7)]
    for lo, hi in itertools.combinations(ends, 2):
        assert count_roots_halfopen(p, lo, hi) == sympy_count(list(p), lo, hi)


def cauchy_pow2(p: list[int]) -> int:
    """The smallest power of two b with b |a_n| >= |a_n| + max |a_i|: above every real root."""
    b = 1
    while b * abs(p[-1]) < abs(p[-1]) + max(abs(c) for c in p[:-1]):
        b *= 2
    return b


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=2, max_size=7).filter(
        lambda p: p[-1] != 0
    ),
    st.lists(st.integers(min_value=0, max_value=300), max_size=3),
)
def test_positive_root_bound_against_sympy(p: list[int], shifts: list[int]) -> None:
    # Shifted coefficients put the roots far from 1 in both directions.
    for i, k in enumerate(shifts):
        p[i % len(p)] <<= k
    bound = cauchy_root_bound_pow2(p)
    assert bound >= 1 and bound & (bound - 1) == 0
    assert bound <= cauchy_pow2(p)
    for root in sympy.real_roots(to_sympy(p)):
        assert root < bound
    # Minimal: half the bound is not above the Kioustelidis bound, unless
    # the Cauchy bound is the smaller one.
    lead, n = abs(p[-1]), len(p) - 1
    negative = [(abs(c), n - i) for i, c in enumerate(p[:-1]) if c * p[-1] < 0]
    if 1 < bound < cauchy_pow2(p):
        assert any(lead * (bound // 2) ** k <= c * 2**k for c, k in negative)


def test_positive_root_bound_ignores_negative_roots() -> None:
    # (t + 1000)(t - 1): the Cauchy bound 1024 covers -1000; the positive
    # root bound is 2 sqrt(1000) < 64.
    assert cauchy_pow2([-1000, 999, 1]) == 1024
    assert cauchy_root_bound_pow2([-1000, 999, 1]) == 64
    assert cauchy_root_bound_pow2([1000, 1001, 1]) == 1  # no positive root
    # 2 sqrt(2**1100 + 1) is just above 2**551; the Cauchy bound is 2**1101.
    assert cauchy_root_bound_pow2([-(2**1100 + 1), 0, 1]) == 2**552
