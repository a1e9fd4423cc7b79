"""Exact oracle for the integer gcd and squarefree part: sympy's Poly.gcd and sqf_part.

Polynomials are drawn with planted shared factors and repeated factors, so
the gcd and the squarefree part are not trivial.  Results are compared up
to sign and content, the freedom a gcd over Z[x] leaves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.intpoly import poly_gcd, primitive, squarefree_part, trim

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
