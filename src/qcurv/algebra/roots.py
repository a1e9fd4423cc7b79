"""Exact isolation of positive real roots of integer polynomials.

Isolation uses Descartes' rule of signs on Moebius-transformed
polynomials with dyadic bisection: a candidate interval is accepted once
the sign-variation count of (x+1)^n p(1/(x+1)) drops to 0 or 1.  The
input polynomial is replaced by its squarefree part for the search, so
roots of any multiplicity are isolated; the original polynomial is kept
on the box because multiplicity questions (simplicity, common roots
with another polynomial) are asked about it, not about the radical.

The search and the bisections carry integer numerators over a power
of two: the search works on [0, 2**b] and each later step halves an
interval.  The sign of p at num / den (den > 0) is the sign of the
integer den**deg(p) p(num / den), so box checks, comparisons with a
rational and refinement evaluate in integers, dyadic or not.
Fractions appear only at the box boundary: ``lo``, ``hi``, widths and
the argument of ``compare_to_rational``.

Boxes are immutable to their users.  Refinement returns a new, narrower
box; a bisection point that happens to hit the root exactly collapses
the box to width zero.  ``compare`` keeps, in a private slot, the
narrowest sub-box it has found for each box and starts the next
comparison from there; refinement starts there too, with the same result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from ..errors import DomainError
from .intpoly import (
    cauchy_root_bound_pow2,
    count_roots_halfopen,
    degree,
    derivative,
    divexact,
    evaluate,
    monomial_substitute,
    poly_gcd,
    primitive,
    reverse,
    sign_variations,
    squarefree_part,
    strip_low_zeros,
    taylor_shift_1,
    trim,
)
from .rationals import sign


def _sign_at(p: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num / den) for den > 0."""
    return sign(evaluate(p, num, den))


class RootBox:
    """An interval (lo, hi) containing exactly one real root of ``poly``.

    Width zero means the root is the rational number lo == hi.  For a
    box of positive width the squarefree part of ``poly`` changes sign
    across the interval and neither endpoint is a root.
    """

    __slots__ = ("poly", "lo", "hi", "_sqfree", "_sign_lo", "_narrow")

    def __init__(
        self,
        poly: Sequence[int],
        lo: Fraction,
        hi: Fraction,
        _sqfree: tuple[int, ...] | None = None,
    ):
        self.poly = trim(poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if not self.poly:
            raise DomainError("root box needs a nonzero polynomial")
        if self.lo > self.hi:
            raise DomainError("root box interval is reversed")
        self._sqfree = _sqfree if _sqfree is not None else squarefree_part(self.poly)
        # The narrowest sub-box found by compare; None until it refines this box.
        self._narrow: RootBox | None = None
        if self.lo == self.hi:
            if _sign_at(self.poly, self.lo.numerator, self.lo.denominator):
                raise DomainError("exact root box endpoint is not a root")
            self._sign_lo = 0
        else:
            s_lo = _sign_at(self._sqfree, self.lo.numerator, self.lo.denominator)
            s_hi = _sign_at(self._sqfree, self.hi.numerator, self.hi.denominator)
            if s_lo * s_hi >= 0:
                raise DomainError("root box does not bracket a sign change")
            self._sign_lo = s_lo

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refine(self, width: Fraction | int | str) -> "RootBox":
        """Shrink the box to at most the requested width by bisection."""
        target = Fraction(width)
        if target <= 0:
            raise DomainError("refinement width must be positive")
        if self.is_exact:
            return self
        # compare's sub-box is a node of the same bisection tree: the same result.
        if self._narrow is not None and self._narrow.width > target:
            return self._narrow.refine(target)
        # lo / den and hi / den; den doubles at every bisection, so it stays
        # a power of two when the endpoints are dyadic.
        den = lcm(self.lo.denominator, self.hi.denominator)
        lo = self.lo.numerator * (den // self.lo.denominator)
        hi = self.hi.numerator * (den // self.hi.denominator)
        while (hi - lo) * target.denominator > target.numerator * den:
            mid = lo + hi
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            s = _sign_at(self._sqfree, mid, den)
            if not s:
                return RootBox(self.poly, Fraction(mid, den), Fraction(mid, den), self._sqfree)
            if s == self._sign_lo:
                lo = mid
            else:
                hi = mid
        return RootBox(self.poly, Fraction(lo, den), Fraction(hi, den), self._sqfree)

    def compare_to_rational(self, x: Fraction | int) -> int:
        """Sign of (root - x), decided exactly."""
        x = Fraction(x)
        if self.is_exact:
            return sign(self.lo - x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        s = _sign_at(self._sqfree, x.numerator, x.denominator)
        if not s:
            return 0
        return 1 if s == self._sign_lo else -1

    def compare(self, other: "RootBox") -> int:
        """Total order on the isolated roots (0 when they coincide).

        Each side starts from the narrowest sub-box an earlier comparison
        found for it, and the sub-boxes found here are kept for the next.
        """
        a, b = self._narrow or self, other._narrow or other
        if a.is_exact and b.is_exact:
            return sign(a.lo - b.lo)
        if a.is_exact:
            return -b.compare_to_rational(a.lo)
        if b.is_exact:
            return a.compare_to_rational(b.lo)
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        # The boxes overlap.  Each holds one root and no root at an endpoint,
        # so a root of the gcd inside both is the root of each.
        common = poly_gcd(self.poly, other.poly)
        if degree(common) >= 1:
            if count_roots_halfopen(common, max(a.lo, b.lo), min(a.hi, b.hi)):
                return 0
        while True:
            a = self._narrow = a.refine(a.width / 4)
            b = other._narrow = b.refine(b.width / 4)
            if a.is_exact or b.is_exact:
                return a.compare(b)
            if a.hi <= b.lo:
                return -1
            if b.hi <= a.lo:
                return 1

    def vanishes_at_root(self, g: Sequence[int]) -> bool:
        """Whether the polynomial g has a zero at this box's root."""
        g = trim(g)
        if not g:
            return True
        if self.is_exact:
            return not _sign_at(g, self.lo.numerator, self.lo.denominator)
        h = poly_gcd(self.poly, g)
        if degree(h) < 1:
            return False
        return count_roots_halfopen(h, self.lo, self.hi) > 0

    def to_json(self) -> list[str]:
        return [str(self.lo), str(self.hi)]

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RootBox(root={self.lo})"
        return f"RootBox(({self.lo}, {self.hi}))"


def root_is_simple(box: RootBox) -> bool:
    """True when the isolated root is a simple root of box.poly."""
    # A squarefree part as long as poly means poly itself is squarefree.
    return len(box._sqfree) == len(box.poly) or not box.vanishes_at_root(derivative(box.poly))


def isolate_positive_roots(coeffs: Sequence[int]) -> list[RootBox]:
    """Disjoint isolating boxes for every positive real root, ascending."""
    p = trim(coeffs)
    if not p:
        raise DomainError("cannot isolate roots of the zero polynomial")
    stripped, _ = strip_low_zeros(p)
    if degree(stripped) < 1:
        return []
    sf = squarefree_part(stripped)
    bound = cauchy_root_bound_pow2(sf)
    intervals: list[tuple[int, int, int]] = []
    _descartes_split(primitive(monomial_substitute(sf, bound)), 0, 0, intervals)
    # Attach sf, not squarefree_part(p): a factor t**k in p would make the
    # whole-polynomial radical vanish at a box endpoint lo == 0.
    boxes = []
    for lo, hi, k in intervals:
        lo, hi, den = _settle_endpoints(sf, lo * bound, hi * bound, 1 << k)
        boxes.append(RootBox(p, Fraction(lo, den), Fraction(hi, den), sf))
    return boxes


def _settle_endpoints(sf: tuple[int, ...], lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """Shrink (lo / den, hi / den) until neither endpoint is a root of sf.

    The splitter guarantees exactly one root of sf strictly inside, but a
    sibling interval's exactly-hit root can sit on an endpoint.  Halving
    toward the interior root removes it while keeping the bracket; just
    right of a root of the squarefree sf, sf has the sign of sf' there.
    A width-zero interval is a root and comes back with the same value.
    """
    s_lo, s_hi = _sign_at(sf, lo, den), _sign_at(sf, hi, den)
    right_of_lo = s_lo or _sign_at(derivative(sf), lo, den)
    while not (s_lo and s_hi):
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        s = _sign_at(sf, mid, den)
        if not s:
            return mid, mid, den
        if s == right_of_lo:
            lo, s_lo = mid, s
        else:
            hi, s_hi = mid, s
    return lo, hi, den


def _descartes_split(
    r: tuple[int, ...], c: int, k: int, out: list[tuple[int, int, int]]
) -> None:
    """Recursive Descartes test for a squarefree r on (c / 2**k, (c + 1) / 2**k).

    r is the polynomial in local coordinates, the interval mapped to
    (0, 1).  Maintains r(0) != 0 and r(1) != 0, recording each interval
    as (lo, hi, k), numerators over 2**k, and bisection points that are
    roots as exact (width zero) intervals.
    """
    variations = sign_variations(taylor_shift_1(reverse(r)))
    if variations == 0:
        return
    if variations == 1:
        out.append((c, c + 1, k))
        return
    n = degree(r)
    left = primitive([c_i << (n - i) for i, c_i in enumerate(r)])
    right = taylor_shift_1(left)
    exact_mid = bool(right) and right[0] == 0
    if exact_mid:
        right, _ = strip_low_zeros(right)
        while not evaluate(left, 1, 1):
            left = divexact(left, (-1, 1))
    _descartes_split(left, 2 * c, k + 1, out)
    if exact_mid:
        out.append((2 * c + 1, 2 * c + 1, k + 1))
    _descartes_split(right, 2 * c + 1, k + 1, out)
