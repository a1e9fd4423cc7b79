"""Exact isolation of positive real roots of integer polynomials.

Isolation uses Descartes' rule of signs on Moebius-transformed
polynomials with dyadic bisection: a candidate interval is accepted once
the sign-variation count of (x+1)^n p(1/(x+1)) drops to 0 or 1.  The
search runs on the squarefree part, so roots of any multiplicity are
isolated; the box keeps the original polynomial, which multiplicity
questions (simplicity, common roots with another polynomial) are about.

A box holds integer endpoint numerators over one positive denominator,
and the sign of p at num / den is the sign of the integer
den**deg(p) p(num / den), so every check evaluates in integers.
Fractions appear only at the boundary: the constructor, ``lo``, ``hi``,
``width`` and the argument of ``compare_to_rational``.

Boxes are immutable.  ``refine`` returns what bisection to a width
gives, but lands on it directly from a float Newton start.  Bisection
from a standard dyadic cell, which is every box isolation makes, ends on
the standard dyadic cell of width 2**-k holding the root (or on the
root), so the result depends only on the root and k.  ``sort_by_root``
orders boxes by their ends and sends only overlapping ones to the exact
``compare``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Any, Callable, Sequence

from ..errors import DomainError
from .intpoly import (
    Poly,
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
    across the interval and neither endpoint is a root.  The endpoints
    are ``_lo / _den`` and ``_hi / _den``, integers with ``_den > 0``.
    """

    __slots__ = ("poly", "_lo", "_hi", "_den", "_sqfree", "_sign_lo")

    def __init__(self, poly: Sequence[int], lo: Fraction | int, hi: Fraction | int):
        poly = trim(poly)
        lo, hi = Fraction(lo), Fraction(hi)
        if not poly:
            raise DomainError("root box needs a nonzero polynomial")
        if lo > hi:
            raise DomainError("root box interval is reversed")
        sqfree = squarefree_part(poly)
        den = lo.denominator * hi.denominator
        lo_num, hi_num = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        sign_lo = _sign_at(sqfree, lo_num, den)  # poly and sqfree share their roots
        if lo == hi and sign_lo:
            raise DomainError("exact root box endpoint is not a root")
        if lo < hi and sign_lo * _sign_at(sqfree, hi_num, den) >= 0:
            raise DomainError("root box does not bracket a sign change")
        self.poly, self._sqfree, self._sign_lo = poly, sqfree, sign_lo
        self._lo, self._hi, self._den = lo_num, hi_num, den

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._den)

    @property
    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._den)

    @property
    def is_exact(self) -> bool:
        return self._lo == self._hi

    def refine(self, width: Fraction | int | str) -> "RootBox":
        """Narrow to at most the requested width; the box itself if already that narrow.

        The result is what bisection gives: after the least number j of
        halvings that reaches the width, the grid cell holding the root,
        or the root itself when it is a grid point.
        """
        target = Fraction(width)
        num, den = target.numerator, target.denominator
        if num <= 0:
            raise DomainError("refinement width must be positive")
        wide, narrow = (self._hi - self._lo) * den, num * self._den
        if wide <= narrow:
            return self
        j = wide.bit_length() - narrow.bit_length()
        j += wide > narrow << j
        return self._land(j, self._float_guess(j))

    def _float_guess(self, j: int) -> int:
        """Near the grid index of the root after j halvings, by float Newton in the box.

        It runs on sqfree(2**e y), |lo|, |hi| < 2**e, scaled into float range.
        """
        lo, hi, den, sqfree = self._lo, self._hi, self._den, self._sqfree
        e = max(max(-lo, hi).bit_length() - den.bit_length() + 1, 0)
        top = max(c.bit_length() + e * i for i, c in enumerate(sqfree))
        coeffs = [c / (1 << top - e * i) for i, c in enumerate(sqfree)][::-1]
        y_lo, y_hi = lo / (den << e), hi / (den << e)
        y, tol = (y_lo + y_hi) / 2, (hi - lo) / (den << e + j + 2)
        for _ in range(40):
            value = slope = 0.0
            for c in coeffs:
                slope, value = slope * y + value, value * y + c
            if (value > 0) - (value < 0) == self._sign_lo:
                y_lo = y
            else:
                y_hi = y
            new = y - value / slope if slope else y
            if not y_lo <= new <= y_hi:
                new = (y_lo + y_hi) / 2
            step, y = y - new, new
            if abs(step) <= tol + abs(y) * 1e-15:
                break
        n, q = y.as_integer_ratio()
        return ((n * den << e + j) - (lo * q << j)) // ((hi - lo) * q)

    def _land(self, j: int, guess: int) -> "RootBox":
        """The cell of the j-fold halving that holds the root, or the root itself.

        Point m of that grid is ((lo << j) + m (hi - lo)) / (den << j).  Signs are taken at
        guess, then 1, 2, 4, ... points on until past the root (step outgrows the bracket),
        then by bisection.
        """
        sqfree, lo, w, den = self._sqfree, self._lo << j, self._hi - self._lo, self._den << j
        left, right = 0, 1 << j
        probe, step = min(max(guess, 1), right - 1), 1
        while right - left > 1:
            s = _sign_at(sqfree, lo + probe * w, den)
            if not s:
                return _box(self.poly, sqfree, lo + probe * w, lo + probe * w, den, 0)
            up = s == self._sign_lo  # the root lies above the probe
            if up:
                left = probe
            else:
                right = probe
            if step < right - left:
                probe = left + step if up else right - step
            else:
                probe = (left + right) // 2
            step *= 2
        return _box(self.poly, sqfree, lo + left * w, lo + right * w, den, self._sign_lo)

    def compare_to_rational(self, x: Fraction | int) -> int:
        """Sign of (root - x), decided exactly."""
        x = Fraction(x)
        num, den = x.numerator, x.denominator
        if not self._lo * den < num * self._den < self._hi * den:
            # x is not inside the open box, or the box is the root itself.
            return sign((self._lo + self._hi) * den - 2 * num * self._den)
        # Left of the root the squarefree part has its sign at lo.
        return _sign_at(self._sqfree, num, den) * self._sign_lo

    def compare(self, other: "RootBox") -> int:
        """Total order on the isolated roots (0 when they coincide)."""
        a, b = self, other
        common = None
        while True:
            if a.is_exact:
                return -b.compare_to_rational(a.lo)
            if b.is_exact:
                return a.compare_to_rational(b.lo)
            if a._hi * b._den <= b._lo * a._den:
                return -1
            if b._hi * a._den <= a._lo * b._den:
                return 1
            if common is None:
                # The boxes overlap.  Each holds one root and no root at an
                # endpoint, so a root of the gcd inside both is the root of each.
                common = poly_gcd(self.poly, other.poly)
                if degree(common) >= 1 and count_roots_halfopen(
                    common, max(a.lo, b.lo), min(a.hi, b.hi)
                ):
                    return 0
            a, b = a._land(2, 2), b._land(2, 2)

    def vanishes_at_root(self, g: Sequence[int]) -> bool:
        """Whether the polynomial g has a zero at this box's root."""
        g = trim(g)
        if not g:
            return True
        if self.is_exact:
            return not _sign_at(g, self._lo, self._den)
        h = poly_gcd(self.poly, g)
        return degree(h) >= 1 and count_roots_halfopen(h, self.lo, self.hi) > 0

    def to_json(self) -> list[str]:
        return [str(self.lo), str(self.hi)]

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RootBox(root={self.lo})"
        return f"RootBox(({self.lo}, {self.hi}))"


def _box(poly: Poly, sqfree: Poly, lo: int, hi: int, den: int, sign_lo: int) -> RootBox:
    """The box (lo / den, hi / den) of poly, its bracket and sqfree's sign at lo known."""
    box = object.__new__(RootBox)
    box.poly, box._sqfree, box._sign_lo = poly, sqfree, sign_lo
    box._lo, box._hi, box._den = lo, hi, den
    return box


def root_is_simple(box: RootBox) -> bool:
    """True when the isolated root is a simple root of box.poly."""
    # A squarefree part as long as poly means poly itself is squarefree.
    return len(box._sqfree) == len(box.poly) or not box.vanishes_at_root(derivative(box.poly))


def sort_by_root(items: Sequence[Any], key: Callable[[Any], tuple[RootBox, Any]]) -> list[Any]:
    """The items ordered by root, equal roots by tie, where key(item) = (box, tie).

    The boxes are sorted by (lo, hi, tie) and cut into runs that overlap;
    boxes that only touch at an endpoint are in order.  A run of two or
    more is sorted by the exact ``compare``: for boxes refined to one
    width, roots that share a grid cell.
    """
    keyed = [key(item) for item in items]
    den = lcm(*(box._den for box, _ in keyed))
    ends = sorted(
        (box._lo * (den // box._den), box._hi * (den // box._den), tie, i)
        for i, (box, tie) in enumerate(keyed)
    )
    runs: list[list[int]] = []
    reach = ends[0][0] if ends else 0
    for lo, hi, _tie, i in ends:
        if not runs or lo >= reach:
            runs.append([])
        runs[-1].append(i)
        reach = max(reach, hi)

    def by_root(i: int, j: int) -> int:
        (a, s), (b, t) = keyed[i], keyed[j]
        return a.compare(b) or (s > t) - (s < t)

    return [items[i] for run in runs for i in sorted(run, key=cmp_to_key(by_root))]


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
    return [_settled(p, sf, lo * bound, hi * bound, 1 << k) for lo, hi, k in intervals]


def _settled(p: Poly, sf: Poly, lo: int, hi: int, den: int) -> RootBox:
    """The box (lo / den, hi / den) of p, halved until neither endpoint is a root of sf.

    The splitter guarantees exactly one root of sf strictly inside, but a
    sibling interval's exactly-hit root can sit on an endpoint.  Just right
    of a root of the squarefree sf, sf has the sign of sf', which then
    brackets the interior root.  A width-zero interval is a root (sign 0).
    """
    s_lo = _sign_at(sf, lo, den)
    box = _box(p, sf, lo, hi, den, s_lo or _sign_at(derivative(sf), lo, den) * (lo < hi))
    while not (box.is_exact or s_lo and _sign_at(sf, box._hi, box._den)):
        box = box._land(1, 1)
        s_lo = _sign_at(sf, box._lo, box._den)
    return box


def _descartes_split(r: Poly, c: int, k: int, out: list[tuple[int, int, int]]) -> None:
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
