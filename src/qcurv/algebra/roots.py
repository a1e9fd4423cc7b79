"""Exact isolation of positive real roots of integer polynomials.

Isolation uses Descartes' rule of signs on Moebius-transformed
polynomials with dyadic bisection: a candidate interval is accepted once
the sign-variation count of (x+1)^n p(1/(x+1)) drops to 0 or 1.  The
input polynomial is replaced by its squarefree part for the search, so
roots of any multiplicity are isolated; the original polynomial is kept
on the box because multiplicity questions (simplicity, common roots
with another polynomial) are asked about it, not about the radical.

A box holds integer endpoint numerators over one positive denominator,
a power of two for every box made here: the search works on [0, 2**b]
and each later step halves an interval.  The sign of p at num / den
(den > 0) is the sign of the integer den**deg(p) p(num / den), so box
checks, comparisons and refinement evaluate in integers, and a box made
by halving takes its parent's sign at the left end instead of evaluating
it again.  Fractions appear only at the box boundary: the constructor,
``lo``, ``hi``, ``width`` and the argument of ``compare_to_rational``.

Boxes are immutable to their users.  Refinement returns a new, narrower
box; a bisection point that happens to hit the root exactly collapses
the box to width zero.  ``compare`` and the instant sweep in
``bifurcation`` quarter a box's private sub-box ``_narrow`` and start
there the next time; it is a node of the box's own bisection tree, so
refinement starts there too, with the same result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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

    __slots__ = ("poly", "_lo", "_hi", "_den", "_sqfree", "_sign_lo", "_narrow")

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
        self._lo, self._hi, self._den, self._narrow = lo_num, hi_num, den, None

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

    def _bisect(self, num: int, den: int) -> "RootBox":
        """Bisect to width at most num / den, or until a bisection point is the root."""
        lo, hi, d = self._lo, self._hi, self._den
        while (hi - lo) * den > num * d:
            mid = lo + hi
            lo, hi, d = 2 * lo, 2 * hi, 2 * d
            s = _sign_at(self._sqfree, mid, d)
            if not s:
                return _box(self.poly, self._sqfree, mid, mid, d, 0)
            if s == self._sign_lo:
                lo = mid
            else:
                hi = mid
        return _box(self.poly, self._sqfree, lo, hi, d, self._sign_lo)

    def _quarter(self) -> "RootBox":
        """Narrow the kept sub-box by two bisections (none if exact); return it."""
        box = self._narrow or self
        self._narrow = box._bisect(box._hi - box._lo, 4 * box._den)
        return self._narrow

    def refine(self, width: Fraction | int | str) -> "RootBox":
        """Shrink the box to at most the requested width by bisection."""
        target = Fraction(width)
        num, den = target.numerator, target.denominator
        if num <= 0:
            raise DomainError("refinement width must be positive")
        # Same bisection tree: start at the kept sub-box unless a fresh box stops above it.
        box = self._narrow or self
        if (box._hi - box._lo) * den <= num * box._den:
            box = self
        return box._bisect(num, den)

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
        """Total order on the isolated roots (0 when they coincide).

        Each side starts from its kept sub-box and keeps the narrower one found here.
        """
        a, b = self._narrow or self, other._narrow or other
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
            a, b = self._quarter(), other._quarter()

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
    box._lo, box._hi, box._den, box._narrow = lo, hi, den, None
    return box


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
    return [
        _box(p, sf, *_settle_endpoints(sf, lo * bound, hi * bound, 1 << k))
        for lo, hi, k in intervals
    ]


def _settle_endpoints(sf: Poly, lo: int, hi: int, den: int) -> tuple[int, ...]:
    """Shrink (lo / den, hi / den) until neither endpoint is a root of sf.

    The splitter guarantees exactly one root of sf strictly inside, but a
    sibling interval's exactly-hit root can sit on an endpoint.  Halving
    toward the interior root removes it while keeping the bracket; just
    right of a root of the squarefree sf, sf has the sign of sf' there.
    A width-zero interval is a root and comes back with the same value.
    Returns (lo, hi, den, sign of sf at lo), the sign 0 for a root.
    """
    s_lo, s_hi = _sign_at(sf, lo, den), _sign_at(sf, hi, den)
    right_of_lo = s_lo or _sign_at(derivative(sf), lo, den)
    while not (s_lo and s_hi):
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        s = _sign_at(sf, mid, den)
        if not s:
            return mid, mid, den, 0
        if s == right_of_lo:
            lo, s_lo = mid, s
        else:
            hi, s_hi = mid, s
    return lo, hi, den, s_lo


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
