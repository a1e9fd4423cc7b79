"""Asymptotic accumulation of bifurcation instants at t -> 0 and t -> oo.

An instant sequence accumulating at a degenerate end of the canonical
variation exists whenever the branch lambda_t^+ = -alpha_t +
sqrt(alpha_t^2 - 2 beta_t) of the Jacobi quadratic sweeps to +infinity
while staying transversal.  Whether it does is governed by the signs of
three integer polynomials in (n, l),

    a = ((n^4 + 64n - 64) l - 128 (n-1)^2) l,
    b = -32 l (n^3 - 5n^2 + 12n - 8),
    c = -512 (n-1)^2 (n - l - 1/2),

and, at the expansion end, by the ratio eta/zeta measured against the
larger root rho_+ of a x^2 + b x + c.  Everything here is decided in
exact arithmetic; square roots live in QuadExtValue.

Two routes are provided for each end: a sufficient criterion purely in
(n, l, eta/zeta), and a direct verification of the relevant leading
coefficients for one concrete datum.  The direct route also settles
cases the criterion misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra.laurent import LaurentPoly
from .algebra.quadext import QuadExtValue
from .errors import DomainError
from .geometry import CurvaturePackage, SubmersionData, curvature_package


def in_range_d1(n: int, l: int) -> bool:
    """Low-dimensional range: 5 <= n <= 8 with fibres of dimension >= 3."""
    return 5 <= n <= 8 and l >= 3


def in_range_d2(n: int, l: int) -> bool:
    """Stable range: n >= 9 with fibres of dimension >= 2."""
    return n >= 9 and l >= 2


def in_range_d3(n: int, l: int) -> bool:
    """Circle fibres, which need n >= 21."""
    return n >= 21 and l == 1


def poly_abc(n: int, l: int) -> tuple[Fraction, Fraction, Fraction]:
    """The sign-governing coefficients (a, b, c) as exact rationals."""
    a = Fraction(((n**4 + 64 * n - 64) * l - 128 * (n - 1) ** 2) * l)
    b = Fraction(-32 * l * (n**3 - 5 * n**2 + 12 * n - 8))
    c = -512 * (n - 1) ** 2 * (Fraction(n - l) - Fraction(1, 2))
    return a, b, c


def delta_rho(n: int, l: int) -> tuple[Fraction, QuadExtValue, QuadExtValue]:
    """Discriminant delta = b^2 - 4ac and the roots rho_-, rho_+ of the sign quadratic."""
    a, b, c = poly_abc(n, l)
    if not a:
        raise DomainError("sign quadratic is degenerate (a = 0)")
    delta = b * b - 4 * a * c
    if delta < 0:
        raise DomainError("sign quadratic has no real roots")
    rho_minus = QuadExtValue(-b / (2 * a), -1 / (2 * a), delta)
    rho_plus = QuadExtValue(-b / (2 * a), 1 / (2 * a), delta)
    return delta, rho_minus, rho_plus


def etazeta_radicand(n: int, l: int) -> Fraction:
    """The quantity under the square root in the ratio threshold."""
    return Fraction((n**3 - 4 * n**2 + 16 * n - 16) * l**2 - 16 * (n - 1) ** 2 * l)


def _threshold_sq(n: int, l: int) -> Fraction | None:
    """Square of the ratio threshold, 64 (n-1)^2 (n-l) / radicand; None if radicand <= 0."""
    radicand = etazeta_radicand(n, l)
    if radicand <= 0:
        return None
    return 64 * (n - 1) ** 2 * (n - l) / radicand


def ratio_condition(data: SubmersionData) -> bool:
    """Exact test of eta/zeta > 8(n-1) sqrt(n-l) / sqrt(radicand).

    Requires zeta > 0 and eta > 0.  A nonpositive radicand means the
    threshold is undefined and the condition is reported false.
    """
    if data.zeta <= 0 or data.eta <= 0:
        raise DomainError("ratio condition needs zeta > 0 and eta > 0")
    big_r = _threshold_sq(data.n, data.l)
    return big_r is not None and data.eta**2 > data.zeta**2 * big_r


def rhs_exceeds_rho_plus(n: int, l: int) -> bool:
    """Exact check that the ratio threshold exceeds rho_+.

    Writing R for the square of the threshold 8(n-1) sqrt(n-l) /
    sqrt(radicand), the comparison sqrt(R) > rho_+ unfolds, for a > 0,
    into 4 a^2 R > b^2 together with a R + c + b sqrt(R) > 0; both are
    decided exactly, the second in Q(sqrt(R)).
    """
    a, b, c = poly_abc(n, l)
    if a <= 0:
        raise DomainError("comparison derived under a > 0")
    big_r = _threshold_sq(n, l)
    if big_r is None:
        raise DomainError("ratio threshold undefined for nonpositive radicand")
    if 4 * a**2 * big_r <= b**2:
        return False
    return QuadExtValue(a * big_r + c, b, big_r).sign() > 0


def collapse_criterion(data: SubmersionData) -> bool:
    """Sufficient condition for instants accumulating at t -> 0."""
    if data.lambda_f <= 0:
        return False
    return in_range_d1(data.n, data.l) or in_range_d2(data.n, data.l)


def expansion_criterion(data: SubmersionData) -> bool:
    """Sufficient condition for instants accumulating at t -> infinity."""
    n, l = data.n, data.l
    if not (in_range_d1(n, l) or in_range_d2(n, l) or in_range_d3(n, l)):
        return False
    if data.zeta <= 0 or data.eta <= 0:
        return False
    return ratio_condition(data)


def _lambda_plus_sweeps(pkg: CurvaturePackage, e: int) -> bool:
    """Leading-coefficient test at the end t -> 0 (e = -1) or t -> oo (e = +1).

    True when the discriminant alpha^2 - 2 beta grows like t^(2e) with
    positive coefficient, lambda_t^+ sweeps to +infinity like t^e, and
    the leading coefficient of alpha_t' lambda_t^+ + beta_t' is nonzero,
    all decided in Q(sqrt of the discriminant coefficient).  The
    discriminant has exponents only in t^-2..t^2, so its t^(2e)
    coefficient is the leading one at that end or zero (no certificate).
    """
    lead = pkg.discriminant.coeff(2 * e)
    if lead <= 0:
        return False
    a_e = pkg.alpha.coeff(e)
    if QuadExtValue(-a_e, 1, lead).sign() != 1:
        return False
    return QuadExtValue(a_e * a_e - 2 * pkg.beta.coeff(2 * e), -a_e, lead).sign() != 0


def collapse_direct_check(data: SubmersionData) -> bool:
    """Certificate of infinitely many transversal instants near t = 0."""
    return _lambda_plus_sweeps(curvature_package(data), -1)


def expansion_direct_check(data: SubmersionData) -> bool:
    """Certificate of infinitely many transversal instants as t -> infinity."""
    return _lambda_plus_sweeps(curvature_package(data), 1)


def q_limit_signs(p: LaurentPoly) -> tuple[str, str]:
    """Signed limits of p at t -> 0+ and t -> infinity.

    Each entry is one of "+inf", "-inf", "+", "-", "0": infinities when
    the relevant leading exponent is on the divergent side, otherwise
    the sign of the limiting constant.
    """
    if p.is_zero:
        return "0", "0"

    def against(exp: int, coeff: Fraction, divergent: bool) -> str:
        if divergent:
            return "+inf" if coeff > 0 else "-inf"
        if exp == 0:
            return "+" if coeff > 0 else "-"
        return "0"

    lo_exp, hi_exp = p.min_exp, p.max_exp
    at_zero = against(lo_exp, p.coeff(lo_exp), lo_exp < 0)
    at_inf = against(hi_exp, p.coeff(hi_exp), hi_exp > 0)
    return at_zero, at_inf


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Outcome of the two-end accumulation analysis for one datum.

    Methods: "criterion" when the sufficient (n, l, eta/zeta) condition
    applies, "direct" when only the leading-coefficient check does,
    "negative" when accumulation at that end is ruled out.
    """

    collapse_infinite: bool
    expansion_infinite: bool
    collapse_method: str
    expansion_method: str

    def to_json(self) -> dict[str, dict[str, object]]:
        return {
            "collapse": {"result": self.collapse_infinite, "method": self.collapse_method},
            "expansion": {"result": self.expansion_infinite, "method": self.expansion_method},
        }


def _end_method(
    data: SubmersionData,
    criterion: Callable[[SubmersionData], bool],
    direct_check: Callable[[SubmersionData], bool],
) -> str:
    """The method that settles one end: the criterion first, then the direct check."""
    if criterion(data):
        return "criterion"
    return "direct" if direct_check(data) else "negative"


def classify(data: SubmersionData) -> AsymptoticVerdict:
    """Decide accumulation at both ends, preferring the general criterion."""
    c_method = _end_method(data, collapse_criterion, collapse_direct_check)
    e_method = _end_method(data, expansion_criterion, expansion_direct_check)
    return AsymptoticVerdict(c_method != "negative", e_method != "negative", c_method, e_method)
