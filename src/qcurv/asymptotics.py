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

from .algebra.laurent import LaurentPoly
from .algebra.quadext import QuadExtValue
from .errors import DomainError, ValidationError
from .geometry import CurvaturePackage, SubmersionData, curvature_package, validate


@dataclass(frozen=True)
class DimPair:
    """Total dimension n and fibre dimension l of a submersion."""

    n: int
    l: int


def dim_pair(data: SubmersionData) -> DimPair:
    return DimPair(data.n, data.l)


def in_range_d1(dp: DimPair) -> bool:
    """Low-dimensional range: 5 <= n <= 8 with fibres of dimension >= 3."""
    return 5 <= dp.n <= 8 and dp.l >= 3


def in_range_d2(dp: DimPair) -> bool:
    """Stable range: n >= 9 with fibres of dimension >= 2."""
    return dp.n >= 9 and dp.l >= 2


def in_range_d3(dp: DimPair) -> bool:
    """Circle fibres, which need n >= 21."""
    return dp.n >= 21 and dp.l == 1


def poly_abc(dp: DimPair) -> tuple[Fraction, Fraction, Fraction]:
    """The sign-governing coefficients (a, b, c) as exact rationals."""
    n, l = dp.n, dp.l
    a = Fraction(((n**4 + 64 * n - 64) * l - 128 * (n - 1) ** 2) * l)
    b = Fraction(-32 * l * (n**3 - 5 * n**2 + 12 * n - 8))
    c = -512 * (n - 1) ** 2 * (Fraction(n - l) - Fraction(1, 2))
    return a, b, c


def delta_rho(dp: DimPair) -> tuple[Fraction, QuadExtValue, QuadExtValue]:
    """Discriminant delta = b^2 - 4ac and the roots rho_-, rho_+ of the sign quadratic."""
    a, b, c = poly_abc(dp)
    if not a:
        raise DomainError("sign quadratic is degenerate (a = 0)")
    delta = b * b - 4 * a * c
    if delta < 0:
        raise DomainError("sign quadratic has no real roots")
    rho_minus = QuadExtValue(-b / (2 * a), -1 / (2 * a), delta)
    rho_plus = QuadExtValue(-b / (2 * a), 1 / (2 * a), delta)
    return delta, rho_minus, rho_plus


def etazeta_radicand(dp: DimPair) -> Fraction:
    """The quantity under the square root in the ratio threshold."""
    n, l = dp.n, dp.l
    return Fraction((n**3 - 4 * n**2 + 16 * n - 16) * l**2 - 16 * (n - 1) ** 2 * l)


def ratio_condition(data: SubmersionData) -> bool:
    """Exact test of eta/zeta > 8(n-1) sqrt(n-l) / sqrt(radicand).

    Requires zeta > 0 and eta > 0.  A nonpositive radicand means the
    threshold is undefined and the condition is reported false.
    """
    if data.zeta <= 0 or data.eta <= 0:
        raise DomainError("ratio condition needs zeta > 0 and eta > 0")
    dp = dim_pair(data)
    radicand = etazeta_radicand(dp)
    if radicand <= 0:
        return False
    n, l = dp.n, dp.l
    return data.eta**2 * radicand > data.zeta**2 * 64 * (n - 1) ** 2 * (n - l)


def rhs_exceeds_rho_plus(dp: DimPair) -> bool:
    """Exact check that the ratio threshold exceeds rho_+.

    Writing R for the square of the threshold 8(n-1) sqrt(n-l) /
    sqrt(radicand), the comparison sqrt(R) > rho_+ unfolds, for a > 0,
    into 4 a^2 R > b^2 together with a R + c + b sqrt(R) > 0; both are
    decided exactly, the second in Q(sqrt(R)).
    """
    a, b, c = poly_abc(dp)
    if a <= 0:
        raise DomainError("comparison derived under a > 0")
    radicand = etazeta_radicand(dp)
    if radicand <= 0:
        raise DomainError("ratio threshold undefined for nonpositive radicand")
    n, l = dp.n, dp.l
    big_r = Fraction(64 * (n - 1) ** 2 * (n - l)) / radicand
    if 4 * a**2 * big_r <= b**2:
        return False
    return QuadExtValue(a * big_r + c, b, big_r).sign() > 0


def collapse_criterion(data: SubmersionData) -> bool:
    """Sufficient condition for instants accumulating at t -> 0."""
    if data.lambda_f <= 0:
        return False
    dp = dim_pair(data)
    return in_range_d1(dp) or in_range_d2(dp)


def expansion_criterion(data: SubmersionData) -> bool:
    """Sufficient condition for instants accumulating at t -> infinity."""
    dp = dim_pair(data)
    if not (in_range_d1(dp) or in_range_d2(dp) or in_range_d3(dp)):
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


def classify(data: SubmersionData) -> AsymptoticVerdict:
    """Decide accumulation at both ends, preferring the general criterion.

    Inadmissible data raises ValidationError before any verdict.
    """
    problems = validate(data)
    if problems:
        raise ValidationError(problems)
    if collapse_criterion(data):
        collapse, c_method = True, "criterion"
    elif collapse_direct_check(data):
        collapse, c_method = True, "direct"
    else:
        collapse, c_method = False, "negative"

    if expansion_criterion(data):
        expansion, e_method = True, "criterion"
    elif expansion_direct_check(data):
        expansion, e_method = True, "direct"
    else:
        expansion, e_method = False, "negative"

    return AsymptoticVerdict(
        collapse_infinite=collapse,
        expansion_infinite=expansion,
        collapse_method=c_method,
        expansion_method=e_method,
    )
