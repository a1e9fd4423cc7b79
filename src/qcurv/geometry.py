"""Curvature of canonical variations of horizontally Einstein submersions.

The input is a Riemannian submersion with totally geodesic Einstein
fibres (Einstein constant lambda_F, dimension l) over an Einstein base
(constant lambda_B), total dimension n, whose integrability tensor
contributes the constants zeta (horizontal) and eta (vertical).  Scaling
the fibres by t > 0 produces the canonical variation g_t; with constant
scalar curvature along the family, every natural curvature quantity of
g_t is a Laurent polynomial in t, computed here exactly.  Each datum
is checked for admissibility on construction.

Everything is derived from the two Ricci eigenvalues of g_t,
lambda_F/t + eta t (vertical) and lambda_B - 2 zeta t (horizontal):
scal and |Ric|^2 are the traces of Ric and Ric^2, and Q comes from the
one formula in ``pointwise_q``.

Sign conventions: the Laplacian is nonnegative, and Q denotes the
standard fourth-order curvature scalar built from scal, the Ricci
tensor, and Laplacian of scal (which vanishes here since scal_t is
spatially constant).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

from .algebra.laurent import LaurentPoly, Scalar
from .errors import ValidationError


@dataclass(frozen=True)
class SubmersionData:
    """Exact parameters of a canonical variation.

    Construction raises one ``ValidationError`` listing every violation
    of admissibility.  ``n`` and ``l`` must be ``int``: an equal float or
    bool would hash like the int datum and share its cache.  ``eta * l ==
    zeta * (n - l)`` ties the vertical and horizontal contributions of
    the integrability tensor together, as the mixed Ricci term forces.
    """

    n: int
    l: int
    zeta: Fraction
    eta: Fraction
    lambda_f: Fraction
    lambda_b: Fraction

    def __post_init__(self):
        problems = [
            f"{name}={value!r} must be an integer"
            for name, value in (("n", self.n), ("l", self.l))
            if type(value) is not int
        ]
        if problems:
            raise ValidationError(problems)
        for field in fields(self)[2:]:
            value = getattr(self, field.name)
            if type(value) is not Fraction:
                object.__setattr__(self, field.name, Fraction(value))
        n, l, zeta, eta = self.n, self.l, self.zeta, self.eta
        if n < 5:
            problems.append(f"total dimension n={n} must be at least 5")
        if not 1 <= l < n:
            problems.append(f"fibre dimension l={l} must satisfy 1 <= l < n")
        if zeta < 0:
            problems.append(f"zeta={zeta} must be nonnegative")
        if eta < 0:
            problems.append(f"eta={eta} must be nonnegative")
        if eta * l != zeta * (n - l):
            problems.append(f"eta*l={eta * l} must equal zeta*(n-l)={zeta * (n - l)}")
        if l == 1 and self.lambda_f != 0:
            problems.append("one-dimensional fibres force lambda_f = 0")
        if problems:
            raise ValidationError(problems)

    def to_json(self) -> dict[str, str]:
        return {field.name: str(getattr(self, field.name)) for field in fields(self)}


@dataclass(frozen=True)
class CurvaturePackage:
    """Every curvature quantity of the variation, as exact Laurent polynomials.

    ``ric_vertical`` and ``ric_horizontal`` are the Ricci eigenvalues in
    a g_t-orthonormal frame (the convention of the worked examples);
    ``ric_vertical_reference`` is the same vertical eigenvalue measured
    against the fixed reference metric g, i.e. the coefficient of g in
    the Ricci tensor restricted to the fibres.  Every field after
    ``data`` is a polynomial, in output order.
    """

    data: SubmersionData
    kappa: LaurentPoly
    ric_vertical: LaurentPoly
    ric_vertical_reference: LaurentPoly
    ric_horizontal: LaurentPoly
    ric_norm_sq: LaurentPoly
    scal: LaurentPoly
    q_curv: LaurentPoly
    alpha: LaurentPoly
    beta: LaurentPoly

    @property
    def discriminant(self) -> LaurentPoly:
        """alpha_t^2 - 2 beta_t, whose nonnegativity admits real eigenbranches."""
        alpha, beta = self.alpha, self.beta
        return alpha * alpha - 2 * beta

    def to_json(self) -> dict[str, dict[str, str]]:
        return {field.name: getattr(self, field.name).to_json() for field in fields(self)[1:]}

    def evaluate_at(self, t: Scalar) -> dict[str, Fraction]:
        """Exact values of every field at a positive rational t."""
        return {field.name: getattr(self, field.name).evaluate(t) for field in fields(self)[1:]}


@lru_cache(maxsize=1)
def curvature_package(data: SubmersionData) -> CurvaturePackage:
    """Assemble all curvature Laurent polynomials of the variation g_t.

    One slot caches the latest datum's package, which callers ask for
    once per eigenvalue or once per end.
    """
    n, l = data.n, data.l
    t = LaurentPoly.t_power(1)

    ric_vertical = LaurentPoly.t_power(-1, data.lambda_f) + LaurentPoly.t_power(1, data.eta)
    ric_horizontal = LaurentPoly.t_power(1, -2 * data.zeta) + data.lambda_b
    scal = l * ric_vertical + (n - l) * ric_horizontal
    ric_norm_sq = l * ric_vertical**2 + (n - l) * ric_horizontal**2
    q_curv = pointwise_q(n, scal, ric_norm_sq)
    alpha = ((n**2 - 4 * n + 8) * scal - 8 * (n - 1) * ric_horizontal) / (4 * (n - 1) * (n - 2))

    return CurvaturePackage(
        data=data,
        kappa=ric_horizontal,
        ric_vertical=ric_vertical,
        ric_vertical_reference=t * ric_vertical,
        ric_horizontal=ric_horizontal,
        ric_norm_sq=ric_norm_sq,
        scal=scal,
        q_curv=q_curv,
        alpha=alpha,
        beta=-2 * q_curv,
    )


def pointwise_q(
    n: int, scal: Scalar | LaurentPoly, ric_norm_sq: Scalar | LaurentPoly, lap_scal: Scalar = 0
) -> Fraction | LaurentPoly:
    """Q from raw ingredients at a point of an n-manifold, n >= 3.

    The ingredients may be rationals or Laurent polynomials in t.  All
    three terms sit over the one denominator 8 (n-1)^2 (n-2)^2, so each
    enters as an integer times the argument, and the sum is divided once.
    """
    return Fraction(1, 8 * (n - 1) ** 2 * (n - 2) ** 2) * (
        (n**3 - 4 * n**2 + 16 * n - 16) * scal * scal
        - 16 * (n - 1) ** 2 * ric_norm_sq
        + 4 * (n - 1) * (n - 2) ** 2 * lap_scal
    )
