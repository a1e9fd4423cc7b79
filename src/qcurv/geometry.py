"""Curvature of canonical variations of horizontally Einstein submersions.

The input is a Riemannian submersion with totally geodesic Einstein
fibres (Einstein constant lambda_F, dimension l) over an Einstein base
(constant lambda_B), total dimension n, whose integrability tensor
contributes the constants zeta (horizontal) and eta (vertical).  Scaling
the fibres by t > 0 produces the canonical variation g_t; with constant
scalar curvature along the family, every natural curvature quantity of
g_t is a Laurent polynomial in t, computed here exactly.

Sign conventions: the Laplacian is nonnegative, and Q denotes the
standard fourth-order curvature scalar built from scal, the Ricci
tensor, and Laplacian of scal (which vanishes here since scal_t is
spatially constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra.laurent import LaurentPoly
from .errors import ValidationError

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class SubmersionData:
    """Exact parameters of a canonical variation.

    ``eta * l == zeta * (n - l)`` ties the vertical and horizontal
    contributions of the integrability tensor together; it is forced by
    the symmetry of the mixed Ricci term and checked by ``validate``.
    """

    n: int
    l: int
    zeta: Fraction
    eta: Fraction
    lambda_f: Fraction
    lambda_b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "zeta", Fraction(self.zeta))
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "lambda_f", Fraction(self.lambda_f))
        object.__setattr__(self, "lambda_b", Fraction(self.lambda_b))

    def to_json(self) -> dict[str, str]:
        return {
            "n": str(self.n),
            "l": str(self.l),
            "zeta": str(self.zeta),
            "eta": str(self.eta),
            "lambda_f": str(self.lambda_f),
            "lambda_b": str(self.lambda_b),
        }


def validate(data: SubmersionData) -> list[str]:
    """All consistency violations, empty when the data is admissible."""
    problems = [
        f"{name}={value!r} must be an integer"
        for name, value in (("n", data.n), ("l", data.l))
        if type(value) is not int
    ]
    if problems:  # every check below does arithmetic on n and l
        return problems
    if data.n < 5:
        problems.append(f"total dimension n={data.n} must be at least 5")
    if not 1 <= data.l < data.n:
        problems.append(f"fibre dimension l={data.l} must satisfy 1 <= l < n")
    if data.zeta < 0:
        problems.append(f"zeta={data.zeta} must be nonnegative")
    if data.eta < 0:
        problems.append(f"eta={data.eta} must be nonnegative")
    if data.eta * data.l != data.zeta * (data.n - data.l):
        problems.append(
            f"eta*l={data.eta * data.l} must equal zeta*(n-l)={data.zeta * (data.n - data.l)}"
        )
    if data.l == 1 and data.lambda_f != 0:
        problems.append("one-dimensional fibres force lambda_f = 0")
    return problems


@dataclass(frozen=True)
class CurvaturePackage:
    """Every curvature quantity of the variation, as exact Laurent polynomials.

    ``ric_vertical`` and ``ric_horizontal`` are the Ricci eigenvalues in
    a g_t-orthonormal frame (the convention of the worked examples);
    ``ric_vertical_reference`` is the same vertical eigenvalue measured
    against the fixed reference metric g, i.e. the coefficient of g in
    the Ricci tensor restricted to the fibres.
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

    _FIELDS = (
        "kappa",
        "ric_vertical",
        "ric_vertical_reference",
        "ric_horizontal",
        "ric_norm_sq",
        "scal",
        "q_curv",
        "alpha",
        "beta",
    )

    @property
    def discriminant(self) -> LaurentPoly:
        """alpha_t^2 - 2 beta_t, whose nonnegativity admits real eigenbranches."""
        alpha, beta = self.alpha, self.beta
        return alpha * alpha - 2 * beta

    def to_json(self) -> dict[str, dict[str, str]]:
        return {name: getattr(self, name).to_json() for name in self._FIELDS}

    def evaluate_at(self, t: Scalar) -> dict[str, Fraction]:
        """Exact values of every field at a positive rational t."""
        return {name: getattr(self, name).evaluate(t) for name in self._FIELDS}


def curvature_package(data: SubmersionData) -> CurvaturePackage:
    """Assemble all curvature Laurent polynomials of the variation g_t."""
    problems = validate(data)
    if problems:
        raise ValidationError(problems)
    n, l = data.n, data.l
    zeta, eta = data.zeta, data.eta
    lam_f, lam_b = data.lambda_f, data.lambda_b
    t = LaurentPoly.t_power(1)
    t_inv = LaurentPoly.t_power(-1)

    kappa = lam_b - 2 * zeta * t
    ric_vertical = lam_f * t_inv + eta * t
    ric_vertical_reference = lam_f + eta * t * t
    ric_horizontal = kappa
    ric_norm_sq = l * ric_vertical**2 + (n - l) * ric_horizontal**2
    scal = l * lam_f * t_inv + lam_b * (n - l) - eta * l * t

    nn = Fraction(n)
    q_curv = (
        -2 * (n - l) * kappa**2 / (n - 2) ** 2
        - 2 * l * ric_vertical**2 / (n - 2) ** 2
        + (nn**3 - 4 * nn**2 + 16 * nn - 16) * scal**2 / (8 * (n - 1) ** 2 * (n - 2) ** 2)
    )
    alpha = ((n**2 - 4 * n + 8) * scal - 8 * (n - 1) * kappa) / (4 * (n - 1) * (n - 2))
    beta = -2 * q_curv

    return CurvaturePackage(
        data=data,
        kappa=kappa,
        ric_vertical=ric_vertical,
        ric_vertical_reference=ric_vertical_reference,
        ric_horizontal=ric_horizontal,
        ric_norm_sq=ric_norm_sq,
        scal=scal,
        q_curv=q_curv,
        alpha=alpha,
        beta=beta,
    )


def pointwise_q(n: int, scal: Scalar, ric_norm_sq: Scalar, lap_scal: Scalar = 0) -> Fraction:
    """Q from raw ingredients at a point of an n-manifold, n >= 3."""
    scal = Fraction(scal)
    ric_norm_sq = Fraction(ric_norm_sq)
    lap_scal = Fraction(lap_scal)
    return (
        lap_scal / (2 * (n - 1))
        - 2 * ric_norm_sq / (n - 2) ** 2
        + Fraction(n**3 - 4 * n**2 + 16 * n - 16, 8 * (n - 1) ** 2 * (n - 2) ** 2) * scal**2
    )


def einstein_q(n: int, einstein_constant: Scalar) -> Fraction:
    """Q of an Einstein n-manifold with Ric = c g."""
    c = Fraction(einstein_constant)
    return pointwise_q(n, n * c, n * c**2, 0)
