"""The four homogeneous Hopf-type fibration families and their data.

Each family is a unit-sphere fibration S^l -> S^n -> B over a rank-one
symmetric base, with fibres scaled by t: (i) S^1 -> S^{2q+1} -> CP^q,
(ii) S^3 -> S^{4q+3} -> HP^q, (iii) S^2 -> CP^{2q+1} -> HP^q, and
(iv) S^7 -> S^15 -> S^8(1/2).  Family (i) needs q >= 2 so the total
dimension is at least 5; (ii) and (iii) need q >= 1; (iv) is rigid.

The module carries two independent routes to the same quantities: the
structural constants fed to :func:`qcurv.geometry.curvature_package`,
and hardcoded closed-form displays of Q_t, scal_t and the Ricci
eigenvalues for each family.  Tests require the two routes to agree
exactly; neither is derived from the other in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebra.laurent import LaurentPoly
from .asymptotics import classify
from .bifurcation import Spectrum
from .errors import DomainError
from .geometry import SubmersionData

FAMILIES = ("i", "ii", "iii", "iv")


@dataclass(frozen=True)
class HopfFamily:
    """A family label with its integer parameter (fixed at 1 for iv)."""

    family: str
    q: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "i" and self.q < 2:
            raise DomainError("family (i) needs q >= 2 (total dimension at least 5)")
        if self.family in ("ii", "iii") and self.q < 1:
            raise DomainError(f"family ({self.family}) needs q >= 1")
        if self.family == "iv" and self.q != 1:
            raise DomainError("family (iv) has no parameter; use q = 1")

    def __str__(self) -> str:
        if self.family == "iv":
            return "(iv)"
        return f"({self.family}) q={self.q}"


def hopf_data(fam: HopfFamily) -> SubmersionData:
    """Structural constants (n, l, zeta, eta, lambda_F, lambda_B)."""
    q = fam.q
    if fam.family == "i":
        return SubmersionData(2 * q + 1, 1, Fraction(1), Fraction(2 * q), Fraction(0), Fraction(2 * q + 2))
    if fam.family == "ii":
        return SubmersionData(4 * q + 3, 3, Fraction(3), Fraction(4 * q), Fraction(2), Fraction(4 * q + 8))
    if fam.family == "iii":
        return SubmersionData(4 * q + 2, 2, Fraction(2), Fraction(4 * q), Fraction(4), Fraction(4 * q + 8))
    return SubmersionData(15, 7, Fraction(7), Fraction(8), Fraction(6), Fraction(28))


def appendix_q_poly(fam: HopfFamily) -> LaurentPoly:
    """Q_t from the closed-form family displays (the oracle route)."""
    q = fam.q
    if fam.family == "i":
        den = 8 * (2 * q - 1) ** 2
        return LaurentPoly(
            {
                2: Fraction(8 * q**3 - 68 * q**2 - 106 * q - 3, den),
                1: Fraction(-(8 * q**4 + 4 * q**3 - 46 * q**2 - 45 * q - 3), den // 4),
                0: Fraction((2 * q**2 + 3 * q + 1) ** 2 * (2 * q - 3), den // 4),
            }
        )
    if fam.family == "ii":
        d2 = (4 * q + 1) ** 2 * (2 * q + 1) ** 2
        return LaurentPoly(
            {
                -2: Fraction(3 * (4 * q - 1) ** 2 * (12 * q + 5), 8 * d2),
                -1: Fraction((64 * q**3 + 80 * q**2 + 76 * q + 23) * (6 * q**2 + 12 * q), d2),
                0: Fraction(
                    1024 * q**7
                    + 5376 * q**6
                    + 9408 * q**5
                    + 4656 * q**4
                    - 3600 * q**3
                    - 5100 * q**2
                    - 1423 * q,
                    2 * d2,
                ),
                1: Fraction(-(64 * q**4 + 80 * q**3 - 52 * q**2 - 105 * q - 32) * (12 * q**2 + 24 * q), d2),
                2: Fraction((48 * q**3 - 40 * q**2 - 169 * q - 64) * (12 * q**2 + 9 * q), 2 * d2),
            }
        )
    if fam.family == "iii":
        s2 = (4 * q + 1) ** 2
        quartic = 8 * q**4 + 20 * q**3 + 14 * q**2 + 13 * q + 2
        cubic = 8 * q**3 + 4 * q**2 + 6 * q + 1
        return LaurentPoly(
            {
                -2: Fraction(8 * (4 * q**2 - 6 * q - 1), q * s2),
                -1: Fraction(16 * quartic, q * s2),
                0: Fraction(
                    8 * (16 * q**6 + 72 * q**5 + 92 * q**4 + 2 * q**3 - 61 * q**2 - 42 * q - 6),
                    q * s2,
                ),
                1: 16 * (1 - Fraction(quartic, s2) + Fraction(2, q)),
                2: -4 * (1 - Fraction(cubic, s2) + Fraction(2, q)),
            }
        )
    return LaurentPoly(
        {
            -2: Fraction(20259, 1352),
            -1: Fraction(32388, 169),
            0: Fraction(64383, 169),
            1: Fraction(-30640, 169),
            2: Fraction(1366, 169),
        }
    )


def appendix_scal_poly(fam: HopfFamily) -> LaurentPoly:
    """scal_t from the closed-form family displays."""
    q = fam.q
    if fam.family == "i":
        return LaurentPoly({0: 4 * q * (q + 1), 1: -2 * q})
    if fam.family == "ii":
        return LaurentPoly({-1: 6, 0: 16 * q * (q + 2), 1: -12 * q})
    if fam.family == "iii":
        return LaurentPoly({-1: 8, 0: 16 * q * (q + 2), 1: -8 * q})
    return LaurentPoly({-1: 42, 0: 224, 1: -56})


def appendix_ric_norm_poly(fam: HopfFamily) -> LaurentPoly:
    """|Ric|^2 from the closed-form family displays."""
    q = fam.q
    t = LaurentPoly.t_power(1)
    t_inv = LaurentPoly.t_power(-1)
    if fam.family == "i":
        return (2 * q * t) ** 2 + 2 * q * (2 * q + 2 - 2 * t) ** 2
    if fam.family == "ii":
        return 12 * (t_inv + 2 * q * t) ** 2 + 16 * q * (2 * q + 4 - 3 * t) ** 2
    if fam.family == "iii":
        return LaurentPoly(
            {
                -2: 32,
                0: 64 * q * (q**2 + 4 * q + 5),
                1: -128 * (q**2 + 2 * q),
                2: 32 * q * (q + 2),
            }
        )
    return LaurentPoly({-2: 252, 0: 6944, 1: -6272, 2: 2016})


def appendix_ricci_eigenvalues(
    fam: HopfFamily,
) -> tuple[tuple[LaurentPoly, int], tuple[LaurentPoly, int]]:
    """((vertical eigenvalue, multiplicity), (horizontal, multiplicity)).

    Eigenvalues are taken in a g_t-orthonormal frame.
    """
    q = fam.q
    t = LaurentPoly.t_power(1)
    t_inv = LaurentPoly.t_power(-1)
    if fam.family == "i":
        return (2 * q * t, 1), (2 * q + 2 - 2 * t, 2 * q)
    if fam.family == "ii":
        return (2 * t_inv + 4 * q * t, 3), (4 * q + 8 - 6 * t, 4 * q)
    if fam.family == "iii":
        return (4 * t_inv + 4 * q * t, 2), (4 * q + 8 - 4 * t, 4 * q)
    return (6 * t_inv + 8 * t, 7), (28 - 14 * t, 8)


def base_spectrum(fam: HopfFamily) -> Spectrum:
    """Laplace spectrum of the base, in the normalization of hopf_data.

    CP^q carries the metric with Einstein constant 2q+2 (sectional
    curvature in [1,4]), HP^q the one with constant 4q+8, and the base
    of (iv) is the round half-radius 8-sphere.
    """
    q = fam.q
    if fam.family == "i":
        return Spectrum(lambda k: Fraction(4 * k * (k + q)))
    if fam.family in ("ii", "iii"):
        return Spectrum(lambda k: Fraction(4 * k * (k + 2 * q + 1)))
    return Spectrum(lambda k: Fraction(4 * k * (k + 7)))


@dataclass(frozen=True)
class TheoremARow:
    """Computed classification of one family member.

    ``collapse`` / ``expansion`` state whether infinitely many
    bifurcation instants accumulate at t -> 0 / t -> infinity.
    """

    fam: HopfFamily
    n: int
    collapse: bool
    expansion: bool
    collapse_method: str
    expansion_method: str

    def to_json(self) -> dict[str, object]:
        return {
            "family": self.fam.family,
            "q": self.fam.q,
            "n": self.n,
            "collapse": self.collapse,
            "expansion": self.expansion,
            "collapse_method": self.collapse_method,
            "expansion_method": self.expansion_method,
        }


def classify_family(fam: HopfFamily) -> TheoremARow:
    """Classify one family member by the exact asymptotic criteria."""
    data = hopf_data(fam)
    verdict = classify(data)
    return TheoremARow(
        fam=fam,
        n=data.n,
        collapse=verdict.collapse_infinite,
        expansion=verdict.expansion_infinite,
        collapse_method=verdict.collapse_method,
        expansion_method=verdict.expansion_method,
    )


def members(q_max: int) -> Iterator[HopfFamily]:
    """Every family member with parameter <= q_max, in table order."""
    for q in range(2, q_max + 1):
        yield HopfFamily("i", q)
    for name in ("ii", "iii"):
        for q in range(1, q_max + 1):
            yield HopfFamily(name, q)
    yield HopfFamily("iv")


def theorem_a_table(q_max: int) -> list[TheoremARow]:
    """Classification rows for every family member with parameter <= q_max."""
    if q_max < 2:
        raise DomainError("q_max must be at least 2 to include family (i)")
    return [classify_family(fam) for fam in members(q_max)]


def expected_verdicts(fam: HopfFamily) -> tuple[bool, bool]:
    """The published thresholds: (collapse, expansion) for a family member."""
    q = fam.q
    if fam.family == "i":
        return False, q >= 6
    if fam.family == "ii":
        return True, q >= 2
    if fam.family == "iii":
        return q >= 2, q >= 3
    return True, True


def expected_limit_signs(fam: HopfFamily) -> tuple[str | None, str | None]:
    """Published case lists for lim Q at t -> 0 and t -> infinity.

    None means the display only asserts a finite limit.
    """
    q = fam.q
    if fam.family == "i":
        return None, "-inf" if q <= 9 else "+inf"
    if fam.family == "ii":
        return "+inf", "-inf" if q <= 2 else "+inf"
    if fam.family == "iii":
        return ("-inf" if q == 1 else "+inf"), ("-inf" if q <= 3 else "+inf")
    return "+inf", "+inf"
