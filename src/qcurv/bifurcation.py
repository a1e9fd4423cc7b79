"""Detection and classification of bifurcation instants.

For a fixed eigenvalue lambda of the base Laplacian, degenerate
instants of the canonical variation are the positive roots of the
Jacobi quadratic

    (1/2) lambda^2 + alpha_t lambda + beta_t,

a Laurent polynomial in t.  A root t_* is a genuine bifurcation instant
when it is transversal, i.e. the derivative alpha_t' lambda + beta_t'
does not vanish at t_*; equivalently t_* is a simple root of the
cleared-denominator integer polynomial.  An instant additionally
produces solutions with nonconstant scalar curvature when lambda
differs from scal_{t_*}/(n-1); that coincidence is itself a polynomial
condition, decided exactly via a gcd.

Everything is exact: roots are held in isolating boxes, and both the
transversality and the scalar-coincidence decisions are algebraic,
never numerical.  The curvature package is cached in ``geometry``: it
is built once per datum, not once per eigenvalue.

``enumerate_instants`` refines each instant once, to ``DISPLAY_WIDTH``,
onto the box that the ``instants`` command prints, then sorts the boxes
once (``algebra.roots.sort_by_root``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Union

from .algebra.laurent import LaurentPoly, Scalar
from .algebra.roots import RootBox, isolate_positive_roots, root_is_simple, sort_by_root
from .errors import DomainError
from .geometry import SubmersionData, curvature_package

Window = tuple[Fraction, Union[Fraction, None]]
DISPLAY_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing positive Laplacian eigenvalues of a closed manifold.

    ``eigenvalue(k)`` is the k-th distinct nonzero eigenvalue, k >= 1;
    constants are excluded.
    """

    eigenvalue_fn: Callable[[int], Fraction]

    def eigenvalue(self, k: int) -> Fraction:
        if k < 1:
            raise DomainError("eigenvalue index starts at 1")
        return Fraction(self.eigenvalue_fn(k))


@dataclass(frozen=True)
class InstantReport:
    """One isolated degenerate instant for one eigenvalue."""

    lam: Fraction
    root: RootBox
    transversal: bool
    scalar_distinct: bool

    def to_json(self) -> dict[str, object]:
        return {
            "lambda": str(self.lam),
            "interval": self.root.to_json(),
            "poly": [int(c) for c in self.root.poly],
            "transversal": self.transversal,
            "scalar_distinct": self.scalar_distinct,
        }


def jacobi_residual(data: SubmersionData, lam: Scalar) -> LaurentPoly:
    """The Jacobi quadratic (1/2) lambda^2 + alpha_t lambda + beta_t."""
    lam = Fraction(lam)
    pkg = curvature_package(data)
    return Fraction(1, 2) * lam**2 + lam * pkg.alpha + pkg.beta


def scalar_coincidence_poly(data: SubmersionData, lam: Scalar) -> LaurentPoly:
    """Vanishes exactly where lambda equals scal_t/(n-1).

    It is t (lambda(n-1) - scal_t), which written out is the quadratic
    eta*l*t^2 + (lambda(n-1) - lambda_B(n-l))*t - l*lambda_F.
    """
    return LaurentPoly.t_power(1) * (Fraction(lam) * (data.n - 1) - curvature_package(data).scal)


def find_instants(data: SubmersionData, lam: Scalar) -> list[InstantReport]:
    """All positive degenerate instants for one eigenvalue, ascending.

    Transversality is decided through root simplicity of the cleared
    polynomial; scalar-curvature distinctness through the absence of a
    common root with the coincidence quadratic inside the box.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("eigenvalues of the base Laplacian are positive")
    residual = jacobi_residual(data, lam)
    if residual.is_zero:
        raise DomainError("Jacobi quadratic vanishes identically")
    cleared, _shift = residual.clear_denominators()
    coincidence_poly = scalar_coincidence_poly(data, lam)
    # A zero polynomial stays (), which vanishes at every root: all instants coincide.
    coincidence = () if coincidence_poly.is_zero else coincidence_poly.clear_denominators()[0]
    reports = []
    for box in isolate_positive_roots(cleared):
        reports.append(
            InstantReport(
                lam=lam,
                root=box,
                transversal=root_is_simple(box),
                scalar_distinct=not box.vanishes_at_root(coincidence),
            )
        )
    return reports


def enumerate_instants(
    data: SubmersionData,
    spectrum: Spectrum,
    window: Window = (Fraction(0), None),
    max_eigs: int = 10,
) -> list[InstantReport]:
    """Instants for the first max_eigs eigenvalues, filtered to a window.

    The window is an open interval (lo, hi) with hi = None meaning
    +infinity; membership of each algebraic root is decided exactly.
    Each root comes refined to ``DISPLAY_WIDTH``, ordered by instant
    (exactly), then by eigenvalue.  The eigenvalues must increase
    strictly, or DomainError is raised.  No attempt is made to certify
    which instants belong to an accumulating sequence; the asymptotic
    classifiers answer that.
    """
    lo, hi = window
    lo = Fraction(lo)
    if hi is not None:
        hi = Fraction(hi)
        if hi <= lo:
            return []
    collected = []
    previous = Fraction(0)
    for k in range(1, max_eigs + 1):
        lam = spectrum.eigenvalue(k)
        if k > 1 and lam <= previous:
            raise DomainError(f"eigenvalue {k} is {lam}, not above eigenvalue {k - 1}: {previous}")
        previous = lam
        for report in find_instants(data, lam):
            if report.root.compare_to_rational(lo) <= 0:
                continue
            if hi is not None and report.root.compare_to_rational(hi) >= 0:
                continue
            collected.append(replace(report, root=report.root.refine(DISPLAY_WIDTH)))
    return sort_by_root(collected, lambda report: (report.root, report.lam))
