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

``enumerate_instants`` orders the instants of many eigenvalues with a
separating sweep over the integer dyadic boxes of ``algebra.roots``
rather than a comparison sort: overlapping boxes are quartered until
they separate, and only pairs reach the exact ``RootBox.compare``.  At
a fixed t the Jacobi quadratic has at most two roots lambda, so at most
two distinct eigenvalues share an instant and the sweep terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Union

from .algebra.laurent import LaurentPoly, Scalar
from .algebra.roots import RootBox, isolate_positive_roots, root_is_simple
from .errors import DomainError
from .geometry import SubmersionData, curvature_package

Window = tuple[Fraction, Union[Fraction, None]]


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
    Results are ordered by instant (exact comparison of roots), then by
    eigenvalue; see ``_by_instant``.  The eigenvalues must increase
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
            collected.append(report)
    return _by_instant(collected)


def _by_instant(reports: list[InstantReport]) -> list[InstantReport]:
    """The reports ordered by instant, then by eigenvalue: a separating sweep.

    The reports are sorted by the key (lo, hi, lambda) of their boxes and
    cut into clusters of boxes that overlap strictly; boxes that only
    touch at an endpoint are already in order.  A cluster of three or
    more has every member of nonzero width quartered and is swept again.
    A cluster of two is ordered by the exact ``RootBox.compare``, which
    also detects a shared root, and then by lambda.

    This ends because at a fixed t the Jacobi quadratic has at most two
    roots lambda: at most two distinct eigenvalues share an instant, so
    only pairs can stay unseparated while the boxes shrink.  Quartered
    boxes are kept on each root (``RootBox._narrow``), where ``compare``
    and display refinement continue from them.
    """
    ordered: list[InstantReport] = []
    pending = _clusters(reports)[::-1]
    while pending:
        cluster = pending.pop()
        if len(cluster) == 1:
            ordered += cluster
        elif len(cluster) == 2:
            first, second = cluster
            by_root = first.root.compare(second.root)
            swap = by_root > 0 or (by_root == 0 and first.lam > second.lam)
            ordered += [second, first] if swap else cluster
        else:
            for report in cluster:
                report.root._quarter()
            pending += _clusters(cluster)[::-1]
    return ordered


def _clusters(reports: list[InstantReport]) -> list[list[InstantReport]]:
    """Reports sorted by (lo, hi, lambda), cut where their boxes stop overlapping."""
    boxes = [report.root._narrow or report.root for report in reports]
    den = lcm(*(box._den for box in boxes))
    keys = sorted(
        (box._lo * (den // box._den), box._hi * (den // box._den), report.lam, i)
        for i, (report, box) in enumerate(zip(reports, boxes))
    )
    clusters: list[list[InstantReport]] = []
    for lo, hi, _lam, i in keys:
        if not clusters or lo >= reach:
            clusters.append([])
            reach = hi
        clusters[-1].append(reports[i])
        reach = max(reach, hi)
    return clusters
