"""Q of an Einstein manifold, a test oracle built on the one Q formula."""

from __future__ import annotations

from fractions import Fraction

from qcurv.algebra.rationals import Scalar
from qcurv.geometry import pointwise_q


def einstein_q(n: int, einstein_constant: Scalar) -> Fraction:
    """Q of an Einstein n-manifold with Ric = c g."""
    c = Fraction(einstein_constant)
    return pointwise_q(n, n * c, n * c**2, 0)
