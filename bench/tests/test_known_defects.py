"""Defects the benchmark found in qcurv, kept visible until they are fixed.

The point-queries generator skips these inputs so that the workload has
no failing op; each strict xfail here turns into a failure once the
defect is fixed, which is the cue to stop skipping the inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from qcurv import bifurcation, geometry
from qcurv.errors import DomainError


@pytest.mark.xfail(strict=True, raises=DomainError, reason="clear_denominators of a zero polynomial")
def test_find_instants_when_the_coincidence_quadratic_vanishes() -> None:
    # zeta = eta = lambda_f = 0 and lam (n-1) = lambda_b (n-l): every
    # curvature is constant, the Jacobi quadratic is the constant 144/25,
    # so there are no instants.
    data = geometry.SubmersionData(7, 3, 0, 0, 0, 6)
    assert not bifurcation.jacobi_residual(data, 4).is_zero
    assert bifurcation.find_instants(data, Fraction(4)) == []
