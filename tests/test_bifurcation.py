from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcurv import catalog
from qcurv.algebra.laurent import LaurentPoly
from qcurv.algebra.roots import RootBox, sort_by_root
from qcurv.bifurcation import (
    DISPLAY_WIDTH,
    InstantReport,
    Spectrum,
    enumerate_instants,
    find_instants,
    jacobi_residual,
    scalar_coincidence_poly,
)
from qcurv.errors import DomainError
from qcurv.geometry import SubmersionData, curvature_package

ROUND_7 = SubmersionData(7, 3, Fraction(3), Fraction(4), Fraction(2), Fraction(12))
SPECTRUM_7 = Spectrum(lambda k: 4 * k * (k + 3))


def test_jacobi_residual_worked_example() -> None:
    residual = jacobi_residual(ROUND_7, 16)
    assert residual == LaurentPoly(
        {
            -2: Fraction(-51, 100),
            -1: Fraction(-392, 25),
            0: Fraction(4771, 25),
            1: Fraction(-112, 5),
            2: 21,
        }
    )
    cleared, shift = residual.clear_denominators()
    assert cleared == (-51, -1568, 19084, -2240, 2100)
    assert shift == 2


def test_jacobi_residual_at_lambda_zero_is_beta() -> None:
    assert jacobi_residual(ROUND_7, 0) == curvature_package(ROUND_7).beta


def test_discriminant_value_at_reference_scale() -> None:
    pkg = curvature_package(ROUND_7)
    disc = pkg.discriminant
    assert disc == pkg.alpha**2 - 2 * pkg.beta
    assert disc.evaluate(1) == Fraction(3481, 16)  # (59/4)**2


def test_scalar_coincidence_poly() -> None:
    assert scalar_coincidence_poly(ROUND_7, 16) == LaurentPoly({2: 12, 1: 48, 0: -6})
    # lambda = scal(1)/(n-1) = 7 makes t = 1 a coincidence point.
    assert scalar_coincidence_poly(ROUND_7, 7).evaluate(1) == 0


def test_find_instants_when_the_coincidence_polynomial_vanishes() -> None:
    # zeta = eta = lambda_f = 0 makes scal the constant (n - l) lambda_b = 24,
    # which is lam (n - 1) at lam = 4; the Jacobi quadratic is a nonzero
    # constant, so there are no instants to report.
    data = SubmersionData(7, 3, 0, 0, 0, 6)
    assert scalar_coincidence_poly(data, 4).is_zero
    assert not jacobi_residual(data, 4).is_zero
    assert find_instants(data, 4) == []


def test_find_instants_for_lambda_16() -> None:
    reports = find_instants(ROUND_7, 16)
    assert len(reports) == 1
    r = reports[0]
    assert r.lam == 16
    assert r.root.compare_to_rational(Fraction(1, 10)) == 1
    assert r.root.compare_to_rational(Fraction(1, 5)) == -1
    assert r.transversal and r.scalar_distinct
    blob = r.to_json()
    assert blob["lambda"] == "16"
    assert blob["transversal"] is True and blob["scalar_distinct"] is True


def test_find_instants_for_lambda_7_hits_reference_scale() -> None:
    # At t = 1 the round S^7 has scal/(n-1) = 7, so this branch carries
    # constant scalar curvature and is flagged as not scalar-distinct.
    reports = find_instants(ROUND_7, 7)
    coincident = [r for r in reports if r.root.compare_to_rational(1) == 0]
    assert len(coincident) == 1
    r = coincident[0]
    assert r.transversal
    assert not r.scalar_distinct
    assert r.root.refine(Fraction(1, 2**20)).is_exact


def test_residual_vanishes_on_refined_boxes() -> None:
    for lam in (16, 7, 40):
        for r in find_instants(ROUND_7, lam):
            box = r.root.refine(Fraction(1, 10**10))
            # A point inside the refined box where the residual is tiny.
            tight = box.refine(Fraction(1, 10**18))
            point = (tight.lo + tight.hi) / 2
            assert box.lo <= point <= box.hi
            assert abs(jacobi_residual(ROUND_7, lam).evaluate(point)) < Fraction(1, 10**6)


def derivative(p: LaurentPoly) -> LaurentPoly:
    """d/dt, term by term: the t**0 term drops, t**-1 becomes -t**-2."""
    return LaurentPoly({k - 1: k * c for k, c in p.items() if k})


def test_transversality_matches_derivative_sign() -> None:
    pkg = curvature_package(ROUND_7)
    for lam in (7, 16, 40, 96):
        dres = derivative(pkg.alpha) * lam + derivative(pkg.beta)
        for r in find_instants(ROUND_7, lam):
            box = r.root.refine(Fraction(1, 10**20))
            if box.is_exact:
                assert (dres.evaluate(box.lo) != 0) == r.transversal
            else:
                lo, hi = dres.evaluate(box.lo), dres.evaluate(box.hi)
                if r.transversal:
                    assert lo * hi > 0
                else:
                    assert lo * hi <= 0


def test_nonpositive_lambda_rejected() -> None:
    with pytest.raises(DomainError):
        find_instants(ROUND_7, 0)
    with pytest.raises(DomainError):
        find_instants(ROUND_7, Fraction(-3, 2))


def test_spectrum_protocol() -> None:
    assert SPECTRUM_7.eigenvalue(1) == 16
    assert [SPECTRUM_7.eigenvalue(k) for k in (1, 2, 3)] == [16, 40, 72]
    assert all(isinstance(SPECTRUM_7.eigenvalue(k), Fraction) for k in (1, 2, 3))
    with pytest.raises(DomainError):
        SPECTRUM_7.eigenvalue(0)


def test_enumerate_instants_window_filtering() -> None:
    everything = enumerate_instants(ROUND_7, SPECTRUM_7, max_eigs=6)
    assert everything
    inside = enumerate_instants(ROUND_7, SPECTRUM_7, (Fraction(1, 10), Fraction(1, 5)), 6)
    assert all(
        r.root.compare_to_rational(Fraction(1, 10)) > 0
        and r.root.compare_to_rational(Fraction(1, 5)) < 0
        for r in inside
    )
    assert any(r.lam == 16 for r in inside)
    assert enumerate_instants(ROUND_7, SPECTRUM_7, (Fraction(1), Fraction(1)), 6) == []
    # Every windowed report also appears in the unrestricted run.
    assert len(inside) <= len(everything)


def test_enumerate_instants_sorted_by_root_then_eigenvalue() -> None:
    reports = enumerate_instants(ROUND_7, SPECTRUM_7, max_eigs=8)
    for a, b in zip(reports, reports[1:]):
        c = a.root.compare(b.root)
        assert c <= 0
        if c == 0:
            assert a.lam < b.lam


def test_smallest_instants_decrease_with_eigenvalue() -> None:
    # Large eigenvalues degenerate ever closer to the collapsed limit.
    smallest = []
    for k in range(3, 13):
        reports = find_instants(ROUND_7, SPECTRUM_7.eigenvalue(k))
        assert reports
        smallest.append(reports[0].root)
    for a, b in zip(smallest, smallest[1:]):
        assert b.compare(a) == -1


datas = st.builds(
    lambda n, l, zeta, lam_f, lam_b: SubmersionData(
        n, min(l, n - 1), zeta, zeta * (n - min(l, n - 1)) / min(l, n - 1),
        lam_f if min(l, n - 1) > 1 else Fraction(0), lam_b,
    ),
    st.integers(min_value=5, max_value=12),
    st.integers(min_value=1, max_value=11),
    st.fractions(min_value=0, max_value=8, max_denominator=4),
    st.fractions(min_value=0, max_value=10, max_denominator=4),
    st.fractions(min_value=-8, max_value=24, max_denominator=4),
)
ts = st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12)
lams = st.fractions(min_value=Fraction(1, 4), max_value=200, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(datas, lams)
def test_scalar_coincidence_poly_expanded(data: SubmersionData, lam: Fraction) -> None:
    # t * (lambda(n-1) - scal_t) written out from the six constants.
    n, l = data.n, data.l
    expected = LaurentPoly(
        {
            2: data.eta * l,
            1: lam * (n - 1) - data.lambda_b * (n - l),
            0: -l * data.lambda_f,
        }
    )
    assert scalar_coincidence_poly(data, lam) == expected


@settings(max_examples=60, deadline=None)
@given(datas, ts)
def test_eigenbranch_sum_and_product(data: SubmersionData, t: Fraction) -> None:
    # Roots of the lambda-quadratic at fixed t are the branches p + r sqrt(d)
    # with p = -alpha_t, r = +-1 and d the discriminant; they obey the usual
    # symmetric function identities (sum 2p = -2 alpha_t, product p^2 - d).
    pkg = curvature_package(data)
    a, b = pkg.alpha.evaluate(t), pkg.beta.evaluate(t)
    d = pkg.discriminant.evaluate(t)
    if d < 0:
        return
    p = -a
    assert p * p - d == 2 * b
    for r in (1, -1):
        # (1/2) x^2 + a x + b at x = p + r sqrt(d), split into its rational
        # part and its sqrt(d) part; both must vanish.
        assert Fraction(1, 2) * (p * p + r * r * d) + a * p + b == 0
        assert r * (p + a) == 0


def compared_order(
    data: SubmersionData, spectrum: Spectrum, max_eigs: int
) -> list[InstantReport]:
    """The order by a comparison sort of fresh boxes, each then landed at the display width.

    The oracle for ``enumerate_instants``, which lands first and sorts the landed boxes.
    """
    reports = [
        report
        for k in range(1, max_eigs + 1)
        for report in find_instants(data, spectrum.eigenvalue(k))
    ]

    def order(r1: InstantReport, r2: InstantReport) -> int:
        by_root = r1.root.compare(r2.root)
        if by_root:
            return by_root
        return (r1.lam > r2.lam) - (r1.lam < r2.lam)

    return [
        dataclasses.replace(r, root=r.root.refine(DISPLAY_WIDTH))
        for r in sorted(reports, key=cmp_to_key(order))
    ]


def shown(reports: list[InstantReport]) -> list[tuple]:
    """Eigenvalue, box and certificates of each report, in order; the box is the displayed one."""
    assert all(r.root.refine(DISPLAY_WIDTH) is r.root for r in reports)
    return [(r.lam, r.root.to_json(), r.transversal, r.scalar_distinct) for r in reports]


@pytest.mark.parametrize("fam", list(catalog.members(10)), ids=str)
def test_sweep_matches_the_comparison_sort_on_the_catalogue(fam: catalog.HopfFamily) -> None:
    data, spectrum = catalog.hopf_data(fam), catalog.base_spectrum(fam)
    swept = enumerate_instants(data, spectrum, max_eigs=40)
    assert shown(swept) == shown(compared_order(data, spectrum, 40))


spectra = st.lists(
    st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12),
    min_size=1,
    max_size=8,
    unique=True,
).map(sorted)


@settings(max_examples=40, deadline=None)
@given(datas, spectra)
def test_sweep_matches_the_comparison_sort_on_custom_data(
    data: SubmersionData, eigenvalues: list[Fraction]
) -> None:
    assume(not any(jacobi_residual(data, lam).is_zero for lam in eigenvalues))
    spectrum = Spectrum(lambda k: eigenvalues[k - 1])
    swept = enumerate_instants(data, spectrum, max_eigs=len(eigenvalues))
    assert shown(swept) == shown(compared_order(data, spectrum, len(eigenvalues)))


def test_sweep_orders_a_shared_instant_by_eigenvalue() -> None:
    # t = 24/5 is an instant of both 1/72 and 47/144, so their display
    # boxes are the same cell and only compare's shared-root test can
    # order them (the five isolating boxes are all (0, 8)).
    data = SubmersionData(5, 4, 0, 0, 1, 1)
    eigenvalues = [Fraction(x) for x in ("1/100", "1/72", "1/5", "47/144", "1/3")]
    spectrum = Spectrum(lambda k: eigenvalues[k - 1])
    swept = enumerate_instants(data, spectrum, max_eigs=5)
    assert [str(r.lam) for r in swept] == ["1/3", "1/100", "1/72", "47/144", "1/5"]
    assert [r.root.compare_to_rational(Fraction(24, 5)) for r in swept] == [-1, -1, 0, 0, 1]
    assert swept[2].root.to_json() == swept[3].root.to_json()
    assert shown(swept) == shown(compared_order(data, spectrum, 5))


def test_sweep_breaks_a_shared_root_tie_by_eigenvalue_not_by_box() -> None:
    # sqrt(2) on its display cell for the smaller eigenvalue and in (5/4, 3/2)
    # for the larger one: the larger one's box sorts first, and only the
    # eigenvalue puts it second.  Boxes that are not dyadic cells, (1, 2)
    # and (1/2, 2), are ordered the same way.
    sqrt2, other = RootBox((-2, 0, 1), 1, 2), RootBox((6, -2, -3, 1), 1, 2)
    for small_box, large_box in [
        (sqrt2.refine(DISPLAY_WIDTH), other.refine(Fraction(1, 4))),
        (sqrt2, RootBox((6, -2, -3, 1), Fraction(1, 2), 2)),
    ]:
        small = InstantReport(Fraction(1), small_box, True, True)
        large = InstantReport(Fraction(2), large_box, True, True)
        assert large.root.lo < small.root.lo
        for reports in ([small, large], [large, small]):
            assert sort_by_root(reports, lambda r: (r.root, r.lam)) == [small, large]


@pytest.mark.parametrize(
    "fam, lam, instant",
    [(catalog.HopfFamily("i", 7), 576, 144), (catalog.HopfFamily("i", 10), 44, 286)],
    ids=str,
)
def test_sweep_keeps_exact_rational_instants(
    fam: catalog.HopfFamily, lam: int, instant: int
) -> None:
    data, spectrum = catalog.hopf_data(fam), catalog.base_spectrum(fam)
    swept = enumerate_instants(data, spectrum, max_eigs=40)
    hits = [r for r in swept if r.root.compare_to_rational(instant) == 0]
    assert [r.lam for r in hits] == [lam]
    assert hits[0].root.refine(Fraction(1, 10**12)).to_json() == [str(instant)] * 2


@pytest.mark.parametrize(
    "eigenvalues, bad", [([16, 40, 40], 3), ([16, 72, 40], 3), ([40, 40, 40], 2)], ids=str
)
def test_enumerate_instants_needs_strictly_increasing_eigenvalues(
    eigenvalues: list[int], bad: int
) -> None:
    # Three equal eigenvalues would give three identical boxes that no
    # quartering separates.
    spectrum = Spectrum(lambda k: eigenvalues[k - 1])
    with pytest.raises(DomainError, match=f"eigenvalue {bad} "):
        enumerate_instants(ROUND_7, spectrum, max_eigs=3)
    assert enumerate_instants(ROUND_7, spectrum, max_eigs=bad - 1)
