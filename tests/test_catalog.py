from __future__ import annotations

from fractions import Fraction

import pytest

from qcurv.algebra.laurent import LaurentPoly
from qcurv.algebra.roots import isolate_positive_roots
from qcurv.asymptotics import q_limit_signs
from qcurv.catalog import (
    FAMILIES,
    HopfFamily,
    appendix_q_poly,
    appendix_ric_norm_poly,
    appendix_ricci_eigenvalues,
    appendix_scal_poly,
    base_spectrum,
    classify_family,
    expected_limit_signs,
    expected_verdicts,
    hopf_data,
    members,
    theorem_a_table,
)
from qcurv.errors import DomainError
from qcurv.geometry import curvature_package


def test_family_parameter_validation() -> None:
    with pytest.raises(DomainError):
        HopfFamily("i", 1)  # total space would be S^3
    with pytest.raises(DomainError):
        HopfFamily("iv", 2)
    with pytest.raises(DomainError):
        HopfFamily("v", 1)
    with pytest.raises(DomainError):
        HopfFamily("ii", 0)
    assert str(HopfFamily("ii", 4)) == "(ii) q=4"
    assert str(HopfFamily("iv")) == "(iv)"
    assert FAMILIES == ("i", "ii", "iii", "iv")


def test_structural_constants() -> None:
    assert hopf_data(HopfFamily("i", 2)) == type(hopf_data(HopfFamily("i", 2)))(
        5, 1, Fraction(1), Fraction(4), Fraction(0), Fraction(6)
    )
    d = hopf_data(HopfFamily("iv"))
    assert (d.n, d.l, d.zeta, d.eta, d.lambda_f, d.lambda_b) == (15, 7, 7, 8, 6, 28)


def test_every_member_is_admissible() -> None:
    # SubmersionData raises ValidationError on construction of an inadmissible datum.
    for m in members(12):
        hopf_data(m)


@pytest.mark.parametrize("m", list(members(12)), ids=str)
def test_appendix_displays_match_assembled_package(m: HopfFamily) -> None:
    pkg = curvature_package(hopf_data(m))
    assert appendix_q_poly(m) == pkg.q_curv
    assert appendix_scal_poly(m) == pkg.scal
    assert appendix_ric_norm_poly(m) == pkg.ric_norm_sq
    (vert, mult_v), (horiz, mult_h) = appendix_ricci_eigenvalues(m)
    assert vert == pkg.ric_vertical and horiz == pkg.ric_horizontal
    assert (mult_v, mult_h) == (m_l := pkg.data.l, pkg.data.n - m_l)


def test_worked_display_values() -> None:
    assert appendix_q_poly(HopfFamily("ii", 1)) == LaurentPoly(
        {
            -2: Fraction(51, 200),
            -1: Fraction(486, 25),
            0: Fraction(1149, 50),
            1: Fraction(36, 5),
            2: Fraction(-21, 2),
        }
    )
    assert appendix_scal_poly(HopfFamily("ii", 1)) == LaurentPoly({-1: 6, 0: 48, 1: -12})
    assert appendix_q_poly(HopfFamily("iv")).evaluate(1) == Fraction(3315, 8)


@pytest.mark.parametrize("family", ["i", "ii", "iv"])
def test_round_members_have_equal_ricci_eigenvalues_at_reference_scale(family: str) -> None:
    m = HopfFamily(family, 2 if family == "i" else 1)
    n = hopf_data(m).n
    (vert, _), (horiz, _) = appendix_ricci_eigenvalues(m)
    assert vert.evaluate(1) == horiz.evaluate(1) == n - 1


def first_eigenvalues(m: HopfFamily, count: int) -> list[Fraction]:
    spectrum = base_spectrum(m)
    return [spectrum.eigenvalue(k) for k in range(1, count + 1)]


def test_base_spectra_frozen_values() -> None:
    assert first_eigenvalues(HopfFamily("i", 2), 3) == [12, 32, 60]
    assert first_eigenvalues(HopfFamily("ii", 1), 3) == [16, 40, 72]
    assert first_eigenvalues(HopfFamily("iii", 2), 2) == [24, 56]
    assert first_eigenvalues(HopfFamily("iv"), 3) == [32, 72, 120]


def test_base_spectra_increase() -> None:
    for m in members(6):
        eigs = first_eigenvalues(m, 40)
        assert all(a < b for a, b in zip(eigs, eigs[1:]))
        assert eigs[0] > 0


def test_first_eigenvalue_obeys_lichnerowicz_bound() -> None:
    # lambda_1 >= dim_B * lambda_B / (dim_B - 1), equality exactly for
    # the members whose base is a round sphere.
    round_bases = {("ii", 1), ("iii", 1), ("iv", 1)}
    for m in members(8):
        data = hopf_data(m)
        dim_base = data.n - data.l
        lam1 = base_spectrum(m).eigenvalue(1)
        bound = Fraction(dim_base * data.lambda_b, dim_base - 1)
        assert lam1 >= bound, str(m)
        assert (lam1 == bound) == ((m.family, m.q) in round_bases), str(m)


def test_theorem_table_shape_and_verdicts() -> None:
    rows = theorem_a_table(6)
    assert len(rows) == 5 + 6 + 6 + 1
    assert [row.fam for row in rows] == list(members(6))
    for row in rows:
        assert row.n == hopf_data(row.fam).n
        assert (row.collapse, row.expansion) == expected_verdicts(row.fam), str(row.fam)
        assert (row.collapse_method == "negative") == (not row.collapse)
        assert (row.expansion_method == "negative") == (not row.expansion)
        blob = row.to_json()
        assert blob["family"] == row.fam.family and blob["q"] == row.fam.q
    with pytest.raises(DomainError):
        theorem_a_table(1)


def test_classify_family_methods() -> None:
    assert classify_family(HopfFamily("i", 8)).expansion_method == "direct"
    assert classify_family(HopfFamily("i", 10)).expansion_method == "criterion"
    assert classify_family(HopfFamily("ii", 2)).expansion_method == "direct"
    assert classify_family(HopfFamily("ii", 3)).expansion_method == "criterion"
    assert classify_family(HopfFamily("iii", 1)).collapse_method == "negative"
    assert classify_family(HopfFamily("iii", 2)).collapse_method == "criterion"


def test_q_limit_signs_match_published_cases() -> None:
    for m in members(12):
        at_zero, at_inf = q_limit_signs(appendix_q_poly(m))
        want_zero, want_inf = expected_limit_signs(m)
        if want_zero is not None:
            assert at_zero == want_zero, str(m)
        else:
            assert at_zero in ("+", "-", "0"), str(m)
        if want_inf is not None:
            assert at_inf == want_inf, str(m)
        else:
            assert at_inf in ("+", "-", "0"), str(m)


# The homogeneous Einstein metrics in each family, as fibre scales t:
# the round metric at t = 1, Jensen's on S^{4q+3}, Ziller's on CP^{2q+1}
# and Bourguignon-Karcher's on S^15.
EINSTEIN_SCALES = {
    "i": lambda q: {Fraction(1)},
    "ii": lambda q: {Fraction(1), Fraction(1, 2 * q + 3)},
    "iii": lambda q: {Fraction(1), Fraction(1, q + 1)},
    "iv": lambda q: {Fraction(1), Fraction(3, 11)},
}
# (lambda_F, lambda_B): Einstein constants of the fibre S^1, S^3, S^2(1/2)
# or S^7, and of the base CP^q, HP^q or S^8(1/2).
EINSTEIN_CONSTANTS = {
    "i": lambda q: (0, 2 * q + 2),
    "ii": lambda q: (2, 4 * q + 8),
    "iii": lambda q: (4, 4 * q + 8),
    "iv": lambda q: (6, 28),
}


def test_known_einstein_metrics_are_the_only_einstein_members() -> None:
    checks = 0
    for fam in members(200):
        data = hopf_data(fam)
        pkg = curvature_package(data)
        assert (data.lambda_f, data.lambda_b) == EINSTEIN_CONSTANTS[fam.family](fam.q)
        scales = EINSTEIN_SCALES[fam.family](fam.q)
        for t in scales:
            assert pkg.ric_vertical(t) == pkg.ric_horizontal(t), (str(fam), t)
            checks += 1
        # t * (Ric_vertical - Ric_horizontal): its positive roots are the Einstein scales.
        einstein = LaurentPoly({2: data.eta + 2 * data.zeta, 1: -data.lambda_b, 0: data.lambda_f})
        assert einstein == LaurentPoly.t_power(1) * (pkg.ric_vertical - pkg.ric_horizontal)
        assert all(einstein(t) == 0 for t in scales)
        assert len(isolate_positive_roots(einstein.clear_denominators()[0])) == len(scales)
    assert checks == 1001
