from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.laurent import LaurentPoly
from qcurv.bifurcation import find_instants
from qcurv.errors import ValidationError
from qcurv.geometry import SubmersionData, curvature_package, pointwise_q

from einstein import einstein_q

# Fibre S^3 over S^4, round total space S^7 at t = 1.
ROUND_7 = SubmersionData(7, 3, Fraction(3), Fraction(4), Fraction(2), Fraction(12))
# Fibre S^7 over S^8(1/2), round total space S^15 at t = 1.
ROUND_15 = SubmersionData(15, 7, Fraction(7), Fraction(8), Fraction(6), Fraction(28))
# Circle fibre over CP^2, round total space S^5 at t = 1.
ROUND_5 = SubmersionData(5, 1, Fraction(1), Fraction(4), Fraction(0), Fraction(6))

# The package's polynomial fields, in output order.
FIELDS = (
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


def _valid_data(draw) -> SubmersionData:
    n = draw(st.integers(min_value=5, max_value=15))
    l = draw(st.integers(min_value=1, max_value=n - 1))
    zeta = draw(st.fractions(min_value=0, max_value=10, max_denominator=6))
    eta = zeta * (n - l) / l
    lam_f = Fraction(0) if l == 1 else draw(st.fractions(min_value=0, max_value=12, max_denominator=6))
    lam_b = draw(st.fractions(min_value=-10, max_value=30, max_denominator=6))
    return SubmersionData(n, l, zeta, eta, lam_f, lam_b)


valid_data = st.composite(_valid_data)()
positive_t = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=20)


def test_construction_flags_each_violation() -> None:
    for args, message in (
        ((4, 1, 0, 0, 0, 1), "total dimension n=4 must be at least 5"),
        ((7, 7, 0, 0, 1, 1), "fibre dimension l=7 must satisfy 1 <= l < n"),
        ((7, 3, -1, Fraction(-4, 3), 2, 12), "zeta=-1 must be nonnegative"),
        ((7, 3, -1, Fraction(-4, 3), 2, 12), "eta=-4/3 must be nonnegative"),
        ((7, 3, 3, 5, 2, 12), "eta*l=15 must equal zeta*(n-l)=12"),
        ((7, 1, 1, 6, 3, 12), "one-dimensional fibres force lambda_f = 0"),
    ):
        with pytest.raises(ValidationError) as info:
            SubmersionData(*args)
        assert message in info.value.violations, message


def test_construction_reports_every_violation_in_order() -> None:
    with pytest.raises(ValidationError) as info:
        SubmersionData(5, 5, -1, 1, 2, 3)
    assert info.value.violations == [
        "fibre dimension l=5 must satisfy 1 <= l < n",
        "zeta=-1 must be nonnegative",
        "eta*l=5 must equal zeta*(n-l)=0",
    ]
    with pytest.raises(ValidationError) as info:
        SubmersionData(4, 1, -2, -1, 1, 0)
    assert info.value.violations == [
        "total dimension n=4 must be at least 5",
        "zeta=-2 must be nonnegative",
        "eta=-1 must be nonnegative",
        "eta*l=-1 must equal zeta*(n-l)=-6",
        "one-dimensional fibres force lambda_f = 0",
    ]


def test_curvature_package_rejects_invalid_data() -> None:
    with pytest.raises(ValidationError) as info:
        curvature_package(SubmersionData(7, 3, 3, 5, 2, 12))
    assert info.value.violations


@pytest.mark.parametrize(
    "n, l, field",
    [(7.0, 3, "n=7.0"), ("7", 3, "n='7'"), (7, 3.0, "l=3.0"), (7, True, "l=True")],
)
def test_non_integer_dimensions_are_validation_errors(n, l, field: str) -> None:
    # The non-int datum equals and hashes like its int twin, so it must be
    # refused on construction, before and after the twin's package is cached.
    # zeta = l and eta = n - l satisfy eta*l = zeta*(n-l); circles need lambda_f = 0.
    constants = (int(l), 7 - int(l), 0 if int(l) == 1 else 2, 12)
    with pytest.raises(ValidationError) as before:
        SubmersionData(n, l, *constants)
    assert find_instants(SubmersionData(int(n), int(l), *constants), 7)
    with pytest.raises(ValidationError) as after:
        SubmersionData(n, l, *constants)
    for info in (before, after):
        assert any(p.startswith(field) for p in info.value.violations)


def test_worked_example_polynomials() -> None:
    pkg = curvature_package(ROUND_7)
    assert pkg.scal == LaurentPoly({-1: 6, 0: 48, 1: -12})
    assert pkg.kappa == LaurentPoly({0: 12, 1: -6})
    assert pkg.alpha == LaurentPoly({-1: Fraction(29, 20), 0: Fraction(34, 5), 1: Fraction(-1, 2)})
    assert pkg.ric_vertical == LaurentPoly({-1: 2, 1: 4})
    assert pkg.ric_vertical_reference == LaurentPoly({0: 2, 2: 4})
    assert pkg.alpha.evaluate(1) == Fraction(31, 4)
    assert pkg.q_curv.evaluate(1) == Fraction(315, 8)


@pytest.mark.parametrize("data", [ROUND_5, ROUND_7, ROUND_15])
def test_round_sphere_identities_at_reference_scale(data: SubmersionData) -> None:
    n = data.n
    pkg = curvature_package(data)
    at = pkg.evaluate_at(1)
    assert at["scal"] == n * (n - 1)
    assert at["q_curv"] == Fraction(n * (n**2 - 4), 8)
    assert at["q_curv"] == einstein_q(n, n - 1)
    assert at["ric_vertical"] == n - 1
    assert at["ric_horizontal"] == n - 1
    assert at["ric_norm_sq"] == n * (n - 1) ** 2
    # Degenerate direction of the quadratic at the round metric: lambda = n.
    lam = Fraction(n)
    assert lam**2 / 2 + at["alpha"] * lam + at["beta"] == 0


def test_pointwise_and_einstein_q_values() -> None:
    assert pointwise_q(5, 20, 80) == Fraction(105, 8)
    assert einstein_q(7, 6) == Fraction(315, 8)
    assert einstein_q(5, 4) == Fraction(105, 8)
    # The Laplacian term enters with coefficient 1/(2(n-1)).
    assert pointwise_q(5, 20, 80, 8) == Fraction(105, 8) + 1
    assert einstein_q(6, 0) == 0


def three_fraction_q(n: int, scal, ric_norm_sq, lap_scal=0):
    """Q as three rational constants times the ingredients: the reference for pointwise_q."""
    return (
        Fraction(1, 2 * (n - 1)) * lap_scal
        - Fraction(2, (n - 2) ** 2) * ric_norm_sq
        + Fraction(n**3 - 4 * n**2 + 16 * n - 16, 8 * (n - 1) ** 2 * (n - 2) ** 2) * scal * scal
    )


ingredients = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
    st.dictionaries(
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-20, max_value=20, max_denominator=8),
        max_size=4,
    ).map(LaurentPoly),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=40), ingredients, ingredients, ingredients)
def test_pointwise_q_matches_the_three_fraction_formula(n: int, scal, ric_norm_sq, lap_scal) -> None:
    want = three_fraction_q(n, scal, ric_norm_sq, lap_scal)
    got = pointwise_q(n, scal, ric_norm_sq, lap_scal)
    assert got == want and type(got) is type(want)
    assert pointwise_q(n, scal, ric_norm_sq) == three_fraction_q(n, scal, ric_norm_sq)


@settings(max_examples=80, deadline=None)
@given(valid_data)
def test_exponent_windows(data: SubmersionData) -> None:
    pkg = curvature_package(data)
    assert {e for e, _ in pkg.scal.items()} <= {-1, 0, 1}
    assert {e for e, _ in pkg.alpha.items()} <= {-1, 0, 1}
    assert {e for e, _ in pkg.kappa.items()} <= {0, 1}
    assert {e for e, _ in pkg.q_curv.items()} <= {-2, -1, 0, 1, 2}
    if data.l == 1:
        # One-dimensional fibres are flat, so nothing blows up as t -> 0.
        for name in FIELDS:
            poly = getattr(pkg, name)
            assert poly.is_zero or poly.min_exp >= 0


@settings(max_examples=80, deadline=None)
@given(valid_data)
def test_structural_identities(data: SubmersionData) -> None:
    # The package derives everything from the two Ricci eigenvalues; check
    # it against the expanded formulas in the six constants.
    n, l = data.n, data.l
    zeta, eta, lam_f, lam_b = data.zeta, data.eta, data.lambda_f, data.lambda_b
    pkg = curvature_package(data)
    t = LaurentPoly.t_power(1)
    t_inv = LaurentPoly.t_power(-1)
    kappa = lam_b - 2 * zeta * t
    ric_v = lam_f * t_inv + eta * t
    scal = l * lam_f * t_inv + lam_b * (n - l) - eta * l * t
    assert pkg.kappa == pkg.ric_horizontal == kappa
    assert pkg.ric_vertical == ric_v
    assert pkg.ric_vertical_reference == lam_f + eta * t * t
    assert pkg.scal == scal
    assert pkg.ric_norm_sq == l * ric_v**2 + (n - l) * kappa**2
    # Q term by term: horizontal and vertical |Ric|^2 parts, then scal^2.
    d = (n - 2) ** 2
    c = Fraction(n**3 - 4 * n**2 + 16 * n - 16, 8 * (n - 1) ** 2 * d)
    assert pkg.q_curv == -2 * (n - l) * kappa**2 / d - 2 * l * ric_v**2 / d + c * scal**2
    assert pkg.beta == -2 * pkg.q_curv


@settings(max_examples=60, deadline=None)
@given(valid_data, positive_t)
def test_pointwise_evaluation_consistency(data: SubmersionData, t: Fraction) -> None:
    pkg = curvature_package(data)
    at = pkg.evaluate_at(t)
    assert at["q_curv"] == pointwise_q(data.n, at["scal"], at["ric_norm_sq"])
    assert at["beta"] == -2 * at["q_curv"]
    assert at["ric_norm_sq"] >= 0
    # Cauchy-Schwarz between the eigenvalue vector and the all-ones vector.
    assert data.n * at["ric_norm_sq"] >= at["scal"] ** 2


def test_evaluate_at_reports_every_field() -> None:
    pkg = curvature_package(ROUND_7)
    at = pkg.evaluate_at(Fraction(1, 2))
    assert tuple(at) == FIELDS
    assert at["scal"] == 6 * 2 + 48 - 12 * Fraction(1, 2)


def test_json_shapes() -> None:
    assert ROUND_7.to_json() == {
        "n": "7",
        "l": "3",
        "zeta": "3",
        "eta": "4",
        "lambda_f": "2",
        "lambda_b": "12",
    }
    assert tuple(ROUND_7.to_json()) == ("n", "l", "zeta", "eta", "lambda_f", "lambda_b")
    blob = curvature_package(ROUND_7).to_json()
    assert tuple(blob) == FIELDS
    assert blob["kappa"] == {"0": "12", "1": "-6"}
