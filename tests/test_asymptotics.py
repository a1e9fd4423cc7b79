from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.laurent import LaurentPoly
from qcurv.asymptotics import (
    AsymptoticVerdict,
    classify,
    collapse_criterion,
    collapse_direct_check,
    delta_rho,
    etazeta_radicand,
    expansion_criterion,
    expansion_direct_check,
    in_range_d1,
    in_range_d2,
    in_range_d3,
    poly_abc,
    q_limit_signs,
    ratio_condition,
    rhs_exceeds_rho_plus,
)
from qcurv.algebra.quadext import QuadExtValue
from qcurv.catalog import HopfFamily, hopf_data, members
from qcurv.errors import DomainError, ValidationError
from qcurv.geometry import SubmersionData, curvature_package


def test_inadmissible_data_is_refused_on_construction() -> None:
    # No criterion or classify ever sees an inadmissible datum.
    for args, message in (
        ((4, 1, 0, 0, 0, 1), "total dimension n=4"),
        ((7, 7, 0, 0, 1, 1), "fibre dimension l=7"),
        ((7, 3, 3, 100, 2, 16), "eta*l=300"),
    ):
        with pytest.raises(ValidationError) as info:
            SubmersionData(*args)
        assert any(p.startswith(message) for p in info.value.violations)


def test_dimensional_ranges_partition() -> None:
    assert in_range_d1(7, 3) and not in_range_d2(7, 3)
    assert in_range_d2(9, 2) and not in_range_d1(9, 2)
    assert in_range_d3(21, 1) and not in_range_d3(19, 1)
    assert not any(f(8, 2) for f in (in_range_d1, in_range_d2, in_range_d3))
    for n in range(5, 40):
        for l in range(1, n):
            assert sum(f(n, l) for f in (in_range_d1, in_range_d2, in_range_d3)) <= 1


def minus_rational(v: QuadExtValue, x: int) -> QuadExtValue:
    """v - x, whose sign orders v against the rational x."""
    return QuadExtValue(v.a - x, v.b, v.d)


def test_sign_quadratic_frozen_values() -> None:
    assert poly_abc(7, 3) == (11241, -16704, -64512)
    assert poly_abc(15, 7) == (2348913, -542528, -752640)
    delta, rho_minus, rho_plus = delta_rho(7, 3)
    assert delta == 3179741184
    assert rho_minus.sign() == -1
    assert minus_rational(rho_plus, 3).sign() == 1
    assert minus_rational(rho_plus, 4).sign() == -1
    delta15, _, rho_plus15 = delta_rho(15, 7)
    assert delta15 == 7365880152064
    assert minus_rational(rho_plus15, 0).sign() == 1
    assert minus_rational(rho_plus15, 1).sign() == -1


def test_rho_are_exact_roots_of_the_quadratic() -> None:
    for n, l in ((7, 3), (15, 7), (11, 3), (23, 2)):
        a, b, c = poly_abc(n, l)
        delta, rho_minus, rho_plus = delta_rho(n, l)
        for rho in (rho_minus, rho_plus):
            # a rho^2 + b rho + c with rho = p + r sqrt(delta), split into
            # its rational part and its sqrt(delta) part; both must vanish.
            p, r = rho.a, rho.b
            assert rho.d == delta and r
            assert a * (p * p + r * r * delta) + b * p + c == 0
            assert r * (2 * a * p + b) == 0
        # rho_+ - rho_- = 2 r sqrt(delta) with r > 0.
        assert delta > 0 and rho_plus.a == rho_minus.a and rho_plus.b == -rho_minus.b > 0


def test_etazeta_radicand_values() -> None:
    assert etazeta_radicand(7, 3) == 459
    assert etazeta_radicand(15, 3) == 14883
    assert etazeta_radicand(5, 1) == -167


def test_ratio_condition_examples() -> None:
    # eta/zeta = 4/3 sits below the (7,3) threshold sqrt(64*36*4/459).
    assert not ratio_condition(hopf_data(HopfFamily("ii", 1)))
    assert ratio_condition(hopf_data(HopfFamily("ii", 3)))
    assert ratio_condition(hopf_data(HopfFamily("iv")))
    # Negative radicand: threshold undefined, condition reported false.
    assert not ratio_condition(hopf_data(HopfFamily("i", 2)))
    with pytest.raises(DomainError):
        ratio_condition(SubmersionData(7, 3, 0, 0, 2, 12))


@pytest.mark.parametrize(
    "family, true_from",
    [("i", 10), ("ii", 3), ("iii", 4)],
)
def test_ratio_condition_thresholds(family: str, true_from: int) -> None:
    start = 2 if family == "i" else 1
    for q in range(start, true_from + 4):
        assert ratio_condition(hopf_data(HopfFamily(family, q))) == (q >= true_from)


def test_rhs_exceeds_rho_plus_on_sample_pairs() -> None:
    for n, l in ((7, 3), (15, 7), (11, 3), (23, 2), (21, 1)):
        assert rhs_exceeds_rho_plus(n, l)
    with pytest.raises(DomainError):
        rhs_exceeds_rho_plus(5, 1)  # negative radicand


def test_collapse_criterion_cases() -> None:
    assert collapse_criterion(hopf_data(HopfFamily("ii", 1)))
    assert collapse_criterion(hopf_data(HopfFamily("iv")))
    # Flat circle fibres have lambda_F = 0: no collapse accumulation.
    assert not collapse_criterion(hopf_data(HopfFamily("i", 5)))
    # (6, 2) lies in neither dimensional range.
    assert not collapse_criterion(hopf_data(HopfFamily("iii", 1)))
    assert collapse_criterion(hopf_data(HopfFamily("iii", 2)))


@pytest.mark.parametrize(
    "family, expected",
    [
        ("i", {q: False for q in range(2, 8)}),
        ("ii", {q: True for q in range(1, 8)}),
        ("iii", {1: False} | {q: True for q in range(2, 8)}),
        ("iv", {1: True}),
    ],
)
def test_collapse_direct_check_thresholds(family: str, expected: dict[int, bool]) -> None:
    for q, want in expected.items():
        assert collapse_direct_check(hopf_data(HopfFamily(family, q))) is want


@pytest.mark.parametrize(
    "family, true_from",
    [("i", 6), ("ii", 2), ("iii", 3)],
)
def test_expansion_direct_check_thresholds(family: str, true_from: int) -> None:
    start = 2 if family == "i" else 1
    for q in range(start, true_from + 5):
        assert expansion_direct_check(hopf_data(HopfFamily(family, q))) == (q >= true_from)


def test_expansion_direct_check_quaternionic_exceptional() -> None:
    assert expansion_direct_check(hopf_data(HopfFamily("iv")))


def test_criterion_implies_direct_check() -> None:
    # The sufficient condition never contradicts the leading-term check.
    for member in members(30):
        data = hopf_data(member)
        if expansion_criterion(data):
            assert expansion_direct_check(data)
        if collapse_criterion(data):
            assert collapse_direct_check(data)


def test_classify_methods_and_json() -> None:
    v = classify(hopf_data(HopfFamily("i", 7)))
    assert v == AsymptoticVerdict(False, True, "negative", "direct")
    assert classify(hopf_data(HopfFamily("ii", 1))) == AsymptoticVerdict(
        True, False, "criterion", "negative"
    )
    assert classify(hopf_data(HopfFamily("iv"))) == AsymptoticVerdict(
        True, True, "criterion", "criterion"
    )
    assert classify(hopf_data(HopfFamily("iii", 3))) == AsymptoticVerdict(
        True, True, "criterion", "direct"
    )
    blob = v.to_json()
    assert blob["collapse"] == {"result": False, "method": "negative"}
    assert blob["expansion"] == {"result": True, "method": "direct"}


@pytest.mark.parametrize("fam", [HopfFamily("i", 2), HopfFamily("iii", 1)], ids=str)
def test_classify_builds_one_package(fam: HopfFamily) -> None:
    # Both ends take the direct path here and share one cached package.
    curvature_package.cache_clear()
    classify(hopf_data(fam))
    info = curvature_package.cache_info()
    assert (info.misses, info.hits) == (1, 1)



def test_q_limit_signs_unit_cases() -> None:
    t = LaurentPoly.t_power(1)
    t_inv = LaurentPoly.t_power(-1)
    assert q_limit_signs(LaurentPoly()) == ("0", "0")
    assert q_limit_signs(LaurentPoly.const(5)) == ("+", "+")
    assert q_limit_signs(LaurentPoly.const(-2)) == ("-", "-")
    assert q_limit_signs(t) == ("0", "+inf")
    assert q_limit_signs(t_inv - 1) == ("+inf", "-")
    assert q_limit_signs(-3 * t_inv * t_inv + t * t) == ("-inf", "+inf")
    assert q_limit_signs(t + 2 * t * t) == ("0", "+inf")
    assert q_limit_signs(t_inv) == ("+inf", "0")


def test_sign_sweep_small() -> None:
    for n in range(5, 26):
        for l in range(1, n):
            if not (in_range_d1(n, l) or in_range_d2(n, l) or in_range_d3(n, l)):
                continue
            a, b, c = poly_abc(n, l)
            assert a > 0 and b < 0 and c < 0
            delta, rho_minus, rho_plus = delta_rho(n, l)
            assert delta > 0
            assert rho_minus.sign() == -1 and rho_plus.sign() == 1
            assert etazeta_radicand(n, l) > 0
            assert rhs_exceeds_rho_plus(n, l)
