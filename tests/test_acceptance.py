"""Acceptance suite: one test per contract criterion.

Each test prints a single PASS/FAIL line with its measured values to the
real stdout so the outcome is visible regardless of capture settings,
then asserts.  Runtime budgets are asserted alongside correctness.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from qcurv.asymptotics import (
    delta_rho,
    etazeta_radicand,
    expansion_direct_check,
    in_range_d1,
    in_range_d2,
    in_range_d3,
    poly_abc,
    q_limit_signs,
    ratio_condition,
    rhs_exceeds_rho_plus,
)
from qcurv.bifurcation import enumerate_instants, find_instants, jacobi_residual
from qcurv.catalog import (
    HopfFamily,
    appendix_q_poly,
    appendix_scal_poly,
    base_spectrum,
    expected_limit_signs,
    expected_verdicts,
    hopf_data,
    members,
    theorem_a_table,
)
from qcurv.geometry import SubmersionData, curvature_package
from qcurv.algebra.roots import isolate_positive_roots

from einstein import einstein_q


def _report(
    log: list[str], index: int, name: str, ok: bool, detail: str, elapsed: float, budget: float
) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[acceptance {index}] {name}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    log.append(line)
    print(line, flush=True)
    assert ok, f"criterion {index} ({name}): {detail}"
    assert elapsed < budget, f"criterion {index} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_appendix_equivalence(acceptance_log) -> None:
    start = time.perf_counter()
    mismatches = []
    fams = list(members(50))
    for m in fams:
        pkg = curvature_package(hopf_data(m))
        if appendix_q_poly(m) != pkg.q_curv:
            mismatches.append(f"{m}: Q")
        if appendix_scal_poly(m) != pkg.scal:
            mismatches.append(f"{m}: scal")
    elapsed = time.perf_counter() - start
    detail = f"{len(fams)} members, {len(mismatches)} mismatches"
    if mismatches:
        detail += ": " + "; ".join(mismatches[:4])
    _report(acceptance_log, 1, "appendix equivalence q<=50", not mismatches, detail, elapsed, 5.0)


def test_criterion_2_round_sphere_identities(acceptance_log) -> None:
    start = time.perf_counter()
    failures = []
    fams = list(members(20))
    for m in fams:
        data = hopf_data(m)
        n = data.n
        pkg = curvature_package(data)
        at = pkg.evaluate_at(1)
        if m.family == "iii":
            if at["scal"] != n * (n + 2):
                failures.append(f"{m}: scal(1)")
            if at["q_curv"] != einstein_q(n, n + 2):
                failures.append(f"{m}: Q(1)")
            continue
        if at["scal"] != n * (n - 1):
            failures.append(f"{m}: scal(1)")
        if at["q_curv"] != Fraction(n * (n**2 - 4), 8):
            failures.append(f"{m}: Q(1)")
        if Fraction(n**2, 2) + at["alpha"] * n + at["beta"] != 0:
            failures.append(f"{m}: Jacobi kernel")
    elapsed = time.perf_counter() - start
    detail = f"{len(fams)} members at t=1, {len(failures)} failures"
    if failures:
        detail += ": " + "; ".join(failures[:4])
    _report(acceptance_log, 2, "round-sphere identities", not failures, detail, elapsed, 1.0)


def test_criterion_3_classification_table(acceptance_log) -> None:
    start = time.perf_counter()
    rows = theorem_a_table(30)
    bad = [
        str(row.fam)
        for row in rows
        if (row.collapse, row.expansion) != expected_verdicts(row.fam)
    ]
    elapsed = time.perf_counter() - start
    detail = f"{len(rows)} rows, {len(bad)} mismatches"
    if bad:
        detail += ": " + ", ".join(bad[:5])
    _report(acceptance_log, 3, "classification table q<=30", not bad, detail, elapsed, 30.0)


def test_criterion_4_threshold_split(acceptance_log) -> None:
    start = time.perf_counter()
    failures = []
    ratio_from = {"i": 10, "ii": 3, "iii": 4}
    direct_from = {"i": 6, "ii": 2, "iii": 3}
    for family, threshold in ratio_from.items():
        start_q = 2 if family == "i" else 1
        for q in range(start_q, 31):
            data = hopf_data(HopfFamily(family, q))
            if ratio_condition(data) != (q >= threshold):
                failures.append(f"ratio ({family}) q={q}")
            if expansion_direct_check(data) != (q >= direct_from[family]):
                failures.append(f"direct ({family}) q={q}")
    if not ratio_condition(hopf_data(HopfFamily("iv"))):
        failures.append("ratio (iv)")
    if not expansion_direct_check(hopf_data(HopfFamily("iv"))):
        failures.append("direct (iv)")
    elapsed = time.perf_counter() - start
    detail = f"ratio thresholds i>=10, ii>=3, iii>=4; direct i>=6, ii>=2, iii>=3; {len(failures)} failures"
    if failures:
        detail += ": " + ", ".join(failures[:5])
    _report(acceptance_log, 4, "ratio/direct threshold split", not failures, detail, elapsed, 10.0)


def test_criterion_5_sign_polynomial_sweep(acceptance_log) -> None:
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(5, 61):
        for l in range(1, n):
            if not (in_range_d1(n, l) or in_range_d2(n, l) or in_range_d3(n, l)):
                continue
            checked += 1
            a, b, c = poly_abc(n, l)
            delta, rho_minus, rho_plus = delta_rho(n, l)
            ok = (
                a > 0
                and b < 0
                and c < 0
                and delta > 0
                and etazeta_radicand(n, l) > 0
                and rhs_exceeds_rho_plus(n, l)
            )
            if not ok:
                failures.append(f"(n={n}, l={l})")
    elapsed = time.perf_counter() - start
    detail = f"{checked} pairs checked, {len(failures)} failures"
    if failures:
        detail += ": " + ", ".join(failures[:5])
    _report(acceptance_log, 5, "sign sweep 5<=n<=60", not failures, detail, elapsed, 30.0)


def test_criterion_6_instant_enumeration(acceptance_log) -> None:
    start = time.perf_counter()
    failures = []

    data_iv = hopf_data(HopfFamily("iv"))
    spec_iv = base_spectrum(HopfFamily("iv"))
    near_zero = enumerate_instants(data_iv, spec_iv, (Fraction(0), Fraction(1, 100)), 40)
    good_zero = [r for r in near_zero if r.transversal and r.scalar_distinct]
    if len(good_zero) < 5:
        failures.append(f"(iv) collapse side: {len(good_zero)} < 5")
    near_inf = enumerate_instants(data_iv, spec_iv, (Fraction(100), None), 40)
    good_inf = [r for r in near_inf if r.transversal and r.scalar_distinct]
    if len(good_inf) < 5:
        failures.append(f"(iv) expansion side: {len(good_inf)} < 5")

    reports = find_instants(hopf_data(HopfFamily("ii", 1)), 16)
    hits = [
        r
        for r in reports
        if r.root.compare_to_rational(Fraction(1, 10)) > 0
        and r.root.compare_to_rational(Fraction(1, 5)) < 0
        and r.transversal
        and r.scalar_distinct
    ]
    if len(hits) != 1:
        failures.append(f"(ii) q=1 lambda=16: {len(hits)} qualifying instants")

    stray = 0
    for q in range(2, 6):
        fam = HopfFamily("i", q)
        found = enumerate_instants(
            hopf_data(fam), base_spectrum(fam), (Fraction(0), Fraction(1, 100)), 200
        )
        stray += len(found)
    if stray:
        failures.append(f"(i) q=2..5 collapse side: {stray} unexpected instants")

    elapsed = time.perf_counter() - start
    detail = (
        f"(iv): {len(good_zero)} near 0, {len(good_inf)} near inf; "
        f"(ii,1) lambda=16 in (1/10,1/5): {len(hits)}; (i) strays: {stray}"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    _report(acceptance_log, 6, "instant enumeration", not failures, detail, elapsed, 60.0)


def test_criterion_7_appendix_limit_signs(acceptance_log) -> None:
    start = time.perf_counter()
    failures = []
    fams = list(members(30))
    for m in fams:
        at_zero, at_inf = q_limit_signs(appendix_q_poly(m))
        want_zero, want_inf = expected_limit_signs(m)
        if want_zero is None:
            if at_zero.endswith("inf"):
                failures.append(f"{m}: finite limit expected at 0, got {at_zero}")
        elif at_zero != want_zero:
            failures.append(f"{m}: t->0 {at_zero} != {want_zero}")
        if at_inf != want_inf:
            failures.append(f"{m}: t->inf {at_inf} != {want_inf}")
    elapsed = time.perf_counter() - start
    detail = f"{len(fams)} members, {len(failures)} failures"
    if failures:
        detail += ": " + "; ".join(failures[:4])
    _report(acceptance_log, 7, "appendix limit signs q<=30", not failures, detail, elapsed, 5.0)


def _random_instance(rng: random.Random) -> tuple[SubmersionData, Fraction]:
    n = rng.randint(5, 14)
    l = rng.randint(1, n - 1)
    zeta = Fraction(rng.randint(0, 12), rng.randint(1, 4))
    eta = zeta * (n - l) / l
    lam_f = Fraction(0) if l == 1 else Fraction(rng.randint(0, 9), rng.randint(1, 3))
    lam_b = Fraction(rng.randint(1, 30), rng.randint(1, 3))
    lam = Fraction(rng.randint(1, 500), rng.randint(1, 4))
    return SubmersionData(n, l, zeta, eta, lam_f, lam_b), lam


def _float_oracle_roots(poly, lo: float, hi: float) -> list[float]:
    """Sign-change scan on a log grid, bisected down to 1e-8."""
    import numpy as np

    terms = [(e, float(c)) for e, c in poly.items()]

    def f(t):
        return sum(c * t**e for e, c in terms)

    grid = np.logspace(np.log10(lo), np.log10(hi), 200001)
    values = f(grid)
    roots = []
    for i in range(len(grid) - 1):
        a, b = float(values[i]), float(values[i + 1])
        if a == 0.0:
            if i == 0 or float(values[i - 1]) != 0.0:
                roots.append(float(grid[i]))
            continue
        if a * b < 0:
            x0, x1 = float(grid[i]), float(grid[i + 1])
            f0 = a
            while x1 - x0 > 1e-8:
                mid = (x0 + x1) / 2
                fm = f(mid)
                if fm == 0.0:
                    x0 = x1 = mid
                    break
                if (f0 < 0) == (fm < 0):
                    x0, f0 = mid, fm
                else:
                    x1 = mid
            roots.append((x0 + x1) / 2)
    if float(values[-1]) == 0.0:
        roots.append(float(grid[-1]))
    return roots


def test_criterion_8_float_oracle_cross_check(acceptance_log) -> None:
    start = time.perf_counter()
    rng = random.Random(20260814)
    lo, hi = Fraction(1, 1000), Fraction(1000)
    instances = 0
    failures = []
    while instances < 100:
        data, lam = _random_instance(rng)
        residual = jacobi_residual(data, lam)
        if residual.is_zero:
            continue
        instances += 1
        cleared, _ = residual.clear_denominators()
        boxes = [
            box
            for box in isolate_positive_roots(cleared)
            if box.compare_to_rational(lo) > 0 and box.compare_to_rational(hi) < 0
        ]
        oracle = _float_oracle_roots(residual, 1e-3, 1e3)
        if len(oracle) != len(boxes):
            failures.append(
                f"#{instances} {data.n},{data.l} lam={lam}: {len(boxes)} exact vs {len(oracle)} oracle"
            )
            continue
        for box, approx in zip(boxes, oracle):
            tight = box.refine(Fraction(1, 10**10))
            if not (float(tight.lo) - 1e-6 <= approx <= float(tight.hi) + 1e-6):
                failures.append(f"#{instances}: oracle root {approx} outside box")
    elapsed = time.perf_counter() - start
    detail = f"{instances} instances, {len(failures)} disagreements"
    if failures:
        detail += ": " + "; ".join(failures[:3])
    _report(acceptance_log, 8, "float grid-scan oracle", not failures, detail, elapsed, 60.0)
