"""Output checker: runs after the timed passes, in the run.py process.

``check_op`` returns the problems found in one op's output record; an
op with any problem counts as failed.  Instant lists (spectrum-scan and
point-queries) get box checks and, when sympy is installed, an
independent exact oracle: distinct positive roots are counted by sympy
on a Jacobi polynomial built from ``workloads.jacobi_coeffs``, not from
``qcurv``.  Spectrum-scan output must also match its pinned sha256.
Catalog-sweep records are checked against the closed-form displays.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from qcurv import catalog

import workloads

DIGESTS = Path(__file__).resolve().parent / "digests.json"

try:
    import sympy
except ImportError:  # the oracle is skipped; every other check still runs
    sympy = None


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def digest_key(fam: catalog.HopfFamily) -> str:
    return f"{fam.family}:{fam.q}:{workloads.K_EIGS}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- small exact polynomial helpers (ascending Fraction coefficients) -------


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divmod(a, b):
    a, b = [Fraction(c) for c in _trim(a)], _trim(b)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        offset = len(a) - len(b)
        quot[offset] = factor
        for i, c in enumerate(b):
            a[offset + i] -= factor * c
        a = _trim(a)
    return quot, a


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def squarefree(p):
    deriv = [k * c for k, c in enumerate(p)][1:]
    return _divmod(p, _gcd(p, deriv))[0]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _proportional(p, q) -> bool:
    """p = c * t^k * q for some c > 0 and integer k (roots at t > 0 agree)."""
    p, q = _trim(p), _trim(q)
    while p and not p[0]:
        p.pop(0)
    while q and not q[0]:
        q.pop(0)
    if len(p) != len(q) or not p:
        return False
    if _sign(p[-1]) != _sign(q[-1]):
        return False
    return all(a * q[-1] == b * p[-1] for a, b in zip(p, q))


# -- instant lists -----------------------------------------------------------


def parse_reports(items: list[dict]) -> list[tuple]:
    """(lam, lo, hi, poly, transversal, scalar_distinct) for each report."""
    return [
        (
            Fraction(item["lambda"]),
            Fraction(item["interval"][0]),
            Fraction(item["interval"][1]),
            tuple(int(c) for c in item["poly"]),
            item["transversal"],
            item["scalar_distinct"],
        )
        for item in items
    ]


def check_boxes(reports: list[tuple]) -> list[str]:
    problems = []
    for i, (lam, lo, hi, poly, _tr, _sd) in enumerate(reports):
        where = f"report {i} (lambda {lam})"
        if lo > hi:
            problems.append(f"box: {where} interval is reversed")
            continue
        if hi - lo > workloads.DISPLAY_WIDTH:
            problems.append(f"box: {where} wider than 1e-12")
        if lo == hi:
            if _eval(poly, lo):
                problems.append(f"box: {where} exact endpoint is not a root")
            continue
        sqf = squarefree(poly)
        if _sign(_eval(sqf, lo)) * _sign(_eval(sqf, hi)) >= 0:
            problems.append(f"box: {where} squarefree part has no sign change")
    for i in range(len(reports)):
        lo_i, hi_i = reports[i][1], reports[i][2]
        for j in range(i + 1, len(reports)):
            lo_j, hi_j = reports[j][1], reports[j][2]
            both_exact = lo_i == hi_i and lo_j == hi_j
            if hi_j < lo_i or (hi_j == lo_i and not both_exact):
                problems.append(f"order: report {j} lies below report {i}")
                return problems
    return problems


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_poly(coeffs, x):
    return sympy.Poly([_rational(Fraction(c)) for c in reversed(coeffs)], x)


def _has_root(factor, lo, hi) -> bool:
    if lo == hi:
        return factor.eval(lo) == 0
    return factor.count_roots(lo, hi) > 0


def check_against_oracle(data, jacobi: dict, by_lam: dict) -> list[str]:
    """Per-lambda instant counts and both flags, decided by sympy."""
    problems = []
    x = sympy.Symbol("x")
    for lam, group in by_lam.items():
        poly = _sympy_poly(jacobi[lam], x)
        factors = poly.sqf_list()[1]  # pairwise coprime, so their roots add up
        positive = sum(f.count_roots(0, None) - (f.eval(0) == 0) for f, _ in factors)
        if positive != len(group):
            problems.append(f"oracle: lambda {lam} has {positive} instants, output has {len(group)}")
            continue
        if not group:
            continue
        common = sympy.gcd(poly, _sympy_poly(workloads.coincidence_coeffs(data, lam), x))
        for _lam, lo, hi, _poly, transversal, scalar_distinct in group:
            slo, shi = _rational(lo), _rational(hi)
            mult = [m for f, m in factors if len(factors) == 1 or _has_root(f, slo, shi)]
            if mult and (mult[0] == 1) != transversal:
                problems.append(f"oracle: lambda {lam} transversal flag is {transversal}")
            meets = common.degree() >= 1 and _has_root(common, slo, shi)
            if meets == scalar_distinct:
                problems.append(f"oracle: lambda {lam} scalar_distinct flag is {scalar_distinct}")
    return problems


def check_instants(data, lams, reports: list[tuple]) -> list[str]:
    """Box checks, the reported polynomials, and (with sympy) the oracle."""
    problems = check_boxes(reports)
    jacobi = {lam: workloads.jacobi_coeffs(data, lam) for lam in lams}
    by_lam: dict[Fraction, list[tuple]] = {lam: [] for lam in lams}
    for report in reports:
        lam, poly = report[0], report[3]
        if lam not in by_lam:
            return problems + [f"lambda: {lam} is not one of the eigenvalues asked for"]
        if not _proportional(poly, jacobi[lam]):
            problems.append(f"poly: lambda {lam} reported polynomial is not the Jacobi quadratic")
        by_lam[lam].append(report)
    if sympy is not None:
        problems += check_against_oracle(data, jacobi, by_lam)
    return problems


# -- per workload ------------------------------------------------------------


def check_spectrum(fam: catalog.HopfFamily, record: dict, digests: dict[str, str]) -> list[str]:
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    problems = []
    want = digests.get(digest_key(fam))
    if want is None:
        problems.append(f"digest: none pinned for {digest_key(fam)}")
    elif sha256(record["stdout"]) != want:
        problems.append("digest: stdout differs from the pinned output")
    try:
        reports = parse_reports(json.loads(record["stdout"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"unparsable output: {exc}"]
    spectrum = catalog.base_spectrum(fam)
    lams = [spectrum.eigenvalue(k) for k in range(1, workloads.K_EIGS + 1)]
    return problems + check_instants(catalog.hopf_data(fam), lams, reports)


def check_point_query(item, record: dict) -> list[str]:
    data, lam = item
    return check_instants(data, [lam], parse_reports(record["reports"]))


def _at(poly, t: Fraction) -> Fraction:
    return sum((c * t**e for e, c in poly.items()), Fraction(0))


def check_catalog(item, record: dict) -> list[str]:
    fam, t = item
    n = catalog.hopf_data(fam).n
    q_disp = catalog.appendix_q_poly(fam)
    scal_disp = catalog.appendix_scal_poly(fam)
    ric_disp = catalog.appendix_ric_norm_poly(fam)
    (vert, _), (horiz, _) = catalog.appendix_ricci_eigenvalues(fam)
    problems = []
    package = record["package"]
    for name, display in (
        ("q_curv", q_disp),
        ("scal", scal_disp),
        ("ric_norm_sq", ric_disp),
        ("ric_vertical", vert),
        ("ric_horizontal", horiz),
    ):
        if package.get(name) != display.to_json():
            problems.append(f"package: {name} differs from the display")
    scal_t, kappa_t, q_t = _at(scal_disp, t), _at(horiz, t), _at(q_disp, t)
    expected = {
        "kappa": kappa_t,
        "ric_vertical": _at(vert, t),
        "ric_vertical_reference": t * _at(vert, t),
        "ric_horizontal": kappa_t,
        "ric_norm_sq": _at(ric_disp, t),
        "scal": scal_t,
        "q_curv": q_t,
        "alpha": ((n * n - 4 * n + 8) * scal_t - 8 * (n - 1) * kappa_t) / (4 * (n - 1) * (n - 2)),
        "beta": -2 * q_t,
    }
    values = record["values"]
    for name, want in expected.items():
        if name not in values or Fraction(values[name]) != want:
            problems.append(f"value: {name} at t={t} differs from the display")
    if tuple(record["verdicts"]) != catalog.expected_verdicts(fam):
        problems.append(f"verdicts: {record['verdicts']} differ from the published table")
    return problems


def check_op(workload: str, item, record: dict, digests: dict[str, str]) -> list[str]:
    if "error" in record:
        return [f"raised {record['error']}"]
    if workload == "spectrum-scan":
        return check_spectrum(item, record, digests)
    if workload == "point-queries":
        return check_point_query(item, record)
    return check_catalog(item, record)


def sympy_version() -> str | None:
    return None if sympy is None else sympy.__version__

