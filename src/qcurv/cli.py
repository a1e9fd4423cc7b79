"""Command-line front end.

Subcommands:

* ``curvature``        exact Laurent polynomials (optionally evaluated)
* ``instants``         degenerate instants for one eigenvalue or a window
* ``theorem-a``        reproduce the family classification table
* ``verify-appendix``  check the derived polynomials against the displays
* ``asymptotics``      accumulation verdicts for one datum
* ``sample``           floating-point CSV samples along the family

All exact values are printed as canonical rationals; floating point
appears only in ``sample`` output.  Exit codes: 0 success (and verified
where applicable), 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import asymptotics, bifurcation, catalog, geometry
from .algebra.rationals import parse_rational
from .errors import DomainError, ValidationError

# Ceilings on the size arguments: a mistyped huge value is a usage error,
# not a run that never ends.  A run at any ceiling takes seconds.
MAX_Q = 10_000
MAX_EIGS = 10_000
MAX_STEPS = 100_000


class UsageError(Exception):
    pass


def _check_range(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise UsageError(f"{flag} must be between {low} and {high}, got {value}")


def _parse_window(text: str) -> tuple[Fraction, Fraction | None]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be lo:hi, got {text!r}")
    lo = parse_rational(parts[0])
    hi = None if parts[1] in ("inf", "+inf") else parse_rational(parts[1])
    if lo < 0 or (hi is not None and hi <= lo):
        raise UsageError(f"window {text!r} is empty or extends below 0")
    return lo, hi


def _parse_custom(text: str) -> geometry.SubmersionData:
    fields: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise UsageError(f"custom data needs key=value pairs, got {chunk!r}")
        key, _, value = chunk.partition("=")
        fields[key.strip()] = value.strip()
    expected = {"n", "l", "zeta", "eta", "lambda_f", "lambda_b"}
    if set(fields) != expected:
        missing = expected - set(fields)
        extra = set(fields) - expected
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)}")
        if extra:
            detail.append(f"unknown {sorted(extra)}")
        raise UsageError("custom data: " + ", ".join(detail))
    try:
        n, l = int(fields["n"]), int(fields["l"])
        zeta, eta, lambda_f, lambda_b = (
            parse_rational(fields[key]) for key in ("zeta", "eta", "lambda_f", "lambda_b")
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return geometry.SubmersionData(n, l, zeta, eta, lambda_f, lambda_b)


def _select_data(args: argparse.Namespace) -> tuple[geometry.SubmersionData, catalog.HopfFamily | None]:
    if args.family and args.custom:
        raise UsageError("--family and --custom are mutually exclusive")
    if args.custom:
        if args.q is not None:
            raise UsageError("--q only applies to --family")
        return _parse_custom(args.custom), None
    if not args.family:
        raise UsageError("select input with --family or --custom")
    q = args.q if args.q is not None else 1
    _check_range("--q", q, 1, MAX_Q)
    fam = catalog.HopfFamily(args.family, q)
    return catalog.hopf_data(fam), fam


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=catalog.FAMILIES, help="catalogued fibration family")
    parser.add_argument("--q", type=int, default=None, help=f"family parameter, 1 to {MAX_Q}")
    parser.add_argument(
        "--custom",
        metavar="n=..,l=..,zeta=..,eta=..,lambda_f=..,lambda_b=..",
        help="explicit submersion constants (rationals as p/q)",
    )


def _cmd_curvature(args: argparse.Namespace) -> int:
    data, _fam = _select_data(args)
    pkg = geometry.curvature_package(data)
    out: dict[str, object] = {"input": data.to_json(), "package": pkg.to_json()}
    if args.at is not None:
        t = parse_rational(args.at)
        if t <= 0:
            raise UsageError("--at must be a positive rational")
        values = pkg.evaluate_at(t)
        out["at"] = {"t": str(t), **{k: str(v) for k, v in values.items()}}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_instants(args: argparse.Namespace) -> int:
    data, fam = _select_data(args)
    if (args.lam is None) == (args.eigs is None):
        raise UsageError("choose exactly one of --lambda or --eigs")
    if args.lam is not None:
        if args.window is not None:
            raise UsageError("--window applies to --eigs enumeration")
        lam = parse_rational(args.lam)
        if lam <= 0:
            raise UsageError("--lambda must be a positive rational")
        reports = bifurcation.find_instants(data, lam)
    else:
        if fam is None:
            raise UsageError("--eigs needs --family (no spectrum for custom data)")
        _check_range("--eigs", args.eigs, 1, MAX_EIGS)
        window = _parse_window(args.window) if args.window else (Fraction(0), None)
        reports = bifurcation.enumerate_instants(
            data, catalog.base_spectrum(fam), window, args.eigs
        )
    payload = []
    for report in reports:
        refined = dataclasses.replace(report, root=report.root.refine(bifurcation.DISPLAY_WIDTH))
        payload.append(refined.to_json())
    print(json.dumps(payload, indent=2))
    return 0


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_theorem_a(args: argparse.Namespace) -> int:
    _check_range("--q-max", args.q_max, 2, MAX_Q)
    rows = catalog.theorem_a_table(args.q_max)
    if args.json:
        print(json.dumps([row.to_json() for row in rows], indent=2))
    else:
        print("| family | q | n | collapse (t->0) | expansion (t->inf) |")
        print("|--------|---|---|-----------------|--------------------|")
        for row in rows:
            print(
                f"| {row.fam.family} | {row.fam.q} | {row.n} "
                f"| {_yesno(row.collapse)} | {_yesno(row.expansion)} |"
            )
    failures = []
    for row in rows:
        want = catalog.expected_verdicts(row.fam)
        got = (row.collapse, row.expansion)
        if got != want:
            failures.append(f"{row.fam}: computed {got}, published {want}")
    for line in failures:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify_appendix(args: argparse.Namespace) -> int:
    _check_range("--q-max", args.q_max, 2, MAX_Q)
    failures: list[str] = []
    checked = 0
    for fam in catalog.members(args.q_max):
        pkg = geometry.curvature_package(catalog.hopf_data(fam))
        expected = {
            "Q": (catalog.appendix_q_poly(fam), pkg.q_curv),
            "scal": (catalog.appendix_scal_poly(fam), pkg.scal),
            "|Ric|^2": (catalog.appendix_ric_norm_poly(fam), pkg.ric_norm_sq),
        }
        (vert, vmult), (horiz, hmult) = catalog.appendix_ricci_eigenvalues(fam)
        expected["Ric vertical"] = (vert, pkg.ric_vertical)
        expected["Ric horizontal"] = (horiz, pkg.ric_horizontal)
        if (vmult, hmult) != (pkg.data.l, pkg.data.n - pkg.data.l):
            failures.append(f"{fam}: eigenvalue multiplicities {(vmult, hmult)}")
        for name, (display, derived) in expected.items():
            if display != derived:
                failures.append(f"{fam}: {name} display {display!r} != derived {derived!r}")
        limits = asymptotics.q_limit_signs(expected["Q"][0])
        want0, want_inf = catalog.expected_limit_signs(fam)
        if want0 is None:
            if limits[0].endswith("inf"):
                failures.append(f"{fam}: Q should stay finite at t->0, got {limits[0]}")
        elif limits[0] != want0:
            failures.append(f"{fam}: Q limit at t->0 is {limits[0]}, published {want0}")
        if limits[1] != want_inf:
            failures.append(f"{fam}: Q limit at t->inf is {limits[1]}, published {want_inf}")
        checked += 1
    if failures:
        for line in failures:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    print(f"verified {checked} family members up to q = {args.q_max}")
    return 0


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    data, _fam = _select_data(args)
    verdict = asymptotics.classify(data)
    out = {"input": data.to_json(), **verdict.to_json()}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    data, _fam = _select_data(args)
    lo_hi = args.t_range.split(":")
    if len(lo_hi) != 2:
        raise UsageError("--t-range must be lo:hi")
    lo, hi = parse_rational(lo_hi[0]), parse_rational(lo_hi[1])
    if lo <= 0 or hi <= lo:
        raise UsageError("--t-range needs 0 < lo < hi")
    _check_range("--steps", args.steps, 2, MAX_STEPS)
    pkg = geometry.curvature_package(data)
    disc = pkg.discriminant
    lines = ["t,scal,Q,alpha,beta,discriminant"]
    for i in range(args.steps):
        t = lo + (hi - lo) * Fraction(i, args.steps - 1)
        row = [t, pkg.scal(t), pkg.q_curv(t), pkg.alpha(t), pkg.beta(t), disc(t)]
        try:
            lines.append(",".join(format(float(v), ".17g") for v in row))
        except OverflowError:
            raise UsageError("--t-range gives sample values beyond the float range") from None
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurv",
        description="Exact curvature and bifurcation analysis of canonical variations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curv = sub.add_parser("curvature", help="print the exact curvature package")
    _add_data_arguments(p_curv)
    p_curv.add_argument("--at", metavar="p/q", help="also evaluate at this positive rational t")
    p_curv.set_defaults(handler=_cmd_curvature)

    p_inst = sub.add_parser("instants", help="locate degenerate instants")
    _add_data_arguments(p_inst)
    p_inst.add_argument("--lambda", dest="lam", metavar="p/q", help="single eigenvalue")
    p_inst.add_argument(
        "--eigs",
        type=int,
        metavar="K",
        help=f"enumerate the first K base eigenvalues, 1 to {MAX_EIGS}",
    )
    p_inst.add_argument("--window", metavar="lo:hi", help="open window for --eigs (hi may be inf)")
    p_inst.set_defaults(handler=_cmd_instants)

    p_thm = sub.add_parser("theorem-a", help="reproduce the classification table")
    p_thm.add_argument("--q-max", type=int, required=True, help=f"largest q, 2 to {MAX_Q}")
    p_thm.add_argument("--json", action="store_true", help="emit JSON instead of markdown")
    p_thm.set_defaults(handler=_cmd_theorem_a)

    p_ver = sub.add_parser("verify-appendix", help="check derived formulas against the displays")
    p_ver.add_argument("--q-max", type=int, required=True, help=f"largest q, 2 to {MAX_Q}")
    p_ver.set_defaults(handler=_cmd_verify_appendix)

    p_asym = sub.add_parser("asymptotics", help="accumulation verdicts for one datum")
    _add_data_arguments(p_asym)
    p_asym.set_defaults(handler=_cmd_asymptotics)

    p_sample = sub.add_parser("sample", help="write floating-point samples as CSV")
    _add_data_arguments(p_sample)
    p_sample.add_argument("--t-range", required=True, metavar="lo:hi")
    p_sample.add_argument("--steps", type=int, required=True, help=f"sample points, 2 to {MAX_STEPS}")
    p_sample.add_argument("--out", required=True, help="output path, or - for stdout")
    p_sample.set_defaults(handler=_cmd_sample)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        for problem in exc.violations:
            print(f"invalid input: {problem}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
