from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcurv import catalog
from qcurv.cli import MAX_EIGS, MAX_Q, MAX_STEPS, run
from qcurv.geometry import SubmersionData, curvature_package

CUSTOM_7 = "n=7,l=3,zeta=3,eta=4,lambda_f=2,lambda_b=12"


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curvature_family_with_evaluation(capsys) -> None:
    code, out, err = invoke(capsys, "curvature", "--family", "ii", "--at", "1")
    assert code == 0 and not err
    blob = json.loads(out)
    assert blob["input"]["n"] == "7"
    assert blob["package"]["kappa"] == {"0": "12", "1": "-6"}
    assert blob["at"]["t"] == "1"
    assert blob["at"]["scal"] == "42"
    assert blob["at"]["q_curv"] == "315/8"


def test_curvature_custom_matches_family(capsys) -> None:
    code_a, out_a, _ = invoke(capsys, "curvature", "--family", "ii", "--q", "1")
    code_b, out_b, _ = invoke(capsys, "curvature", "--custom", CUSTOM_7)
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv",
    [
        ("curvature",),
        ("curvature", "--family", "ii", "--custom", CUSTOM_7),
        ("curvature", "--custom", CUSTOM_7, "--q", "2"),
        ("curvature", "--family", "ii", "--at", "0.5"),
        ("curvature", "--family", "ii", "--at", "-1"),
        ("curvature", "--family", "nope"),
        ("curvature", "--custom", "n=7,l=3"),
        ("curvature", "--custom", CUSTOM_7 + ",extra=1"),
        ("instants", "--family", "ii"),
        ("instants", "--family", "ii", "--lambda", "16", "--eigs", "3"),
        ("instants", "--family", "ii", "--lambda", "0.5"),
        ("instants", "--family", "ii", "--lambda", "-3"),
        ("instants", "--family", "ii", "--lambda", "16", "--window", "0:1"),
        ("instants", "--custom", CUSTOM_7, "--eigs", "3"),
        ("instants", "--family", "ii", "--eigs", "0"),
        ("instants", "--family", "ii", "--eigs", "3", "--window", "5:1"),
        ("instants", "--family", "ii", "--eigs", "3", "--window", "1:2:3"),
        ("theorem-a", "--q-max", "1"),
        ("verify-appendix", "--q-max", "0"),
        ("sample", "--family", "ii", "--t-range", "2:1", "--steps", "5", "--out", "-"),
        ("sample", "--family", "ii", "--t-range", "1:2", "--steps", "1", "--out", "-"),
        ("sample", "--family", "ii", "--t-range", "1-2", "--steps", "5", "--out", "-"),
        ("sample", "--family", "iv", "--t-range", f"1/{10**400}:1", "--steps", "3", "--out", "-"),
    ],
)
def test_usage_errors_exit_2(capsys, argv: tuple[str, ...]) -> None:
    code, _out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith(("error:", "invalid input:", "usage:"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("theorem-a", "--q-max", "99999999999999999999999"),
            f"--q-max must be between 2 and {MAX_Q}, got 99999999999999999999999",
        ),
        (
            ("verify-appendix", "--q-max", str(MAX_Q + 1)),
            f"--q-max must be between 2 and {MAX_Q}, got {MAX_Q + 1}",
        ),
        (
            ("instants", "--family", "iv", "--eigs", str(MAX_EIGS + 1)),
            f"--eigs must be between 1 and {MAX_EIGS}, got {MAX_EIGS + 1}",
        ),
        (
            ("curvature", "--family", "ii", "--q", str(MAX_Q + 1)),
            f"--q must be between 1 and {MAX_Q}, got {MAX_Q + 1}",
        ),
        (
            ("sample", "--family", "ii", "--t-range", "1:2", "--steps", "100000000000", "--out", "-"),
            f"--steps must be between 2 and {MAX_STEPS}, got 100000000000",
        ),
    ],
)
def test_size_arguments_above_their_ceiling_exit_2(capsys, argv, message: str) -> None:
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, ceiling",
    [
        ("theorem-a", MAX_Q),
        ("verify-appendix", MAX_Q),
        ("instants", MAX_EIGS),
        ("curvature", MAX_Q),
        ("sample", MAX_STEPS),
    ],
)
def test_help_states_the_ceilings(capsys, command: str, ceiling: int) -> None:
    assert run([command, "--help"]) == 0
    assert f"to {ceiling}" in capsys.readouterr().out


def test_invalid_custom_data_reports_violations(capsys) -> None:
    code, _out, err = invoke(
        capsys, "curvature", "--custom", "n=7,l=3,zeta=3,eta=5,lambda_f=2,lambda_b=12"
    )
    assert code == 2
    assert "eta*l" in err


def test_instants_single_eigenvalue(capsys) -> None:
    code, out, err = invoke(capsys, "instants", "--family", "ii", "--lambda", "16")
    assert code == 0 and not err
    payload = json.loads(out)
    assert len(payload) == 1
    entry = payload[0]
    assert entry["lambda"] == "16"
    assert entry["poly"] == [-51, -1568, 19084, -2240, 2100]
    assert entry["transversal"] is True and entry["scalar_distinct"] is True
    lo, hi = (Fraction(s) for s in entry["interval"])
    assert Fraction(1, 10) < lo <= hi < Fraction(1, 5)
    assert hi - lo <= Fraction(1, 10**12)


def test_instants_when_the_coincidence_polynomial_vanishes(capsys) -> None:
    custom = "n=7,l=3,zeta=0,eta=0,lambda_f=0,lambda_b=6"
    code, out, err = invoke(capsys, "instants", "--custom", custom, "--lambda", "4")
    assert code == 0 and not err
    assert json.loads(out) == []


def test_instants_enumeration_with_window(capsys) -> None:
    code, out, _ = invoke(
        capsys, "instants", "--family", "ii", "--eigs", "4", "--window", "1/10:1/5"
    )
    assert code == 0
    payload = json.loads(out)
    assert any(entry["lambda"] == "16" for entry in payload)
    for entry in payload:
        lo, hi = (Fraction(s) for s in entry["interval"])
        assert Fraction(1, 10) < lo and hi < Fraction(1, 5)


def test_instants_enumeration_unbounded_window(capsys) -> None:
    code, out, _ = invoke(
        capsys, "instants", "--family", "iv", "--eigs", "6", "--window", "10:inf"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload
    for entry in payload:
        assert Fraction(entry["interval"][0]) > 10


def test_theorem_a_markdown(capsys) -> None:
    code, out, err = invoke(capsys, "theorem-a", "--q-max", "4")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].startswith("| family | q | n |")
    assert "| i | 2 | 5 | no | no |" in lines
    assert "| ii | 1 | 7 | yes | no |" in lines
    assert "| ii | 2 | 11 | yes | yes |" in lines
    assert "| iv | 1 | 15 | yes | yes |" in lines
    # families i (q=2..4), ii, iii (q=1..4), iv plus two header lines
    assert len(lines) == 2 + 3 + 4 + 4 + 1


def test_theorem_a_json(capsys) -> None:
    code, out, _ = invoke(capsys, "theorem-a", "--q-max", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {(r["family"], r["q"]) for r in rows} == {
        ("i", 2), ("i", 3),
        ("ii", 1), ("ii", 2), ("ii", 3),
        ("iii", 1), ("iii", 2), ("iii", 3),
        ("iv", 1),
    }
    for r in rows:
        assert set(r) == {
            "family", "q", "n", "collapse", "expansion", "collapse_method", "expansion_method",
        }


def test_theorem_a_mismatch_exits_1(capsys, monkeypatch) -> None:
    monkeypatch.setattr(catalog, "expected_verdicts", lambda fam: (True, True))
    code, _out, err = invoke(capsys, "theorem-a", "--q-max", "2")
    assert code == 1
    assert "mismatch" in err


def test_verify_appendix_success(capsys) -> None:
    code, out, err = invoke(capsys, "verify-appendix", "--q-max", "3")
    assert code == 0 and not err
    assert out.strip() == "verified 9 family members up to q = 3"


def test_verify_appendix_mismatch_exits_1(capsys, monkeypatch) -> None:
    from qcurv.algebra.laurent import LaurentPoly

    monkeypatch.setattr(catalog, "appendix_scal_poly", lambda fam: LaurentPoly({0: 1}))
    code, _out, err = invoke(capsys, "verify-appendix", "--q-max", "2")
    assert code == 1
    assert "mismatch" in err and "scal" in err


def test_asymptotics_output(capsys) -> None:
    code, out, err = invoke(capsys, "asymptotics", "--family", "i", "--q", "7")
    assert code == 0 and not err
    blob = json.loads(out)
    assert blob["collapse"] == {"result": False, "method": "negative"}
    assert blob["expansion"] == {"result": True, "method": "direct"}


def test_asymptotics_rejects_inadmissible_custom_data(capsys) -> None:
    # Criterion-range (n, l) with eta*l != zeta*(n-l): no verdict, exit 2.
    code, out, err = invoke(
        capsys, "asymptotics", "--custom", "n=7,l=3,zeta=3,eta=100,lambda_f=2,lambda_b=16"
    )
    assert code == 2 and not out
    assert err == "invalid input: eta*l=300 must equal zeta*(n-l)=12\n"


INADMISSIBLE = "n=7,l=3,zeta=3,eta=100,lambda_f=2,lambda_b=16"


@pytest.mark.parametrize(
    "argv",
    [
        # asymptotics: test_asymptotics_rejects_inadmissible_custom_data.
        ("curvature",),
        ("instants", "--lambda", "7"),
        ("sample", "--t-range", "1:2", "--steps", "3", "--out", "-"),
        # Other usage errors in the same argv: the datum is reported first.
        ("curvature", "--at", "-1"),
        ("instants", "--eigs", "3"),
        ("sample", "--t-range", "2:1", "--steps", "3", "--out", "-"),
    ],
)
def test_inadmissible_custom_data_exits_2_on_every_command(capsys, argv) -> None:
    code, out, err = invoke(capsys, *argv, "--custom", INADMISSIBLE)
    assert code == 2 and not out
    assert err == "invalid input: eta*l=300 must equal zeta*(n-l)=12\n"


def test_sample_csv_accuracy(capsys, tmp_path: Path) -> None:
    target = tmp_path / "samples.csv"
    code, out, err = invoke(
        capsys,
        "sample", "--family", "ii", "--t-range", "1/2:2", "--steps", "7",
        "--out", str(target),
    )
    assert code == 0 and not out and not err
    lines = target.read_text().splitlines()
    assert lines[0] == "t,scal,Q,alpha,beta,discriminant"
    assert len(lines) == 8
    pkg = curvature_package(SubmersionData(7, 3, 3, 4, 2, 12))
    disc = pkg.alpha * pkg.alpha - 2 * pkg.beta
    for i, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        t = Fraction(1, 2) + Fraction(3, 2) * Fraction(i, 6)
        exact = [t, pkg.scal(t), pkg.q_curv(t), pkg.alpha(t), pkg.beta(t), disc(t)]
        for got, want in zip(cells, exact):
            want_f = float(want)
            assert abs(got - want_f) <= 1e-9 * max(1.0, abs(want_f))
    assert lines[1].startswith("0.5,") and lines[-1].startswith("2,")


def test_sample_stdout_equals_file_output(capsys, tmp_path: Path) -> None:
    target = tmp_path / "s.csv"
    code, out, _ = invoke(
        capsys, "sample", "--family", "iv", "--t-range", "1:3", "--steps", "4", "--out", "-"
    )
    assert code == 0
    code2, _, _ = invoke(
        capsys, "sample", "--family", "iv", "--t-range", "1:3", "--steps", "4",
        "--out", str(target),
    )
    assert code2 == 0
    assert target.read_text() == out


@pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
def test_sample_unwritable_out_exits_2(capsys, tmp_path: Path, where: str) -> None:
    # A path under a directory that does not exist, and a directory itself.
    target = tmp_path / where
    code, out, err = invoke(
        capsys, "sample", "--family", "ii", "--t-range", "1:2", "--steps", "2", "--out", str(target)
    )
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err


# sha256 of stdout for each argv, pinned from a known-good build; a change
# that alters any output byte must re-pin these deliberately.
PINNED_STDOUT = {
    ("curvature", "--family", "ii", "--at", "3/2"):
        "313e32ba311013be6ff090ce3239683a21cd1ae266a55b72b526cfe71f63b65f",
    ("instants", "--family", "ii", "--lambda", "16"):
        "d93e3e816935a3505befd17d07bd51a4030a7d80980c10194f5f30c536d19973",
    ("instants", "--family", "ii", "--eigs", "3", "--window", "0:1"):
        "875a04ecef923b650bcbdcfbac715e88083ec8670c61def05f9b0e45866bf93a",
    ("theorem-a", "--q-max", "5", "--json"):
        "72cefab62c1238f2671280c6e7a4719ea303ac4f8ea966aa86516c27d1bb2f14",
    ("asymptotics", "--family", "iii", "--q", "2"):
        "1162f4b1655d931b6b638d6c100bfd2c86227c59867e9b618c3e61ae6ea96d92",
    ("instants", "--family", "iv", "--eigs", "40", "--window", "0:inf"):
        "92c80839dbc88f4f2b9cca5ac79935c9022a8d5941cc39ee99406d56865ca156",
    ("theorem-a", "--q-max", "30"):
        "db54be500aa0bad94ce23bb2569c0399f851b79874f75fac0035336c2d873137",
    ("verify-appendix", "--q-max", "30"):
        "655b517b738bd5fef9e6d6a5b4d3f2c9aefdabe4a1b2f2115c62952bc536e41d",
    ("sample", "--family", "i", "--q", "3", "--t-range", "1/2:2", "--steps", "5", "--out", "-"):
        "75ce758761be0b4818408c2dbe9b6e35110c1bd07ae3074bac710dbcf074ab7a",
    ("curvature", "--custom", CUSTOM_7):
        "8cbcea8c16e3888aae7bd69472227e01c7dda2590268106e7a5520124a23210a",
    ("instants", "--family", "ii", "--q", "27", "--eigs", "40", "--window", "0:inf"):
        "3828ec8c0204323fa38e989500e820458d896a1f17f8c214f6f08a992e631520",
    ("instants", "--family", "iii", "--q", "28", "--eigs", "40", "--window", "0:inf"):
        "92e343c4817501e48ca9467dcf3faf42cecece4aeab92e05ca1f3dd001ddfad9",
    ("instants", "--family", "iii", "--q", "1", "--lambda", "12"):
        "cb23e0e17bc6b044acb8efc55b44ad47676e48096c4f1384a0047e2cc717e695",
    ("instants", "--family", "ii", "--q", "1", "--lambda", "7"):
        "b10c5b562ea2215d3da408400701fea05adf674cbcd0c26deb6fc9af3657ae4e",
    ("instants", "--family", "iv", "--eigs", "40", "--window", "1/300:1/30"):
        "898d5a2b523f3e7565f479bc81e3237045551cb10854f692f6e427e40e1314e9",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_repeated_runs_are_byte_identical(capsys, argv: tuple[str, ...]) -> None:
    code_a, out_a, _ = invoke(capsys, *argv)
    code_b, out_b, _ = invoke(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert hashlib.sha256(out_a.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_module_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "theorem-a", "--q-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("| family |")
