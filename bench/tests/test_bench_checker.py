"""The output checker passes real outputs and fails each kind of corruption.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

import check
import workloads
from qcurv import catalog

FAM = catalog.HopfFamily("i", 6)
needs_sympy = pytest.mark.skipif(check.sympy is None, reason="the oracle needs sympy")


@pytest.fixture(scope="module")
def spectrum_record() -> dict:
    return workloads.spectrum_record(FAM, workloads.spectrum_op(FAM))


@pytest.fixture(scope="module")
def point_query() -> tuple:
    for item in workloads.make_inputs("point-queries", 0, 0):
        record = workloads.point_query_record(item, workloads.point_query_op(item))
        if record["reports"]:
            return item, record
    raise AssertionError("no point query with an instant")


@pytest.fixture(scope="module")
def catalog_op() -> tuple:
    item = workloads.make_inputs("catalog-sweep", 0, 0)[0]
    return item, workloads.catalog_record(item, workloads.catalog_op(item))


def _spectrum_problems(record: dict, reports: list[dict]) -> list[str]:
    corrupted = dict(record, stdout=json.dumps(reports, indent=2) + "\n")
    return check.check_op("spectrum-scan", FAM, corrupted, check.load_digests())


def _kinds(problems: list[str]) -> set[str]:
    return {problem.split(":", 1)[0] for problem in problems}


def test_real_outputs_pass(spectrum_record, point_query, catalog_op) -> None:
    assert check.check_op("spectrum-scan", FAM, spectrum_record, check.load_digests()) == []
    assert check.check_op("point-queries", point_query[0], point_query[1], {}) == []
    assert check.check_op("catalog-sweep", catalog_op[0], catalog_op[1], {}) == []


def test_reformatted_spectrum_output_fails_its_digest(spectrum_record) -> None:
    reports = json.loads(spectrum_record["stdout"])
    assert _spectrum_problems(spectrum_record, reports) == []
    record = dict(spectrum_record, stdout=json.dumps(reports, indent=1) + "\n")
    assert _kinds(check.check_op("spectrum-scan", FAM, record, check.load_digests())) == {"digest"}


@pytest.mark.parametrize("how", ["reversed", "shifted"])
def test_flipped_box_endpoint(spectrum_record, point_query, how) -> None:
    def flip(report: dict) -> None:
        lo, hi = (Fraction(x) for x in report["interval"])
        if how == "reversed":
            report["interval"] = [str(hi), str(lo)]
        else:  # the box moves just past its root
            report["interval"] = [str(hi), str(2 * hi - lo)]

    reports = json.loads(spectrum_record["stdout"])
    flip(reports[0])
    assert "box" in _kinds(_spectrum_problems(spectrum_record, reports))
    item, record = point_query
    record = copy.deepcopy(record)
    flip(record["reports"][0])
    assert "box" in _kinds(check.check_op("point-queries", item, record, {}))


@needs_sympy
def test_dropped_instant(spectrum_record, point_query) -> None:
    reports = json.loads(spectrum_record["stdout"])
    del reports[len(reports) // 2]
    assert "oracle" in _kinds(_spectrum_problems(spectrum_record, reports))
    item, record = point_query
    record = copy.deepcopy(record)
    del record["reports"][0]
    assert "oracle" in _kinds(check.check_op("point-queries", item, record, {}))


def test_swapped_order(spectrum_record) -> None:
    reports = json.loads(spectrum_record["stdout"])
    reports[0], reports[-1] = reports[-1], reports[0]
    assert "order" in _kinds(_spectrum_problems(spectrum_record, reports))


@needs_sympy
def test_wrong_transversality_flag(spectrum_record, point_query) -> None:
    reports = json.loads(spectrum_record["stdout"])
    reports[0]["transversal"] = not reports[0]["transversal"]
    assert "oracle" in _kinds(_spectrum_problems(spectrum_record, reports))
    item, record = point_query
    record = copy.deepcopy(record)
    record["reports"][0]["transversal"] = not record["reports"][0]["transversal"]
    assert "oracle" in _kinds(check.check_op("point-queries", item, record, {}))


@needs_sympy
def test_wrong_scalar_distinct_flag(point_query) -> None:
    item, record = point_query
    record = copy.deepcopy(record)
    record["reports"][0]["scalar_distinct"] = not record["reports"][0]["scalar_distinct"]
    assert "oracle" in _kinds(check.check_op("point-queries", item, record, {}))


def test_wrong_polynomial(point_query) -> None:
    item, record = point_query
    record = copy.deepcopy(record)
    record["reports"][0]["poly"][0] += 1
    assert "poly" in _kinds(check.check_op("point-queries", item, record, {}))


def test_wrong_value_at_t(catalog_op) -> None:
    item, record = catalog_op
    record = copy.deepcopy(record)
    record["values"]["q_curv"] = str(Fraction(record["values"]["q_curv"]) + Fraction(1, 10**9))
    assert _kinds(check.check_op("catalog-sweep", item, record, {})) == {"value"}


def test_wrong_package_and_verdicts(catalog_op) -> None:
    item, record = catalog_op
    record = copy.deepcopy(record)
    record["package"]["scal"] = {"0": "1"}
    record["verdicts"] = [not v for v in record["verdicts"]]
    assert _kinds(check.check_op("catalog-sweep", item, record, {})) == {"package", "verdicts"}


def test_raising_op_fails() -> None:
    assert check.check_op("point-queries", None, {"error": "DomainError: boom"}, {})
