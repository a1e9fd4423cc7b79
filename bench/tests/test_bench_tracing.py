"""The traced run reads non-zero exactly where the layer mapping says it should.

A wrapper patched on the defining module but not where a caller looks
the name up would read zero; these tests run a small sample of every
workload under the tracer and compare each per-layer metric with the
prediction in EXERCISED (the same mapping as bench/README.md).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import pytest

import tracing
import workloads
from qcurv import catalog
from qcurv.algebra import roots

SPECTRUM, POINTS, CATALOG = workloads.WORKLOADS
ALL = {SPECTRUM, POINTS, CATALOG}
INSTANTS = {SPECTRUM, POINTS}

# metric -> workloads on which it must be non-zero; zero on the others.
EXERCISED = {
    "op.ms": ALL,
    "cli.run.self_ms": {SPECTRUM},
    "catalog.ms": {SPECTRUM, CATALOG},
    "geometry.curvature_package.calls": ALL,
    "geometry.curvature_package.ms": ALL,
    "algebra.laurent.mul.calls": ALL,
    "algebra.laurent.clear_denominators.calls": INSTANTS,
    "bifurcation.jacobi_residual.calls": INSTANTS,
    "bifurcation.jacobi_residual.self_ms": INSTANTS,
    "bifurcation.find_instants.calls": INSTANTS,
    "bifurcation.find_instants.self_ms": INSTANTS,
    "bifurcation.enumerate_instants.self_ms": {SPECTRUM},
    "bifurcation.instants": INSTANTS,
    "algebra.roots.compare.calls": {SPECTRUM},
    "algebra.roots.compare.ms": {SPECTRUM},
    "algebra.roots.refine.in_compare.calls": {SPECTRUM},
    "algebra.roots.refine.in_compare.ms": {SPECTRUM},
    "algebra.roots.refine_per_compare": {SPECTRUM},
    "algebra.roots.refine.display.calls": INSTANTS,
    "algebra.roots.refine.display.ms": INSTANTS,
    "algebra.roots.isolate_positive_roots.calls": INSTANTS,
    "algebra.roots.isolate_positive_roots.ms": INSTANTS,
    "algebra.roots.boxes": INSTANTS,
    "algebra.roots.boxes_per_descartes_node": INSTANTS,
    "algebra.roots.max_coeff_bits": INSTANTS,
    "algebra.roots.root_is_simple.ms": INSTANTS,
    "algebra.roots.vanishes_at_root.calls": INSTANTS,
    "algebra.roots.vanishes_at_root.ms": INSTANTS,
    "algebra.roots.compare_to_rational.calls": {SPECTRUM},
    "algebra.intpoly.evaluate.calls": INSTANTS,
    "algebra.intpoly.sign_variations.calls": INSTANTS,
    "algebra.intpoly.poly_gcd.calls": INSTANTS,
    "algebra.intpoly.poly_gcd.ms": INSTANTS,
    "algebra.intpoly.squarefree_part.calls": INSTANTS,
    "asymptotics.classify.calls": {CATALOG},
    "asymptotics.classify.ms": {CATALOG},
    "algebra.quadext.sign.calls": {CATALOG},
}
# Sturm counts run only for multiple roots, coincidences and boxes that
# share a factor, which none of the workloads' data hit at the seed
# commit; test_count_roots_halfopen_is_counted exercises the wrapper.
DATA_DEPENDENT = {"algebra.intpoly.count_roots_halfopen.calls"}
LARGEST_SHARE = {
    SPECTRUM: "algebra.roots.compare.ms",
    POINTS: "algebra.roots.refine.display.ms",
    CATALOG: "geometry.curvature_package.ms",
}


def _sample(workload: str) -> list:
    if workload == SPECTRUM:
        return [catalog.HopfFamily("i", 6), catalog.HopfFamily("ii", 1)]
    inputs = workloads.make_inputs(workload, 0, 0)
    if workload == POINTS:
        return inputs[:40]
    # Only a few small members reach a sign decision in Q(sqrt d), e.g. (ii) q=2.
    return [item for item in inputs if item[0] == catalog.HopfFamily("ii", 2)] + inputs[:40]


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    out = {}
    for workload in workloads.WORKLOADS:
        items = _sample(workload)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for index, item in enumerate(items):
                tracer.run_op(index, workloads.op_for(workload), item)
        finally:
            tracer.uninstall()
        out[workload] = tracing.layer_metrics(tracer.aggregate(), len(items))
    return out


def test_every_metric_has_a_prediction(traced) -> None:
    for metrics in traced.values():
        assert set(metrics) == set(EXERCISED) | DATA_DEPENDENT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_are_nonzero_exactly_where_exercised(traced, workload) -> None:
    wrong = {
        name: traced[workload][name][0]
        for name, where in EXERCISED.items()
        if (traced[workload][name][0] > 0) != (workload in where)
    }
    assert not wrong


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_largest_layer_share(traced, workload) -> None:
    shares = {
        name: value
        for name, (value, unit) in traced[workload].items()
        if unit == "ms/op" and name != "op.ms"
    }
    assert max(shares, key=shares.get) == LARGEST_SHARE[workload]


def test_count_roots_halfopen_is_counted() -> None:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # (x^2 - 2)^2 (x - 3): the double root sqrt(2) makes root_is_simple
        # run a Sturm count on gcd(p, p').
        box = roots.isolate_positive_roots([-12, 4, 12, -4, -3, 1])[0]
        assert not roots.root_is_simple(box)
    finally:
        tracer.uninstall()
    assert tracer.counts["algebra.intpoly.count_roots_halfopen"] > 0


def test_uninstall_restores_every_name() -> None:
    owners = [(owner, attr) for owner, attrs, _ in tracing.SPANS + tracing.COUNTERS for attr in attrs]
    owners += [(roots.RootBox, "compare"), (roots.RootBox, "refine"), (roots, "sign_variations")]
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in owners}
    tracer = tracing.Tracer()
    tracer.install()
    patched = [attr for owner, attr in owners if owner.__dict__[attr] is before[(id(owner), attr)]]
    tracer.uninstall()
    assert not patched
    assert all(owner.__dict__[attr] is before[(id(owner), attr)] for owner, attr in owners)
