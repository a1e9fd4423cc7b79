"""Per-layer spans and counters, installed around qcurv from the outside.

``Tracer.install`` replaces each traced function on every name a caller
looks it up by: ``bifurcation`` binds ``curvature_package``,
``isolate_positive_roots`` and ``root_is_simple`` at import,
``asymptotics`` binds ``curvature_package``, ``catalog`` binds
``classify``, and ``roots`` binds the ``intpoly`` helpers it calls.  A
wrapper placed only on the defining module would silently read zero.

Spans (op, id, parent, name, start, end) stay in memory and are written
once, at the end of the pass.  High-frequency leaf calls are counted,
not timed.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

from qcurv import asymptotics, bifurcation, catalog, cli, geometry
from qcurv.algebra import laurent, quadext, roots

OP = "op"
COMPARE = "algebra.roots.compare"
REFINE_IN_COMPARE = "algebra.roots.refine.in_compare"
REFINE_DISPLAY = "algebra.roots.refine.display"
REFINE_OTHER = "algebra.roots.refine.other"
DISPLAY_PARENTS = ("cli.run", OP)

# (module or class, attribute names, span or counter name).  Every name in
# a row is patched to the same wrapper.
SPANS = (
    (cli, ("run",), "cli.run"),
    (catalog, ("hopf_data", "base_spectrum"), "catalog"),
    (geometry, ("curvature_package",), "geometry.curvature_package"),
    (bifurcation, ("curvature_package",), "geometry.curvature_package"),
    (asymptotics, ("curvature_package",), "geometry.curvature_package"),
    (bifurcation, ("jacobi_residual",), "bifurcation.jacobi_residual"),
    (bifurcation, ("enumerate_instants",), "bifurcation.enumerate_instants"),
    (bifurcation, ("root_is_simple",), "algebra.roots.root_is_simple"),
    (roots, ("root_is_simple",), "algebra.roots.root_is_simple"),
    (roots.RootBox, ("vanishes_at_root",), "algebra.roots.vanishes_at_root"),
    (roots, ("poly_gcd",), "algebra.intpoly.poly_gcd"),
    (catalog, ("classify",), "asymptotics.classify"),
    (asymptotics, ("classify",), "asymptotics.classify"),
)
COUNTERS = (
    (laurent.LaurentPoly, ("__mul__", "__rmul__"), "algebra.laurent.mul"),
    (laurent.LaurentPoly, ("clear_denominators",), "algebra.laurent.clear_denominators"),
    (roots.RootBox, ("compare_to_rational",), "algebra.roots.compare_to_rational"),
    (roots, ("evaluate",), "algebra.intpoly.evaluate"),
    (roots, ("squarefree_part",), "algebra.intpoly.squarefree_part"),
    (roots, ("count_roots_halfopen",), "algebra.intpoly.count_roots_halfopen"),
    (quadext.QuadExtValue, ("sign",), "algebra.quadext.sign"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.max_coeff_bits = 0
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end))

    def run_op(self, index: int, fn, item):
        """Time one op as the root span of its own tree."""
        self.op = index
        return self._timed(OP, fn, (item,), {})

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _compare(self, fn):
        # compare recurses into itself once a box collapses; only the
        # outermost call is one comparison of the sort.
        def wrapper(box, other):
            if self._stack and self._stack[-1][1] == COMPARE:
                return fn(box, other)
            return self._timed(COMPARE, fn, (box, other), {})

        return wrapper

    def _refine(self, fn):
        def wrapper(box, width):
            parent = self._stack[-1][1] if self._stack else ""
            if parent == COMPARE:
                name = REFINE_IN_COMPARE
            elif parent in DISPLAY_PARENTS:
                name = REFINE_DISPLAY
            else:
                name = REFINE_OTHER
            return self._timed(name, fn, (box, width), {})

        return wrapper

    def _find_instants(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            reports = self._timed("bifurcation.find_instants", fn, args, kwargs)
            counts["bifurcation.instants"] += len(reports)
            return reports

        return wrapper

    def _isolate(self, fn):
        counts = self.counts

        def wrapper(coeffs):
            boxes = self._timed("algebra.roots.isolate_positive_roots", fn, (coeffs,), {})
            counts["algebra.roots.boxes"] += len(boxes)
            return boxes

        return wrapper

    def _sign_variations(self, fn):
        counts = self.counts

        def wrapper(values):
            counts["algebra.intpoly.sign_variations"] += 1
            bits = max((abs(int(c)).bit_length() for c in values), default=0)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits
            return fn(values)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def shared(make):
            # The same function bound on two names gets one wrapper.
            def build(original):
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = make(original)
                return wrappers[key]

            return build

        for owner, attrs, name in SPANS:
            for attr in attrs:
                self._patch(owner, attr, shared(lambda fn, name=name: self._span(name, fn)))
        for owner, attrs, name in COUNTERS:
            for attr in attrs:
                self._patch(owner, attr, shared(lambda fn, name=name: self._counter(name, fn)))
        self._patch(bifurcation, "find_instants", shared(self._find_instants))
        self._patch(roots.RootBox, "compare", self._compare)
        self._patch(roots.RootBox, "refine", self._refine)
        for module in (bifurcation, roots):
            self._patch(module, "isolate_positive_roots", shared(self._isolate))
        self._patch(roots, "sign_variations", self._sign_variations)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for _op, _sid, parent, _name, start, end in self.spans:
            child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for _op, sid, _parent, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[sid]
        return {
            "spans": out,
            "counts": dict(self.counts),
            "max_coeff_bits": self.max_coeff_bits,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("op,id,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in self.spans:
                handle.write(f"{op},{sid},{parent},{name},{start:.9f},{end:.9f}\n")


# Per-layer metrics: name -> (unit, how it is read from merged aggregates).
# Span totals are divided by the op count of the run, so every value is per op.
def _span_calls(name):
    return lambda agg: agg["spans"].get(name, {}).get("calls", 0)


def _span_ms(name, key="s"):
    return lambda agg: 1e3 * agg["spans"].get(name, {}).get(key, 0.0)


def _count(name):
    return lambda agg: agg["counts"].get(name, 0)


PER_OP = {
    "op.ms": ("ms/op", _span_ms(OP)),
    "cli.run.self_ms": ("ms/op", _span_ms("cli.run", "self_s")),
    "catalog.ms": ("ms/op", _span_ms("catalog")),
    "geometry.curvature_package.calls": ("calls/op", _span_calls("geometry.curvature_package")),
    "geometry.curvature_package.ms": ("ms/op", _span_ms("geometry.curvature_package")),
    "algebra.laurent.mul.calls": ("calls/op", _count("algebra.laurent.mul")),
    "algebra.laurent.clear_denominators.calls": (
        "calls/op",
        _count("algebra.laurent.clear_denominators"),
    ),
    "bifurcation.jacobi_residual.calls": ("calls/op", _span_calls("bifurcation.jacobi_residual")),
    "bifurcation.jacobi_residual.self_ms": (
        "ms/op",
        _span_ms("bifurcation.jacobi_residual", "self_s"),
    ),
    "bifurcation.find_instants.calls": ("calls/op", _span_calls("bifurcation.find_instants")),
    "bifurcation.find_instants.self_ms": ("ms/op", _span_ms("bifurcation.find_instants", "self_s")),
    "bifurcation.enumerate_instants.self_ms": (
        "ms/op",
        _span_ms("bifurcation.enumerate_instants", "self_s"),
    ),
    "bifurcation.instants": ("count/op", _count("bifurcation.instants")),
    "algebra.roots.compare.calls": ("calls/op", _span_calls(COMPARE)),
    "algebra.roots.compare.ms": ("ms/op", _span_ms(COMPARE)),
    "algebra.roots.refine.in_compare.calls": ("calls/op", _span_calls(REFINE_IN_COMPARE)),
    "algebra.roots.refine.in_compare.ms": ("ms/op", _span_ms(REFINE_IN_COMPARE)),
    "algebra.roots.refine.display.calls": ("calls/op", _span_calls(REFINE_DISPLAY)),
    "algebra.roots.refine.display.ms": ("ms/op", _span_ms(REFINE_DISPLAY)),
    "algebra.roots.isolate_positive_roots.calls": (
        "calls/op",
        _span_calls("algebra.roots.isolate_positive_roots"),
    ),
    "algebra.roots.isolate_positive_roots.ms": (
        "ms/op",
        _span_ms("algebra.roots.isolate_positive_roots"),
    ),
    "algebra.roots.boxes": ("count/op", _count("algebra.roots.boxes")),
    "algebra.roots.root_is_simple.ms": ("ms/op", _span_ms("algebra.roots.root_is_simple")),
    "algebra.roots.vanishes_at_root.calls": (
        "calls/op",
        _span_calls("algebra.roots.vanishes_at_root"),
    ),
    "algebra.roots.vanishes_at_root.ms": ("ms/op", _span_ms("algebra.roots.vanishes_at_root")),
    "algebra.roots.compare_to_rational.calls": (
        "calls/op",
        _count("algebra.roots.compare_to_rational"),
    ),
    "algebra.intpoly.evaluate.calls": ("calls/op", _count("algebra.intpoly.evaluate")),
    "algebra.intpoly.sign_variations.calls": (
        "calls/op",
        _count("algebra.intpoly.sign_variations"),
    ),
    "algebra.intpoly.poly_gcd.calls": ("calls/op", _span_calls("algebra.intpoly.poly_gcd")),
    "algebra.intpoly.poly_gcd.ms": ("ms/op", _span_ms("algebra.intpoly.poly_gcd")),
    "algebra.intpoly.squarefree_part.calls": (
        "calls/op",
        _count("algebra.intpoly.squarefree_part"),
    ),
    "algebra.intpoly.count_roots_halfopen.calls": (
        "calls/op",
        _count("algebra.intpoly.count_roots_halfopen"),
    ),
    "asymptotics.classify.calls": ("calls/op", _span_calls("asymptotics.classify")),
    "asymptotics.classify.ms": ("ms/op", _span_ms("asymptotics.classify")),
    "algebra.quadext.sign.calls": ("calls/op", _count("algebra.quadext.sign")),
}


def merge(aggregates: list[dict]) -> dict:
    """Sum the aggregates of several passes."""
    out = {"spans": {}, "counts": defaultdict(int), "max_coeff_bits": 0}
    for agg in aggregates:
        for name, entry in agg["spans"].items():
            total = out["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                total[key] += value
        for name, value in agg["counts"].items():
            out["counts"][name] += value
        out["max_coeff_bits"] = max(out["max_coeff_bits"], agg["max_coeff_bits"])
    return out


def layer_metrics(agg: dict, n_ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except trace.overhead_frac, as (value, unit)."""
    out = {name: (read(agg) / n_ops, unit) for name, (unit, read) in PER_OP.items()}
    compares = _span_calls(COMPARE)(agg)
    in_compare = _span_calls(REFINE_IN_COMPARE)(agg)
    out["algebra.roots.refine_per_compare"] = (in_compare / compares if compares else 0.0, "ratio")
    nodes = _count("algebra.intpoly.sign_variations")(agg)
    boxes = _count("algebra.roots.boxes")(agg)
    out["algebra.roots.boxes_per_descartes_node"] = (boxes / nodes if nodes else 0.0, "ratio")
    out["algebra.roots.max_coeff_bits"] = (agg["max_coeff_bits"], "bits")
    return out
