"""Span tracer that wraps fullgroup_lab's public functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` rebinds every
public function of each layer module wherever a package module holds a
reference to it, and wraps the three hot methods ``Graph.distances_from``,
``Graph.distance_row`` and ``Transducer.apply``.  ``uninstall`` puts the
originals back, so traced and untraced operations can alternate in one
process.

Every wrapped call is counted.  A span is recorded only where a call
crosses a layer boundary (the caller's innermost span belongs to another
layer), so a call inside one layer adds its time to the caller's self time.
Calls that ``fullgroup_lab.cli`` makes into another layer additionally get a
``stage.<name>`` span, ROADMAP's pipeline stages.  Spans are kept in memory
as ``(name, start, end, parent, run)`` tuples and written out at exit.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "cantor_actions", "schreier", "line_geometry", "full_group", "cocycle",
    "pattern_transport", "stabilizer_lab", "recurrence", "cli",
)

# (module, class, method) wrapped in addition to the public functions.
METHODS = (
    ("schreier", "Graph", "distances_from"),
    ("schreier", "Graph", "distance_row"),
    ("cantor_actions", "Transducer", "apply"),
)

# Which pipeline stage a call from the cli layer belongs to, by callee.
STAGE_OF = {
    "schreier.build_ball": "ball",
    "schreier.build_level_graph": "ball",
    "line_geometry.fit_line_chart": "chart",
    "line_geometry.fiber_diameter_check": "chart",
    "line_geometry.diametral_geodesic": "geodesic",
    "line_geometry.max_geodesic_midpoint": "geodesic",
    "line_geometry.m_covering_check": "geodesic",
    "line_geometry.project_to_geodesic": "geodesic",
    "cocycle.half_space": "half_space",
    "cocycle.boundary_level_bound_ok": "half_space",
    "pattern_transport.end_strips": "half_space",
    "full_group.make_element": "cocycle_suite",
    "full_group.identity_element": "cocycle_suite",
    "full_group.compose": "cocycle_suite",
    "full_group.apply_element": "cocycle_suite",
    "full_group.displacement_bound": "cocycle_suite",
    "cocycle.cocycle_value": "cocycle_suite",
    "cocycle.push_set": "cocycle_suite",
    "cocycle.stabilizer_test": "cocycle_suite",
    "schreier.Graph.distance_row": "cocycle_suite",
    "pattern_transport.repetition_radius": "transport",
    "pattern_transport.pattern_match_points": "transport",
    "pattern_transport.transport_halfspace": "transport",
    "cocycle.r_constant": "transport",
    "cocycle.n_phi": "transport",
    "stabilizer_lab.nested_family": "nested_family",
    "stabilizer_lab.finite_embedding_order": "orders",
    "recurrence.escape_series": "recurrence",
}
STAGES = ("ball", "chart", "geodesic", "half_space", "cocycle_suite",
          "transport", "nested_family", "orders", "recurrence")

PACKAGE = "fullgroup_lab"


def layer_of(name: str) -> str:
    """Layer of a span name: its first dotted part."""
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Self seconds per span name: duration minus the children's durations.

    ``spans`` is a sequence of ``(name, start, end, parent)`` (extra fields
    are ignored) where ``parent`` is the index of the enclosing span or -1.
    Spans of one thread nest, so the children's durations never overlap.
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child[parent] += span[2] - span[1]
    out: dict = {}
    for k, span in enumerate(spans):
        out[span[0]] = out.get(span[0], 0.0) + (span[2] - span[1]) - child[k]
    return out


class Tracer:
    """Counts every wrapped call and records boundary spans in memory."""

    def __init__(self):
        self.calls = Counter()        # wrapped name -> calls
        self.computed = Counter()     # derived counts (QI pairs, row misses)
        self.spans: list = []         # (name, start, end, parent, run)
        self.run = "setup"
        self._stack: list = []        # indices of open spans
        self._layers: list = []       # layer of each open span
        self._saved: list = []        # (owner, attribute, original)

    # --- spans opened by the benchmark itself ---------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, parent, self.run))
        self._stack.append(idx)
        self._layers.append(layer_of(name))
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        name, start, _, parent, run = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, run)
        self._stack.pop()
        self._layers.pop()

    # --- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = layer_of(name)
        stage = STAGE_OF.get(name)
        calls = self.calls
        layers = self._layers
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            if stage is not None and layers and layers[-1] == "cli":
                outer = tracer.open("stage." + stage)
            else:
                outer = None
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if outer is not None:
                    tracer.close(outer)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name: str, wrapper):
        """Derived counters that need the call's arguments or its children."""
        calls = self.calls
        computed = self.computed
        if name == "line_geometry.fit_line_chart":
            def fit_line_chart(graph, *args, **kwargs):
                chart = wrapper(graph, *args, **kwargs)
                k = len(graph.certified(1))
                computed["line_geometry.qi_pairs"] += k * (k - 1) // 2
                return chart
            return fit_line_chart
        if name == "schreier.Graph.distance_row":
            rows = "schreier.Graph.distances_from"

            def distance_row(graph, v):
                before = calls[rows]
                row = wrapper(graph, v)
                if calls[rows] == before:
                    computed["schreier.row_cache_hits"] += 1
                return row
            return distance_row
        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        holders = [importlib.import_module(PACKAGE)] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith(PACKAGE + ".") and mod is not None]
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or \
                        obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self._hooks(name, self._wrap(name, obj))
        for holder in holders:
            for attr, obj in sorted(vars(holder).items()):
                if id(obj) in replace:
                    self._saved.append((holder, attr, obj))
                    setattr(holder, attr, replace[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._hooks(name, self._wrap(name, original)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def write_spans(path: str, spans) -> None:
    """Write spans as gzipped JSON lines; ``parent`` indexes this list."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for k, (name, start, end, parent, run) in enumerate(spans):
            fh.write(json.dumps({"id": k, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "run": run}) + "\n")


# Per-layer metrics: name -> (unit, how it is computed).
CALL_COUNTS = {
    "schreier.bfs_rows": "schreier.Graph.distances_from",
    "schreier.distance_row.calls": "schreier.Graph.distance_row",
    "cantor_actions.transducer_apply.calls": "cantor_actions.Transducer.apply",
    "cantor_actions.canonical_point.calls": "cantor_actions.canonical_point",
    "full_group.apply_element.calls": "full_group.apply_element",
    "full_group.make_element.calls": "full_group.make_element",
    "full_group.compose.calls": "full_group.compose",
    "full_group.invert.calls": "full_group.invert",
    "cocycle.cocycle_value.calls": "cocycle.cocycle_value",
    "cocycle.stabilizer_test.calls": "cocycle.stabilizer_test",
    "pattern_transport.labeled_match.calls": "pattern_transport.labeled_match",
    "pattern_transport.transport_halfspace.calls":
        "pattern_transport.transport_halfspace",
}
FUNCTION_SELF = {
    "line_geometry.fit_line_chart_s": "line_geometry.fit_line_chart",
    "line_geometry.diametral_geodesic_s": "line_geometry.diametral_geodesic",
    "schreier.build_ball_s": "schreier.build_ball",
    "stabilizer_lab.nested_family_s": "stabilizer_lab.nested_family",
    "stabilizer_lab.finite_embedding_order_s":
        "stabilizer_lab.finite_embedding_order",
    "recurrence.escape_series_s": "recurrence.escape_series",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"line_geometry.qi_pairs": "count"}
    units.update({name: "count" for name in CALL_COUNTS})
    units["schreier.row_cache_hit_ratio"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "s" for name in FUNCTION_SELF})
    units.update({f"stage.{stage}_s": "s" for stage in STAGES})
    units["stage.coverage"] = "ratio"
    units.update({"trace.op_ms": "ms", "trace.untraced_op_ms": "ms",
                  "trace.overhead_ms": "ms"})
    return units


def layer_metrics(spans, calls: dict, computed: dict) -> dict:
    """Counts, self times and stage times of one window of spans.

    Stage spans only group calls, so a stage's time is its spans' total
    duration; every other time is self time.  ``stage.coverage`` is the
    stages' share of the window's ``op`` spans.
    """
    own = self_times(spans)
    out = {"line_geometry.qi_pairs": computed.get("line_geometry.qi_pairs", 0)}
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls.get(name, 0)
    rows = calls.get("schreier.Graph.distance_row", 0)
    hits = computed.get("schreier.row_cache_hits", 0)
    out["schreier.row_cache_hit_ratio"] = hits / rows if rows else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (t for name, t in own.items() if layer_of(name) == layer), 0.0)
    for metric, name in FUNCTION_SELF.items():
        out[metric] = own.get(name, 0.0)
    duration: dict = {}
    for name, start, end, _parent, _run in spans:
        duration[name] = duration.get(name, 0.0) + (end - start)
    for stage in STAGES:
        out[f"stage.{stage}_s"] = duration.get(f"stage.{stage}", 0.0)
    ops = duration.get("op", 0.0)
    staged = sum(out[f"stage.{stage}_s"] for stage in STAGES)
    out["stage.coverage"] = staged / ops if ops else 0.0
    return out
