"""Command line front end: reproducible verification runs with JSON reports.

Exit codes: 0 when every executed check passes, 1 when a check fails or a
computation cannot be certified, 2 for usage errors (unknown action,
malformed input files, a radius, level, escape radius, --n, --z, --cap
or --order-cap out of range, a --radii that is not a list of integers).
Reports are byte-identical across repeated runs with the same inputs;
`--timing` adds wall-clock seconds (the whole run, the window and each
check of `verify`) and the work of the window and of each check (full BFS
rows, transducer applications, element vertex maps walked), and is the
only flag that breaks byte-equality.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .cantor_actions import (
    BUILTIN_NAMES,
    Transducer,
    action_from_json,
    action_to_json,
    builtin_action,
    parse_point,
)
from .cocycle import (
    cocycle_value,
    half_space,
    n_phi,
    push_set,
    r_constant,
    stabilizer_test,
)
from .errors import (
    FullGroupLabError,
    InvalidAction,
    InvalidElement,
    InvalidPoint,
    InvalidRadius,
    NoRepetition,
    NotStabilized,
    PatternMismatch,
    PreconditionNphi,
    RimContact,
    TransportFailure,
    UnknownAction,
    UnknownGenerator,
    WindowTooSmall,
)
from .full_group import (
    apply_element,
    compose,
    displacement_bound,
    element_from_json,
    element_to_json,
    elements_from_json,
    identity_element,
    invert,
    make_element,
    vertex_map,
    word_column,
)
from .line_geometry import (
    diametral_geodesic,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
)
from .pattern_transport import (_changes_side, pattern_match_points,
                                repetition_radius, transport_anchor,
                                transport_halfspace)
from .recurrence import escape_series
from .schreier import (
    DEFAULT_VERTEX_CAP,
    Graph,
    build_ball,
    build_level_graph,
    graph_to_dot,
    graph_to_json,
)
from .stabilizer_lab import finite_embedding_order, nested_family

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    pass


# Built once per process, like the parser: an action object is shared
# (ActionSystem compares by identity) and never changes, and main() runs
# in-process repeatedly.
@functools.cache
def _builtin(name: str):
    return builtin_action(name)


def _load_action(name_or_path: str):
    if name_or_path in BUILTIN_NAMES:
        return _builtin(name_or_path)
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path) as fh:
                return action_from_json(json.load(fh))
        except (InvalidAction, InvalidPoint, json.JSONDecodeError, OSError) as exc:
            raise UsageError(f"bad action file {name_or_path}: {exc}") from exc
    raise UsageError(f"unknown action {name_or_path!r} "
                     f"(builtins: {', '.join(BUILTIN_NAMES)})")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _emit(data, out: str | None):
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", out)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _chart_radius(radius: int) -> int:
    """A line chart needs two vertices, so a radius-0 window is a usage
    error; build_ball refuses a negative radius."""
    if radius == 0:
        raise UsageError("radius must be >= 1 to fit a line chart, got 0")
    return radius


def _pattern_radius(n: int) -> int:
    """--n is a pattern radius; a negative one would match everywhere."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    return n


def _elem_desc(elem) -> str:
    return ";".join(f"{p or '.'}:{'.'.join(w) or 'id'}" for p, w in elem.pieces)


def sample_elements(action):
    """Deterministic per-action elements exercised by cocycle checks."""
    if action.name == "odometer":
        pair_swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
        shift = make_element(action, [("", ("t",))])
        quad = make_element(action, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                     ("10", ()), ("11", ())])
        return {"samples": [pair_swap, shift, quad],
                "kernel_family": [pair_swap]}
    samples = [identity_element(action)]
    samples.extend(make_element(action, [("", (g,))]) for g in action.gen_names[:2])
    return {"samples": samples, "kernel_family": [identity_element(action)]}


# --- subcommands ----------------------------------------------------------

def cmd_action(args) -> int:
    if args.what != "dump":
        raise UsageError("usage: action dump <name>")
    action = _load_action(args.name)
    _emit(action_to_json(action), args.out)
    return 0


def _build_graph(action, args):
    if args.level is not None:
        return build_level_graph(action, args.level, cap=args.cap)
    radius = args.radius if args.radius is not None else 16
    return build_ball(action, radius, cap=args.cap)


def cmd_graph(args) -> int:
    action = _load_action(args.action)
    graph = _build_graph(action, args)
    if args.dot:
        _write(graph_to_dot(graph, include_loops=not args.no_loops), args.out)
    else:
        _emit(graph_to_json(graph), args.out)
    return 0


def cmd_qi(args) -> int:
    action = _load_action(args.action)
    if args.level is None:
        _chart_radius(args.radius)
    chart = fit_line_chart(_build_graph(action, args))
    fiber = fiber_diameter_check(chart)
    covering = m_covering_check(chart.geodesic, chart.m)
    report = {
        "action": action.name,
        # f is 1-Lipschitz and onto an interval: alpha = 1 and gamma = 0
        "alpha": "1",
        "beta": str(chart.beta),
        "gamma": "0",
        "m": str(chart.m),
        "chart_hash": chart.chart_hash(),
        "fiber_report": fiber.to_json(),
        "covering_report": covering.to_json(),
    }
    _emit(report, args.out)
    return 0 if fiber.passed and covering.passed else CHECK_FAILED


def cmd_element(args) -> int:
    action = _load_action(args.action)
    elem = element_from_json(action, _load_json(args.element))
    if args.what == "check":
        _emit({"valid": True, "pieces": element_to_json(elem)["pieces"],
               "d_phi": displacement_bound(elem)}, args.out)
        return 0
    if args.what == "apply":
        if not args.point:
            raise UsageError("element apply needs --point 'pre(per)'")
        point = parse_point(args.point)
        image = apply_element(elem, point)
        _emit({"point": point.label(), "image": image.label()}, args.out)
        return 0
    if args.what == "compose":
        if not args.element2:
            raise UsageError("element compose needs --element2")
        other = element_from_json(action, _load_json(args.element2))
        _emit(element_to_json(compose(elem, other)), args.out)
        return 0
    if args.what == "invert":
        _emit(element_to_json(invert(elem)), args.out)
        return 0
    raise UsageError(f"unknown element operation {args.what!r}")


def _window(action, radius: int, cap: int):
    """The half space every certificate works in; its chart holds the ball
    and the geodesic."""
    return half_space(fit_line_chart(
        build_ball(action, _chart_radius(radius), cap=cap)))


def _report_failure(exc, out) -> int:
    _emit({"passed": False, "error": str(exc),
           "report": getattr(exc, "report", {})}, out)
    return CHECK_FAILED


def cmd_cocycle(args) -> int:
    action = _load_action(args.action)
    elem = element_from_json(action, _load_json(args.element))
    half = _window(action, args.radius, args.cap)
    ball, chart = half.graph, half.chart
    try:
        value = cocycle_value(elem, half)
        R = r_constant(half)
    except FullGroupLabError as exc:
        return _report_failure(exc, args.out)
    dphi = displacement_bound(elem)
    report = {
        "action": action.name,
        "chart_hash": chart.chart_hash(),
        "value": sorted(ball.label_str(v) for v in value.vertices),
        "stabilized": True,
        "window": list(value.window),
        "kernel": value.is_empty,
        "R": R,
        "d_phi": dphi,
        "N_phi": str(n_phi(chart.m, R, dphi)),
    }
    _emit(report, args.out)
    return 0


def cmd_transport(args) -> int:
    action = _load_action(args.action)
    n = _pattern_radius(args.n)
    half = _window(action, args.radius, args.cap)
    if not 0 <= args.z < half.graph.n:
        raise UsageError(f"z must be a vertex of the ball, 0 <= z < "
                         f"{half.graph.n}, got {args.z}")
    F = elements_from_json(action, _load_json(args.F))
    try:
        result = transport_halfspace(F, args.z, n, half,
                                     transport_anchor(F, n, half))
    except FullGroupLabError as exc:
        return _report_failure(exc, args.out)
    report = result.to_json(half.graph)
    report["passed"] = True
    _emit(report, args.out)
    return 0


def cmd_stabilizer(args) -> int:
    action = _load_action(args.action)
    n = _pattern_radius(args.n)
    if args.order_cap < 1:
        raise UsageError(f"order cap must be >= 1, got {args.order_cap}")
    half = _window(action, args.radius, args.cap)
    F = elements_from_json(action, _load_json(args.F))
    try:
        anchor = transport_anchor(F, n, half)
        matches = pattern_match_points(F, half.graph, n, anchor=anchor[0])
        family = nested_family(F, n, half, anchor, (
            matches, repetition_radius(matches, n, half.graph)))
        orders = finite_embedding_order(F, family, cap=args.order_cap)
    except FullGroupLabError as exc:
        return _report_failure(exc, args.out)
    report = family.to_json()
    report.update({
        "nesting": family.checks["nesting"],
        "orders": {"blocks": orders.order_blocks, "brute": orders.order_brute},
        "agree": orders.agree,
        "passed": orders.agree,
    })
    _emit(report, args.out)
    return 0 if orders.agree else CHECK_FAILED


def cmd_recurrence(args) -> int:
    action = _load_action(args.action)
    try:
        radii = [int(x) for x in (args.radii or "2,4,8").split(",")]
    except ValueError:
        raise UsageError(f"radii must be comma-separated integers, "
                         f"got {args.radii!r}") from None
    radius = args.radius if args.radius is not None else max(radii)
    ball = build_ball(action, radius, cap=args.cap)
    _emit(escape_series(ball, radii).to_json(), args.out)
    return 0


# --- the verify pipeline --------------------------------------------------
#
# One function per check id.  A check takes the run `w` (its window,
# parameters and sample_elements) and then the values of its dependencies,
# and returns (status, witnesses, value).  The value goes to the checks
# that depend on it; a string value is a skip reason instead, and they are
# all reported skipped with it.

def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _rollup(failed: bool, limited: bool) -> str:
    return "fail" if failed else ("skipped" if limited else "pass")


def _localfin(w):
    fiber = fiber_diameter_check(w.chart)
    return _status(fiber.passed), fiber.to_json(), None


def _biinf(w):
    radii = sorted({max(2, w.radius // 4), max(3, w.radius // 2), w.radius})
    growth = []
    for r in radii:
        if r == w.radius:
            b, s = w.ball, w.chart.geodesic
        else:
            # only radius 1 and 2 ask for a window wider than the ball
            b = w.ball.cut(r) if r < w.radius else build_ball(w.action, r, cap=w.cap)
            s = diametral_geodesic(b)
        growth.append(max_geodesic_midpoint(b, s.vertices[len(s.vertices) // 2]))
    increasing = all(a < b for a, b in zip(growth, growth[1:]))
    return _status(increasing), {"radii": radii, "midpoint_growth": growth}, None


def _m_geod(w):
    covering = m_covering_check(w.chart.geodesic, w.chart.m)
    return _status(covering.passed), covering.to_json(), None


def _bound_y(w):
    """Passes: every boundary vertex of Y has f = 0 (see half_space)."""
    return "pass", {
        "boundary": sorted(w.ball.label_str(v) for v in w.half.boundary),
        "level_bound": str(w.chart.beta)}, None


def _per_sample(samples, test) -> tuple:
    """(results, witness, failed, limited) of test(elem) per sample element;
    NotStabilized marks one window limited, another FullGroupLabError failed."""
    results, witness = {}, {}
    failed = limited = False
    for elem in samples:
        try:
            results[elem] = test(elem)
        except NotStabilized as exc:
            limited = True
            witness[_elem_desc(elem)] = f"window limited: {exc}"
        except FullGroupLabError as exc:
            failed = True
            witness[_elem_desc(elem)] = f"error: {exc}"
    return results, witness, failed, limited


def _cocycle_fin(w):
    values, witness, failed, limited = _per_sample(
        w.samples, lambda elem: cocycle_value(elem, w.half))
    witness.update((_elem_desc(e), len(c.vertices)) for e, c in values.items())
    return _rollup(failed, limited), witness, (values, failed, limited)


def _cocycle_identity(w, fin):
    values, failed, limited = fin
    witness = {}
    pairs_checked = 0
    for a in values:
        for b in values:
            key = f"{_elem_desc(a)} * {_elem_desc(b)}"
            try:
                left = cocycle_value(compose(a, b), w.half).vertices
                right = values[a].vertices ^ push_set(a, w.ball, values[b].vertices)
            except FullGroupLabError as exc:
                limited = True
                witness[key] = f"window limited: {exc}"
                continue
            if left != right:
                failed = True
                witness[key] = "mismatch"
            pairs_checked += 1
    witness["pairs_checked"] = pairs_checked
    return _rollup(failed, limited), witness, None


def _kernel_stab(w):
    """Per sample, the cocycle test against phi's images: fixes_Y when no v
    of certified(max(1, d_phi)) changes side.  Y's two boundaries meet
    every edge between Y and its complement, so only the v near them are
    tested (pattern_transport._changes_side)."""
    seam = w.half.boundary | w.half.co_boundary

    def test(elem):
        empty = stabilizer_test(elem, w.half)
        fixes = not _changes_side([vertex_map(elem, w.ball)], w.ball,
                                  w.half.members, seam, displacement_bound(elem))
        return {"kernel": empty, "fixes_Y": fixes}

    results, witness, failed, limited = _per_sample(w.samples, test)
    witness.update((_elem_desc(e), r) for e, r in results.items())
    failed = failed or any(r["kernel"] != r["fixes_Y"] for r in results.values())
    return _rollup(failed, limited), witness, None


def _upp(w):
    p = w.chart.p
    try:
        matches = pattern_match_points(w.kernel_family, w.ball, w.n, anchor=p)
        r = repetition_radius(matches, w.n, w.ball)
    except RimContact as exc:
        return "skipped", {"reason": str(exc)}, str(exc)
    except NoRepetition as exc:
        return "fail", {"error": str(exc)}, str(exc)
    others = sum(z != p for z in matches)
    witness = {"r": r, "matches": others}
    if not others:
        return "pass", witness, "anchor pattern repeats nowhere else in the window"
    return "pass", witness, (p, matches, r)


def _d_phi(w):
    """The largest d(v, phi v) over certified(d_phi), per sample.  It is at
    least |f(v) - f(phi v)|, f being 1-Lipschitz, and at most the length of
    v's piece word, which walks inside the ball (see the cocycle module):
    d_phi as soon as one |f(v) - f(phi v)| reaches it, else found by a
    search at each v where the two bounds differ."""
    witness = {}
    f = w.chart.f
    for elem in w.samples:
        bound = displacement_bound(elem)
        image = vertex_map(elem, w.ball)
        window = w.ball.certified(max(1, bound))
        worst = 0
        for v in window:
            worst = max(worst, abs(f[v] - f[image[v]]))
            if worst >= bound:
                break
        if worst < bound:
            words = word_column(elem, w.ball)
            for v in window:
                d = abs(f[v] - f[image[v]])
                if d < len(words[v]):
                    worst = max(worst, w.ball.d(v, image[v]))
        witness[_elem_desc(elem)] = {"d_phi": bound, "max_displacement": worst}
    ok = all(x["max_displacement"] <= x["d_phi"] for x in witness.values())
    return _status(ok), witness, None


def _oneend(w):
    strip_minus, strip_plus = w.half.strips
    if strip_minus & strip_plus:
        reason = "the end strips overlap: the window is too small to see two ends"
        return "skipped", {"reason": reason}, None
    plus_in = strip_plus <= w.half.members
    minus_in = strip_minus <= w.half.members
    return _status(plus_in != minus_in), \
        {"plus_end_in_Y": plus_in, "minus_end_in_Y": minus_in}, None


def _stab_transport(w, upp):
    """Transports to the five matches nearest p; the value is F's transport
    anchor, or the TransportFailure when F moves Y: each transport then
    fails with it, and so does every check that depends on this one."""
    p, matches, _r = upp
    try:
        anchor = transport_anchor(w.kernel_family, w.n, w.half)
    except (NotStabilized, PreconditionNphi) as exc:
        return "skipped", {"reason": str(exc)}, str(exc)
    except TransportFailure as exc:
        anchor = exc
    base_row = w.ball.distance_row(p)
    chosen = sorted((z for z in matches if z != p),
                    key=lambda z: (base_row[z], z))[:5]
    witness = {"match_points": [w.ball.label_str(z) for z in chosen]}
    if isinstance(anchor, TransportFailure):
        witness.update((label, str(anchor)) for label in witness["match_points"])
        return "fail", witness, anchor
    ok = True
    for z in chosen:
        try:
            transport_halfspace(w.kernel_family, z, w.n, w.half, anchor)
        except (TransportFailure, PatternMismatch, PreconditionNphi,
                RimContact, NotStabilized) as exc:
            ok = False
            witness[w.ball.label_str(z)] = str(exc)
    return _status(ok), witness, anchor


def _nesting(w, anchor, upp):
    _p, matches, r = upp
    try:
        family = nested_family(w.kernel_family, w.n, w.half, anchor,
                               repetition=(matches, r))
    except (WindowTooSmall, PreconditionNphi, NotStabilized) as exc:
        return "skipped", {"reason": str(exc)}, str(exc)
    summary = family.to_json()
    return _status(family.checks["nesting"]), \
        {k: summary[k] for k in ("anchors", "spacing", "r")}, family


def _block_bound(w, family):
    if not family.block_indices:
        reason = "window too narrow for full anchor segments"
        return "skipped", {"reason": reason}, reason
    summary = family.to_json()
    return _status(family.checks["block_bound"]), \
        {k: summary[k] for k in ("U", "blocks")}, family


def _finite_order(w, family):
    orders = finite_embedding_order(w.kernel_family, family)
    return _status(orders.agree), orders.to_json(), None


def _recurrence(w):
    if w.radius < 2:
        return "skipped", \
            {"reason": "the window is smaller than the first escape radius 2"}, None
    # powers of two from 2 up to max(2, radius // 2)
    radii = [1 << k for k in range(1, max(2, w.radius // 2).bit_length())]
    series = escape_series(w.ball, radii)
    if len(radii) < 2:
        return "skipped", \
            {"reason": "too few radii for a trend", **series.to_json()}, None
    ok = series.is_nonincreasing() and \
        series.probabilities[-1] < series.probabilities[0]
    return _status(ok), series.to_json(), None


# (id, check, dependencies, run parameters its entry reports), in report
# order; every dependency comes earlier.  The parameters are data so that
# an entry skipped without running reports them too.
CHECKS = (
    ("localfin", _localfin, (), ()),
    ("biinf", _biinf, (), ()),
    ("m_geod", _m_geod, (), ()),
    ("boundY", _bound_y, (), ()),
    ("cocycle_fin", _cocycle_fin, (), ()),
    ("cocycle_identity", _cocycle_identity, ("cocycle_fin",), ()),
    ("kernel_stab", _kernel_stab, (), ()),
    ("upp", _upp, (), ("n",)),
    ("d_phi", _d_phi, (), ()),
    ("oneend", _oneend, (), ()),
    ("stab_transport", _stab_transport, ("upp",), ("n",)),
    ("nesting", _nesting, ("stab_transport", "upp"), ()),
    ("block_bound", _block_bound, ("nesting",), ()),
    ("finite_order", _finite_order, ("block_bound",), ()),
    ("recurrence", _recurrence, (), ()),
)
CHECK_IDS = tuple(check_id for check_id, *_ in CHECKS)


def _work() -> tuple:
    """The clock and the process's work counters so far: full BFS rows,
    transducer applications and element vertex maps walked."""
    return (time.perf_counter(), Graph.full_rows, Transducer.applications,
            Graph.map_walks)


def _timing(spent: dict) -> dict:
    """The report's timing from spent, phase -> _work differences: the
    seconds of the window and of each check, and each counter's the same
    way under its name."""
    window = spent.pop("window")
    timing = {"window": round(window[0], 3),
              "checks": {c: round(d[0], 3) for c, d in spent.items()}}
    for k, key in enumerate(("rows", "applications", "walks"), start=1):
        timing[key] = {"window": window[k],
                       "checks": {c: d[k] for c, d in spent.items()}}
    return timing


def run_verify(action, radius: int, n: int, cap: int,
               timing: bool = False) -> dict:
    """Run CHECKS in order.  A check whose dependency gave a skip reason is
    skipped with it; a check that raises FullGroupLabError fails with the
    error, and so does every check that depends on it.  With timing, the
    report's `timing` holds the seconds of the window and of each check,
    and the work each of them did (_timing)."""
    spent = {}
    before = _work() if timing else None
    half = _window(action, radius, cap)
    if timing:
        spent["window"] = [b - a for a, b in zip(before, _work())]
    w = SimpleNamespace(action=action, radius=radius, n=n, cap=cap,
                        ball=half.graph, chart=half.chart, half=half,
                        **sample_elements(action))
    entries, values = [], {}
    for check_id, check, deps, params in CHECKS:
        if not callable(check) or any(d not in values for d in deps):
            raise RuntimeError(f"check {check_id!r} has no function or depends "
                               f"on a check not run before it: {deps}")
        before = _work() if timing else None
        upstream = [values[d] for d in deps]
        blocked = next((v for v in upstream
                        if isinstance(v, (str, FullGroupLabError))), None)
        if isinstance(blocked, str):
            status, witnesses, value = "skipped", {"reason": blocked}, blocked
        elif blocked is not None:
            status, witnesses, value = "fail", {"error": str(blocked)}, blocked
        else:
            try:
                status, witnesses, value = check(w, *upstream)
            except FullGroupLabError as exc:
                status, witnesses, value = "fail", {"error": str(exc)}, exc
        values[check_id] = value
        if timing:
            spent[check_id] = [b - a for a, b in zip(before, _work())]
        entries.append({"id": check_id, "status": status, "witnesses": witnesses,
                        "parameters": {k: getattr(w, k) for k in params}})
    # verify samples nothing.  "seed" stays as a constant because the
    # pinned digests of whole reports (test_cli's GOLDEN, perfbench's
    # reference.json) would all change without it.
    return {
        "action": action.name,
        "action_hash": action.action_hash(),
        "chart_hash": w.chart.chart_hash(),
        "version": __version__,
        "parameters": {"radius": radius, "n": n, "cap": cap,
                       "order_cap": 10 ** 6, "depth_cap": 20, "seed": "0"},
        "checks": entries,
        "timing": _timing(spent) if timing else None,
    }


def cmd_verify(args) -> int:
    action = _load_action(args.action)
    start = time.monotonic()
    report = run_verify(action, args.radius, _pattern_radius(args.n), args.cap,
                        timing=args.timing)
    if args.timing:
        report["timing"]["seconds"] = round(time.monotonic() - start, 3)
    _emit(report, args.out)
    failed = any(e["status"] == "fail" for e in report["checks"])
    return CHECK_FAILED if failed else 0


# --- argument parsing -----------------------------------------------------

# Built once per process: main() is also called in-process, repeatedly (the
# tests, the benchmark), and building the parser takes about 3 ms.  main()
# never modifies it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullgroup-lab",
        description="finite-scale certificates for line-like Cantor actions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, radius_default=None):
        p.add_argument("--radius", type=int, default=radius_default)
        p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
        p.add_argument("--out")

    p = sub.add_parser("action", help="inspect action definitions")
    p.add_argument("what", choices=["dump"])
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("graph", help="export a ball or level graph")
    p.add_argument("action")
    common(p)
    p.add_argument("--level", type=int)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--no-loops", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("qi", help="fit and check a line chart")
    p.add_argument("action")
    common(p)
    p.add_argument("--level", type=int)
    p.set_defaults(func=cmd_qi)

    p = sub.add_parser("element", help="validate and apply elements")
    p.add_argument("what", choices=["check", "apply", "compose", "invert"])
    p.add_argument("action")
    p.add_argument("--element", required=True)
    p.add_argument("--element2")
    p.add_argument("--point")
    p.add_argument("--out")
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("cocycle", help="half-space cocycle of an element")
    p.add_argument("action")
    p.add_argument("--element", required=True)
    common(p, radius_default=64)
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("transport", help="transported half space at a match")
    p.add_argument("action")
    p.add_argument("--F", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    common(p, radius_default=128)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("stabilizer", help="nested family and finite orders")
    p.add_argument("action")
    p.add_argument("--F", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-cap", type=int, default=10 ** 6)
    common(p, radius_default=128)
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("recurrence", help="exact escape probabilities")
    p.add_argument("action")
    p.add_argument("--radii")
    common(p)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("verify", help="run the full evidence pipeline")
    p.add_argument("action")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--timing", action="store_true")
    common(p, radius_default=200)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:
            raise UsageError(f"cap must be >= 1, got {args.cap}")
        return args.func(args)
    except (UsageError, UnknownAction, UnknownGenerator, InvalidAction,
            InvalidElement, InvalidPoint, InvalidRadius) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FullGroupLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
