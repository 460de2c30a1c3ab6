"""Command line front end: reproducible verification runs with JSON reports.

It parses arguments, loads actions and input files, and writes reports;
the certifier itself (the window, the checks and run_verify) is the
verify module.

Exit codes: 0 when every executed check passes, 1 when a check fails or a
computation cannot be certified, 2 for usage errors (unknown action,
malformed input files, an action file's generator pieces that do not
partition the space included, a radius, level, escape radius, --n, --z,
--cap or --order-cap out of range, a --radii that is not a list of
integers).
Reports are byte-identical across repeated runs with the same inputs;
`--timing` adds wall-clock seconds (the whole run, the window and each
check of `verify`) and the work of the window and of each check (full BFS
rows, bounded searches, transducer applications, element images
walked), and is the only flag that breaks byte-equality.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .cantor_actions import (
    BUILTIN_NAMES,
    action_from_json,
    action_to_json,
    builtin_action,
    parse_point,
)
from .cocycle import cocycle_value, n_phi, r_constant
from .errors import (
    FullGroupLabError,
    InvalidAction,
    InvalidElement,
    InvalidPoint,
    InvalidRadius,
    UnknownAction,
    UnknownGenerator,
)
from .full_group import (
    apply_element,
    compose,
    displacement_bound,
    element_from_json,
    element_to_json,
    elements_from_json,
    invert,
)
from .line_geometry import fiber_diameter_check, fit_line_chart, m_covering_check
from .pattern_transport import (pattern_match_points, repetition_radius,
                                transport_anchor, transport_halfspace)
from .recurrence import escape_series
from .schreier import (
    DEFAULT_VERTEX_CAP,
    build_ball,
    build_level_graph,
    graph_to_dot,
    graph_to_json,
)
from .stabilizer_lab import finite_embedding_order, nested_family
from .verify import chart_radius, pattern_radius, run_verify, window

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
        chart_radius(args.radius)
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


def _report_failure(exc, out) -> int:
    _emit({"passed": False, "error": str(exc),
           "report": getattr(exc, "report", {})}, out)
    return CHECK_FAILED


def cmd_cocycle(args) -> int:
    action = _load_action(args.action)
    elem = element_from_json(action, _load_json(args.element))
    half = window(action, args.radius, args.cap)
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
    n = pattern_radius(args.n)
    F = elements_from_json(action, _load_json(args.F))
    half = window(action, args.radius, args.cap)
    if not 0 <= args.z < half.graph.n:
        raise UsageError(f"z must be a vertex of the ball, 0 <= z < "
                         f"{half.graph.n}, got {args.z}")
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
    n = pattern_radius(args.n)
    if args.order_cap < 1:
        raise UsageError(f"order cap must be >= 1, got {args.order_cap}")
    F = elements_from_json(action, _load_json(args.F))
    half = window(action, args.radius, args.cap)
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
        radii = [int(x) for x in args.radii.split(",")]
    except ValueError:
        raise UsageError(f"radii must be comma-separated integers, "
                         f"got {args.radii!r}") from None
    radius = args.radius if args.radius is not None else max(radii)
    ball = build_ball(action, radius, cap=args.cap)
    _emit(escape_series(ball, radii).to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    action = _load_action(args.action)
    start = time.monotonic()
    report = run_verify(action, args.radius, args.n, args.cap,
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
    p.add_argument("--radii", default="2,4,8")
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
