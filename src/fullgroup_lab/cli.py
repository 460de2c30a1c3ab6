"""Command line front end: reproducible verification runs with JSON reports.

Exit codes: 0 when every executed check passes, 1 when a check fails or a
computation cannot be certified, 2 for usage errors (unknown action,
malformed input files).  Reports are byte-identical across repeated runs
with the same inputs; `--timing` adds wall-clock seconds and is the only
flag that breaks byte-equality.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .cantor_actions import (
    BUILTIN_NAMES,
    action_from_json,
    action_to_json,
    builtin_action,
    parse_point,
)
from .cocycle import (
    boundary_level_bound_ok,
    cocycle_value,
    half_space,
    n_phi,
    push_set,
    r_constant,
    stabilizer_test,
)
from .errors import (
    FamilyFailure,
    FullGroupLabError,
    InvalidAction,
    InvalidPoint,
    NoRepetition,
    NotStabilized,
    OrderCap,
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
)
from .line_geometry import (
    diametral_geodesic,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
    project_to_geodesic,
)
from .pattern_transport import end_strips, pattern_match_points, repetition_radius, transport_halfspace
from .recurrence import escape_series, simulate_escape
from .schreier import (
    DEFAULT_VERTEX_CAP,
    build_ball,
    build_level_graph,
    graph_to_dot,
    graph_to_json,
)
from .stabilizer_lab import finite_embedding_order, nested_family

USAGE_ERROR = 2
CHECK_FAILED = 1

CHECK_IDS = (
    "localfin", "biinf", "m_geod", "boundY", "cocycle_fin",
    "cocycle_identity", "kernel_stab", "upp", "d_phi", "oneend",
    "stab_transport", "nesting", "block_bound", "finite_order", "recurrence",
)


class UsageError(Exception):
    pass


def _load_action(name_or_path: str):
    if name_or_path in BUILTIN_NAMES:
        return builtin_action(name_or_path)
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
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac(x) -> str:
    return str(Fraction(x))


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
    gens = [g for g in action.gen_names]
    samples = [identity_element(action)]
    samples.extend(make_element(action, [("", (g,))]) for g in gens[:2])
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
        text = graph_to_dot(graph, include_loops=not args.no_loops)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(graph_to_json(graph), args.out)
    return 0


def cmd_qi(args) -> int:
    action = _load_action(args.action)
    graph = _build_graph(action, args)
    chart = fit_line_chart(graph)
    seg = diametral_geodesic(graph)
    fiber = fiber_diameter_check(chart)
    covering = m_covering_check(graph, seg, chart.m)
    report = {
        "action": action.name,
        "alpha": _frac(chart.alpha),
        "beta": _frac(chart.beta),
        "gamma": _frac(chart.gamma),
        "m": _frac(chart.m),
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


def cmd_cocycle(args) -> int:
    action = _load_action(args.action)
    elem = element_from_json(action, _load_json(args.element))
    ball = build_ball(action, args.radius, cap=args.cap)
    chart = fit_line_chart(ball)
    seg = diametral_geodesic(ball)
    half = half_space(chart)
    value = cocycle_value(elem, half)
    R = r_constant(half, seg)
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
        "N_phi": _frac(n_phi(chart.m, R, dphi)),
    }
    _emit(report, args.out)
    return 0


def cmd_transport(args) -> int:
    action = _load_action(args.action)
    ball = build_ball(action, args.radius, cap=args.cap)
    chart = fit_line_chart(ball)
    seg = diametral_geodesic(ball)
    half = half_space(chart)
    F = elements_from_json(action, _load_json(args.F))
    try:
        result = transport_halfspace(F, args.z, args.n, half, seg)
    except TransportFailure as exc:
        _emit({"passed": False, "error": str(exc), "report": exc.report}, args.out)
        return CHECK_FAILED
    except (PatternMismatch, PreconditionNphi, RimContact) as exc:
        _emit({"passed": False, "error": str(exc), "report": {}}, args.out)
        return CHECK_FAILED
    report = result.to_json(ball)
    report["passed"] = True
    _emit(report, args.out)
    return 0


def cmd_stabilizer(args) -> int:
    action = _load_action(args.action)
    ball = build_ball(action, args.radius, cap=args.cap)
    chart = fit_line_chart(ball)
    seg = diametral_geodesic(ball)
    half = half_space(chart)
    F = elements_from_json(action, _load_json(args.F))
    try:
        family = nested_family(F, args.n, half, seg)
    except FamilyFailure as exc:
        _emit({"passed": False, "error": str(exc), "report": exc.report}, args.out)
        return CHECK_FAILED
    orders = finite_embedding_order(F, family, cap=args.order_cap)
    report = {
        "anchors": len(family.anchor_indices),
        "r": family.r,
        "spacing": family.spacing,
        "U": family.U,
        "blocks": {str(i): len(family.blocks[i]) for i in family.block_indices},
        "nesting": family.checks["nesting"],
        "orders": {"blocks": orders.order_blocks, "brute": orders.order_brute},
        "agree": orders.agree,
        "checks": {k: bool(v) for k, v in sorted(family.checks.items())},
        "passed": orders.agree,
    }
    _emit(report, args.out)
    return 0 if orders.agree else CHECK_FAILED


def cmd_recurrence(args) -> int:
    action = _load_action(args.action)
    radii = [int(x) for x in args.radii.split(",")] if args.radii else [2, 4, 8]
    radius = args.radius if args.radius is not None else max(radii)
    ball = build_ball(action, radius, cap=args.cap)
    report = escape_series(ball, radii).to_json()
    if args.simulate:
        import random
        seed = int(os.environ.get("FULLGROUP_LAB_SEED", "0"))
        rng = random.Random(seed)
        report["simulated"] = [simulate_escape(ball, r, args.simulate, rng)
                               for r in radii]
    _emit(report, args.out)
    return 0


# --- the verify pipeline --------------------------------------------------

def _check(entries, check_id, status, witnesses=None, parameters=None):
    entries.append({
        "id": check_id,
        "status": status,
        "witnesses": witnesses or {},
        "parameters": parameters or {},
    })


def run_verify(action, radius: int, n: int, cap: int) -> dict:
    ball = build_ball(action, radius, cap=cap)
    chart = fit_line_chart(ball)
    seg = diametral_geodesic(ball)
    half = half_space(chart)
    samples = sample_elements(action)
    entries = []

    fiber = fiber_diameter_check(chart)
    _check(entries, "localfin", "pass" if fiber.passed else "fail",
           fiber.to_json())

    radii = sorted({max(2, radius // 4), max(3, radius // 2), radius})
    growth = []
    for r in radii:
        b = ball if r == radius else build_ball(action, r, cap=cap)
        s = seg if r == radius else diametral_geodesic(b)
        mid = s.vertices[len(s.vertices) // 2]
        growth.append(max_geodesic_midpoint(b, mid))
    increasing = all(a < b for a, b in zip(growth, growth[1:]))
    _check(entries, "biinf", "pass" if increasing else "fail",
           {"radii": radii, "midpoint_growth": growth})

    covering = m_covering_check(ball, seg, chart.m)
    _check(entries, "m_geod", "pass" if covering.passed else "fail",
           covering.to_json())

    bound_ok = boundary_level_bound_ok(half)
    _check(entries, "boundY", "pass" if bound_ok else "fail",
           {"boundary": sorted(ball.label_str(v) for v in half.boundary),
            "level_bound": _frac(chart.alpha + chart.beta - 1)})

    values = {}
    fin_failed = False
    fin_limited = False
    fin_witness = {}
    for elem in samples["samples"]:
        try:
            values[elem] = cocycle_value(elem, half)
            fin_witness[_elem_desc(elem)] = len(values[elem].vertices)
        except NotStabilized as exc:
            fin_limited = True
            fin_witness[_elem_desc(elem)] = f"window limited: {exc}"
        except FullGroupLabError as exc:
            fin_failed = True
            fin_witness[_elem_desc(elem)] = f"error: {exc}"
    fin_status = "fail" if fin_failed else ("skipped" if fin_limited else "pass")
    _check(entries, "cocycle_fin", fin_status, fin_witness)

    ident_witness = {}
    ident_failed = fin_failed
    ident_limited = fin_limited
    pairs_checked = 0
    for a in values:
        for b in values:
            key = f"{_elem_desc(a)} * {_elem_desc(b)}"
            try:
                left = cocycle_value(compose(a, b), half).vertices
                right = values[a].vertices ^ push_set(a, ball, values[b].vertices)
            except FullGroupLabError as exc:
                ident_limited = True
                ident_witness[key] = f"window limited: {exc}"
                continue
            if left != right:
                ident_failed = True
                ident_witness[key] = "mismatch"
            pairs_checked += 1
    ident_witness["pairs_checked"] = pairs_checked
    ident_status = "fail" if ident_failed else \
        ("skipped" if ident_limited else "pass")
    _check(entries, "cocycle_identity", ident_status, ident_witness)

    kern_ok = True
    kern_limited = False
    kern_witness = {}
    for elem in samples["samples"]:
        try:
            empty = stabilizer_test(elem, half)
        except NotStabilized as exc:
            kern_limited = True
            kern_witness[_elem_desc(elem)] = f"window limited: {exc}"
            continue
        except FullGroupLabError as exc:
            kern_ok = False
            kern_witness[_elem_desc(elem)] = f"error: {exc}"
            continue
        window = sorted(ball.certified(max(1, displacement_bound(elem))))
        fixes = True
        for v in window:
            img = ball.vertex_of(apply_element(elem, ball.labels[v]))
            if img is None or ((v in half.members) != (img in half.members)):
                fixes = False
                break
        kern_witness[_elem_desc(elem)] = {"kernel": empty, "fixes_Y": fixes}
        if empty != fixes:
            kern_ok = False
    kern_status = "fail" if not kern_ok else \
        ("skipped" if kern_limited else "pass")
    _check(entries, "kernel_stab", kern_status, kern_witness)

    F = samples["kernel_family"]
    p = project_to_geodesic(ball, seg, ball.base)
    skipped_reason = None
    try:
        r_rep = repetition_radius(F, n, ball, anchor=p)
        matches = [z for z in pattern_match_points(F, ball, n, anchor=p) if z != p]
        _check(entries, "upp", "pass",
               {"r": r_rep, "matches": len(matches)}, {"n": n})
        if not matches:
            skipped_reason = "anchor pattern repeats nowhere else in the window"
    except RimContact as exc:
        _check(entries, "upp", "skipped", {"reason": str(exc)}, {"n": n})
        matches = []
        skipped_reason = str(exc)
    except NoRepetition as exc:
        _check(entries, "upp", "fail", {"error": str(exc)}, {"n": n})
        matches = []
        skipped_reason = str(exc)

    dphi_ok = True
    dphi_witness = {}
    for elem in samples["samples"]:
        bound = displacement_bound(elem)
        margin_window = ball.certified(max(1, bound))
        worst = 0
        for v in sorted(margin_window):
            img = ball.vertex_of(apply_element(elem, ball.labels[v]))
            if img is None:
                dphi_ok = False
                break
            worst = max(worst, ball.d(v, img))
        dphi_witness[_elem_desc(elem)] = {"d_phi": bound, "max_displacement": worst}
        if worst > bound:
            dphi_ok = False
    _check(entries, "d_phi", "pass" if dphi_ok else "fail", dphi_witness)

    strip_minus, strip_plus = end_strips(ball, seg, chart.m)
    plus_in = strip_plus <= half.members
    minus_in = strip_minus <= half.members
    oneend_ok = plus_in != minus_in
    _check(entries, "oneend", "pass" if oneend_ok else "fail",
           {"plus_end_in_Y": plus_in, "minus_end_in_Y": minus_in})

    if skipped_reason:
        _check(entries, "stab_transport", "skipped", {"reason": skipped_reason},
               {"n": n})
    else:
        try:
            R_anchor = r_constant(half, seg, p)
            worst_nphi = max(n_phi(chart.m, R_anchor, displacement_bound(phi))
                             for phi in F)
        except NotStabilized as exc:
            R_anchor = None
            skipped_reason = str(exc)
        if R_anchor is not None and Fraction(n) <= worst_nphi:
            skipped_reason = f"need n > {worst_nphi}, got {n}"
        if skipped_reason:
            _check(entries, "stab_transport", "skipped",
                   {"reason": skipped_reason}, {"n": n})
        else:
            base_row = ball.distance_row(p)
            chosen = sorted(matches, key=lambda z: (base_row[z], z))[:5]
            t_ok = True
            t_witness = {"match_points": [ball.label_str(z) for z in chosen]}
            for z in chosen:
                try:
                    transport_halfspace(F, z, n, half, seg)
                except (TransportFailure, PatternMismatch, PreconditionNphi,
                        RimContact, NotStabilized) as exc:
                    t_ok = False
                    t_witness[ball.label_str(z)] = str(exc)
            _check(entries, "stab_transport", "pass" if t_ok else "fail",
                   t_witness, {"n": n})

    if skipped_reason:
        for check_id in ("nesting", "block_bound", "finite_order"):
            _check(entries, check_id, "skipped", {"reason": skipped_reason})
    else:
        try:
            family = nested_family(F, n, half, seg)
        except (WindowTooSmall, PreconditionNphi, NotStabilized) as exc:
            family = None
            for check_id in ("nesting", "block_bound", "finite_order"):
                _check(entries, check_id, "skipped", {"reason": str(exc)})
        except FamilyFailure as exc:
            family = None
            for check_id in ("nesting", "block_bound", "finite_order"):
                _check(entries, check_id, "fail", {"error": str(exc)})
        if family is not None:
            _check(entries, "nesting",
                   "pass" if family.checks["nesting"] else "fail",
                   {"anchors": len(family.anchor_indices),
                    "spacing": family.spacing, "r": family.r})
            if not family.block_indices:
                reason = "window too narrow for full anchor segments"
                _check(entries, "block_bound", "skipped", {"reason": reason})
                _check(entries, "finite_order", "skipped", {"reason": reason})
            else:
                _check(entries, "block_bound",
                       "pass" if family.checks["block_bound"] else "fail",
                       {"U": family.U,
                        "blocks": {str(i): len(family.blocks[i])
                                   for i in family.block_indices}})
                try:
                    orders = finite_embedding_order(F, family)
                    _check(entries, "finite_order",
                           "pass" if orders.agree else "fail", orders.to_json())
                except (FamilyFailure, OrderCap) as exc:
                    _check(entries, "finite_order", "fail", {"error": str(exc)})

    radii_rec = []
    r = 2
    while r <= max(2, radius // 2):
        radii_rec.append(r)
        r *= 2
    series = escape_series(ball, radii_rec)
    if len(radii_rec) < 2:
        _check(entries, "recurrence", "skipped",
               {"reason": "too few radii for a trend", **series.to_json()})
    else:
        rec_ok = series.is_nonincreasing() and \
            series.probabilities[-1] < series.probabilities[0]
        _check(entries, "recurrence", "pass" if rec_ok else "fail",
               series.to_json())

    ids = [e["id"] for e in entries]
    if sorted(ids) != sorted(CHECK_IDS):
        raise RuntimeError(f"verify produced checks {sorted(ids)}, "
                           f"expected {sorted(CHECK_IDS)}")
    order = {check_id: k for k, check_id in enumerate(CHECK_IDS)}
    entries.sort(key=lambda e: order[e["id"]])

    report = {
        "action": action.name,
        "action_hash": action.action_hash(),
        "chart_hash": chart.chart_hash(),
        "version": __version__,
        "parameters": {
            "radius": radius, "n": n, "cap": cap,
            "order_cap": 10 ** 6, "depth_cap": 20,
            "seed": os.environ.get("FULLGROUP_LAB_SEED", "0"),
        },
        "checks": entries,
        "timing": None,
    }
    return report


def cmd_verify(args) -> int:
    action = _load_action(args.action)
    start = time.monotonic()
    report = run_verify(action, args.radius, args.n, args.cap)
    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - start, 3)}
    _emit(report, args.out)
    failed = [e["id"] for e in report["checks"] if e["status"] == "fail"]
    return CHECK_FAILED if failed else 0


# --- argument parsing -----------------------------------------------------

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
    p.add_argument("--simulate", type=int)
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (UnknownAction, UnknownGenerator, InvalidAction, InvalidPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FullGroupLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
