"""The certifier: `verify`'s window, its 15 checks and the runner over them.

run_verify(action, radius, n, cap) builds the window (a half space of the
radius-`radius` ball's line chart) and its ladder, runs CHECKS in order on
them and returns the report that `fullgroup-lab verify` writes, as a dict.
With timing=True the report's `timing` holds the seconds and work counters
of the window and of each check; the total `seconds` of a run is the
command line's to add.  Out-of-range inputs raise InvalidRadius, and a
vertex cap that the ball exceeds raises BallTooLarge; every check's own
error goes into its entry instead.

The ladder is the window seen at the radii max(2, R // 4), max(3, R // 2)
and R (a set: two rungs at R = 2 and 3, three otherwise), lowest first;
each rung is a (radius, chart) pair.  The top rung is the window's own
chart, a rung below R is the chart of the window's ball cut at its radius,
and a rung above R (only at R = 1 and 2) the chart of a ball built at its
radius; one that breaks the vertex cap fails biinf, not the run.
ladder() is the one place that rule lives, and run_verify builds the
ladder once, in the window's timing phase; a check reads the rungs off
the run instead of building its own.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from . import __version__, cantor_actions, full_group
from .cocycle import cocycle_value, half_space, push_set, stabilizer_test
from .errors import (
    BallTooLarge,
    FullGroupLabError,
    InvalidRadius,
    NoRepetition,
    NotStabilized,
    PatternMismatch,
    PreconditionNphi,
    RimContact,
    TransportFailure,
    WindowTooSmall,
)
from .full_group import (
    compose,
    displacement_bound,
    identity_element,
    make_element,
    walker,
    word_column,
)
from .line_geometry import (
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
)
from .pattern_transport import (_changes_side, pattern_match_points,
                                repetition_radius, transport_anchor,
                                transport_halfspace)
from .recurrence import escape_series
from .schreier import Graph, build_ball
from .stabilizer_lab import finite_embedding_order, nested_family


def chart_radius(radius: int) -> int:
    """A line chart needs two vertices, so a radius-0 window is an
    InvalidRadius; build_ball refuses a negative radius."""
    if radius == 0:
        raise InvalidRadius("radius must be >= 1 to fit a line chart, got 0")
    return radius


def pattern_radius(n: int) -> int:
    """n is a pattern radius; a negative one would match everywhere."""
    if n < 0:
        raise InvalidRadius(f"n must be >= 0, got {n}")
    return n


def window(action, radius: int, cap: int):
    """The half space every certificate works in; its chart holds the ball
    and the geodesic."""
    return half_space(fit_line_chart(
        build_ball(action, chart_radius(radius), cap=cap)))


def ladder(action, chart, cap: int) -> tuple:
    """The rungs (radius, chart) of the window charted by chart, lowest
    first, by the rule in the module docstring."""
    ball = chart.graph
    R = ball.radius
    rungs = []
    for r in sorted({max(2, R // 4), max(3, R // 2), R}):
        if r == R:
            rungs.append((r, chart))
        else:
            # only radius 1 and 2 ask for a window wider than the ball
            b = ball.cut(r) if r < R else build_ball(action, r, cap=cap)
            rungs.append((r, fit_line_chart(b)))
    return tuple(rungs)


def elem_desc(elem) -> str:
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
    identity = identity_element(action)
    samples = [identity]
    samples.extend(make_element(action, [("", (g,))]) for g in action.gen_names[:2])
    # one object, so the checks that read both share its read record
    return {"samples": samples, "kernel_family": [identity]}


# --- the checks -----------------------------------------------------------
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


def localfin(w):
    fiber = fiber_diameter_check(w.chart)
    return _status(fiber.passed), fiber.to_json(), None


def biinf(w):
    """The longest geodesic centered at the middle of each rung's geodesic
    must grow up the ladder."""
    if isinstance(w.ladder, BallTooLarge):
        raise w.ladder
    radii, growth = [], []
    for r, chart in w.ladder:
        s = chart.geodesic.vertices
        radii.append(r)
        growth.append(max_geodesic_midpoint(chart.graph, s[len(s) // 2]))
    increasing = all(a < b for a, b in zip(growth, growth[1:]))
    return _status(increasing), {"radii": radii, "midpoint_growth": growth}, None


def m_geod(w):
    covering = m_covering_check(w.chart.geodesic, w.chart.m)
    return _status(covering.passed), covering.to_json(), None


def bound_y(w):
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
            witness[elem_desc(elem)] = f"window limited: {exc}"
        except FullGroupLabError as exc:
            failed = True
            witness[elem_desc(elem)] = f"error: {exc}"
    return results, witness, failed, limited


def cocycle_fin(w):
    values, witness, failed, limited = _per_sample(
        w.samples, lambda elem: cocycle_value(elem, w.half))
    witness.update((elem_desc(e), len(c.vertices)) for e, c in values.items())
    return _rollup(failed, limited), witness, (values, failed, limited)


def cocycle_identity(w, fin):
    values, failed, limited = fin
    witness = {}
    pairs_checked = 0
    descs = [(a, elem_desc(a), c.vertices) for a, c in values.items()]
    for a, desc_a, c_a in descs:
        for b, desc_b, c_b in descs:
            key = f"{desc_a} * {desc_b}"
            try:
                left = cocycle_value(compose(a, b), w.half).vertices
                right = c_a ^ push_set(a, w.ball, c_b)
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


def kernel_stab(w):
    """Per sample, the cocycle test against phi's images: fixes_Y when no v
    of certified(max(1, d_phi)) changes side.  Y's two boundaries meet
    every edge between Y and its complement, so only the v near them are
    tested (pattern_transport._changes_side)."""
    seam = w.half.boundary | w.half.co_boundary

    def test(elem):
        empty = stabilizer_test(elem, w.half)
        fixes = not _changes_side([walker(elem, w.ball)], w.ball,
                                  w.half.members, seam, displacement_bound(elem))
        return {"kernel": empty, "fixes_Y": fixes}

    results, witness, failed, limited = _per_sample(w.samples, test)
    witness.update((elem_desc(e), r) for e, r in results.items())
    failed = failed or any(r["kernel"] != r["fixes_Y"] for r in results.values())
    return _rollup(failed, limited), witness, None


def upp(w):
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


def d_phi(w):
    """The largest d(v, phi v) over certified(d_phi), per sample.  It is at
    least |f(v) - f(phi v)|, f being 1-Lipschitz, and at most the length of
    v's piece word, which walks inside the ball (see the cocycle module):
    d_phi as soon as one |f(v) - f(phi v)| reaches it, else found by a
    search at each v where the two bounds differ."""
    witness = {}
    f = w.chart.f
    for elem in w.samples:
        bound = displacement_bound(elem)
        image = walker(elem, w.ball)
        certified = w.ball.certified(max(1, bound))
        worst = 0
        for v in certified:
            worst = max(worst, abs(f[v] - f[image(v)]))
            if worst >= bound:
                break
        if worst < bound:  # every v was walked, so its image is looked up
            words = word_column(elem, w.ball)
            for v in certified:
                u = image(v)
                if abs(f[v] - f[u]) < len(words[v]):
                    worst = max(worst, w.ball.d(v, u))
        witness[elem_desc(elem)] = {"d_phi": bound, "max_displacement": worst}
    ok = all(x["max_displacement"] <= x["d_phi"] for x in witness.values())
    return _status(ok), witness, None


def oneend(w):
    strip_minus, strip_plus = w.half.strips
    if strip_minus & strip_plus:
        reason = "the end strips overlap: the window is too small to see two ends"
        return "skipped", {"reason": reason}, None
    plus_in = strip_plus <= w.half.members
    minus_in = strip_minus <= w.half.members
    return _status(plus_in != minus_in), \
        {"plus_end_in_Y": plus_in, "minus_end_in_Y": minus_in}, None


def stab_transport(w, repetition):
    """Transports to the five matches nearest p; the value is F's transport
    anchor, or the TransportFailure when F moves Y: each transport then
    fails with it, and so does every check that depends on this one."""
    p, matches, _r = repetition
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


def nesting(w, anchor, repetition):
    _p, matches, r = repetition
    try:
        family = nested_family(w.kernel_family, w.n, w.half, anchor,
                               repetition=(matches, r))
    except (WindowTooSmall, PreconditionNphi, NotStabilized) as exc:
        return "skipped", {"reason": str(exc)}, str(exc)
    summary = family.to_json()
    return _status(family.checks["nesting"]), \
        {k: summary[k] for k in ("anchors", "spacing", "r")}, family


def block_bound(w, family):
    if not family.block_indices:
        reason = "window too narrow for full anchor segments"
        return "skipped", {"reason": reason}, reason
    summary = family.to_json()
    return _status(family.checks["block_bound"]), \
        {k: summary[k] for k in ("U", "blocks")}, family


def finite_order(w, family):
    orders = finite_embedding_order(w.kernel_family, family)
    return _status(orders.agree), orders.to_json(), None


def recurrence(w):
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
    ("localfin", localfin, (), ()),
    ("biinf", biinf, (), ()),
    ("m_geod", m_geod, (), ()),
    ("boundY", bound_y, (), ()),
    ("cocycle_fin", cocycle_fin, (), ()),
    ("cocycle_identity", cocycle_identity, ("cocycle_fin",), ()),
    ("kernel_stab", kernel_stab, (), ()),
    ("upp", upp, (), ("n",)),
    ("d_phi", d_phi, (), ()),
    ("oneend", oneend, (), ()),
    ("stab_transport", stab_transport, ("upp",), ("n",)),
    ("nesting", nesting, ("stab_transport", "upp"), ()),
    ("block_bound", block_bound, ("nesting",), ()),
    ("finite_order", finite_order, ("block_bound",), ()),
    ("recurrence", recurrence, (), ()),
)
CHECK_IDS = tuple(check_id for check_id, *_ in CHECKS)


def _work() -> tuple:
    """The clock and the process's work counters so far: full BFS rows,
    bounded searches, transducer applications and element images walked,
    one per (element, vertex) of the run, which builds its elements."""
    return (time.perf_counter(), Graph.full_rows, Graph.searches,
            cantor_actions.applications, full_group.walks)


def _timing(spent: dict) -> dict:
    """The report's timing from spent, phase -> _work differences: the
    seconds of the window and of each check, and each counter's the same
    way under its name."""
    window = spent.pop("window")
    timing = {"window": round(window[0], 3),
              "checks": {c: round(d[0], 3) for c, d in spent.items()}}
    for k, key in enumerate(("rows", "searches", "applications", "walks"),
                            start=1):
        timing[key] = {"window": window[k],
                       "checks": {c: d[k] for c, d in spent.items()}}
    return timing


def run_verify(action, radius: int, n: int, cap: int,
               timing: bool = False) -> dict:
    """Build the window and its ladder, then run CHECKS in order.  A check
    whose dependency gave a skip reason is skipped with it; a check that
    raises FullGroupLabError fails with the error, and so does every check
    that depends on it.  With timing, the report's `timing` holds the
    seconds of the window (its ladder included) and of each check, and the
    work each of them did (_timing)."""
    pattern_radius(n)
    spent = {}
    before = _work() if timing else None
    half = window(action, radius, cap)
    try:
        rungs = ladder(action, half.chart, cap)
    except BallTooLarge as exc:
        # a rung above the window broke the cap: biinf fails with it
        rungs = exc
    if timing:
        spent["window"] = [b - a for a, b in zip(before, _work())]
    chart_hash = half.chart.chart_hash()
    w = SimpleNamespace(radius=radius, n=n, ball=half.graph, chart=half.chart,
                        half=half, ladder=rungs, **sample_elements(action))
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
        "chart_hash": chart_hash,
        "version": __version__,
        "parameters": {"radius": radius, "n": n, "cap": cap,
                       "order_cap": 10 ** 6, "depth_cap": 20, "seed": "0"},
        "checks": entries,
        "timing": _timing(spent) if timing else None,
    }
