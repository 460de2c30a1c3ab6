import importlib.util
import json
import random
from pathlib import Path

import pytest

from fullgroup_lab import (
    action_from_json,
    build_ball,
    fit_line_chart,
    half_space,
    identity_element,
    make_element,
    pattern_match_points,
    repetition_radius,
    same_pattern,
    transport_anchor,
    transport_halfspace,
)
from fullgroup_lab import pattern_transport
from fullgroup_lab.cocycle import r_constant
from fullgroup_lab.errors import (PatternMismatch, PreconditionNphi, RimContact,
                                  TransportFailure)
from fullgroup_lab.line_geometry import project_to_geodesic
from fullgroup_lab import full_group
from fullgroup_lab.full_group import walker
from fullgroup_lab.pattern_transport import (_changes_side, _is_invariant,
                                             _side_boundary, _sides,
                                             labeled_match)
from oracles import (int_to_point, is_invariant_by_scan, point_to_int,
                     random_elements, same_pattern_by_word_at,
                     side_boundary_by_scan, transport_by_scan,
                     transport_sides_by_scan)


@pytest.fixture(scope="module")
def lab(odometer, pair_swap):
    ball = build_ball(odometer, 200)
    chart = fit_line_chart(ball)
    return {
        "ball": ball,
        "chart": chart,
        "half": half_space(chart),
        "swap": pair_swap,
    }


def transport(F, z: int, n: int, half):
    return transport_halfspace(F, z, n, half, transport_anchor(F, n, half))


def vertex(ball, n):
    return ball.vertex_of(int_to_point(n))


def members(side, graph) -> frozenset:
    """The vertices of the graph in side, by membership at each of them."""
    return frozenset(v for v in range(graph.n) if v in side)


def sides(result, half) -> tuple:
    """(a_plus, a_minus) of a transport as whole-window sets, from the
    slabs of its match's marks."""
    h = result.match_map
    (a_plus, _), (a_minus, _), _ = _sides(
        half.chart, {h[u]: u in half.members for u in h}, 2)
    return members(a_plus, half.graph), members(a_minus, half.graph)


def test_identity_pattern_matches_everywhere(odometer, lab):
    ball = lab["ball"]
    F = [identity_element(odometer)]
    for n in (-5, 3, 40):
        assert same_pattern(F, ball, ball.base, vertex(ball, n), 2)
    matches = pattern_match_points(F, ball, 2, anchor=ball.base)
    assert repetition_radius(matches, 2, ball) == 0


def test_pair_swap_pattern_parity(lab):
    # oracle: the piece used at integer k is decided by k mod 2
    ball, F = lab["ball"], [lab["swap"]]
    assert same_pattern(F, ball, vertex(ball, 0), vertex(ball, 2), 2)
    assert same_pattern(F, ball, vertex(ball, 0), vertex(ball, -4), 2)
    assert not same_pattern(F, ball, vertex(ball, 0), vertex(ball, 1), 2)
    matches = pattern_match_points(F, ball, 2, anchor=ball.base)
    assert repetition_radius(matches, 2, ball) == 1


def test_same_pattern_compares_words_not_pieces(odometer, pair_swap):
    # the 3-cycle 4k -> 4k+1 -> 4k+2 -> 4k: its pieces 00 and 10 are not
    # siblings and both carry t, so at n = 0 the integers 4k and 4k+1
    # carry the same pattern though their pieces differ
    cycle = make_element(odometer, [("00", ("t",)), ("10", ("t",)),
                                    ("01", ("t_inv", "t_inv")), ("11", ())])
    assert dict(cycle.pieces)["00"] == dict(cycle.pieces)["10"]
    ball = build_ball(odometer, 40)
    zero, one = vertex(ball, 0), vertex(ball, 1)
    assert same_pattern([cycle], ball, zero, one, 0)
    assert not same_pattern([cycle], ball, zero, one, 1)
    for F in ([cycle], [cycle, pair_swap], [pair_swap, cycle]):
        for n in (0, 1, 3):
            for anchor in (zero, one, vertex(ball, -3)):
                for z in range(ball.n):
                    assert same_pattern(F, ball, anchor, z, n) == \
                        same_pattern_by_word_at(F, ball, anchor, z, n)


def test_pattern_scan_builds_each_column_once(odometer, monkeypatch):
    # the scan reads F's columns once, not once per candidate z, and each
    # column is built once, into its element's read record
    ball = build_ball(odometer, 60)
    F = list(dict.fromkeys(random_elements(odometer, random.Random(5), 6,
                                           max_depth=2)))
    assert len(F) == 6
    reads, builds = [], []
    word_column = pattern_transport.word_column

    def counted(elem, graph):
        reads.append(elem)
        if full_group._record(elem, graph)[3] is None:
            builds.append(elem)
        return word_column(elem, graph)

    monkeypatch.setattr(pattern_transport, "word_column", counted)
    for n in (1, 2):
        for anchor in (ball.base, vertex(ball, 5)):
            reads.clear()
            matches = pattern_match_points(F, ball, n, anchor=anchor)
            assert reads == F
            assert matches == [z for z in sorted(ball.certified(n + 1))
                               if same_pattern_by_word_at(F, ball, anchor, z, n)]
            assert len(matches) > 1
    assert builds == F


def test_depth3_element_pattern_period(odometer, lab):
    # swaps 8k+1 <-> 8k+2, fixes everything else: depth-3 pieces
    ball = lab["ball"]
    gens = [("100", ("t",)), ("010", ("t_inv",))]
    rest = [(p, ()) for p in ("000", "110", "001", "101", "011", "111")]
    elem = make_element(odometer, gens + rest)
    # oracle: integer bookkeeping of the swap
    for k in (-16, 0, 8):
        from fullgroup_lab import apply_element

        assert point_to_int(apply_element(elem, int_to_point(k + 1))) == k + 2
        assert point_to_int(apply_element(elem, int_to_point(k + 2))) == k + 1
        assert point_to_int(apply_element(elem, int_to_point(k))) == k
    matches = pattern_match_points([elem], ball, 3, anchor=ball.base)
    r = repetition_radius(matches, 3, ball)
    assert r <= 8
    # oracle: pieces key on the low three bits, so the pattern has period 8
    assert r == 4


def test_pattern_rim_contact(odometer, lab):
    ball = lab["ball"]
    far = vertex(ball, 195)
    with pytest.raises(RimContact):
        pattern_match_points([lab["swap"]], ball, 10, anchor=far)
    # B_n(v) stays off the rim of the radius-200 ball iff dist(v) <= 200 - n - 1
    identity = [identity_element(odometer)]
    matches = pattern_match_points(identity, ball, 10, anchor=vertex(ball, -189))
    assert max(ball.dist[z] for z in matches) == 189
    with pytest.raises(RimContact):
        pattern_match_points(identity, ball, 10, anchor=vertex(ball, 190))
    F, half = [lab["swap"]], lab["half"]
    anchor = transport_anchor(F, 10, half)
    for k, error in ((190, RimContact), (189, PatternMismatch)):
        with pytest.raises(error):
            transport_halfspace(F, vertex(ball, k), 10, half, anchor)


def test_grigorchuk_pattern_repeats_for_depth2_element(grigorchuk):
    ball = build_ball(grigorchuk, 40)
    phi = make_element(grigorchuk, [("00", ("b",)), ("01", ("b",)), ("1", ())])
    anchor = [v for v in range(ball.n) if ball.dist[v] == 10][0]
    matches = [z for z in pattern_match_points([phi], ball, 2, anchor=anchor)
               if z != anchor]
    assert matches
    assert min(ball.d(anchor, z) for z in matches) <= 20


def test_labeled_match_respects_loops(grigorchuk):
    # the all-ones end carries b,c,d loops; no interior vertex matches it
    ball = build_ball(grigorchuk, 20)
    inner = [v for v in range(ball.n) if ball.dist[v] == 5][0]
    assert labeled_match(ball, ball.base, inner, 2) is None
    assert labeled_match(ball, ball.base, ball.base, 2) is not None


def test_labeled_match_needs_the_same_edges_leaving_the_ball(odometer):
    # the rim vertex has no in-ball t or t_inv image; an inner vertex has both
    ball = build_ball(odometer, 20)
    rim = [v for v in range(ball.n) if ball.dist[v] == 20][0]
    inner = [v for v in range(ball.n) if ball.dist[v] == 5][0]
    assert labeled_match(ball, rim, inner, 1) is None
    assert labeled_match(ball, inner, rim, 1) is None
    assert labeled_match(ball, inner, ball.base, 3) is not None
    assert labeled_match(ball, rim, rim, 2) is not None


def test_transport_at_anchor_is_y_itself(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    F = [lab["swap"]]
    result = transport(F, ball.base, 10, half)
    window = ball.certified(1)
    assert members(result.slab, ball) & window == half.members & window
    assert all(result.checks.values())


def test_transport_translates_half_space(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    F = [lab["swap"]]
    for shift in (2, 26, -40):
        z = vertex(ball, shift)
        result = transport(F, z, 10, half)
        values = sorted(point_to_int(ball.point(v))
                        for v in members(result.slab, ball))
        # oracle: integer bookkeeping, the transported set is a half line
        assert values[0] == shift
        assert values == list(range(shift, values[-1] + 1))
        assert all(result.checks.values())
        assert result.R == 1


def test_transport_guard_small_n(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    with pytest.raises(PreconditionNphi):
        transport([lab["swap"]], vertex(ball, 2), 5, half)


def test_transport_requires_kernel_family(odometer, lab):
    from fullgroup_lab.errors import TransportFailure

    ball, half = lab["ball"], lab["half"]
    shift = make_element(odometer, [("", ("t",))])
    with pytest.raises(TransportFailure):
        transport([shift], vertex(ball, 2), 10, half)


def test_transport_pattern_mismatch(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    with pytest.raises(PatternMismatch):
        transport([lab["swap"]], vertex(ball, 3), 10, half)


def test_transport_partition_and_boundaries(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    F = [lab["swap"]]
    z = vertex(ball, -26)
    result = transport(F, z, 10, half)
    window = ball.certified(1)
    a_plus, a_minus = sides(result, half)
    assert (a_plus | a_minus) >= window
    assert not a_plus & a_minus
    assert result.boundary == {vertex(ball, -26)}
    h = result.match_map
    assert {h[u] for u in half.boundary} == {vertex(ball, -26)}
    assert {h[u] for u in half.co_boundary} == {vertex(ball, -27)}


def test_transport_ends_and_invariance(odometer, lab):
    ball, half = lab["ball"], lab["half"]
    F = [lab["swap"]]
    result = transport(F, vertex(ball, 52), 10, half)
    y_z = members(result.slab, ball)
    a_plus, a_minus = sides(result, half)
    strip_minus, strip_plus = half.strips
    assert strip_plus <= y_z
    assert not strip_minus & y_z
    assert strip_minus <= a_plus | a_minus
    # F-invariance spelled out on integers: Y_z is a union of swap pairs
    values = {point_to_int(ball.point(v)) for v in y_z}
    for k in sorted(values):
        if k % 2 == 0 and abs(k) <= 195:
            assert k + 1 in values


# --- local checks against their whole-window oracles ------------------------

def _families(action, seed: int) -> list:
    """The pair swap, which stabilizes the odometer's Y but not the thick
    line's, and a random pair, which mostly moves Y: transports both pass
    and fail with a report."""
    swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
    return [[swap], random_elements(action, random.Random(seed), 2,
                                    max_depth=2, max_word=2)]


def _same_as_scan(F, z: int, n: int, half, anchor):
    """The transport to z, success or TransportFailure, reports exactly
    what the whole-window oracle reports, and a transport that passes
    holds the oracle's Y_z by membership at every vertex."""
    expected = transport_by_scan(F, z, n, half, anchor)
    try:
        result = transport_halfspace(F, z, n, half, anchor)
    except TransportFailure as exc:
        if expected is None:
            assert "escapes the match window" in str(exc)
            return
        report, failed, _y_z = expected
        assert failed and str(exc) == f"transport checks failed: {failed}"
        assert json.dumps(exc.report, sort_keys=True) == \
            json.dumps(report, sort_keys=True)
    else:
        report, failed, y_z = expected
        assert not failed
        assert json.dumps(result.to_json(half.graph), sort_keys=True) == \
            json.dumps(report, sort_keys=True)
        assert members(result.slab, half.graph) == y_z


def _sides_as_scanned(half, p: int, z: int, n: int, h) -> bool:
    """The slab sides of the match h = p -> z hold what the oracle's
    whole-window reaches hold, by membership at every vertex, with the
    same sizes and the same disjointness, for slabs reaching 1 and 2
    levels past the match window; whether a slab had to rise higher."""
    marks = {h[u]: u in half.members for u in h}
    scan_plus, scan_minus = transport_sides_by_scan(half, p, z, n)
    risen = False
    for margin in (1, 2):
        (a_plus, size_plus), (a_minus, size_minus), disjoint = \
            _sides(half.chart, marks, margin)
        assert members(a_plus, half.graph) == scan_plus
        assert members(a_minus, half.graph) == scan_minus
        assert (size_plus, size_minus) == (len(scan_plus), len(scan_minus))
        assert disjoint == (not scan_plus & scan_minus)
        risen |= a_plus.t2 > max(half.chart.f[v] for v in marks) + margin
    return risen


def _anchor(half) -> tuple:
    """(p, R) without transport_anchor's stabilizer test."""
    p = project_to_geodesic(half.chart.geodesic, half.graph.base)
    return p, r_constant(half)


def _compare_at_every_match(half, F, n: int):
    """Every match point's transport reports what the oracle reports, and
    on both sides of the first matches' windows the local boundary and
    invariance tests agree with their scans."""
    graph = half.graph
    anchor = _anchor(half)
    p = anchor[0]
    matches = pattern_match_points(F, graph, n, anchor=p)
    assert matches
    for z in matches:
        _same_as_scan(F, z, n, half, anchor)
    for z in matches[:5]:
        h = labeled_match(graph, p, z, n)
        marks = {True: frozenset(h[u] for u in h if u in half.members),
                 False: frozenset(h[u] for u in h if u not in half.members)}
        for plus, side in zip((True, False),
                              transport_sides_by_scan(half, p, z, n)):
            assert _side_boundary(graph, side, marks[not plus]) == \
                side_boundary_by_scan(graph, side)
            assert _is_invariant(F, graph, side, marks[True] | marks[False]) \
                == is_invariant_by_scan(F, graph, side)


def _perfbench_thickline():
    """perfbench's thick line, workloads.thickline_action(0)."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return action_from_json(module.thickline_action(0))


# input -> (radius, whether some slab rises above its match window)
SLAB_INPUTS = {"odometer": (60, False), "grigorchuk": (40, False),
               "dihedral": (40, False), "thickline": (48, False),
               "grid": (6, True), "bellaterra": (6, True)}


@pytest.mark.parametrize("name", sorted(SLAB_INPUTS))
def test_slab_transport_matches_the_whole_window_oracle(name, request):
    # at every z whose n-ball matches p's, for families that fix Y and
    # families that move it (transports that fail), up to the rim: the
    # grid's match windows hold no whole fiber, and on the grid and the
    # Bellaterra tree the levels above a match window are not always
    # joined next to it, so the slab rises
    action = _perfbench_thickline() if name == "thickline" else \
        request.getfixturevalue(name)
    radius, rises = SLAB_INPUTS[name]
    half = half_space(fit_line_chart(build_ball(action, radius)))
    graph = half.graph
    p = half.chart.p
    # Y's boundary reaches the grid's and the tree's rim, so R is no
    # constant there; any R serves the comparison
    anchor = (p, 2) if rises else _anchor(half)
    families = [[identity_element(action)],
                random_elements(action, random.Random(radius), 2,
                                max_depth=2, max_word=2)]
    if "t" in action.generators:
        families.append(_families(action, radius)[0])
    risen = compared = 0
    for n in (0, 1, 3):
        for z in sorted(graph.certified(n + 1)):
            h = labeled_match(graph, p, z, n)
            if h is None:
                continue
            risen += _sides_as_scanned(half, p, z, n, h)
            for F in families:
                if same_pattern(F, graph, p, z, n):
                    _same_as_scan(F, z, n, half, anchor)
                    compared += 1
    assert compared > 2 and bool(risen) == rises


@pytest.mark.parametrize("radius", [60, 120, 200])
def test_local_transport_checks_match_the_scans_on_the_odometer(odometer, radius):
    half = half_space(fit_line_chart(build_ball(odometer, radius)))
    for F in _families(odometer, radius):
        _compare_at_every_match(half, F, 4)


def test_local_transport_checks_match_the_scans_on_the_thick_line(thickline):
    half = half_space(fit_line_chart(build_ball(thickline, 48)))
    for F in _families(thickline, 48):
        for n in (3, 8):
            _compare_at_every_match(half, F, n)


def test_r_ball_check_matches_the_full_row_at_every_radius(thickline):
    # a transported boundary of the thick line lies 0 and 1 from z, so the
    # check flips between R = 0 and R = 1
    half = half_space(fit_line_chart(build_ball(thickline, 48)))
    p, R = _anchor(half)
    F = _families(thickline, 48)[0]
    for z in pattern_match_points(F, half.graph, 4, anchor=p)[:5]:
        for radius in range(R + 1):
            _same_as_scan(F, z, 4, half, (p, radius))


def test_local_invariance_matches_the_scan_on_small_sets(odometer):
    # a set is its own seam: every x farther than d_phi from it stays out
    ball = build_ball(odometer, 60)
    rng = random.Random(5)
    families = _families(odometer, 5) + [[identity_element(odometer)]]
    agree = {True: 0, False: 0}
    for _ in range(60):
        F = rng.choice(families)
        start = rng.randrange(ball.n)
        S = frozenset(v for v in ball.distances_within((start,), rng.randrange(6))
                      if rng.random() < 0.8)
        local = _is_invariant(F, ball, S, S)
        assert local == is_invariant_by_scan(F, ball, S)
        agree[local] += 1
    assert agree[True] and agree[False]


def test_invariance_tests_the_inverse_direction(odometer):
    # at the rim the directions differ: on the window certified(1) of the
    # r=10 ball (-9..9), t_inv keeps {10} on its side, but t moves 9 into it
    ball = build_ball(odometer, 10)
    t_inv = make_element(odometer, [("", ("t_inv",))])
    subset = frozenset({vertex(ball, 10)})
    seam = subset | {vertex(ball, 9)}
    assert not _changes_side([walker(t_inv, ball)], ball, subset, seam, 1)
    assert not _is_invariant([t_inv], ball, subset, seam)


def test_side_change_from_depth_d_inside_the_window_is_seen(odometer):
    # the seam {10} sits on the rim of the r=10 ball (-10..10), so the only
    # side change of t on the window certified(1) = -9..9 is 9 -> 10, from
    # depth exactly d = 1 off the seam and at the window's last layer: a
    # search to depth d - 1 or a window certified(d + 1) misses it
    ball = build_ball(odometer, 10)
    t = make_element(odometer, [("", ("t",))])
    subset = seam = frozenset({vertex(ball, 10)})
    assert _changes_side([walker(t, ball)], ball, subset, seam, 1)
    assert not _is_invariant([t], ball, subset, seam)
