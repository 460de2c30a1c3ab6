"""The integer QI scan and the distance layer against the rational oracles.

Graphs are small line-like shapes (ladders, cycles, paths with pendant
vertices, grid strips), optionally with a rim so that the certified window
is a proper subset.  The library's integer scan must agree with the
pairwise rational formula of ``oracles.qi_constants``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fullgroup_lab import (
    Graph,
    action_from_json,
    action_to_json,
    build_ball,
    builtin_action,
    diametral_geodesic,
    fiber_diameter_check,
    fit_line_chart,
    max_geodesic_midpoint,
)
from fullgroup_lab.line_geometry import LineChart, certificate_is_tight, check_qi_inequalities
from fullgroup_lab.schreier import ROW_CACHE_SIZE
from oracles import all_pairs, qi_constants, qi_deviation, qi_holds, qi_tight

SETTINGS = settings(max_examples=60, deadline=None)


def _grid(width: int, length: int):
    edges = []
    for r in range(width):
        for c in range(length):
            v = r * length + c
            if c + 1 < length:
                edges.append((v, v + 1))
            if r + 1 < width:
                edges.append((v, v + length))
    return width * length, edges


def _graph(n: int, edges, base: int = 0, rim: bool = False) -> Graph:
    labels = [f"v{i:03d}" for i in range(n)]
    g = Graph(labels, [(u, "s", v) for u, v in edges], base=base)
    if rim and max(g.dist) >= 2:
        g = Graph(labels, g.edges, base=base, radius=max(g.dist), dist=g.dist)
    return g


@st.composite
def line_like_graphs(draw):
    kind = draw(st.sampled_from(["ladder", "cycle", "pendants", "strip"]))
    if kind == "ladder":
        n, edges = _grid(2, draw(st.integers(2, 15)))
    elif kind == "strip":
        n, edges = _grid(draw(st.integers(3, 4)), draw(st.integers(2, 8)))
    elif kind == "cycle":
        n = draw(st.integers(3, 30))
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        length = draw(st.integers(2, 20))
        spots = draw(st.lists(st.integers(0, length - 1), max_size=6))
        edges = [(i, i + 1) for i in range(length - 1)]
        edges += [(spot, length + k) for k, spot in enumerate(spots)]
        n = length + len(spots)
    return _graph(n, edges, draw(st.integers(0, n - 1)), draw(st.booleans()))


def _certified_pairs(graph):
    certified = sorted(graph.certified(1))
    return [(u, v) for i, u in enumerate(certified) for v in certified[i + 1:]]


# --- fitted charts -------------------------------------------------------------

def _assert_matches_oracle(graph):
    chart = fit_line_chart(graph)
    alpha, beta = qi_constants(graph, chart.f)
    assert (chart.alpha, chart.beta) == (alpha, beta)
    assert chart.m == 1 + 2 * beta
    rows = all_pairs(graph)
    certified = sorted(graph.certified(1))
    assert certificate_is_tight(chart) == qi_tight(rows, chart.f, certified, alpha, beta)
    assert check_qi_inequalities(chart)
    assert qi_holds(rows, chart.f, _certified_pairs(graph), alpha, beta)
    return chart


@SETTINGS
@given(line_like_graphs())
def test_fit_matches_rational_oracle(graph):
    _assert_matches_oracle(graph)


def test_fit_with_positive_beta():
    cycle = _graph(8, [(i, (i + 1) % 8) for i in range(8)])
    ladder = _graph(*_grid(2, 6))
    strip = _graph(*_grid(3, 5), base=7, rim=True)
    for graph in (cycle, ladder, strip):
        chart = _assert_matches_oracle(graph)
        assert chart.beta > 0
        assert certificate_is_tight(chart)


def test_thick_line_constants():
    data = action_to_json(builtin_action("odometer"))
    copy = {"0": "0", "1": "1"}
    data["transducers"]["t2"] = {"transitions": {"0": "t", "1": "t"},
                                 "outputs": dict(copy)}
    data["transducers"]["t2_inv"] = {"transitions": {"0": "t_inv", "1": "t_inv"},
                                     "outputs": dict(copy)}
    data["generators"].update({"t2": "t2", "t2_inv": "t2_inv"})
    data["name"] = "thickline"
    ball = build_ball(action_from_json(data), 40)
    chart = _assert_matches_oracle(ball)
    assert (chart.alpha, chart.beta, chart.m) == (1, 1, 3)


# --- hand-built charts: any f, any positive alpha ---------------------------

@SETTINGS
@given(st.data())
def test_hand_built_chart_matches_oracle(data):
    # a scaled fitted chart plus noise, so that both verdicts occur
    graph = data.draw(line_like_graphs())
    scale = data.draw(st.integers(0, 3))
    noise = data.draw(st.lists(st.integers(-2, 2), min_size=graph.n,
                               max_size=graph.n))
    f = tuple(scale * x + e for x, e in zip(fit_line_chart(graph).f, noise))
    alpha = Fraction(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    rows = all_pairs(graph)
    certified = sorted(graph.certified(1))
    # beta near the exact deviation, where both verdicts flip
    shift = data.draw(st.sampled_from([-1, -Fraction(1, 2), -Fraction(1, 3), 0,
                                       Fraction(1, 4), Fraction(1, 2), 1]))
    beta = max(Fraction(0), qi_deviation(rows, f, certified, alpha) + shift)
    chart = LineChart(graph, f, alpha, beta, Fraction(0),
                      alpha * alpha + 2 * alpha * beta, 0, 0)
    assert check_qi_inequalities(chart) == \
        qi_holds(rows, f, _certified_pairs(graph), alpha, beta)
    assert certificate_is_tight(chart) == qi_tight(rows, f, certified, alpha, beta)


def test_tightness_when_half_a_unit_below_is_negative():
    # alpha = 4 leaves room: even beta = -1/4 satisfies the single pair
    g = Graph(["a", "b"], [(0, "s", 1)])
    chart = LineChart(g, (0, 2), Fraction(4), Fraction(1, 4), Fraction(0),
                      Fraction(18), 0, 1)
    assert check_qi_inequalities(chart)
    assert certificate_is_tight(chart)


# --- the distance layer -----------------------------------------------------------

@SETTINGS
@given(line_like_graphs(), line_like_graphs())
def test_d_matches_all_pairs_with_disconnected_pairs(g1, g2):
    # disjoint union: pairs across the two parts are unreachable (-1)
    shift = g1.n
    edges = [(u, v) for u, _s, v in g1.edges]
    edges += [(u + shift, v + shift) for u, _s, v in g2.edges]
    graph = Graph([f"v{i:03d}" for i in range(g1.n + g2.n)],
                  [(u, "s", v) for u, v in edges])
    rows = all_pairs(graph)
    for u in range(graph.n):
        for v in range(graph.n):
            assert graph.d(u, v) == rows[u][v]
    assert graph.d(0, shift) == -1


def test_row_cache_keeps_the_latest_rows():
    graph = _graph(40, [(i, i + 1) for i in range(39)])
    first = graph.distance_row(0)
    for v in range(1, ROW_CACHE_SIZE):
        graph.distance_row(v)
    assert graph.distance_row(0) is first  # still cached, now most recent
    for v in range(ROW_CACHE_SIZE, 2 * ROW_CACHE_SIZE):
        graph.distance_row(v)
        assert len(graph._rows) <= ROW_CACHE_SIZE
    assert graph.distance_row(0) is not first
    assert graph.distance_row(0) == first


def test_certificate_stages_hold_at_most_the_row_bound(odometer):
    ball = build_ball(odometer, 200)
    chart = fit_line_chart(ball)
    fiber_diameter_check(chart)
    seg = diametral_geodesic(ball)
    max_geodesic_midpoint(ball, seg.vertices[len(seg.vertices) // 2])
    assert 0 < len(ball._rows) <= ROW_CACHE_SIZE
