"""The integer QI certificate and the distance layer against the rational oracles.

Graphs are small line-like shapes (ladders, cycles, paths with pendant
vertices, grid strips) and random trees with chords, whose fibers are
wider and irregular, optionally with a rim so that the certified window is
a proper subset.  The library's fiber sweep must agree with the pairwise
rational formula of ``oracles.qi_constants``.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from fullgroup_lab import (
    Graph,
    build_ball,
    build_level_graph,
    fiber_diameter_check,
    fit_line_chart,
    max_geodesic_midpoint,
)
from fullgroup_lab import cli, verify
from fullgroup_lab.schreier import DEFAULT_VERTEX_CAP, regular_tree_ball
from oracles import (all_pairs, graph_of_edges, midpoint_by_extension,
                     qi_constants, qi_holds, qi_tight)

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
    edges = [(u, "s", v) for u, v in edges]
    g = graph_of_edges(labels, edges, base=base)
    if rim and max(g.dist) >= 2:
        # a rim needs the vertices in BFS order from the base: relabel them
        order = sorted(range(n), key=g.dist.__getitem__)
        new = {v: i for i, v in enumerate(order)}
        g = graph_of_edges([labels[v] for v in order],
                           [(new[u], s, new[v]) for u, s, v in edges],
                           radius=max(g.dist), dist=sorted(g.dist))
    return g


@st.composite
def line_like_graphs(draw):
    kind = draw(st.sampled_from(["ladder", "cycle", "pendants", "strip", "tree"]))
    if kind == "ladder":
        n, edges = _grid(2, draw(st.integers(2, 15)))
    elif kind == "strip":
        n, edges = _grid(draw(st.integers(3, 4)), draw(st.integers(2, 8)))
    elif kind == "tree":
        # a random tree plus up to six chords, loops included
        n = draw(st.integers(2, 25))
        edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=6))
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
    # alpha = 1 and gamma = 0: f is 1-Lipschitz and onto an interval
    assert all(abs(chart.f[u] - chart.f[v]) <= 1 for u, _g, v in graph.edges)
    assert sorted(set(chart.f)) == list(range(min(chart.f), max(chart.f) + 1))
    alpha, beta = qi_constants(graph, chart.f)
    assert alpha == 1 and chart.beta == beta and type(chart.beta) is int
    assert chart.m == 1 + 2 * beta
    rows = all_pairs(graph)
    certified = sorted(graph.certified(1))
    # beta is the least integer that holds: half a unit less breaks a pair
    assert qi_tight(rows, chart.f, certified, 1, chart.beta)
    assert qi_holds(rows, chart.f, _certified_pairs(graph), 1, chart.beta)
    # the widest certified fiber, and the lowest level where it occurs
    same = [(rows[u][v], chart.f[u]) for u, v in _certified_pairs(graph)
            if chart.f[u] == chart.f[v]]
    diameter = max((d for d, _t in same), default=0)
    level = min(t for d, t in same if d == diameter) if diameter else None
    report = fiber_diameter_check(chart)
    assert (report.max_fiber_diameter, report.worst_level) == (diameter, level)
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
        assert _assert_matches_oracle(graph).beta > 0


def test_thick_line_constants(thickline):
    ball = build_ball(thickline, 40)
    chart = _assert_matches_oracle(ball)
    assert (chart.beta, chart.m) == (1, 3)


@SETTINGS
@given(line_like_graphs())
def test_midpoint_matches_levelwise_extension(graph):
    # trees with chords give wide separators and many one-sided pairs
    for v in range(graph.n):
        assert max_geodesic_midpoint(graph, v) == midpoint_by_extension(graph, v)


# --- the distance layer -----------------------------------------------------------

@SETTINGS
@given(line_like_graphs(), line_like_graphs())
def test_d_matches_all_pairs_with_disconnected_pairs(g1, g2):
    # disjoint union: pairs across the two parts are unreachable (-1)
    shift = g1.n
    edges = [(u, "s", v) for u, _s, v in g1.edges if u <= v]
    edges += [(u + shift, "s", v + shift) for u, _s, v in g2.edges if u <= v]
    graph = graph_of_edges([f"v{i:03d}" for i in range(g1.n + g2.n)], edges)
    rows = all_pairs(graph)
    for u in range(graph.n):
        for v in range(graph.n):
            assert graph.d(u, v) == rows[u][v]
    assert graph.d(0, shift) == -1


def test_distances_to_stops_once_every_target_is_reached(monkeypatch):
    graph = _graph(1000, [(i, i + 1) for i in range(999)])
    expanded = []
    neighbors = Graph.neighbors
    monkeypatch.setattr(Graph, "neighbors",
                        lambda self, v: expanded.append(v) or neighbors(self, v))
    assert graph.distances_to(500, [500]) == [0] and expanded == []
    assert graph.distances_to(500, [503, 500, 498]) == [3, 0, 2]
    assert sorted(expanded) == [498, 499, 500, 501, 502]


def test_chart_and_fiber_check_take_at_most_three_rows(monkeypatch, odometer,
                                                     grigorchuk, thickline):
    # the diametral pair's second search, from the base's farthest vertex
    # (the base's row is graph.dist); the chart's row of the minus end comes
    # with its BFS tree, and the fiber sweep uses searches that stop early.
    # Every fiber of the odometer ball and of the level graph is one
    # vertex, a cut vertex, and takes no search; the thick line's fibers
    # have two vertices.  The fiber check reads the sweep's widest fiber
    # off the chart and searches nothing
    graphs = [build_ball(odometer, 200), build_level_graph(grigorchuk, 10),
              build_ball(thickline, 40)]
    rows, searches = [], []
    full_row, search = Graph.distances_from, Graph.distances_to

    def counted(self, sources):
        rows.append(sources)
        return full_row(self, sources)

    def counted_search(self, u, targets):
        searches.append(u)
        return search(self, u, targets)

    monkeypatch.setattr(Graph, "distances_from", counted)
    monkeypatch.setattr(Graph, "distances_to", counted_search)
    counts = []
    for graph in graphs:
        rows.clear()
        searches.clear()
        chart = fit_line_chart(graph)
        assert len(rows) == 1
        counts.append(len(searches))
        fiber_diameter_check(chart)
        assert len(rows) == 1 and len(searches) == counts[-1]
    assert counts[:2] == [0, 0] and counts[2] > 0


def test_window_takes_at_most_four_full_searches(monkeypatch, capsys, odometer):
    # the diametral pair's search from the base's farthest vertex and the
    # BFS tree of the minus end, which gives both f and the geodesic; the
    # base's row is the ball's dist.  A level graph searches from its base
    # when it is built, and `qi` adds the covering row
    calls = []
    for name in ("distances_from", "bfs_parents"):
        def counted(self, *args, _full=getattr(Graph, name)):
            calls.append(args)
            return _full(self, *args)

        monkeypatch.setattr(Graph, name, counted)
    verify.window(odometer, 200, DEFAULT_VERTEX_CAP)
    assert len(calls) == 2
    calls.clear()
    assert cli.main(["qi", "grigorchuk", "--level", "10"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


def test_biinf_takes_a_few_full_rows_per_radius(monkeypatch, odometer):
    # per rung: the midpoint's row, the row of the vertex farthest from it
    # and one row per separator vertex other than the midpoint (on the
    # odometer the separator is the midpoint alone); the rungs' charts and
    # geodesics come with the window
    half = verify.window(odometer, 400, DEFAULT_VERTEX_CAP)
    w = SimpleNamespace(
        ladder=verify.ladder(odometer, half.chart, DEFAULT_VERTEX_CAP))
    rows = []
    full_row = Graph.distances_from

    def counted(self, sources):
        rows.append(sources)
        return full_row(self, sources)

    monkeypatch.setattr(Graph, "distances_from", counted)
    status, witness, _ = verify.biinf(w)
    assert status == "pass" and witness["midpoint_growth"] == [100, 200, 400]
    assert len(rows) == 6


@SETTINGS
@given(line_like_graphs())
def test_dist_is_the_base_row_on_hypothesis_graphs(graph):
    # the rimmed ones are built with a dist of their own
    assert graph.dist == graph.distances_from([graph.base])


def test_dist_is_the_base_row(odometer, grigorchuk, thickline):
    ball = build_ball(thickline, 30)
    graphs = [ball, ball.cut(12), ball.cut(0), build_ball(odometer, 50),
              build_ball(odometer, 50).cut(7), build_level_graph(grigorchuk, 6),
              regular_tree_ball(3, 4)]
    for graph in graphs:
        assert graph.dist == graph.distances_from([graph.base])
