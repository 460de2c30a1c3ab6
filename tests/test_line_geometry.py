import pytest

from fullgroup_lab import (
    Graph,
    build_ball,
    build_level_graph,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
    path_graph,
    project_to_geodesic,
    regular_tree_ball,
    star_graph,
)
from fullgroup_lab.line_geometry import GeodesicSegment, LineChart
from fullgroup_lab.errors import NotConnected
from oracles import (all_pairs, exhaustive_midpoints, graph_of_edges,
                     point_to_int, qi_holds, qi_tight)


def test_odometer_chart_constants(odometer):
    ball = build_ball(odometer, 3)
    chart = fit_line_chart(ball)
    assert (chart.beta, chart.m) == (0, 1)
    # oracle: exhaustive check of both inequalities over all 21 pairs
    rows = all_pairs(ball)
    count = 0
    for u in range(ball.n):
        for v in range(u + 1, ball.n):
            d = rows[u][v]
            assert abs(chart.f[u] - chart.f[v]) == d  # alpha=1, beta=0 is tight
            count += 1
    assert count == 21
    assert chart.f[ball.base] == 0


def test_chart_is_signed_position(odometer):
    ball = build_ball(odometer, 6)
    chart = fit_line_chart(ball)
    for v in range(ball.n):
        assert chart.f[v] == point_to_int(ball.point(v))


def test_single_edge_chart():
    g = path_graph(2)
    chart = fit_line_chart(g)
    assert (chart.beta, chart.m) == (0, 1)


def test_disconnected_rejected():
    g = Graph(["a", "b"], {}, base=0)
    with pytest.raises(NotConnected):
        fit_line_chart(g)


def test_fiber_check_singletons(odometer):
    ball = build_ball(odometer, 5)
    report = fiber_diameter_check(fit_line_chart(ball))
    assert report.passed and report.max_fiber_diameter == 0
    assert report.bound == 0


def test_fiber_check_grigorchuk_level8(grigorchuk):
    lg = build_level_graph(grigorchuk, 8)
    chart = fit_line_chart(lg)
    report = fiber_diameter_check(chart)
    assert report.passed
    # oracle: direct fiber scan
    fibers = {}
    for v in range(lg.n):
        fibers.setdefault(chart.f[v], []).append(v)
    rows = all_pairs(lg)
    worst = max((rows[u][v] for vs in fibers.values()
                 for u in vs for v in vs), default=0)
    assert worst == report.max_fiber_diameter
    assert worst <= chart.beta


def test_fiber_check_reads_the_widest_fiber_off_the_fit():
    # the 4-cycle's fit from the minus end c2 puts the two vertices at
    # distance 2 on level 1, and beta is that distance: the fiber is as
    # wide as beta allows, as on every fitted chart
    g = graph_of_edges([f"c{i}" for i in range(4)],
                       [(0, "s", 1), (1, "s", 2), (2, "s", 3), (3, "s", 0)],
                       base=2)
    chart = fit_line_chart(g)
    assert chart.f == (2, 1, 0, 1)
    report = fiber_diameter_check(chart)
    assert (report.max_fiber_diameter, report.worst_level) == (2, 1)
    assert report.bound == chart.beta == 2 and report.passed


def test_diametral_geodesic_path():
    g = path_graph(7)
    seg = fit_line_chart(g).geodesic
    assert len(seg) == 6
    assert set(seg.vertices) == set(range(7))


def test_diametral_geodesic_odometer(odometer):
    ball = build_ball(odometer, 10)
    seg = fit_line_chart(ball).geodesic
    assert len(seg) == 20
    values = [point_to_int(ball.point(v)) for v in seg.vertices]
    assert values == list(range(-10, 11))  # oriented toward +infinity


def test_diametral_geodesic_grigorchuk_level6(grigorchuk):
    lg = build_level_graph(grigorchuk, 6)
    seg = fit_line_chart(lg).geodesic
    assert len(seg) == 2 ** 6 - 1
    rows = all_pairs(lg)
    for i, u in enumerate(seg.vertices):
        for j in range(i + 1, len(seg.vertices), 7):
            assert rows[u][seg.vertices[j]] == j - i


def test_max_geodesic_midpoint_path():
    g = path_graph(9)
    assert max_geodesic_midpoint(g, 4) == 4
    assert max_geodesic_midpoint(g, 0) == 0


def test_max_geodesic_midpoint_grigorchuk_level3(grigorchuk):
    lg = build_level_graph(grigorchuk, 3)
    seg = fit_line_chart(lg).geodesic
    v = seg.vertices[3]
    assert max_geodesic_midpoint(lg, v) == 3
    assert exhaustive_midpoints(lg)[v] == 3


@pytest.mark.parametrize("name", ["odometer", "grigorchuk", "dihedral", "thickline"])
def test_midpoint_at_every_vertex_of_small_balls(name, request):
    big = build_ball(request.getfixturevalue(name), 40)
    for r in (1, 2, 3, 5, 8, 13, 21, 40):
        ball = big.cut(r)
        expected = exhaustive_midpoints(ball)
        assert [max_geodesic_midpoint(ball, v) for v in range(ball.n)] == expected


@pytest.mark.parametrize("name", ["grigorchuk", "dihedral"])
def test_midpoint_at_every_vertex_of_level_graphs(name, request):
    action = request.getfixturevalue(name)
    for level in range(1, 9):
        graph = build_level_graph(action, level)
        expected = exhaustive_midpoints(graph)
        assert [max_geodesic_midpoint(graph, v) for v in range(graph.n)] == expected


def test_midpoint_on_trees():
    # a level set of a tree is wide, and most sphere pairs lie on one side
    for graph in (regular_tree_ball(3, 4), regular_tree_ball(4, 3), star_graph(12)):
        expected = exhaustive_midpoints(graph)
        assert [max_geodesic_midpoint(graph, v) for v in range(graph.n)] == expected


def test_midpoint_monotone_under_growth(odometer):
    values = []
    for r in (4, 6, 8):
        ball = build_ball(odometer, r)
        values.append(max_geodesic_midpoint(ball, ball.base))
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_midpoint_growth_over_vertices():
    # the Koenig hypothesis needs SOME vertex with growing midpoint values;
    # for the one-ended built-ins that vertex is not the basepoint
    for name in ("odometer", "grigorchuk", "dihedral"):
        from fullgroup_lab import builtin_action

        action = builtin_action(name)
        best = []
        for r in (4, 8, 12):
            ball = build_ball(action, r)
            seg = fit_line_chart(ball).geodesic
            mid = seg.vertices[len(seg.vertices) // 2]
            best.append(max_geodesic_midpoint(ball, mid))
        assert best[0] < best[1] < best[2]


def test_edge_step_bound(odometer, grigorchuk):
    # alpha = 1: f changes by at most 1 along an edge
    for action, r in ((odometer, 12), (grigorchuk, 12)):
        ball = build_ball(action, r)
        chart = fit_line_chart(ball)
        for u, _g, v in ball.edges:
            assert abs(chart.f[u] - chart.f[v]) <= 1


def test_projection_on_geodesic_is_identity(odometer):
    ball = build_ball(odometer, 6)
    seg = fit_line_chart(ball).geodesic
    for v in seg.vertices:
        assert project_to_geodesic(seg, v) == v


def test_projection_tie_breaks_toward_minus_end():
    # x (vertex 7) adjacent to geodesic vertices 3 and 5 only
    edges = [(i, "s", i + 1) for i in range(6)] + [(7, "s", 3), (7, "s", 5)]
    g = graph_of_edges([f"v{i}" for i in range(8)], edges, base=0)
    seg = GeodesicSegment(g, tuple(range(7)))
    assert project_to_geodesic(seg, 7) == 3


@pytest.mark.parametrize("name", ["odometer", "grigorchuk", "dihedral",
                                  "thickline"])
def test_chart_p_is_the_base_projection(request, name):
    # p reads the base's row off graph.dist instead of searching again
    action = request.getfixturevalue(name)
    for radius in (1, 2, 3, 7, 16, 33):
        chart = fit_line_chart(build_ball(action, radius))
        assert chart.p == project_to_geodesic(chart.geodesic, chart.graph.base)
    lg = build_level_graph(action, 6)
    chart = fit_line_chart(lg)
    assert chart.p == project_to_geodesic(chart.geodesic, lg.base)


def test_chart_p_tie_breaks_toward_minus_end():
    # the base (vertex 7) is adjacent to geodesic vertices 3 and 5 only
    edges = [(i, "s", i + 1) for i in range(6)] + [(7, "s", 3), (7, "s", 5)]
    g = graph_of_edges([f"v{i}" for i in range(8)], edges, base=7)
    chart = LineChart(g, tuple(range(8)), beta=0, max_fiber_diameter=0,
                      worst_level=None,
                      geodesic=GeodesicSegment(g, tuple(range(7))),
                      levels=(0, list(range(8)), list(range(9))))
    assert chart.p == 3


def test_m_covering_pass(odometer, grigorchuk):
    ball = build_ball(odometer, 8)
    seg = fit_line_chart(ball).geodesic
    report = m_covering_check(seg, 1)
    assert report.passed and report.max_distance == 0

    lg = build_level_graph(grigorchuk, 9)
    chart = fit_line_chart(lg)
    assert m_covering_check(chart.geodesic, chart.m).passed


def test_m_covering_fails_on_star():
    g = star_graph(3)
    seg = fit_line_chart(g).geodesic
    report = m_covering_check(seg, 0)
    assert not report.passed and report.max_distance == 1


def test_certificate_tightness(odometer):
    ball = build_ball(odometer, 6)
    chart = fit_line_chart(ball)
    rows = all_pairs(ball)
    certified = sorted(ball.certified(1))
    pairs = [(u, v) for i, u in enumerate(certified) for v in certified[i + 1:]]
    assert qi_tight(rows, chart.f, certified, 1, chart.beta)
    assert qi_holds(rows, chart.f, pairs, 1, chart.beta)
