from fractions import Fraction

import pytest

from fullgroup_lab import (
    Graph,
    build_ball,
    build_level_graph,
    diametral_geodesic,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
    path_graph,
    project_to_geodesic,
    star_graph,
)
from fullgroup_lab.line_geometry import LineChart, certificate_is_tight, check_qi_inequalities
from fullgroup_lab.errors import NotConnected, NotGeodesic
from oracles import all_pairs, exhaustive_midpoint, point_to_int


def test_odometer_chart_constants(odometer):
    ball = build_ball(odometer, 3)
    chart = fit_line_chart(ball)
    assert (chart.alpha, chart.beta, chart.gamma, chart.m) == (1, 0, 0, 1)
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
    assert (chart.alpha, chart.beta, chart.m) == (1, 0, 1)


def test_m_formula_arithmetic():
    g = path_graph(2)
    base = fit_line_chart(g)
    chart = LineChart(g, base.f, Fraction(2), Fraction(3), Fraction(0),
                      Fraction(2) ** 2 + 2 * Fraction(2) * Fraction(3),
                      base.minus_end, base.plus_end)
    assert chart.m == 16


def test_disconnected_rejected():
    g = Graph(["a", "b"], [], base=0)
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
    assert Fraction(worst) <= chart.alpha * chart.beta


def test_fiber_check_flags_fat_fiber():
    # a 4-cycle carries a 2-point fiber at distance 2; alpha=beta=... too small
    g = Graph([f"c{i}" for i in range(4)],
              [(0, "s", 1), (1, "s", 2), (2, "s", 3), (3, "s", 0)], base=0)
    f = (0, 1, 2, 1)
    chart = LineChart(g, f, Fraction(1), Fraction(1), Fraction(0),
                      Fraction(3), 0, 2)
    report = fiber_diameter_check(chart)
    assert not report.passed  # the f=1 fiber has diameter 2 > alpha*beta = 1


def test_diametral_geodesic_path():
    g = path_graph(7)
    seg = diametral_geodesic(g)
    assert len(seg) == 6
    assert set(seg.vertices) == set(range(7))


def test_diametral_geodesic_odometer(odometer):
    ball = build_ball(odometer, 10)
    seg = diametral_geodesic(ball)
    assert len(seg) == 20
    values = [point_to_int(ball.point(v)) for v in seg.vertices]
    assert values == list(range(-10, 11))  # oriented toward +infinity


def test_diametral_geodesic_grigorchuk_level6(grigorchuk):
    lg = build_level_graph(grigorchuk, 6)
    seg = diametral_geodesic(lg)
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
    seg = diametral_geodesic(lg)
    v = seg.vertices[3]
    assert max_geodesic_midpoint(lg, v) == 3
    assert exhaustive_midpoint(lg, v) == 3


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
            seg = diametral_geodesic(ball)
            mid = seg.vertices[len(seg.vertices) // 2]
            best.append(max_geodesic_midpoint(ball, mid))
        assert best[0] < best[1] < best[2]


def test_edge_step_bound(odometer, grigorchuk):
    for action, r in ((odometer, 12), (grigorchuk, 12)):
        ball = build_ball(action, r)
        chart = fit_line_chart(ball)
        for u, _g, v in ball.edges:
            assert abs(chart.f[u] - chart.f[v]) <= chart.alpha + chart.beta


def test_projection_on_geodesic_is_identity(odometer):
    ball = build_ball(odometer, 6)
    seg = diametral_geodesic(ball)
    for v in seg.vertices:
        assert project_to_geodesic(ball, seg, v) == v


def test_projection_tie_breaks_toward_minus_end():
    # x (vertex 7) adjacent to geodesic vertices 3 and 5 only
    edges = [(i, "s", i + 1) for i in range(6)] + [(7, "s", 3), (7, "s", 5)]
    g = Graph([f"v{i}" for i in range(8)], edges, base=0)
    from fullgroup_lab.line_geometry import GeodesicSegment

    seg = GeodesicSegment(g, tuple(range(7)))
    assert project_to_geodesic(g, seg, 7) == 3


def test_m_covering_pass(odometer, grigorchuk):
    ball = build_ball(odometer, 8)
    seg = diametral_geodesic(ball)
    report = m_covering_check(ball, seg, 1)
    assert report.passed and report.max_distance == 0

    lg = build_level_graph(grigorchuk, 9)
    chart = fit_line_chart(lg)
    seg = diametral_geodesic(lg)
    assert m_covering_check(lg, seg, chart.m).passed


def test_m_covering_fails_on_star():
    g = star_graph(3)
    seg = diametral_geodesic(g)
    report = m_covering_check(g, seg, 0)
    assert not report.passed and report.max_distance == 1


def test_certificate_tightness(odometer):
    ball = build_ball(odometer, 6)
    chart = fit_line_chart(ball)
    assert certificate_is_tight(chart)
    assert check_qi_inequalities(chart)


def test_diametral_geodesic_rejects_a_detour(monkeypatch):
    # path 0..6 plus the longer detour 1-7-8-3; the diametral ends are 0, 6
    edges = [(i, "s", i + 1) for i in range(6)]
    edges += [(1, "s", 7), (7, "s", 8), (8, "s", 3)]
    g = Graph([f"v{i}" for i in range(9)], edges, base=2)
    assert len(diametral_geodesic(g)) == 6
    original = Graph.bfs_parents

    def detour(self, root):
        parent, dist = original(self, root)
        if root == 0:
            parent[3], parent[8], parent[7] = 8, 7, 1
        else:
            parent[1], parent[7], parent[8] = 7, 8, 3
        return parent, dist

    monkeypatch.setattr(Graph, "bfs_parents", detour)
    with pytest.raises(NotGeodesic):
        diametral_geodesic(g)
