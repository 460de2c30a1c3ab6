import random

import pytest

from fullgroup_lab import (
    Transducer,
    build_ball,
    build_level_graph,
    cocycle_value,
    compose,
    fit_line_chart,
    half_space,
    identity_element,
    invert,
    make_element,
    n_phi,
    neighborhood_set,
    path_graph,
    r_constant,
    stabilizer_test,
)
from fullgroup_lab import cocycle
from fullgroup_lab.cocycle import push_set
from fullgroup_lab.errors import NotStabilized
from fullgroup_lab import full_group
from fullgroup_lab.full_group import displacement_bound
from oracles import (ball_interior_ok, cocycle_by_two_windows,
                     end_strips_by_index, graph_of_edges, half_space_boundaries,
                     int_to_point, point_to_int, random_elements,
                     transducer_map)


def test_half_space_odometer_r3(odometer):
    ball = build_ball(odometer, 3)
    half = half_space(fit_line_chart(ball))
    assert {point_to_int(ball.point(v)) for v in half.members} == {0, 1, 2, 3}
    assert half.boundary == {ball.vertex_of(int_to_point(0))}
    assert half.co_boundary == {ball.vertex_of(int_to_point(-1))}


def test_half_space_all_nonnegative():
    # a chart with min f = 0: Y is everything, no interior boundary
    g = path_graph(2)
    chart = fit_line_chart(g)
    assert min(chart.f) <= 0 <= max(chart.f)
    half = half_space(chart)
    assert all(v in half.members for v in range(g.n) if chart.f[v] >= 0)


def _assert_boundary_level_and_geodesic(graph):
    # boundY and the chart geodesic hold by proof (half_space, _geodesic):
    # every boundary vertex of Y has f = 0, and the geodesic's j-th vertex
    # lies at distance j from its minus end and next to the one before it
    chart = fit_line_chart(graph)
    half = half_space(chart)
    assert all(chart.f[v] == 0 for v in half.boundary)
    path = chart.geodesic.vertices
    row = graph.distances_from([path[0]])
    assert [row[v] for v in path] == list(range(len(path)))
    assert all(b in graph.neighbors(a) for a, b in zip(path, path[1:]))
    return half


def test_boundary_level_bound_all_builtins(thickline):
    from fullgroup_lab import builtin_action

    for action in [builtin_action(name)
                   for name in ("odometer", "grigorchuk", "dihedral")] + [thickline]:
        assert _assert_boundary_level_and_geodesic(build_ball(action, 24)).boundary


def test_boundary_level_bound_grigorchuk_level8(grigorchuk, odometer):
    # the base word is an end of the level graph: Y is every vertex
    half = _assert_boundary_level_and_geodesic(build_level_graph(grigorchuk, 8))
    assert not half.boundary and len(half.members) == 256
    # the odometer's level graph is a cycle, cut in two by the chart
    half = _assert_boundary_level_and_geodesic(build_level_graph(odometer, 8))
    assert len(half.boundary) == 1 and len(half.co_boundary) == 2


def test_rim_and_half_space_match_their_first_forms(thickline, grid,
                                                    bellaterra):
    # the grid's and the tree's windows have wide levels 0 and -1, so the
    # boundaries read off them are more than one vertex each
    from fullgroup_lab import builtin_action

    actions = [builtin_action(name)
               for name in ("odometer", "grigorchuk", "dihedral")] + [thickline]
    wide = [build_ball(grid, 8), build_ball(bellaterra, 6)]
    graphs = [build_ball(action, 24) for action in actions] + \
        [build_ball(thickline, 5)] + \
        [build_level_graph(action, 6) for action in actions] + wide
    for graph in graphs:
        for n in (0, 1, 2, 3, 10, 22, 23, 24, 40):
            assert frozenset(graph.certified(n + 1)) == \
                {v for v in range(graph.n) if ball_interior_ok(graph, v, n)}
        chart = fit_line_chart(graph)
        half = half_space(chart)
        assert (half.boundary, half.co_boundary) == \
            half_space_boundaries(graph, half.members)
        assert half.strips == end_strips_by_index(chart.geodesic, chart.m)
        if graph in wide:
            assert len(half.boundary) > 1 and len(half.co_boundary) > 1


def test_cocycle_identity_element(odo_half_200, odometer):
    value = cocycle_value(identity_element(odometer), odo_half_200)
    assert value.is_empty


def test_cocycle_of_shift(odometer, odo_ball_200, odo_half_200):
    shift = make_element(odometer, [("", ("t",))])
    value = cocycle_value(shift, odo_half_200)
    assert {point_to_int(odo_ball_200.point(v)) for v in value.vertices} == {0}


def test_cocycle_of_double_shift(odometer, odo_ball_200, odo_half_200):
    shift = make_element(odometer, [("", ("t",))])
    double = compose(shift, shift)
    value = cocycle_value(double, odo_half_200)
    assert {point_to_int(odo_ball_200.point(v)) for v in value.vertices} == {0, 1}
    # cocycle identity: c_{tt} = c_t symdiff t(c_t)
    c_t = cocycle_value(shift, odo_half_200)
    pushed = push_set(shift, odo_ball_200, c_t.vertices)
    assert value.vertices == c_t.vertices ^ pushed


def test_not_stabilized_on_tiny_ball(odometer):
    ball = build_ball(odometer, 2)
    half = half_space(fit_line_chart(ball))
    wide = make_element(odometer, [("0", ("t",) * 3), ("1", ("t_inv",) * 3)])
    with pytest.raises(NotStabilized):
        cocycle_value(wide, half)


def test_stabilizer_tests(odometer, odo_half_200, pair_swap):
    assert stabilizer_test(identity_element(odometer), odo_half_200)
    assert stabilizer_test(pair_swap, odo_half_200)
    shift = make_element(odometer, [("", ("t",))])
    assert not stabilizer_test(shift, odo_half_200)


def test_r_constant_odometer(odometer):
    ball = build_ball(odometer, 8)
    chart = fit_line_chart(ball)
    half = half_space(chart)
    assert r_constant(half) == 1
    # oracle: B_1(0) = {-1, 0, 1} contains dY = {0} and dY^c = {-1}
    zero = ball.vertex_of(int_to_point(0))
    covered = neighborhood_set(ball, {zero}, 1)
    assert (half.boundary | half.co_boundary) <= covered


def test_r_constant_two_vertex_graph():
    g = path_graph(2)
    chart = fit_line_chart(g)
    half = half_space(chart)
    assert r_constant(half) == 1


def test_r_constant_is_measured_from_p():
    # a path 0..10 with the base, vertex 11, hanging off vertex 5: p = 5 is
    # the base's projection onto the geodesic, and both boundaries (4 and
    # the base in Y, 5 outside it) lie within 1 of p but 2 of the base
    edges = [(i, "s", i + 1) for i in range(10)] + [(5, "s", 11)]
    g = graph_of_edges(path_graph(11).labels + ["q"], edges, base=11)
    half = half_space(fit_line_chart(g))
    assert half.chart.p == 5
    assert (half.boundary, half.co_boundary) == ({4, 11}, {5})
    assert r_constant(half) == 1


def test_r_constant_grigorchuk_recheck(grigorchuk):
    ball = build_ball(grigorchuk, 20)
    chart = fit_line_chart(ball)
    half = half_space(chart)
    R = r_constant(half)
    p = [v for v in chart.geodesic.vertices if chart.f[v] == 0][0]
    covered = neighborhood_set(ball, {p}, R)
    assert (half.boundary | half.co_boundary) <= covered
    smaller = neighborhood_set(ball, {p}, R - 1) if R > 0 else set()
    assert not (half.boundary | half.co_boundary) <= smaller


def test_n_phi_formula():
    assert n_phi(1, 1, 1) == 9
    assert n_phi(1, 1, 0) == 7
    assert n_phi(16, 5, 3) == 107


def test_cocycle_identity_random_pairs(odometer, odo_ball_200, odo_half_200):
    rng = random.Random(16)
    elems = random_elements(odometer, rng, 12)
    for a, b in zip(elems[::2], elems[1::2]):
        left = cocycle_value(compose(a, b), odo_half_200).vertices
        right = cocycle_value(a, odo_half_200).vertices ^ push_set(
            a, odo_ball_200, cocycle_value(b, odo_half_200).vertices)
        assert left == right


def test_kernel_is_closed_under_product_and_inverse(odometer, odo_half_200,
                                                    pair_swap, quad_swap):
    assert stabilizer_test(pair_swap, odo_half_200)
    assert stabilizer_test(quad_swap, odo_half_200)
    assert stabilizer_test(compose(pair_swap, quad_swap), odo_half_200)
    assert stabilizer_test(compose(quad_swap, pair_swap), odo_half_200)
    assert stabilizer_test(invert(pair_swap), odo_half_200)
    assert stabilizer_test(invert(quad_swap), odo_half_200)


def test_boundary_stays_finite_as_radius_grows(odometer, grigorchuk):
    # two-ended orbit: the boundary freezes while Y keeps growing
    sizes, y_sizes = [], []
    for r in (8, 12, 16):
        half = half_space(fit_line_chart(build_ball(odometer, r)))
        sizes.append(len(half.boundary))
        y_sizes.append(len(half.members))
    assert sizes[0] == sizes[1] == sizes[2]
    assert y_sizes[0] < y_sizes[1] < y_sizes[2]

    # one-ended orbit: Y degenerates to the base end, the complement grows
    sizes, co_sizes = [], []
    for r in (8, 12, 16):
        half = half_space(fit_line_chart(build_ball(grigorchuk, r)))
        sizes.append(len(half.boundary))
        co_sizes.append(half.graph.n - len(half.members))
    assert sizes[0] == sizes[1] == sizes[2]
    assert co_sizes[0] < co_sizes[1] < co_sizes[2]


def test_translate_difference_in_boundary_neighborhood(odometer, grigorchuk,
                                                       thickline):
    # gY \ Y within radius - len(g) - 1 lies within len(g) of the boundary,
    # for every piece word g: the certificates rely on it without a test
    for action in (odometer, grigorchuk, thickline):
        ball = build_ball(action, 40)
        half = half_space(fit_line_chart(ball))
        words = {word for elem in random_elements(action, random.Random(40), 12)
                 for _prefix, word in elem.pieces if word}
        assert words
        for word in sorted(words):
            inverse = make_element(action, [("", action.inverse_word(word))])
            pre = transducer_map(inverse, ball)
            translate_minus_y = {v for v in ball.certified(len(word) + 1)
                                 if v not in half and pre[v] in half}
            assert translate_minus_y <= neighborhood_set(ball, half.boundary,
                                                         len(word))


# the largest radius of each action's oracle comparison, 64 by default:
# the grid's and Bellaterra's balls grow fast, and their wide fibers put
# many vertices on each level of the slab the cocycle reads
ORACLE_RADIUS = {"grid": 14, "bellaterra": 7, "dihedral": 40,
                 "dihedral_frag": 40}


@pytest.mark.parametrize("name, count", [
    ("odometer", 12), ("grigorchuk", 12), ("thickline", 8), ("grid", 10),
    ("bellaterra", 10), ("dihedral", 10), ("dihedral_frag", 10)])
def test_cocycle_value_matches_the_two_window_oracle(request, name, count):
    # one slab pass and its stabilization test against the comparison of
    # two windows, NotStabilized messages included; count elements give
    # each action a value that changes between the windows
    action = request.getfixturevalue(name)
    top = ORACLE_RADIUS.get(name, 64)
    ball = build_ball(action, top)
    elems = random_elements(action, random.Random(top), count, max_depth=3,
                            max_word=4)
    outcomes = set()
    for radius in range(2, top + 1):
        half = half_space(fit_line_chart(ball.cut(radius)))
        for elem in elems:
            try:
                expect = cocycle_by_two_windows(elem, half)
            except NotStabilized as exc:
                with pytest.raises(NotStabilized) as got:
                    cocycle_value(elem, half)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split()[0])
                continue
            value = cocycle_value(elem, half)
            assert (value.vertices, value.window) == expect
            outcomes.add("stable")
    assert outcomes >= {"stable", "radius", "value"}


def test_cocycle_value_reads_only_the_slab_around_the_seam(
        monkeypatch, walker_reads, odometer):
    # the cocycle walks u only on the 2d chart levels -d .. d - 1: on the
    # odometer it reads the same vertices at r = 128 and r = 1,024, 2d per
    # element, each walked once, and none of its walks reaches the rim, so
    # the transducers run for none
    applies = []
    apply = Transducer.apply

    def counted_apply(self, state, point):
        applies.append(point)
        return apply(self, state, point)

    elems = random_elements(odometer, random.Random(128), 12, max_depth=3,
                            max_word=4)
    reads = walker_reads(cocycle)
    seen = {}
    for radius in (128, 1024):
        half = half_space(fit_line_chart(build_ball(odometer, radius)))
        walks = full_group.walks
        monkeypatch.setattr(Transducer, "apply", counted_apply)
        values = [cocycle_value(elem, half).vertices for elem in elems]
        monkeypatch.setattr(Transducer, "apply", apply)
        counts = [len(vertices) for _elem, vertices in reads]
        assert applies == [] and full_group.walks - walks == sum(counts)
        assert counts == [2 * max(1, displacement_bound(elem)) for elem in elems]
        reads.clear()
        seen[radius] = [{half.graph.label_str(v) for v in value}
                        for value in values]
    assert seen[128] == seen[1024]


def test_push_set_finishes_walks_that_leave_the_ball(odometer):
    # push_set reads images only at its own vertices, walking each once,
    # and finishes a walk that steps off the ball by the transducers:
    # t t_inv steps off at the rim and comes back, t_inv alone stays off
    ball = build_ball(odometer, 10)
    rim = [v for v in range(ball.n) if ball.succ["t_inv"][v] < 0]
    assert len(rim) == 1
    back = make_element(odometer, [("", ("t", "t_inv"))])
    walks = full_group.walks
    assert push_set(back, ball, rim + [0]) == frozenset(rim + [0])
    with pytest.raises(NotStabilized) as got:
        push_set(make_element(odometer, [("", ("t_inv",))]), ball, rim)
    assert str(got.value) == f"phi pushes vertex {rim[0]} outside the ball"
    assert full_group.walks - walks == 3
