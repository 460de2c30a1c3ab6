import hashlib
import json

import pytest

from fullgroup_lab import (
    ActionSystem,
    GeneratorSpec,
    Graph,
    apply_word,
    build_ball,
    build_level_graph,
    builtin_action,
    graph_to_dot,
    graph_to_json,
    neighborhood_set,
    path_graph,
    regular_tree_ball,
    star_graph,
)
from fullgroup_lab.errors import (BallTooLarge, FullGroupLabError, InvalidAction,
                                 InvalidRadius)
from fullgroup_lab.cantor_actions import Transducer, cells
from oracles import (WREATH, ball_by_two_passes, bfs_distances, graph_of_edges,
                     int_to_point, is_simple_path, level_graph_by_words,
                     point_to_int, wreath_apply_word_letters)


def test_odometer_ball_radius3_is_integer_path(odometer):
    ball = build_ball(odometer, 3)
    # oracle: independent integer bookkeeping of the 2-adic odometer
    values = sorted(point_to_int(ball.point(v)) for v in range(ball.n))
    assert values == list(range(-3, 4))
    assert is_simple_path(ball)
    for v in range(ball.n):
        assert ball.dist[v] == abs(point_to_int(ball.point(v)))
    assert ball.dist[ball.base] == 0


def test_radius_zero_ball(odometer):
    ball = build_ball(odometer, 0)
    assert ball.n == 1
    assert all(u == v for u, _g, v in ball.edges)


def test_grigorchuk_ball_matches_word_closure(grigorchuk):
    ball = build_ball(grigorchuk, 2)
    # oracle: breadth-first closure under the four generators via apply_word
    seen = {grigorchuk.basepoint: 0}
    frontier = [grigorchuk.basepoint]
    for depth in (1, 2):
        new = []
        for x in frontier:
            for g in grigorchuk.gen_names:
                y = apply_word(grigorchuk, [g], x)
                if y not in seen:
                    seen[y] = depth
                    new.append(y)
        frontier = new
    assert {ball.point(v) for v in range(ball.n)} == set(seen)
    for v in range(ball.n):
        assert ball.dist[v] == seen[ball.point(v)]


def test_ball_cap(odometer):
    with pytest.raises(BallTooLarge):
        build_ball(odometer, 10, cap=5)
    with pytest.raises(BallTooLarge):
        build_level_graph(odometer, 12, cap=100)
    # the base counts toward the cap: no ball is returned over its cap
    assert build_ball(odometer, 0, cap=1).n == 1
    assert build_ball(odometer, 1, cap=3).n == 3
    for radius in (0, 1):
        with pytest.raises(BallTooLarge):
            build_ball(odometer, radius, cap=0)
    with pytest.raises(BallTooLarge):
        build_ball(odometer, 1, cap=2)


def test_grigorchuk_level2_exact_shape(grigorchuk):
    lg = build_level_graph(grigorchuk, 2)
    by_label = {lg.labels[v]: v for v in range(lg.n)}
    simple = {(min(u, v), max(u, v), g) for u, g, v in lg.edges if u != v}
    a, b, c = by_label, None, None
    assert (min(a["00"], a["10"]), max(a["00"], a["10"]), "a") in simple
    assert (min(a["01"], a["11"]), max(a["01"], a["11"]), "a") in simple
    assert (min(a["00"], a["01"]), max(a["00"], a["01"]), "b") in simple
    assert (min(a["00"], a["01"]), max(a["00"], a["01"]), "c") in simple
    assert len(simple) == 4
    assert is_simple_path(lg)
    # d only loops at level 2
    assert all(u == v for u, g, v in lg.edges if g == "d")


def test_level_graphs_match_wreath_oracle(grigorchuk, dihedral):
    for action, name in ((grigorchuk, "grigorchuk"), (dihedral, "dihedral")):
        table = WREATH[name]
        for n in (1, 2, 3, 4):
            lg = build_level_graph(action, n)
            for u, g, v in lg.edges:
                assert wreath_apply_word_letters(table, [g], lg.labels[u]) == lg.labels[v]


def test_dihedral_level3_is_path(dihedral):
    lg = build_level_graph(dihedral, 3)
    assert lg.n == 8
    assert is_simple_path(lg)


def test_odometer_level2_is_cycle(odometer):
    lg = build_level_graph(odometer, 2)
    assert lg.n == 4
    assert lg.degree_sequence() == [2, 2, 2, 2]
    # add-one mod 4: 00 -> 10 -> 01 -> 11 -> 00
    by_label = {lg.labels[v]: v for v in range(lg.n)}
    t_edges = {(lg.labels[u], lg.labels[v]) for u, g, v in lg.edges if g == "t"}
    assert t_edges == {("00", "10"), ("10", "01"), ("01", "11"), ("11", "00")}


def test_level_action_is_permutation(grigorchuk):
    # every generator has an inverse, so it permutes each level
    lg = build_level_graph(grigorchuk, 5)
    for g in grigorchuk.gen_names:
        images = {grigorchuk.level_apply_gen(g, w) for w in lg.labels}
        assert len(images) == lg.n


LEVEL_ACTIONS = ("odometer", "grigorchuk", "dihedral", "thickline", "grid",
                 "bellaterra", "dihedral_frag")


def _level_graph(action, n):
    lg = build_level_graph(action, n)
    return lg.labels, lg.edges, lg.base, lg.dist


def _level_graph_by_words(action, n):
    labels, edges, base = level_graph_by_words(action, n)
    dist = bfs_distances(len(labels), [(u, v) for u, _g, v in edges], base)
    return labels, sorted(edges), base, dist


def _level_outcome(build, action, n):
    try:
        return build(action, n)
    except FullGroupLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", LEVEL_ACTIONS)
def test_level_graph_matches_word_by_word_builder(request, name):
    action = request.getfixturevalue(name)
    for n in range(1, 11):
        assert _level_outcome(_level_graph, action, n) == \
            _level_outcome(_level_graph_by_words, action, n)


@pytest.mark.parametrize("name", LEVEL_ACTIONS)
def test_level_tables_match_apply_prefix(request, name):
    machine = request.getfixturevalue(name).transducer
    for n in range(1, 9):
        words = cells(n)
        ids = list(range(len(words)))
        tables = machine.level_tables(machine.states, ids)
        for s in machine.states:
            assert [words[i] for i in tables[s]] == \
                [machine.apply_prefix(s, w) for w in words]
            assert all(i is ids[i] for i in tables[s])


def test_level_graph_shares_one_int_per_vertex(grigorchuk, odometer):
    for action in (grigorchuk, odometer):
        lg = build_level_graph(action, 10)
        first = {}
        for row in lg.succ.values():
            for v in row:
                first.setdefault(v, v)
        assert len(first) == lg.n
        assert all(first[v] is v for row in lg.succ.values() for v in row)
        assert all(first[w] is w for v in range(lg.n) for w in lg.neighbors(v))
        assert first[lg.base] is lg.base


def test_level_graph_refusals(grigorchuk, dihedral_frag):
    # a piece table that is not a bijection has no inverse, so no action
    # has it: x moves the cylinder 0 onto 1 and fixes 1
    gens = dict(grigorchuk.generators,
                x=GeneratorSpec(pieces=(("0", "a"), ("1", "e"))))
    with pytest.raises(InvalidAction) as exc:
        ActionSystem("grig_x", grigorchuk.transducer, gens, grigorchuk.basepoint)
    assert str(exc.value) == "no inverse found for generator 'x'"
    # a piece deeper than the level: the first word no piece covers is named
    with pytest.raises(InvalidAction) as exc:
        build_level_graph(dihedral_frag, 1)
    assert str(exc.value) == "level word '0' shorter than piece prefixes"


def test_level_graph_runs_no_word(monkeypatch, grigorchuk):
    calls = []
    run = Transducer.run

    def counted(self, state, word):
        calls.append(word)
        return run(self, state, word)

    monkeypatch.setattr(Transducer, "run", counted)
    lg = build_level_graph(grigorchuk, 10)
    assert lg.n == 1024 and calls == []


def test_neighborhood_set_examples(odometer):
    g = path_graph(7)
    assert neighborhood_set(g, {3}, 0) == {3}
    assert neighborhood_set(g, {3}, 2) == {1, 2, 3, 4, 5}
    ball = build_ball(odometer, 5)
    zero = ball.vertex_of(int_to_point(0))
    got = neighborhood_set(ball, {zero}, 3)
    assert {point_to_int(ball.point(v)) for v in got} == set(range(-3, 4))


def test_neighborhood_matches_word_neighborhood(odometer):
    # the k-neighborhood equals the S^k-neighborhood away from the rim
    ball = build_ball(odometer, 8)
    W = {ball.vertex_of(int_to_point(0)), ball.vertex_of(int_to_point(2))}
    k = 3
    by_words = set()
    frontier = {ball.point(v) for v in W}
    by_words |= {ball.vertex_of(p) for p in frontier}
    for _ in range(k):
        frontier = {apply_word(odometer, [g], p)
                    for p in frontier for g in odometer.gen_names}
        by_words |= {ball.vertex_of(p) for p in frontier}
    assert neighborhood_set(ball, W, k) == by_words


def test_ball_monotone_growth():
    for name in ("odometer", "grigorchuk", "dihedral"):
        action = builtin_action(name)
        small = build_ball(action, 4)
        big = build_ball(action, 5)
        small_pts = {small.point(v): small.dist[v] for v in range(small.n)}
        big_pts = {big.point(v): big.dist[v] for v in range(big.n)}
        assert set(small_pts) <= set(big_pts)
        for pt, d in small_pts.items():
            assert big_pts[pt] == d


def test_cut_ball_equals_build_ball(thickline):
    actions = [builtin_action(name) for name in ("odometer", "grigorchuk", "dihedral")]
    for action in actions + [thickline]:
        big = build_ball(action, 40)
        for r in range(41):
            cut, built = big.cut(r), build_ball(action, r)
            assert (cut.labels, cut.edges, cut.dist, cut.radius) == \
                (built.labels, built.edges, built.dist, built.radius)
        for r in (-1, 41):
            with pytest.raises(InvalidRadius):
                big.cut(r)


@pytest.mark.parametrize("name", ["odometer", "grigorchuk", "thickline"])
def test_build_ball_applies_each_generator_once_per_vertex(request, monkeypatch,
                                                           name):
    # the search keeps its images for the edge list, which keeps its order
    action = request.getfixturevalue(name)
    calls = []
    apply = Transducer.apply

    def counted(self, state, point):
        calls.append(point)
        return apply(self, state, point)

    for radius in (0, 1, 7, 30):
        expected = ball_by_two_passes(action, radius)
        monkeypatch.setattr(Transducer, "apply", counted)
        calls.clear()
        ball = build_ball(action, radius)
        monkeypatch.undo()
        labels, edges, dist = expected
        assert (ball.labels, ball.edges, ball.dist) == \
            (labels, sorted(edges), dist)
        assert len(calls) == ball.n * len(action.gen_names)


def test_certified_is_a_bfs_prefix_equal_to_the_plain_filter(thickline):
    ball = build_ball(thickline, 30)
    graphs = [ball, ball.cut(12), build_level_graph(builtin_action("grigorchuk"), 5),
              regular_tree_ball(3, 4)]
    for graph in graphs:
        for margin in (-1, 0, 1, 2, 3, 7, 12, 40, 2, 1):
            if graph.radius is None:
                plain = frozenset(range(graph.n))
            else:
                plain = frozenset(v for v in range(graph.n)
                                  if graph.dist[v] <= graph.radius - margin)
            assert frozenset(graph.certified(margin)) == plain
            assert graph.certified(margin) == range(len(plain))


def test_a_rim_needs_the_vertices_in_bfs_order():
    # the certified vertices are a prefix only if dist is non-decreasing
    edges = [(0, "s", 1), (1, "s", 2)]
    with pytest.raises(ValueError):
        graph_of_edges(["a", "b", "c"], edges, base=2, radius=2)
    with pytest.raises(ValueError):
        Graph(["a", "b"], {"s": [1, 0]}, base=1, radius=1, dist=[1, 0])
    # without a rim any order will do, and in BFS order a rim is taken
    assert graph_of_edges(["a", "b", "c"], edges, base=2).dist == [2, 1, 0]
    assert graph_of_edges(["a", "b", "c"], edges, radius=2).certified(1) == \
        range(2)


def _adjacency(n: int, edges) -> list:
    """Each vertex's sorted neighbours in the triple list, read both ways."""
    adj = [set() for _ in range(n)]
    for u, _g, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [tuple(sorted(s)) for s in adj]


def _assert_symmetric_with(graph, edges):
    adj = [graph.neighbors(v) for v in range(graph.n)]
    assert adj == _adjacency(graph.n, edges)
    assert all(u in adj[w] for u in range(graph.n) for w in adj[u])


@pytest.mark.parametrize("name", LEVEL_ACTIONS)
def test_neighbors_match_the_oracles_triple_lists(request, name):
    # the rows are closed under inverses, so each vertex's images are all
    # of its neighbours, on balls, their cuts and level graphs
    action = request.getfixturevalue(name)
    ball = build_ball(action, 8)
    _assert_symmetric_with(ball, ball_by_two_passes(action, 8)[1])
    for r in (0, 1, 5):
        _assert_symmetric_with(ball.cut(r), ball_by_two_passes(action, r)[1])
    for n in (1, 4, 7):
        try:
            edges = level_graph_by_words(action, n)[1]
        except FullGroupLabError:
            continue
        _assert_symmetric_with(build_level_graph(action, n), edges)


def test_fixtures_neighbors_are_symmetric():
    fixtures = [path_graph(1), path_graph(7), star_graph(5),
                regular_tree_ball(3, 3), regular_tree_ball(4, 2),
                graph_of_edges([f"v{i}" for i in range(5)],
                               [(0, "s", 1), (1, "s", 2), (2, "s", 0),
                                (3, "s", 3), (0, "s", 1)])]
    for graph in fixtures:
        _assert_symmetric_with(graph, graph.edges)
    assert [path_graph(7).neighbors(v) for v in (0, 3, 6)] == \
        [(1,), (2, 4), (5,)]
    assert star_graph(5).neighbors(0) == (1, 2, 3, 4, 5)
    assert regular_tree_ball(3, 3).degree_sequence() == [1] * 12 + [3] * 10


# SHA-256 of graph_to_json (keys sorted) and of graph_to_dot with and
# without loops, recorded when the graphs still kept their edge lists
EXPORT_PINS = {
    ("odometer", "ball", 0): (
        "74c6fc7efd54d7e1a3a947ae9e2f2b9964ac0708faeb876023f89f36d35aa93b",
        "7fc2ec63cb21b21d96b9ea550cb1c9e1b2000cc4954f65fa4550dd7993e49481",
        "7fc2ec63cb21b21d96b9ea550cb1c9e1b2000cc4954f65fa4550dd7993e49481"),
    ("odometer", "ball", 6): (
        "663cc9669c5a9b4140a0b1ed9e55c6fe60d50871a2400b27880618bb9e898696",
        "c09e7bd330c5a4da3c245296301a229f9b8692fbb50068f3b0efcdff95a891a6",
        "c09e7bd330c5a4da3c245296301a229f9b8692fbb50068f3b0efcdff95a891a6"),
    ("grigorchuk", "ball", 5): (
        "bf969c0bc4029bc241b14ea6537387ee1b36a6d32db24a7e9726ca1e5ebfb311",
        "3f14fc3301d9d31c4bb49a1285f6936044673f20583a34dc7ded117b33f12678",
        "223a651129130ccad9e3be9225be6b97fd7dc606394afc45f1dce7f014d4a2f6"),
    ("thickline", "ball", 7): (
        "d4fd92d658005e097abae9ae847458fb08f3670b32c8a5e45ab6ff34b6986caf",
        "42c3f211b02809302a1e6010cdd4b128f233de64465e8a704c8f0f3b3b5a87c4",
        "42c3f211b02809302a1e6010cdd4b128f233de64465e8a704c8f0f3b3b5a87c4"),
    ("grid", "ball", 4): (
        "0e3761f53b474d2ab0b17ebd7fe00e0997c386f13ef20977b21aac49bdc9d6e4",
        "10f202d5d6a8a6aa0fb158b1451195ec4e7258eb415d18458ad095d650179c6f",
        "10f202d5d6a8a6aa0fb158b1451195ec4e7258eb415d18458ad095d650179c6f"),
    ("bellaterra", "ball", 3): (
        "95d7b694f4d7489e2abc379ca3daa591e2e824d5d4217b46685a365ce3438308",
        "ca1c20eeebc51b50b6ec207f765b404f15fb6db98672570019f9dc4723d2384f",
        "d871ec83f80112e085cda23db2b35dbc07a3cae681937208b5b97da43dfb1ccd"),
    ("odometer", "level", 3): (
        "9778bb91126c5a8df69fd5563d5e751f5e69a70c4dcd1de06a56e9ac5733d68f",
        "fa72fcf2717ede99f71285a8480262845fe531ea551fe1889da814fa2c7d3bb4",
        "fa72fcf2717ede99f71285a8480262845fe531ea551fe1889da814fa2c7d3bb4"),
    ("grigorchuk", "level", 4): (
        "cf650bc947b435d28e42fa35eb9a361797d4a0c70b44be7cc07a08d5c59556d2",
        "cc601bf8145a7ca4ef66eb25fa050ac4441bee5c893b0375f09b70552018ba45",
        "129d865223165b18435c4f03fbbfa10248fa34c000a38304db585705de8980c9"),
    ("dihedral", "level", 5): (
        "a7a4ca4619414de0918a15ebdb8a004ddfbbbc5eaa56d917e07703a1aa49eb89",
        "b80150bd2d31a4e2d42190dec8d79376621bf4d339e0b838f795220da0988d02",
        "c26b544694ddca77ecff55c9c5724c18abbf79e157f7adeac863982723eddf54"),
}


@pytest.mark.parametrize("key", sorted(EXPORT_PINS),
                         ids=lambda key: "-".join(map(str, key)))
def test_exports_keep_their_bytes(request, key):
    name, kind, size = key
    build = build_ball if kind == "ball" else build_level_graph
    graph = build(request.getfixturevalue(name), size)
    texts = (json.dumps(graph_to_json(graph), sort_keys=True),
             graph_to_dot(graph), graph_to_dot(graph, include_loops=False))
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in texts) == EXPORT_PINS[key]


def test_exports(odometer):
    ball = build_ball(odometer, 2)
    data = graph_to_json(ball)
    assert data["vertices"][0] == "(0)"
    assert data["dist"] == ball.dist
    dot = graph_to_dot(ball, include_loops=False)
    assert "label=\"t\"" in dot and "--" in dot
    tree = regular_tree_ball(3, 3)
    assert tree.n == 1 + 3 + 6 + 12
    assert tree.degree_sequence()[-1] == 3


def test_bfs_parent_is_the_closer_neighbour_dequeued_first(grid):
    ball = build_ball(grid, 12)
    parent, dist = ball.bfs_parents(ball.base)
    assert dist == ball.dist
    # the search dequeues a level in the order of (its parent's place in
    # the level above, its own place in that parent's neighbour list), so
    # these keys compare as the dequeue order within a level
    order = sorted(range(ball.n), key=dist.__getitem__)
    key = {ball.base: ()}
    for w in order[1:]:
        key[w] = key[parent[w]] + (ball.neighbors(parent[w]).index(w),)
    smaller_index = 0
    for w in order[1:]:
        closer = [u for u in ball.neighbors(w) if dist[u] == dist[w] - 1]
        assert parent[w] == min(closer, key=key.__getitem__)
        smaller_index += min(closer) < parent[w]
    # so the rule is not "smallest-index parent wins"
    assert smaller_index > 0
