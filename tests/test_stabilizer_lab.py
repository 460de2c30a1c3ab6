import itertools
import json

import pytest

from fullgroup_lab import (
    action_from_json,
    action_to_json,
    build_ball,
    compose,
    finite_embedding_order,
    fit_line_chart,
    half_space,
    identity_element,
    make_element,
    nested_family,
    pattern_match_points,
    repetition_radius,
    transport_anchor,
    transport_halfspace,
)
from fullgroup_lab.errors import (FamilyFailure, OrderCap, PreconditionNphi,
                                  TransportFailure, WindowTooSmall)
from fullgroup_lab.schreier import Graph
from fullgroup_lab.stabilizer_lab import mulclose
from oracles import permutation_closure_order, point_to_int


@pytest.fixture(scope="module")
def lab(odo_ball_200, odo_chart_200, odo_half_200):
    return {"ball": odo_ball_200, "chart": odo_chart_200, "half": odo_half_200}


def repetition(F, n: int, half, anchor) -> tuple:
    """The (matches, r) that nested_family takes, at the anchor's p."""
    matches = pattern_match_points(F, half.graph, n, anchor=anchor[0])
    return matches, repetition_radius(matches, n, half.graph)


def family_of(F, n: int, half):
    anchor = transport_anchor(F, n, half)
    return nested_family(F, n, half, anchor, repetition(F, n, half, anchor))


def test_identity_family_slabs(odometer, lab):
    F = [identity_element(odometer)]
    family = family_of(F, 8, lab["half"])
    assert len(family.anchor_indices) >= 3
    assert all(family.checks.values())
    # slabs: consecutive half-line differences along the geodesic
    for i in family.block_indices:
        values = sorted(point_to_int(lab["ball"].point(v))
                        for v in family.blocks[i])
        assert values == list(range(values[0], values[0] + len(values)))


def test_pair_swap_family(odometer, lab, pair_swap):
    F = [pair_swap]
    family = family_of(F, 10, lab["half"])
    assert len(family.anchor_indices) >= 3
    assert family.spacing == 2 * family.r + 2 * 10 + 2 * 1 + 2
    assert all(family.checks.values())
    ball = lab["ball"]
    for i in family.block_indices:
        assert len(family.blocks[i]) <= family.U
        # oracle: each block is a union of adjacent swap pairs {2k, 2k+1}
        values = sorted(point_to_int(ball.point(v)) for v in family.blocks[i])
        assert len(values) % 2 == 0
        for j in range(0, len(values), 2):
            assert values[j] % 2 == 0 and values[j + 1] == values[j] + 1
    # nesting read off the Y_i, rebuilt at the anchors' matches by
    # membership at every vertex
    anchor = transport_anchor(F, 10, lab["half"])
    sets = {i: lab["half"].members if i == 0 else frozenset(
        v for v in range(ball.n) if v in transport_halfspace(
            F, family.matches[i], 10, lab["half"], anchor).slab)
        for i in family.anchor_indices}
    window = ball.certified(1)
    for i in family.anchor_indices[:-1]:
        assert (sets[i + 1] & window) <= (sets[i] & window)
    # disjoint_n_balls holds by construction: the matches' n-balls are
    # disjoint, read off full rows
    for i in family.anchor_indices:
        row = ball.distances_from([family.matches[i]])
        assert all(row[family.matches[j]] > 2 * 10
                   for j in family.anchor_indices if j != i)


def three_cycles(action) -> list:
    """Nine non-involutive 3-cycles a -> b -> c -> a on every aligned block
    of 8 integers, by the words t^(b - a), t^(c - b) and t^(a - c); the
    inverse of each is the reverse cycle, which is not in the list."""
    def power(k):
        return ("t",) * k if k > 0 else ("t_inv",) * -k

    out = []
    for a, b, c in list(itertools.combinations(range(8), 3))[:9]:
        step = {a: b - a, b: c - b, c: a - c}
        out.append(make_element(action, [(format(k, "03b")[::-1],
                                          power(step.get(k, 0)))
                                         for k in range(8)]))
    return out


def test_a_large_family_is_walked_once_per_element(odometer, lab):
    # each element of F and each inverse the invariance tests ask for is
    # walked on the ball once, however many transports and blocks read it
    F = three_cycles(odometer)
    walks = Graph.map_walks
    family = family_of(F, 30, lab["half"])
    assert Graph.map_walks - walks == 2 * len(F) == 18
    assert len(family.anchor_indices) >= 3
    assert all(family.checks.values())


def test_window_too_small(odometer, pair_swap):
    ball = build_ball(odometer, 20)
    chart = fit_line_chart(ball)
    half = half_space(chart)
    with pytest.raises(WindowTooSmall):
        family_of([pair_swap], 10, half)  # spacing 26 > window 20


def test_nphi_guard(odometer, lab, pair_swap):
    with pytest.raises(PreconditionNphi):
        transport_anchor([pair_swap], 9, lab["half"])


def test_family_requires_kernel(odometer, lab):
    # the anchor a family is built from exists only for a family fixing Y
    shift = make_element(odometer, [("", ("t",))])
    with pytest.raises(TransportFailure, match="must stabilize Y"):
        transport_anchor([shift], 10, lab["half"])


def test_orders_identity(odometer, lab):
    F = [identity_element(odometer)]
    family = family_of(F, 8, lab["half"])
    report = finite_embedding_order(F, family)
    assert report.order_blocks == report.order_brute == 1
    assert report.agree


def test_orders_pair_swap(odometer, lab, pair_swap):
    F = [pair_swap]
    family = family_of(F, 10, lab["half"])
    report = finite_embedding_order(F, family)
    assert report.order_blocks == report.order_brute == 2
    assert report.agree


def test_orders_depth2_family(odometer, lab, pair_swap, quad_swap):
    F = [pair_swap, quad_swap]
    family = family_of(F, 12, lab["half"])
    report = finite_embedding_order(F, family)
    assert report.agree
    assert report.order_blocks == report.order_brute == 8
    # oracle: the group acts the same on every 4-block of integers,
    # generated by (0 1)(2 3) and (0 2) inside Sym(4)
    s = (1, 0, 3, 2)
    q = (2, 1, 0, 3)
    assert permutation_closure_order([s, q]) == 8


def test_order_cap(odometer, lab, pair_swap, quad_swap):
    F = [pair_swap, quad_swap]
    family = family_of(F, 12, lab["half"])
    with pytest.raises(OrderCap):
        finite_embedding_order(F, family, cap=3)


def test_mulclose_matches_oracle():
    class P(tuple):
        def __mul__(self, other):
            return P(self[i] for i in other)

    gens = [P((1, 0, 3, 2)), P((2, 1, 0, 3))]
    assert len(mulclose(gens)) == permutation_closure_order(gens)


def test_blocks_product_embedding_injective_on_window(odometer, lab, pair_swap,
                                                      quad_swap):
    # distinct products of generators induce distinct block tuples
    from fullgroup_lab import apply_element

    F = [pair_swap, quad_swap]
    family = family_of(F, 12, lab["half"])
    ball = lab["ball"]
    products = [pair_swap, quad_swap, compose(pair_swap, quad_swap),
                compose(quad_swap, pair_swap)]
    signatures = set()
    for elem in products:
        signature = []
        for i in family.block_indices:
            for v in sorted(family.blocks[i]):
                signature.append(ball.vertex_of(
                    apply_element(elem, ball.point(v))))
        signatures.add(tuple(signature))
    assert len(signatures) == len(products)


def test_nested_family_takes_at_most_one_full_row(monkeypatch, odometer,
                                                  pair_swap):
    # the repetition radius's row is the caller's; every anchor's work is a
    # bounded search
    half = half_space(fit_line_chart(build_ball(odometer, 400)))
    F = [pair_swap]
    anchor = transport_anchor(F, 10, half)
    found = repetition(F, 10, half, anchor)
    rows = []
    full_row = Graph.distances_from

    def counted(self, sources):
        rows.append(sources)
        return full_row(self, sources)

    monkeypatch.setattr(Graph, "distances_from", counted)
    family = nested_family(F, 10, half, anchor, found)
    assert all(family.checks.values()) and len(family.anchor_indices) > 10
    assert rows == []


def test_anchor_rim_test_keeps_the_match_window_inside_the_ball(odometer):
    # the thick line seen from a basepoint whose pattern repeats farther
    # out than from (0): an anchor y counts only when B_{n+1}(y) lies in
    # the ball (certified(n + 1)); a rim test at n would admit anchors at
    # the rim, giving 5 anchors and blocks -1 and 0 at n = 30, and 3
    # anchors at n = 24
    data = action_to_json(odometer)
    copy = {"0": "0", "1": "1"}
    data["transducers"]["t2"] = {"transitions": {"0": "t", "1": "t"},
                                 "outputs": dict(copy)}
    data["transducers"]["t2_inv"] = {"transitions": {"0": "t_inv", "1": "t_inv"},
                                     "outputs": dict(copy)}
    data["generators"].update({"t2": "t2", "t2_inv": "t2_inv"})
    data["basepoint"] = {"preperiod": "0110100000110111", "period": "0"}
    data["name"] = "thickline"
    action = action_from_json(data)
    F = [make_element(action, [("0", ("t",)), ("1", ("t_inv",))])]
    half = half_space(fit_line_chart(build_ball(action, 170)))
    family = family_of(F, 30, half)
    assert family.anchor_indices == (-1, 0, 1) and family.block_indices == ()
    half = half_space(fit_line_chart(build_ball(action, 82)))
    with pytest.raises(WindowTooSmall, match="admits only 1 anchors"):
        family_of(F, 24, half)


def test_nested_family_work_per_anchor_does_not_grow_with_the_window(
        monkeypatch, tmp_path):
    # Graph.neighbors calls inside nested_family on verify odometer: each
    # anchor adds the same count at r = 200, 400 and 800, so the work per
    # anchor does not depend on r (two whole-window reaches per anchor
    # would add about 4r calls each)
    from fullgroup_lab import cli, verify

    calls = {"on": False, "count": 0}
    neighbors = Graph.neighbors
    family = verify.nested_family

    def counted_neighbors(self, v):
        calls["count"] += calls["on"]
        return neighbors(self, v)

    def counted_family(*args, **kwargs):
        calls["on"] = True
        try:
            return family(*args, **kwargs)
        finally:
            calls["on"] = False

    monkeypatch.setattr(Graph, "neighbors", counted_neighbors)
    monkeypatch.setattr(verify, "nested_family", counted_family)
    work = []
    for radius in (200, 400, 800):
        out = tmp_path / f"r{radius}.json"
        calls["count"] = 0
        assert cli.main(["verify", "odometer", "--radius", str(radius),
                         "--n", "10", "--out", str(out)]) == 0
        nesting, = [c for c in json.loads(out.read_text())["checks"]
                    if c["id"] == "nesting"]
        assert nesting["status"] == "pass"
        work.append((nesting["witnesses"]["anchors"], calls["count"]))
    (a1, c1), (a2, c2), (a3, c3) = work
    assert a1 < a2 < a3
    per_anchor = (c2 - c1) / (a2 - a1)
    assert (c3 - c2) / (a3 - a2) == per_anchor
    assert c3 <= per_anchor * a3


def test_block_outside_its_bound_set_fails_the_family(monkeypatch, odometer,
                                                      lab, pair_swap):
    # no committed input puts a block outside the m-neighbourhood of its
    # anchor segment [y_{i-1}, y_{i+2}] (nested_family's docstring), so a
    # bound set cut down to the segment's first half stands in for one:
    # the pair swap's block i runs from about y_i to y_{i+1}, and
    # block_bound must see it leave
    from fullgroup_lab import stabilizer_lab

    F = [pair_swap]
    anchor = transport_anchor(F, 10, lab["half"])
    found = repetition(F, 10, lab["half"], anchor)
    assert nested_family(F, 10, lab["half"], anchor, found).checks[
        "block_bound"]
    monkeypatch.setattr(stabilizer_lab, "neighborhood_set",
                        lambda graph, segment, m:
                        frozenset(segment[:len(segment) // 2]))
    with pytest.raises(FamilyFailure) as failure:
        nested_family(F, 10, lab["half"], anchor, found)
    assert failure.value.report["checks"] == {
        "block_bound": False, "block_invariance": True,
        "disjoint_n_balls": True, "nesting": True}
