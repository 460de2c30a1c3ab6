"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; the stated wall-clock budgets are
asserted as upper bounds.
"""

import functools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from fullgroup_lab import (
    apply_word,
    build_ball,
    build_level_graph,
    builtin_action,
    cocycle_value,
    compose,
    escape_probability,
    fiber_diameter_check,
    finite_embedding_order,
    fit_line_chart,
    half_space,
    identity_element,
    invert,
    m_covering_check,
    make_element,
    n_phi,
    nested_family,
    pattern_match_points,
    r_constant,
    random_points,
    regular_tree_ball,
    repetition_radius,
    stabilizer_test,
    transport_anchor,
    transport_halfspace,
)
from fullgroup_lab.cocycle import push_set
from oracles import is_simple_path, path_escape, random_elements, tree3_escape


def criterion(number, title, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {number} PASS: {title} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
        return run
    return wrap


@criterion(1, "Grigorchuk relations on 1000 random points", 1.0)
def test_criterion_1_builtin_relations():
    action = builtin_action("grigorchuk")
    rng = random.Random(20260810)
    pts = random_points(rng, 1000)
    for word in (["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"], ["b", "c", "d"]):
        for x in pts:
            assert apply_word(action, word, x) == x


@criterion(2, "level graphs and the odometer ball are simple paths", 10.0)
def test_criterion_2_line_shape():
    for name in ("grigorchuk", "dihedral"):
        action = builtin_action(name)
        for n in range(1, 12):
            lg = build_level_graph(action, n)
            assert lg.n == 2 ** n
            assert is_simple_path(lg)
    ball = build_ball(builtin_action("odometer"), 200)
    assert ball.n == 401
    assert is_simple_path(ball)


@criterion(3, "quasi-isometry certificates", 30.0)
def test_criterion_3_qi_certificates():
    ball = build_ball(builtin_action("odometer"), 200)
    chart = fit_line_chart(ball)
    # alpha = 1 and gamma = 0: f is 1-Lipschitz and onto an interval
    assert all(abs(chart.f[u] - chart.f[v]) <= 1 for u, _g, v in ball.edges)
    assert sorted(set(chart.f)) == list(range(min(chart.f), max(chart.f) + 1))
    assert (chart.beta, chart.m) == (0, 1)

    lg = build_level_graph(builtin_action("grigorchuk"), 10)
    chart10 = fit_line_chart(lg)
    fiber = fiber_diameter_check(chart10)
    assert fiber.passed
    assert fiber.max_fiber_diameter <= chart10.beta
    assert m_covering_check(chart10.geodesic, chart10.m).passed


@criterion(4, "cocycle identity and kernel closure over 100 random elements", 60.0)
def test_criterion_4_cocycle_suite():
    action = builtin_action("odometer")
    ball = build_ball(action, 64)
    half = half_space(fit_line_chart(ball))
    rng = random.Random(20260810)
    elems = random_elements(action, rng, 100)
    assert len(elems) == 100

    assert cocycle_value(identity_element(action), half).is_empty

    for a, b in zip(elems[::2], elems[1::2]):
        left = cocycle_value(compose(a, b), half).vertices
        right = cocycle_value(a, half).vertices ^ push_set(
            a, ball, cocycle_value(b, half).vertices)
        assert left == right

    swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
    quad = make_element(action, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                 ("10", ()), ("11", ())])
    kernel = [swap, quad] + [e for e in elems if stabilizer_test(e, half)]
    for a in kernel[:8]:
        assert stabilizer_test(invert(a), half)
        for b in kernel[:8]:
            assert stabilizer_test(compose(a, b), half)


@criterion(5, "boundary level bound and the transport constant formula", 5.0)
def test_criterion_5_paper_constants():
    for name in ("odometer", "grigorchuk", "dihedral"):
        ball = build_ball(builtin_action(name), 32)
        chart = fit_line_chart(ball)
        half = half_space(chart)
        for v in half.boundary:
            assert 0 <= chart.f[v] <= chart.beta

    # recompute N_phi from independently reported fields
    action = builtin_action("odometer")
    ball = build_ball(action, 32)
    chart = fit_line_chart(ball)
    half = half_space(chart)
    swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
    R = r_constant(half)
    d_phi = max(len(w) for _p, w in swap.pieces)
    reported = n_phi(chart.m, R, d_phi)
    assert reported == 6 * chart.m + R + 2 * d_phi
    assert (chart.m, R, d_phi, reported) == (1, 1, 1, 9)


@criterion(6, "transport conclusions and nested family certification", 60.0)
def test_criterion_6_transport_and_nesting():
    action = builtin_action("odometer")
    ball = build_ball(action, 200)
    chart = fit_line_chart(ball)
    half = half_space(chart)
    swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
    F = [swap]

    # constants from the derived oracle: m=1, R=1, d_phi=1 so N_phi=9 < 10
    R = r_constant(half)
    anchor = transport_anchor(F, 10, half)
    assert anchor == (ball.base, R)
    assert (chart.m, R, n_phi(chart.m, R, 1)) == (1, 1, 9)

    p = ball.base
    matches = [z for z in pattern_match_points(F, ball, 10, anchor=p) if z != p]
    row = ball.distance_row(p)
    chosen = sorted(matches, key=lambda z: (row[z], z))[:5]
    assert len(chosen) == 5
    strip_checks = 0
    for z in chosen:
        result = transport_halfspace(F, z, 10, half, anchor)
        assert result.checks["boundary_in_R_ball"]
        assert result.checks["one_end_each"]
        assert result.checks["invariance"]
        assert result.checks["cover"] and result.checks["disjoint"]
        strip_checks += 1
    assert strip_checks == 5

    found = pattern_match_points(F, ball, 10, anchor=anchor[0])
    family = nested_family(F, 10, half, anchor,
                           (found, repetition_radius(found, 10, ball)))
    assert len(family.anchor_indices) >= 3
    # the family keeps no Y_i; rebuild them at the anchors' matches, by
    # membership at every vertex
    window = ball.certified(1)
    sets = {i: half.members if i == 0 else frozenset(
            v for v in range(ball.n) if v in transport_halfspace(
                F, family.matches[i], 10, half, anchor).slab)
            for i in family.anchor_indices}
    for i in family.anchor_indices[:-1]:
        assert (sets[i + 1] & window) <= (sets[i] & window)
    assert family.block_indices
    for i in family.block_indices:
        assert len(family.blocks[i]) <= family.U


@criterion(7, "finite embedding order agreement", 60.0)
def test_criterion_7_finite_order():
    action = builtin_action("odometer")
    ball = build_ball(action, 200)
    half = half_space(fit_line_chart(ball))
    swap = make_element(action, [("0", ("t",)), ("1", ("t_inv",))])
    quad = make_element(action, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                 ("10", ()), ("11", ())])
    expected = {
        (identity_element(action),): (8, 1),
        (swap,): (10, 2),
        (swap, quad): (12, 8),
    }
    for F, (n, order) in expected.items():
        anchor = transport_anchor(list(F), n, half)
        found = pattern_match_points(list(F), ball, n, anchor=anchor[0])
        family = nested_family(list(F), n, half, anchor,
                               (found, repetition_radius(found, n, ball)))
        report = finite_embedding_order(list(F), family)
        assert report.agree
        assert report.order_blocks == report.order_brute == order
        assert report.order_brute <= 10 ** 6


@criterion(8, "exact escape probabilities: line vs tree control", 10.0)
def test_criterion_8_recurrence_probe():
    ball = build_ball(builtin_action("odometer"), 32)
    for r in range(1, 33):
        assert escape_probability(ball, r) == path_escape(r)
    tree = regular_tree_ball(3, 10)
    for r in range(1, 11):
        p = escape_probability(tree, r)
        assert p == tree3_escape(r)
        assert p >= Fraction(1, 4)


@criterion(9, "verify odometer --radius 200 --n 10 is deterministic", 120.0)
def test_criterion_9_determinism(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fullgroup_lab", "verify", "odometer",
             "--radius", "200", "--n", "10", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    statuses = {e["id"]: e["status"] for e in report["checks"]}
    assert len(statuses) == 15
    assert all(s == "pass" for s in statuses.values())
