import random
from fractions import Fraction

import pytest

from fullgroup_lab import (
    build_ball,
    builtin_action,
    escape_probability,
    escape_series,
    regular_tree_ball,
    simulate_escape,
)
from fullgroup_lab.errors import InvalidRadius
from oracles import escape_by_dense_solve, path_escape, tree3_escape


def test_immediate_absorption(odometer):
    ball = build_ball(odometer, 4)
    assert escape_probability(ball, 1) == 1


def test_line_escape_examples(odometer):
    ball = build_ball(odometer, 8)
    assert escape_probability(ball, 4) == Fraction(1, 4)
    for r in range(1, 9):
        assert escape_probability(ball, r) == path_escape(r)


def test_tree_control_transient():
    tree = regular_tree_ball(3, 10)
    for r in range(1, 11):
        p = escape_probability(tree, r)
        assert p == tree3_escape(r)
        assert p >= Fraction(1, 4)


def test_invalid_radius(odometer):
    ball = build_ball(odometer, 4)
    with pytest.raises(InvalidRadius):
        escape_probability(ball, 0)
    with pytest.raises(InvalidRadius):
        escape_probability(ball, 9)


def test_series_monotone_on_builtins():
    for name in ("odometer", "grigorchuk", "dihedral"):
        ball = build_ball(builtin_action(name), 16)
        series = escape_series(ball, (2, 4, 8, 16))
        assert series.is_nonincreasing()
        assert series.probabilities[-1] < series.probabilities[0]


def test_tree_series_stays_large():
    tree = regular_tree_ball(3, 8)
    series = escape_series(tree, range(1, 9))
    assert all(p >= Fraction(1, 4) for p in series.probabilities)
    assert series.probabilities == tuple(
        escape_by_dense_solve(tree, r) for r in range(1, 9))


def test_simulation_agrees_with_exact(odometer):
    ball = build_ball(odometer, 8)
    exact = escape_probability(ball, 4)
    sim = simulate_escape(ball, 4, 4000, random.Random(17))
    assert abs(sim["estimate"] - float(exact)) < 5 * sim["stderr"] + 1e-9


def test_multiplicity_weighting():
    # doubled edges on the odometer (t and t_inv) leave the harmonic
    # solution of the path unchanged
    ball = build_ball(builtin_action("odometer"), 6)
    assert escape_probability(ball, 6) == Fraction(1, 6)


@pytest.mark.parametrize("name, radius", [
    ("odometer", 24), ("grigorchuk", 24), ("dihedral", 24), ("thickline", 24),
    ("grid", 8), ("bellaterra", 7)])
def test_series_equals_the_dense_harmonic_solve(name, radius, request):
    ball = build_ball(request.getfixturevalue(name), radius)
    radii = range(1, radius + 1)
    assert escape_series(ball, radii).probabilities == tuple(
        escape_by_dense_solve(ball, r) for r in radii)
