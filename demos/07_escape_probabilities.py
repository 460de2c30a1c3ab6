"""Exact escape probabilities: line-like balls against a tree control.

On a line the chance of walking to distance r before returning to the
start is exactly 1/r, vanishing with r (recurrence evidence).  On the
3-regular tree it stays above 1/2 (transience).  Both series are exact
rationals: each probability is the effective conductance between the
start and everything at distance >= r, over the start's degree, reduced
to one edge by star-mesh elimination.  A seeded Monte Carlo cross-check
is available.
"""

import random

from fullgroup_lab import (
    build_ball,
    builtin_action,
    escape_series,
    regular_tree_ball,
    simulate_escape,
)

radii = (2, 4, 8, 16, 32)

print("== escape probabilities on the built-in orbit balls ==")
for name in ("odometer", "grigorchuk", "dihedral"):
    ball = build_ball(builtin_action(name), 32)
    series = escape_series(ball, radii)
    print(f"  {name:10s}: " + "  ".join(
        f"P(esc {r}) = {p}" for r, p in zip(series.radii, series.probabilities)))

print()
print("== 3-regular tree control (transient) ==")
tree = regular_tree_ball(3, 10)
series = escape_series(tree, (2, 4, 6, 8, 10))
print("  " + "  ".join(f"P(esc {r}) = {p}"
                       for r, p in zip(series.radii, series.probabilities)))

print()
print("== Monte Carlo cross-check (seeded) ==")
ball = build_ball(builtin_action("odometer"), 16)
sim = simulate_escape(ball, 8, 20000, random.Random(1))
print(f"  exact 1/8 = 0.125, simulated {sim['estimate']:.4f}"
      f" +- {sim['stderr']:.4f} over {sim['trials']} trials")
