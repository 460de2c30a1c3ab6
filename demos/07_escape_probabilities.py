"""Exact escape probabilities: line-like balls against a tree control.

On a line the chance of walking to distance r before returning to the
start is exactly 1/r, vanishing with r (recurrence evidence).  On the
3-regular tree it stays above 1/2 (transience).  Both series are exact
rationals: each probability is the effective conductance between the
start and everything at distance >= r, over the start's degree, reduced
to one edge by star-mesh elimination.  The demo exits non-zero unless
the odometer's series is exactly 1/r.
"""

from fractions import Fraction

from fullgroup_lab import (
    build_ball,
    builtin_action,
    escape_series,
    regular_tree_ball,
)

radii = (2, 4, 8, 16, 32)

print("== escape probabilities on the built-in orbit balls ==")
for name in ("odometer", "grigorchuk", "dihedral"):
    ball = build_ball(builtin_action(name), 32)
    series = escape_series(ball, radii)
    print(f"  {name:10s}: " + "  ".join(
        f"P(esc {r}) = {p}" for r, p in zip(series.radii, series.probabilities)))
    if name == "odometer" and \
            series.probabilities != tuple(Fraction(1, r) for r in radii):
        raise SystemExit("the odometer's escape probabilities are not 1/r")

print()
print("== 3-regular tree control (transient) ==")
tree = regular_tree_ball(3, 10)
series = escape_series(tree, (2, 4, 6, 8, 10))
print("  " + "  ".join(f"P(esc {r}) = {p}"
                       for r, p in zip(series.radii, series.probabilities)))
