"""Repeating local patterns and transported half spaces.

Where the local action of a kernel family F looks the same as at the
anchor (isomorphic labeled neighborhoods, same piece words), the half
space can be transported: mark the matched images of Y and its
complement, grow each side avoiding the other, and keep the side holding
the +infinity end.  The result is F-invariant with boundary in a small
ball around the match point.
"""

from fullgroup_lab import (
    build_ball,
    builtin_action,
    fit_line_chart,
    half_space,
    make_element,
    pattern_match_points,
    repetition_radius,
    same_pattern,
    transport_anchor,
    transport_halfspace,
)

odo = builtin_action("odometer")
ball = build_ball(odo, 200)
chart = fit_line_chart(ball)
half = half_space(chart)
swap = make_element(odo, [("0", ("t",)), ("1", ("t_inv",))])
F = [swap]

print("== pattern equality is parity for the pair swap ==")
base = ball.base
print("  base ~ base+2:", same_pattern(F, ball, base,
                                       [v for v in range(ball.n) if chart.f[v] == 2][0], 2))
print("  base ~ base+1:", same_pattern(F, ball, base,
                                       [v for v in range(ball.n) if chart.f[v] == 1][0], 2))

matches = pattern_match_points(F, ball, 10, anchor=base)
r = repetition_radius(matches, 10, ball)
print(f"  every window vertex sees a match within r = {r}"
      f"  ({len(matches)} matches for n = 10)")

print()
print("== transporting the half space to matched vertices ==")
anchor = transport_anchor(F, 10, half)  # the basepoint's projection, and R
for target in (26, -52):
    z = [v for v in range(ball.n) if chart.f[v] == target][0]
    result = transport_halfspace(F, z, 10, half, anchor)
    # Y_z is a slab of levels: read it by membership at every vertex
    lowest = min(chart.f[v] for v in range(ball.n) if v in result.slab)
    print(f"  z at f = {target:+d}: Y_z = [f >= {lowest:+d}],"
          f" boundary {[ball.label_str(v) for v in result.boundary]},"
          f" all checks {all(result.checks.values())}")
