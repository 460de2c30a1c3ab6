"""Nested half spaces and the embedding into finite symmetric groups.

Anchors spaced 2r + 2n + 2m + 2 apart along the geodesic receive
transported half spaces Y_i with Y_{i+1} inside Y_i.  The finite blocks
Y_i \\ Y_{i+1} are F-invariant and uniformly bounded, so the group
generated by F acts through a product of finite symmetric groups; its
order is computed once through the blocks and once by brute force on the
window, and the two must agree.
"""

from fullgroup_lab import (
    build_ball,
    builtin_action,
    finite_embedding_order,
    fit_line_chart,
    half_space,
    identity_element,
    make_element,
    nested_family,
    pattern_match_points,
    repetition_radius,
    transport_anchor,
)

odo = builtin_action("odometer")
ball = build_ball(odo, 200)
chart = fit_line_chart(ball)
half = half_space(chart)

swap = make_element(odo, [("0", ("t",)), ("1", ("t_inv",))])
quad = make_element(odo, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                          ("10", ()), ("11", ())])

for name, F, n in (("identity", [identity_element(odo)], 8),
                   ("pair swap", [swap], 10),
                   ("pair swap + quad swap", [swap, quad], 12)):
    anchor = transport_anchor(F, n, half)
    matches = pattern_match_points(F, ball, n, anchor=anchor[0])
    family = nested_family(F, n, half, anchor,
                           (matches, repetition_radius(matches, n, ball)))
    orders = finite_embedding_order(F, family)
    sizes = [len(family.blocks[i]) for i in family.block_indices]
    print(f"== F = {name} (n = {n}) ==")
    print(f"  anchors: {len(family.anchor_indices)}, spacing {family.spacing},"
          f" repetition radius {family.r}")
    print(f"  blocks: {sizes} (uniform bound U = {family.U})")
    print(f"  order via blocks {orders.order_blocks}"
          f" == brute force {orders.order_brute}: {orders.agree}")
    print()
