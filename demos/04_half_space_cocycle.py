"""The half space Y = f^-1(N) and the cocycle phi -> Y symdiff phi(Y).

The cocycle value of a piecewise element is a finite vertex set; it is
accepted only when recomputation on a larger window returns the same set.
Its kernel is exactly the setwise stabilizer of Y, and the cocycle rule
c_{phi psi} = c_phi symdiff phi(c_psi) holds as exact set equality.
"""

from fullgroup_lab import (
    build_ball,
    builtin_action,
    cocycle_value,
    compose,
    fit_line_chart,
    half_space,
    identity_element,
    make_element,
    n_phi,
    r_constant,
    stabilizer_test,
)
from fullgroup_lab.cocycle import push_set

odo = builtin_action("odometer")
ball = build_ball(odo, 64)
chart = fit_line_chart(ball)
half = half_space(chart)

print("== the half space ==")
print("|Y| =", len(half.members), " boundary:",
      [ball.label_str(v) for v in half.boundary],
      " co-boundary:", [ball.label_str(v) for v in half.co_boundary])

shift = make_element(odo, [("", ("t",))])
swap = make_element(odo, [("0", ("t",)), ("1", ("t_inv",))])

print()
print("== cocycle values ==")
for name, elem in (("identity", identity_element(odo)), ("t", shift),
                   ("t^2", compose(shift, shift)), ("pair swap", swap)):
    value = cocycle_value(elem, half)
    print(f"  c_{name:9s} = {sorted(ball.label_str(v) for v in value.vertices)}"
          f"  (stabilized over windows {value.window})")

print()
print("== the cocycle rule, exactly ==")
c_t = cocycle_value(shift, half)
c_tt = cocycle_value(compose(shift, shift), half)
rhs = c_t.vertices ^ push_set(shift, ball, c_t.vertices)
print("  c_{tt} == c_t symdiff t(c_t):", c_tt.vertices == rhs)

print()
print("== kernel = setwise stabilizer of Y ==")
print("  pair swap stabilizes Y:", stabilizer_test(swap, half))
print("  t stabilizes Y:", stabilizer_test(shift, half))

print()
print("== the transport constant ==")
R = r_constant(half)
print(f"  R = {R}; for the pair swap (d_phi = 1): "
      f"N_phi = 6m + R + 2 d_phi = {n_phi(chart.m, R, 1)}")
