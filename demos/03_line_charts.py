"""Quasi-isometry charts and geodesic infrastructure.

fit_line_chart maps vertices to integers via distances from a diametral
endpoint.  Such an f is 1-Lipschitz and onto an interval of integers, so
alpha = 1 and gamma = 0, and the chart certifies the two-sided distance
bounds  d(u,v) - beta <= |f(u)-f(v)| <= d(u,v)  with the least integer
beta.  The covering constant m = 1 + 2 beta bounds the distance of any
vertex to any long geodesic.
"""

from fullgroup_lab import (
    build_ball,
    build_level_graph,
    builtin_action,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
)

odo = builtin_action("odometer")
ball = build_ball(odo, 30)
chart = fit_line_chart(ball)
print("== odometer chart ==")
print(f"alpha=1 beta={chart.beta} gamma=0 m={chart.m}")
print("f at the base:", chart.f[ball.base])
print("f equals the signed integer position:",
      all(chart.f[v] in range(-30, 31) for v in range(ball.n)))

print()
print("== fibers of f stay small (here: singletons) ==")
report = fiber_diameter_check(chart)
print(f"max fiber diameter {report.max_fiber_diameter} <= alpha*beta = {report.bound}:",
      report.passed)

print()
print("== the diametral geodesic covers the ball within m ==")
seg = chart.geodesic
cov = m_covering_check(seg, chart.m)
print(f"geodesic length {len(seg)}, max distance {cov.max_distance} <= m:",
      cov.passed)

print()
print("== midpoint growth: evidence for arbitrarily long centered geodesics ==")
for name in ("odometer", "grigorchuk", "dihedral"):
    action = builtin_action(name)
    values = []
    for r in (6, 12, 18):
        b = build_ball(action, r)
        s = fit_line_chart(b).geodesic
        mid = s.vertices[len(s.vertices) // 2]
        values.append(max_geodesic_midpoint(b, mid))
    print(f"  {name}: window radii (6, 12, 18) -> midpoint values {values}")

print()
print("== level-10 Grigorchuk chart ==")
lg = build_level_graph(builtin_action("grigorchuk"), 10)
chart10 = fit_line_chart(lg)
print(f"1024 vertices: alpha=1 beta={chart10.beta} m={chart10.m}")
