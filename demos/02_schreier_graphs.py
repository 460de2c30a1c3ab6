"""Schreier balls and level graphs of the built-in actions.

The orbit graphs of all three built-ins are line-like: balls are simple
paths once loops and doubled edges are ignored, and the level-n quotient
graphs are paths on 2^n vertices.
"""

from fullgroup_lab import (
    build_ball,
    build_level_graph,
    builtin_action,
    graph_to_dot,
    neighborhood_set,
)

odo = builtin_action("odometer")
ball = build_ball(odo, 5)
print("== odometer ball of radius 5 ==")
print("vertices:", [ball.label_str(v) for v in range(ball.n)])
print("distances:", ball.dist)
print("simple degrees:", ball.degree_sequence())

print()
print("== level graphs are paths (loops everywhere else) ==")
for name in ("grigorchuk", "dihedral"):
    action = builtin_action(name)
    for n in (2, 5, 8):
        lg = build_level_graph(action, n)
        degs = lg.degree_sequence()
        shape = "path" if degs == [1, 1] + [2] * (lg.n - 2) else "NOT a path"
        print(f"  {name} level {n}: {lg.n} vertices, {shape}")

print()
print("== boundary and neighborhood calculus with rim awareness ==")
W = set(range(4))        # the first four BFS vertices
interior = ball.certified(1)  # off the rim: every neighbour is in the ball
boundary = [v for v in W if v in interior
            and any(u not in W for u in ball.neighbors(v))]
print("W =", sorted(ball.label_str(v) for v in W))
print("certified boundary:", sorted(ball.label_str(v) for v in boundary))
print("rim flagged:",
      sorted(ball.label_str(v) for v in W.difference(interior)))
print("2-neighborhood size:", len(neighborhood_set(ball, W, 2)))

print()
print("== DOT export of a small Grigorchuk ball ==")
print(graph_to_dot(build_ball(builtin_action("grigorchuk"), 2),
                   include_loops=False))
