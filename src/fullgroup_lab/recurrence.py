"""Exact escape probabilities of the simple random walk on finite balls.

The walk steps along edges with multiplicity (a uniformly random
generator), loops dropped: loops only delay the walk and do not change
hitting probabilities.  escape_probability(r) is the chance P(r) that the
walk started at the base reaches distance r before returning to the base.
Vanishing escape probabilities over growing radii are the finite evidence
of recurrence.

P(r) is one effective conductance (Lyons and Peres, Probability on Trees
and Networks, ch. 2).  Take the multiplicities as edge conductances and
merge every vertex at distance >= r into one sink; then

    P(r) = C_eff(base <-> sink) / pi(base),

pi(base) being the base's non-loop degree.  C_eff is found by eliminating
every vertex v with 0 < dist(v) < r by the star-mesh transform: for each
pair a != b of v's neighbours, c(a, b) += c(v, a) c(v, b) / C_v, C_v the
sum of v's conductances.  A star-mesh step keeps every effective
conductance among the vertices that remain, so once only the base and the
sink are left, c(base, sink) is C_eff.  All of it is Fraction arithmetic,
so P(r) is exact.

The order changes only the cost.  Eliminating v joins all its neighbours,
so vertices go fewest neighbours first (ties by index, from a lazy heap):
on a path or a tree each step touches at most two live neighbours, and
on the Z^2 grid the fill stays sparse.  Eliminating sphere by sphere from
the outside in fills each sphere densely instead, which makes the grid's
ladder at ball radius 32 about 30 times slower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import InvalidRadius
from .schreier import Graph


def _walk_weights(graph: Graph) -> list:
    """Per-vertex dict neighbor -> edge multiplicity, loops excluded."""
    weights = [dict() for _ in range(graph.n)]
    for u, _name, v in graph.edges:
        if u == v:
            continue
        weights[u][v] = weights[u].get(v, 0) + 1
        weights[v][u] = weights[v].get(u, 0) + 1
    return weights


def _escape_conductance(graph: Graph, weights: list, r: int) -> Fraction:
    """C_eff(base <-> every vertex at dist >= r), those vertices merged into
    one sink, by star-mesh elimination of every vertex 0 < dist < r."""
    dist, sink = graph.dist, graph.n
    net = {}
    for v in range(graph.n):
        if 0 <= dist[v] < r:
            row = net[v] = {}
            for u, w in weights[v].items():
                u = u if dist[u] < r else sink
                row[u] = row.get(u, 0) + w
    heap = [(len(row), v) for v, row in net.items() if dist[v] > 0]
    heapify(heap)
    while heap:
        size, v = heappop(heap)
        row = net.get(v)
        if row is None or len(row) != size:  # gone, or queued again since
            continue
        del net[v]
        total = Fraction(sum(row.values()))
        for a, ca in row.items():
            if a == sink:  # the sink's row is never read
                continue
            share = ca / total
            row_a = net[a]
            del row_a[v]
            for b, cb in row.items():
                if b != a:
                    row_a[b] = row_a.get(b, 0) + share * cb
            if dist[a] > 0:
                heappush(heap, (len(row_a), a))
    return net[graph.base].get(sink, 0)


def escape_probability(graph: Graph, r: int) -> Fraction:
    """P(walk from the base hits distance r before returning to the base)."""
    return escape_series(graph, (r,)).probabilities[0]


@dataclass(frozen=True)
class EscapeReport:
    radii: tuple
    probabilities: tuple  # exact Fractions

    def to_json(self) -> dict:
        return {"radii": list(self.radii),
                "probabilities": [str(p) for p in self.probabilities]}

    def is_nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.probabilities,
                                          self.probabilities[1:]))


def escape_series(graph: Graph, radii) -> EscapeReport:
    """P(walk from the base hits distance r before returning to the base)
    for each r of radii, as C_eff(base <-> dist >= r) / pi(base)."""
    radii = tuple(radii)
    deepest = max(graph.dist)
    for r in radii:
        if r < 1:
            raise InvalidRadius("need r >= 1")
        if graph.radius is not None and r > graph.radius:
            raise InvalidRadius(f"r={r} exceeds the ball radius {graph.radius}")
        if deepest < r:
            raise InvalidRadius(f"no vertex at distance {r}")
    weights = _walk_weights(graph)
    degree = sum(weights[graph.base].values())
    return EscapeReport(radii, tuple(
        Fraction(_escape_conductance(graph, weights, r), degree) for r in radii))


def simulate_escape(graph: Graph, r: int, trials: int,
                    rng: random.Random | None = None) -> dict:
    """Monte Carlo cross-check of escape_probability (seeded)."""
    if r < 1:
        raise InvalidRadius("need r >= 1")
    rng = rng or random.Random(0)
    weights = _walk_weights(graph)
    flat = [None] * graph.n
    for v in range(graph.n):
        steps = []
        for u, w in weights[v].items():
            steps.extend([u] * w)
        flat[v] = steps
    hits = 0
    for _ in range(trials):
        v = graph.base
        while True:
            v = rng.choice(flat[v])
            if graph.dist[v] >= r:
                hits += 1
                break
            if v == graph.base:
                break
    p = hits / trials
    stderr = (p * (1 - p) / trials) ** 0.5
    return {"estimate": p, "stderr": stderr, "trials": trials}
