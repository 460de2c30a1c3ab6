"""Exact escape probabilities of the simple random walk on finite balls.

The walk steps along edges with multiplicity (a uniformly random
generator), loops dropped: loops only delay the walk and do not change
hitting probabilities.  escape_probability(r) is the chance that the walk
started at the base reaches distance r before returning to the base,
obtained from the exact rational solution of the discrete Dirichlet
problem (absorbing sphere, grounded base).  Vanishing escape
probabilities over growing radii are the finite evidence of recurrence.
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


def _solve_dirichlet(weights, variables, boundary_value) -> dict:
    """Exact sparse elimination of sum_u w(v,u)(h(v)-h(u)) = 0.

    variables is the set of unknowns; boundary_value(v) gives the pinned
    value of any non-variable vertex.  Vertices are eliminated smallest
    row first (leaves of trees and path interiors cost O(1) each).
    """
    rows = {}
    rhs = {}
    for v in variables:
        row = {}
        total = 0
        b = Fraction(0)
        for u, w in weights[v].items():
            total += w
            if u in variables:
                row[u] = row.get(u, Fraction(0)) - w
            else:
                b += w * boundary_value(u)
        row[v] = Fraction(total)
        rows[v] = row
        rhs[v] = b

    cols = {v: set() for v in variables}
    for v, row in rows.items():
        for u in row:
            if u != v:
                cols[u].add(v)

    heap = [(len(row), v) for v, row in rows.items()]
    eliminated = []
    remaining = set(variables)
    heapify(heap)
    while remaining:
        size, v = heappop(heap)
        if v not in remaining or len(rows[v]) != size:
            if v in remaining:
                heappush(heap, (len(rows[v]), v))
            continue
        remaining.discard(v)
        row_v = rows.pop(v)
        rhs_v = rhs.pop(v)
        pivot = row_v.pop(v)
        eliminated.append((v, row_v, rhs_v, pivot))
        for u in cols.pop(v, ()):
            if u not in remaining:
                continue
            row_u = rows[u]
            factor = row_u.pop(v, None)
            if factor is None:
                continue
            scale = factor / pivot
            for x, coef in row_v.items():
                before = row_u.get(x)
                after = (before or Fraction(0)) - scale * coef
                if after == 0:
                    row_u.pop(x, None)
                    if x != u:
                        cols[x].discard(u)
                else:
                    row_u[x] = after
                    if before is None and x != u:
                        cols[x].add(u)
            rhs[u] = rhs[u] - scale * rhs_v
            heappush(heap, (len(row_u), u))

    values = {}
    for v, row, b, pivot in reversed(eliminated):
        acc = b
        for x, coef in row.items():
            acc -= coef * values[x]
        values[v] = acc / pivot
    return values


def escape_probability(graph: Graph, r: int) -> Fraction:
    """P(walk from the base hits distance r before returning to the base)."""
    return _escape(graph, r, _walk_weights(graph))


def _escape(graph: Graph, r: int, weights: dict) -> Fraction:
    """escape_probability, weights being _walk_weights(graph)."""
    if r < 1:
        raise InvalidRadius("need r >= 1")
    if graph.radius is not None and r > graph.radius:
        raise InvalidRadius(f"r={r} exceeds the ball radius {graph.radius}")
    if max(graph.dist) < r:
        raise InvalidRadius(f"no vertex at distance {r}")
    base = graph.base
    variables = {v for v in range(graph.n) if 0 < graph.dist[v] < r}

    def pinned(v):
        return Fraction(1) if graph.dist[v] >= r else Fraction(0)

    values = _solve_dirichlet(weights, variables, pinned)

    def h(v):
        if v in variables:
            return values[v]
        return pinned(v)

    total = sum(weights[base].values())
    hit = sum(w * h(u) for u, w in weights[base].items())
    return hit / total


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
    radii = tuple(radii)
    weights = _walk_weights(graph)
    return EscapeReport(radii, tuple(_escape(graph, r, weights) for r in radii))


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
