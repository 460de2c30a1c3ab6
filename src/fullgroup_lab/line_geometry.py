"""Quasi-isometry charts to the integer line and geodesic infrastructure.

A chart is fitted from one endpoint of a diametral pair: f(x) = d(u, x) -
d(u, base), possibly negated so that orientation is stable across radii
(the end whose point has the lexicographically smaller (period, preperiod)
canonical key gets the larger f values).  Such an f is 1-Lipschitz, so
alpha = 1 and the upper quasi-isometry inequality holds by the triangle
inequality; beta is the integer maximum of d(u, v) - |f(u) - f(v)| over
all certified vertex pairs, and m = alpha^2 + 2*alpha*beta.  The pair
scans stream one BFS row at a time and use integer arithmetic only, so
they hold O(n) memory.  All constants are exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotConnected, NotGeodesic
from .schreier import Graph


def diametral_pair(graph: Graph) -> tuple[int, int]:
    """Double BFS from the base; ties broken by smallest vertex index."""
    d0 = graph.distances_from([graph.base])
    if min(d0) < 0:
        raise NotConnected("graph is not connected")
    ecc = max(d0)
    u = min(v for v in range(graph.n) if d0[v] == ecc)
    d1 = graph.distances_from([u])
    far = max(d1)
    w = min(v for v in range(graph.n) if d1[v] == far)
    return u, w


def _oriented_ends(graph: Graph) -> tuple[int, int]:
    """(minus_end, plus_end): the lex-smaller orientation key gets +."""
    u, w = diametral_pair(graph)
    if graph.orientation_key(w) < graph.orientation_key(u):
        return u, w
    return w, u


@dataclass(frozen=True)
class LineChart:
    """A certified map of graph vertices to integers."""

    graph: Graph
    f: tuple
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    m: Fraction
    minus_end: int
    plus_end: int

    def value(self, v: int) -> int:
        return self.f[v]

    def fibers(self) -> dict:
        out = {}
        for v, val in enumerate(self.f):
            out.setdefault(val, []).append(v)
        return out

    def chart_hash(self) -> str:
        payload = {
            "f": list(self.f),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "labels": [self.graph.label_str(v) for v in range(self.graph.n)],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def fit_line_chart(graph: Graph) -> LineChart:
    """Fit f and the minimal certificate constants on certified pairs."""
    if graph.n < 2:
        raise NotConnected("need at least 2 vertices")
    minus_end, plus_end = _oriented_ends(graph)
    drow = graph.distance_row(minus_end)
    if min(drow) < 0:
        raise NotConnected("graph is not connected")
    off = drow[graph.base]
    f = tuple(drow[v] - off for v in range(graph.n))

    alpha, beta = _fit_constants(graph, f)
    gamma = _fit_gamma(f)
    m = alpha * alpha + 2 * alpha * beta
    return LineChart(graph, f, alpha, beta, gamma, m, minus_end, plus_end)


def _pair_rows(graph: Graph):
    """Yield (u, BFS row of u, certified vertices after u), one row at a time."""
    certified = sorted(graph.certified(1))
    for i, u in enumerate(certified[:-1]):
        yield u, graph.distances_from([u]), certified[i + 1:]


def _fit_constants(graph: Graph, f):
    """alpha = 1 and the smallest beta over the certified pairs.

    f is 1-Lipschitz, so gap = |f(u) - f(v)| <= d(u, v): the upper
    inequality gap <= d + beta holds for any beta >= 0, and the lower one
    d - beta <= gap needs beta = max(d - gap), an integer.
    """
    beta = 0
    for u, row, vs in _pair_rows(graph):
        fu = f[u]
        beta = max(beta, max(row[v] - abs(fu - f[v]) for v in vs))
    return Fraction(1), Fraction(beta)


def _fit_gamma(f) -> Fraction:
    image = sorted(set(f))
    gamma = 0
    for lo, hi in zip(image, image[1:]):
        # worst integer strictly between consecutive image values
        worst = (hi - lo) // 2
        gamma = max(gamma, worst)
    return Fraction(gamma)


def _qi_holds(chart: LineChart, beta: Fraction) -> bool:
    """Both inequalities d/alpha - beta <= gap <= alpha*d + beta, exactly.

    With alpha = p/q > 0 and beta = r/s they read, after clearing the
    denominators, d*q*s - r*p <= gap*p*s and gap*q*s <= p*d*s + r*q.
    """
    f = chart.f
    p, q = chart.alpha.numerator, chart.alpha.denominator
    r, s = beta.numerator, beta.denominator
    qs, rp, ps, rq = q * s, r * p, p * s, r * q
    for u, row, vs in _pair_rows(chart.graph):
        fu = f[u]
        for v in vs:
            d = row[v]
            gap = abs(fu - f[v])
            if d * qs - rp > gap * ps or gap * qs > d * ps + rq:
                return False
    return True


def certificate_is_tight(chart: LineChart) -> bool:
    """True when beta lowered by half a unit is negative or breaks a pair."""
    lowered = chart.beta - Fraction(1, 2)
    return lowered < 0 or not _qi_holds(chart, lowered)


def check_qi_inequalities(chart: LineChart) -> bool:
    """Re-verify both quasi-isometry inequalities over the certified pairs."""
    return _qi_holds(chart, chart.beta)


@dataclass(frozen=True)
class FiberReport:
    max_fiber_diameter: int
    bound: Fraction
    passed: bool
    worst_level: int | None

    def to_json(self) -> dict:
        return {"max_fiber_diameter": self.max_fiber_diameter,
                "bound": str(self.bound), "passed": self.passed,
                "worst_level": self.worst_level}


def fiber_diameter_check(chart: LineChart) -> FiberReport:
    """Every fiber f^-1(n) must have diameter at most alpha*beta."""
    certified = chart.graph.certified(1)
    worst = 0
    worst_level = None
    for level, verts in sorted(chart.fibers().items()):
        verts = [v for v in verts if v in certified]
        for i, u in enumerate(verts[:-1]):
            row = chart.graph.distances_from([u])
            for v in verts[i + 1:]:
                if row[v] > worst:
                    worst = row[v]
                    worst_level = level
    bound = chart.alpha * chart.beta
    return FiberReport(worst, bound, Fraction(worst) <= bound, worst_level)


@dataclass(frozen=True)
class GeodesicSegment:
    """An oriented geodesic: v0 is the minus end, v[-1] the plus end."""

    graph: Graph
    vertices: tuple

    def __len__(self):
        return len(self.vertices) - 1

    def pos(self, v: int) -> int:
        return self.vertices.index(v)

    @property
    def minus_end(self) -> int:
        return self.vertices[0]

    @property
    def plus_end(self) -> int:
        return self.vertices[-1]

    def segment_between(self, a: int, b: int) -> tuple:
        i, j = self.pos(a), self.pos(b)
        if i > j:
            i, j = j, i
        return self.vertices[i:j + 1]


def diametral_geodesic(graph: Graph) -> GeodesicSegment:
    """Shortest path between the oriented diametral ends, geodesy verified."""
    minus_end, plus_end = _oriented_ends(graph)
    parent, dist = graph.bfs_parents(minus_end)
    path = [plus_end]
    while path[-1] != minus_end:
        path.append(parent[path[-1]])
    path.reverse()
    # a walk of consecutive neighbors whose j-th vertex lies at distance j
    # from its start is a geodesic, and so is every piece of it
    if any(dist[v] != j for j, v in enumerate(path)) or any(
            b not in graph.neighbors(a) for a, b in zip(path, path[1:])):
        raise NotGeodesic("diametral path is not a geodesic")
    return GeodesicSegment(graph, tuple(path))


def max_geodesic_midpoint(graph: Graph, v: int) -> int:
    """Largest n such that some length-2n geodesic has midpoint v.

    Levelwise endpoint-pair extension: a pair (a, b) at level n satisfies
    d(v,a) = d(v,b) = n and d(a,b) = 2n; level n+1 pairs extend both ends
    by one edge.  Every longer geodesic through v restricts to a shorter
    one, so the extension finds the exact maximum within the graph.
    """
    dv = graph.distance_row(v)
    pairs = {(v, v)}
    n = 0
    while True:
        # pairs are unordered, kept as (smaller, larger) and grouped by the
        # smaller end: one BFS row per group, none kept past the level
        ends = {}
        for a, b in pairs:
            ext_a = [x for x in graph.neighbors(a) if dv[x] == n + 1]
            ext_b = [y for y in graph.neighbors(b) if dv[y] == n + 1]
            for x in ext_a:
                for y in ext_b:
                    ends.setdefault(min(x, y), set()).add(max(x, y))
        nxt = set()
        for x, ys in ends.items():
            rx = graph.distances_from([x])
            nxt.update((x, y) for y in ys if rx[y] == 2 * (n + 1))
        if not nxt:
            return n
        pairs = nxt
        n += 1


def project_to_geodesic(graph: Graph, seg: GeodesicSegment, x: int) -> int:
    """Closest geodesic vertex to x; ties resolved toward the minus end."""
    row = graph.distance_row(x)
    best = None
    best_d = None
    for v in seg.vertices:
        if best_d is None or row[v] < best_d:
            best, best_d = v, row[v]
    return best


@dataclass(frozen=True)
class CoveringReport:
    max_distance: int
    m: Fraction
    passed: bool
    witness: int | None

    def to_json(self) -> dict:
        return {"max_distance": self.max_distance, "m": str(self.m),
                "passed": self.passed, "witness": self.witness}


def m_covering_check(graph: Graph, seg: GeodesicSegment, m) -> CoveringReport:
    """Every certified vertex must lie within m of the geodesic."""
    m = Fraction(m)
    dist = graph.distances_from(sorted(set(seg.vertices)))
    certified = graph.certified(max(1, m))
    worst = 0
    witness = None
    for v in sorted(certified):
        if dist[v] > worst:
            worst = dist[v]
            witness = v
    return CoveringReport(worst, m, Fraction(worst) <= m, witness)
