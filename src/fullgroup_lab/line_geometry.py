"""Line charts to the integers and geodesic infrastructure.

A chart is fitted from one endpoint of a diametral pair: f(x) = d(u, x) -
d(u, base), possibly negated so that orientation is stable across radii
(the end whose point has the lexicographically smaller (period, preperiod)
canonical key gets the larger f values), and the chart keeps the geodesic
between the two ends.  Such an f is 1-Lipschitz and maps
the connected graph onto a whole interval of integers, so alpha = 1 and
gamma = 0 are facts, not fitted constants: the upper quasi-isometry
inequality holds by the triangle inequality, and the one constant left is
the integer beta, the maximum of d(u, v) - |f(u) - f(v)| over all certified
vertex pairs.  The covering constant is m = 1 + 2*beta.

beta comes from one sweep over the fibers F_t = f^-1(t) in increasing t.
f is integer-valued and changes by at most 1 along an edge, so each fiber
separates the levels below it from those above: every path from a vertex
x with f(x) < t to a vertex of F_t meets F_{t-1}.  The sweep therefore
needs only the distances inside a fiber and between adjacent fibers,
which short searches find on a line-like graph, instead of one BFS row
per certified vertex (see _fit_beta).  A fiber of one certified vertex is
a cut vertex: the sweep has measured every pair it separates on reaching
it, and starts afresh above it with no search.  Every fiber is such a
vertex on the odometer, Grigorchuk and dihedral balls, and on the
Grigorchuk and dihedral level graphs (the odometer's is a cycle).

The longest geodesic centered at a vertex v rests on the same fact, for
the level set S = g^-1(g(v)) of g = d(m, .) from a vertex m far from v:
S meets every path between the two sides of v, so the distance between
two ends on opposite sides is the least sum of their distances to a
vertex of S.  The search takes one BFS row per vertex of S instead of one
per endpoint pair and level (see max_geodesic_midpoint).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import NotConnected
from .schreier import Graph


def diametral_pair(graph: Graph) -> tuple[int, int]:
    """Double BFS from the base, whose row is graph.dist; ties broken by
    smallest vertex index."""
    d0 = graph.dist
    if min(d0) < 0:
        raise NotConnected("graph is not connected")
    ecc = max(d0)
    u = min(v for v in range(graph.n) if d0[v] == ecc)
    d1 = graph.distances_from([u])
    far = max(d1)
    w = min(v for v in range(graph.n) if d1[v] == far)
    return u, w


@dataclass(frozen=True)
class LineChart:
    """A certified map of graph vertices to integers, with the geodesic
    between the oriented diametral ends that f was fitted from.

    max_fiber_diameter is the widest certified fiber and worst_level the
    lowest level of that width (None at 0).  levels is (low, order, start):
    order lists the vertices by level, in vertex order within a level, and
    F_(low + k) is order[start[k]:start[k + 1]]; f takes every level from
    the lowest, low, to the highest.  fit_line_chart builds levels for the
    fiber sweep, which finds the other two."""

    graph: Graph
    f: tuple
    beta: int
    max_fiber_diameter: int
    worst_level: int | None
    geodesic: GeodesicSegment
    # lists, so kept out of eq and hash: f decides them
    levels: tuple = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        """The covering constant alpha^2 + 2*alpha*beta at alpha = 1."""
        return 1 + 2 * self.beta

    @property
    def p(self) -> int:
        """The basepoint's projection onto the geodesic, read off the
        base's row graph.dist (project_to_geodesic at the base)."""
        return _nearest(self.geodesic, self.graph.dist)

    def chart_hash(self) -> str:
        # f is 1-Lipschitz and onto an interval: alpha = 1 and gamma = 0
        payload = {
            "f": list(self.f),
            "alpha": "1",
            "beta": str(self.beta),
            "gamma": "0",
            "labels": [self.graph.label_str(v) for v in range(self.graph.n)],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def fit_line_chart(graph: Graph) -> LineChart:
    """Fit f, the minimal beta over the certified pairs and the widest
    certified fiber, and keep the geodesic between the two ends f was
    fitted from: one BFS tree from the minus end gives f and the geodesic."""
    if graph.n < 2:
        raise NotConnected("need at least 2 vertices")
    # the end of lex-smaller orientation key gets the larger f values
    u, w = diametral_pair(graph)
    key = graph.orientation_key
    minus_end, plus_end = (u, w) if key(w) < key(u) else (w, u)
    # drow holds no -1: diametral_pair refused a base row with one, and a
    # graph connected from the base is connected from the minus end
    parent, drow = graph.bfs_parents(minus_end)
    off = drow[graph.base]
    f = tuple(drow[v] - off for v in range(graph.n))
    order = sorted(range(graph.n), key=f.__getitem__)
    # no level is empty, so a level starts where f steps up along order
    start = [k for k in range(1, graph.n) if f[order[k]] > f[order[k - 1]]]
    levels = (f[minus_end], order, [0] + start + [graph.n])
    return LineChart(graph, f, *_fit_beta(graph, levels),
                     _geodesic(graph, parent, minus_end, plus_end), levels)


def _level_sets(f) -> dict:
    out = {}
    for v, val in enumerate(f):
        out.setdefault(val, []).append(v)
    return out


def _fit_beta(graph: Graph, levels) -> tuple:
    """(beta, widest, worst_level): the smallest beta over the certified
    pairs, the widest certified fiber and the lowest level where it occurs
    (None when it is 0), for the chart whose LineChart.levels is levels.

    f is 1-Lipschitz, so gap = |f(u) - f(v)| <= d(u, v): the upper
    inequality gap <= d + beta holds for any beta >= 0, and the lower one
    d - beta <= gap needs beta = max(d - gap), an integer.

    The maximum is taken in one sweep over the fibers F_t in increasing t.
    For a certified x with f(x) <= t, V_x is the vector of
    d(x, y) - (t - f(x)) over y in F_t; beta is the largest entry at a
    certified y over all such x and t.  V_x starts at t = f(x) as the
    distances from x inside its fiber.  Every path from x to y in F_t with
    f(x) < t meets the separator F_{t-1}, and a geodesic meets it at some
    z with d(x, y) = d(x, z) + d(z, y), so one min-plus step
    V_x(y) = min over z in F_{t-1} of V_x(z) + d(z, y) - 1 moves V_x on to
    F_t.  Vectors that agree are the same from then on and are kept once:
    on a line-like graph their entries lie in [0, beta] at certified y, so
    few distinct vectors remain however large the graph is.

    A fiber F_s = {z} of one certified vertex ends every vector: beta is
    read at z, then the sweep drops them all and goes on to F_(s+1) with
    none, so that fiber takes no min-plus step and z no in-fiber search.
    Every path from x below z to w above z meets F_s = {z}, and f is the
    BFS depth from the minus end less an offset, so w's chain of BFS
    parents descends one level per step, passes z, and gives
    d(z, w) = f(w) - s.  Hence d(x, w) - (f(w) - f(x)) =
    d(x, z) - (s - f(x)), the entry V_x(z) just read.  An uncertified
    one-vertex fiber keeps the step, since beta is not read there.  In a
    ball that is the first or the last fiber, with no pair to span: z lies
    on the rim, and a vertex on the far side of z from the base would lie
    outside the radius.

    The widest certified fiber is read off the in-fiber searches from the
    certified x before they merge into the vectors.
    """
    certified = graph.certified(1)
    low, order, start = levels
    beta, vectors, prev = 0, set(), []
    widest, worst_level = 0, None
    for k in range(len(start) - 1):
        fiber = order[start[k]:start[k + 1]]
        if vectors:
            step = [graph.distances_to(z, fiber) for z in prev]
            vectors = {tuple(min(a + row[j] for a, row in zip(vec, step)) - 1
                             for j in range(len(fiber)))
                       for vec in vectors}
        if len(fiber) == 1 and fiber[0] in certified:
            # a cut vertex: each vector's one entry is read, then dropped
            beta = max([beta] + [vec[0] for vec in vectors])
            vectors = set()
            continue
        rows = [tuple(graph.distances_to(x, fiber))
                for x in fiber if x in certified]
        at = [j for j, y in enumerate(fiber) if y in certified]
        width = max([0] + [row[j] for row in rows for j in at])
        if width > widest:
            widest, worst_level = width, low + k
        vectors.update(rows)
        beta = max([beta] + [vec[j] for vec in vectors for j in at])
        prev = fiber
    return beta, widest, worst_level


@dataclass(frozen=True)
class FiberReport:
    max_fiber_diameter: int
    bound: int
    passed: bool
    worst_level: int | None

    def to_json(self) -> dict:
        return {"max_fiber_diameter": self.max_fiber_diameter,
                "bound": str(self.bound), "passed": self.passed,
                "worst_level": self.worst_level}


def fiber_diameter_check(chart: LineChart) -> FiberReport:
    """Every certified fiber f^-1(t) must have diameter at most beta
    (alpha*beta at alpha = 1), and on a fitted chart it has: for certified
    x and y of one fiber, f(x) = f(y), so
    d(x, y) = d(x, y) - |f(x) - f(y)| <= beta, beta being the largest such
    difference over the certified pairs.  The widest fiber and its level
    come from the fit's sweep (_fit_beta), so the check searches nothing."""
    widest = chart.max_fiber_diameter
    return FiberReport(widest, chart.beta, widest <= chart.beta,
                       chart.worst_level)


@dataclass(frozen=True)
class GeodesicSegment:
    """An oriented geodesic: v0 is the minus end, v[-1] the plus end."""

    graph: Graph
    vertices: tuple

    def __len__(self):
        return len(self.vertices) - 1

    def pos(self, v: int) -> int:
        return self.vertices.index(v)


def end_strips(seg: GeodesicSegment, m: int) -> tuple:
    """(minus strip, plus strip): the outermost m certified vertices of seg
    on each side of its graph's window (at least one); a set "contains an
    end" when it contains the whole strip on that side."""
    width = max(1, m)
    interior = seg.graph.certified(1)
    certified = [v for v in seg.vertices if v in interior]
    return frozenset(certified[:width]), frozenset(certified[-width:])


def _geodesic(graph: Graph, parent, minus_end: int,
              plus_end: int) -> GeodesicSegment:
    """The path from plus_end up the BFS tree parent rooted at minus_end, a
    geodesic by construction: a BFS parent is a neighbor one step closer
    to the root, so the path's j-th vertex lies at distance j from
    minus_end, and its j-th and k-th lie |k - j| apart (at most along it,
    at least by the triangle inequality through minus_end)."""
    path = [plus_end]
    while path[-1] != minus_end:
        path.append(parent[path[-1]])
    path.reverse()
    return GeodesicSegment(graph, tuple(path))


def max_geodesic_midpoint(graph: Graph, v: int) -> int:
    """Largest n such that some length-2n geodesic has midpoint v.

    A pair (a, b) on the sphere dv^-1(n) is the pair of ends of such a
    geodesic exactly when d(a, b) = 2n (the triangle inequality through v
    allows no more), and the inner part of a geodesic through v is one
    too, so the answer is the last n whose sphere holds such a pair.

    The distances come through a separator.  f = d(m, .), for m the
    smallest vertex farthest from v, is integer-valued and changes by at
    most 1 along an edge, so S = f^-1(f(v)) meets every path from
    {f <= f(v)} to {f >= f(v)}: for a pair on the two sides,
    d(a, b) = min over z in S of d(z, a) + d(z, b), read off one BFS row
    per z in S.  A pair on one side gets that sum as an upper bound only;
    when the bound still reaches 2n, a search from a that stops at the
    pair decides it.  On a line-like graph S is about a fiber wide, so a
    call takes a few full rows however long the geodesic is.
    """
    dv = graph.distance_row(v)
    m = dv.index(max(dv))
    f = graph.distances_from([m])
    cut = f[v]
    # v lies on its own level set, and its row is dv
    rows = [dv if z == v else graph.distances_from([z])
            for z in range(graph.n) if f[z] == cut]
    spheres = _level_sets(dv)
    n = 0
    while n + 1 in spheres and _has_pair_at(graph, spheres[n + 1], 2 * (n + 1),
                                            f, cut, rows):
        n += 1
    return n


def _has_pair_at(graph: Graph, sphere, span: int, f, cut: int, rows) -> bool:
    """Whether two vertices of the sphere lie span apart, given that none
    lies farther: S = f^-1(cut) separates the sides, with one row per z in
    S."""
    for i, a in enumerate(sphere):
        search = []
        for b in sphere[i + 1:]:
            if min(row[a] + row[b] for row in rows) < span:
                continue
            if (f[a] - cut) * (f[b] - cut) <= 0:
                return True
            search.append(b)
        if search and span in graph.distances_to(a, search):
            return True
    return False


def project_to_geodesic(seg: GeodesicSegment, x: int) -> int:
    """Closest geodesic vertex to x; ties resolved toward the minus end."""
    return _nearest(seg, seg.graph.distance_row(x))


def _nearest(seg: GeodesicSegment, row) -> int:
    """The first vertex of seg, from the minus end, of least row value."""
    return min(seg.vertices, key=row.__getitem__)


@dataclass(frozen=True)
class CoveringReport:
    max_distance: int
    m: int
    passed: bool
    witness: int | None

    def to_json(self) -> dict:
        return {"max_distance": self.max_distance, "m": str(self.m),
                "passed": self.passed, "witness": self.witness}


def m_covering_check(seg: GeodesicSegment, m: int) -> CoveringReport:
    """Every certified vertex of seg's graph must lie within m of seg."""
    graph = seg.graph
    dist = graph.distances_from(sorted(set(seg.vertices)))
    certified = graph.certified(max(1, m))
    worst = 0
    witness = None
    for v in sorted(certified):
        if dist[v] > worst:
            worst = dist[v]
            witness = v
    return CoveringReport(worst, m, worst <= m, witness)
