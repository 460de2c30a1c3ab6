"""Finite pieces of orbit Schreier graphs and level quotients.

Balls are built by breadth-first search from the basepoint with a
deterministic vertex order: layer by layer, ties broken by the canonical
form of the point.  Loops and multi-edges are kept in the edge list but
ignored by all distance computations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .cantor_actions import ActionSystem, BoundaryPoint
from .errors import BallTooLarge, InvalidRadius

DEFAULT_VERTEX_CAP = 1 << 16

# Full BFS rows a graph caches, least recently used out first: enough for
# the anchors asked for again and again (the geodesic projection, the R
# constant at p) while memory stays linear in n.
ROW_CACHE_SIZE = 8


class Graph:
    """Vertex-labeled multigraph with an optional basepoint/rim structure.

    labels[i] is the payload of vertex i (a BoundaryPoint for orbit balls,
    a string for level graphs and synthetic fixtures).  edges is a list of
    (u, name, v) triples.  For graphs cut out of an infinite orbit, radius
    is the BFS radius and dist[i] the distance from the base; graphs
    without a rim (level graphs, synthetic fixtures) leave radius None and
    every vertex is certified at any margin.
    """

    def __init__(self, labels, edges, base=0, radius=None, dist=None):
        self.labels = list(labels)
        self.edges = list(edges)
        self.base = base
        self.radius = radius
        self.index = {self._key(lab): i for i, lab in enumerate(self.labels)}
        self._adj = None
        self._rows = {}
        if dist is not None:
            self.dist = list(dist)
        else:
            self.dist = self.distances_from([base])

    @staticmethod
    def _key(label):
        return label.sort_key() if isinstance(label, BoundaryPoint) else label

    @property
    def n(self) -> int:
        return len(self.labels)

    def vertex_of(self, label):
        return self.index.get(self._key(label))

    def label_str(self, v: int) -> str:
        lab = self.labels[v]
        return lab.label() if isinstance(lab, BoundaryPoint) else str(lab)

    def orientation_key(self, v: int):
        lab = self.labels[v]
        if isinstance(lab, BoundaryPoint):
            return lab.orientation_key()
        return (str(lab),)

    def neighbors(self, v: int):
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for u, _name, w in self.edges:
                if u != w:
                    adj[u].add(w)
                    adj[w].add(u)
            self._adj = [tuple(sorted(s)) for s in adj]
        return self._adj[v]

    def degree_sequence(self):
        return sorted(len(self.neighbors(v)) for v in range(self.n))

    def distances_from(self, sources) -> list:
        """BFS distances (loopless simple adjacency); -1 if unreachable."""
        dist = [-1] * self.n
        q = deque()
        for s in sources:
            if dist[s] == -1:
                dist[s] = 0
                q.append(s)
        while q:
            u = q.popleft()
            for w in self.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def distance_row(self, v: int) -> list:
        """BFS row of v, cached among the latest rows; do not modify it."""
        rows = self._rows
        row = rows.pop(v, None)
        if row is None:
            row = self.distances_from([v])
            if len(rows) >= ROW_CACHE_SIZE:
                del rows[next(iter(rows))]
        rows[v] = row
        return row

    def d(self, u: int, v: int) -> int:
        """Distance from u to v by a BFS that stops at v; -1 if unreachable."""
        seen, layer, k = {u}, {u}, 0
        while v not in layer:
            if not layer:
                return -1
            layer = {w for x in layer for w in self.neighbors(x)} - seen
            seen |= layer
            k += 1
        return k

    def certified(self, margin) -> frozenset:
        """Vertices whose in-graph neighborhood of the given margin is not
        truncated by the rim; rimless graphs certify everything."""
        if self.radius is None:
            return frozenset(range(self.n))
        cutoff = self.radius - math.ceil(margin)
        return frozenset(v for v in range(self.n) if self.dist[v] <= cutoff)

    def bfs_parents(self, root: int):
        """Deterministic BFS tree (smallest-index parent wins)."""
        parent = [-1] * self.n
        dist = [-1] * self.n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w in self.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
        return parent, dist


class SchreierBall(Graph):
    """Radius-r ball of the orbit Schreier graph around the basepoint."""

    def __init__(self, action: ActionSystem, labels, edges, radius, dist):
        self.action = action
        super().__init__(labels, edges, base=0, radius=radius, dist=dist)

    def point(self, v: int) -> BoundaryPoint:
        return self.labels[v]


class LevelGraph(Graph):
    """Action graph on all binary words of a fixed length."""

    def __init__(self, action: ActionSystem, level, labels, edges, base):
        self.action = action
        self.level = level
        super().__init__(labels, edges, base=base, radius=None)


def build_ball(action: ActionSystem, radius: int,
               cap: int = DEFAULT_VERTEX_CAP) -> SchreierBall:
    """Exact radius-r ball around the basepoint, deterministic indexing."""
    if radius < 0:
        raise InvalidRadius("radius must be >= 0")
    base = action.basepoint
    labels = [base]
    seen = {base: 0}
    dist = [0]
    layer = [0]
    for depth in range(1, radius + 1):
        found = set()
        for v in layer:
            for g in action.gen_names:
                img = action.apply_gen(g, labels[v])
                if img not in seen:
                    found.add(img)
        new_layer = []
        for pt in sorted(found, key=lambda p: p.sort_key()):
            if len(labels) >= cap:
                raise BallTooLarge(cap)
            seen[pt] = len(labels)
            labels.append(pt)
            dist.append(depth)
            new_layer.append(seen[pt])
        layer = new_layer
        if not new_layer:
            break
    edges = []
    for v, pt in enumerate(labels):
        for g in action.gen_names:
            img = action.apply_gen(g, pt)
            w = seen.get(img)
            if w is not None:
                edges.append((v, g, w))
    return SchreierBall(action, labels, edges, radius, dist)


def build_level_graph(action: ActionSystem, n: int,
                      cap: int = DEFAULT_VERTEX_CAP) -> LevelGraph:
    """Graph of the truncated action on all 2^n words of length n."""
    if n < 1:
        raise InvalidRadius("level must be >= 1")
    if 2 ** n > cap:
        raise BallTooLarge(cap, needed=2 ** n)
    words = [format(i, f"0{n}b") for i in range(2 ** n)]
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for g in action.gen_names:
        images = [action.level_apply_gen(g, w) for w in words]
        if len(set(images)) != len(words):
            raise InvalidRadius(f"generator {g!r} is not a level-{n} permutation")
        for i, img in enumerate(images):
            edges.append((i, g, index[img]))
    base_word = action.basepoint.prefix(n)
    return LevelGraph(action, n, words, edges, index[base_word])


@dataclass(frozen=True)
class BoundarySets:
    """Boundary vertices of a set, split into the rim-safe verdict and the
    members whose neighbor list is truncated by the rim."""

    certified: frozenset
    rim_flagged: frozenset


def boundary_set(graph: Graph, W) -> BoundarySets:
    """Vertices of W with a neighbor outside W, computed inside the graph.

    Members sitting on the rim cannot be decided (their exterior neighbors
    may be missing) and are reported separately.
    """
    W = frozenset(W)
    interior = graph.certified(1)
    hits = set()
    flagged = set()
    for v in W:
        if v not in interior:
            flagged.add(v)
            continue
        if any(u not in W for u in graph.neighbors(v)):
            hits.add(v)
    return BoundarySets(frozenset(hits), frozenset(flagged))


def neighborhood_set(graph: Graph, W, k: int) -> frozenset:
    """All vertices at distance <= k from W inside the graph."""
    W = frozenset(W)
    if k == 0:
        return W
    dist = graph.distances_from(sorted(W))
    return frozenset(v for v in range(graph.n) if 0 <= dist[v] <= k)


# --- synthetic fixtures --------------------------------------------------

def path_graph(n: int, base: int = 0) -> Graph:
    labels = [f"p{i:03d}" for i in range(n)]
    edges = [(i, "s", i + 1) for i in range(n - 1)]
    return Graph(labels, edges, base=base)


def star_graph(leaves: int) -> Graph:
    labels = [f"s{i}" for i in range(leaves + 1)]
    edges = [(0, "s", i) for i in range(1, leaves + 1)]
    return Graph(labels, edges, base=0)


def regular_tree_ball(degree: int, radius: int) -> Graph:
    """Ball of the infinite degree-regular tree (transient control graph)."""
    labels = ["r"]
    edges = []
    dist = [0]
    frontier = [0]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            children = degree if v == 0 else degree - 1
            for _ in range(children):
                w = len(labels)
                labels.append(f"t{w}")
                dist.append(depth)
                edges.append((v, "s", w))
                nxt.append(w)
        frontier = nxt
    return Graph(labels, edges, base=0, radius=radius, dist=dist)


# --- exports -------------------------------------------------------------

def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": [graph.label_str(v) for v in range(graph.n)],
        "edges": sorted([u, name, v] for u, name, v in graph.edges),
        "dist": list(graph.dist),
        "base": graph.base,
        "radius": graph.radius,
    }


def graph_to_dot(graph: Graph, include_loops: bool = True) -> str:
    lines = ["graph schreier {"]
    for v in range(graph.n):
        lines.append(f'  n{v} [label="{graph.label_str(v)}"];')
    seen = set()
    for u, name, v in sorted(graph.edges):
        if u == v and not include_loops:
            continue
        key = (min(u, v), max(u, v), name)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f'  n{u} -- n{v} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
