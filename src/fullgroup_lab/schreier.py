"""Finite pieces of orbit Schreier graphs and level quotients.

Each generator acts as a map of the orbit, so a graph stores its vertices
and one successor row per generator, and nothing else.  Balls are built by
breadth-first search from the basepoint with a deterministic vertex order:
layer by layer, ties broken by the canonical form of the point.  Loops and
multi-edges are kept in the rows but ignored by all distance computations.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import repeat
from operator import attrgetter

from .cantor_actions import ActionSystem, BoundaryPoint, cells
from .errors import BallTooLarge, InvalidRadius

DEFAULT_VERTEX_CAP = 1 << 16

_point_key = attrgetter("preperiod", "period")

# Work counters of every graph, which verify --timing reports per check:
# full BFS rows (distances_from calls) and bounded searches (distances_to,
# d and distances_within calls); module globals, since a store to a class
# attribute voids the class's lookup cache.
full_rows = 0
searches = 0


class Graph:
    """Vertex-labeled graph with an optional basepoint/rim structure.

    labels[i] is the payload of vertex i (a BoundaryPoint for orbit balls,
    a string for level graphs and synthetic fixtures).  succ maps each
    generator name to its row, the list of each vertex's image, -1 where
    the edge leaves the graph.  The rows are closed under inverses (an
    involution is its own), so a vertex's images are all its neighbours.
    dist is the base's BFS row: build_ball's search depth for a ball, the
    same search run here when none is given.  For graphs cut out of an
    infinite orbit, radius is the BFS radius and the vertices come in BFS
    order from the base 0, so the vertices certified at a margin are a
    prefix of them.  Graphs without a rim (level graphs, synthetic
    fixtures) leave radius None and every vertex is certified.
    """

    def __init__(self, labels, succ, base=0, radius=None, dist=None):
        self.labels = list(labels)
        self.succ = succ
        self.base = base
        self.radius = radius
        self._index = None
        self._adj = None
        self._prefixes = {}  # depth -> every label's prefix (full_group)
        self.dist = list(dist) if dist is not None else \
            self.distances_from([base])
        if radius is not None and self.dist != sorted(self.dist):
            raise ValueError("a rim needs the vertices in BFS order")

    @staticmethod
    def _key(label):
        return label.sort_key() if isinstance(label, BoundaryPoint) else label

    @property
    def n(self) -> int:
        return len(self.labels)

    def vertex_of(self, label):
        """The vertex with this label, or None; the first call indexes the
        labels (the certificates look few labels up, cut balls none)."""
        if self._index is None:
            self._index = {self._key(lab): i for i, lab in enumerate(self.labels)}
        return self._index.get(self._key(label))

    def label_str(self, v: int) -> str:
        lab = self.labels[v]
        return lab.label() if isinstance(lab, BoundaryPoint) else str(lab)

    def orientation_key(self, v: int):
        lab = self.labels[v]
        if isinstance(lab, BoundaryPoint):
            return lab.orientation_key()
        return (str(lab),)

    def neighbors(self, v: int):
        """v's distinct images but v, sorted, built for every vertex at the
        first call from the rows' own ints (a level graph shares them)."""
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for row in self.succ.values():
                for u, w in enumerate(row):
                    if w >= 0 and u != w:
                        adj[u].add(w)
            self._adj = [tuple(sorted(s)) for s in adj]
        return self._adj[v]

    @property
    def edges(self) -> list:
        """The rows as sorted (u, name, v) triples, for the exports."""
        return sorted((u, name, v) for name, row in self.succ.items()
                      for u, v in enumerate(row) if v >= 0)

    def degree_sequence(self):
        return sorted(len(self.neighbors(v)) for v in range(self.n))

    def distances_from(self, sources) -> list:
        """BFS distances (loopless simple adjacency); -1 if unreachable."""
        global full_rows
        full_rows += 1
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
        """BFS row of v (one full search, not cached)."""
        return self.distances_from([v])

    def distances_within(self, sources, k: int) -> dict:
        """Vertex -> distance from the nearest source, for every vertex
        within k of the sources, by a BFS that stops at depth k."""
        global searches
        searches += 1
        dist = dict.fromkeys(sources, 0) if k >= 0 else {}
        layer, depth = list(dist), 0
        while layer and depth < k:
            depth += 1
            nxt = []
            for u in layer:
                for w in self.neighbors(u):
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            layer = nxt
        return dist

    def distances_to(self, u: int, targets) -> list:
        """Distance from u to each target by a BFS that stops once it has
        reached them all; -1 for a target it cannot reach."""
        global searches
        searches += 1
        dist = {u: 0}
        left = set(targets)
        left.discard(u)
        layer, k = [u], 0
        while left and layer:
            k += 1
            nxt = []
            for x in layer:
                for w in self.neighbors(x):
                    if w not in dist:
                        dist[w] = k
                        nxt.append(w)
            left.difference_update(nxt)
            layer = nxt
        return [dist.get(t, -1) for t in targets]

    def d(self, u: int, v: int) -> int:
        """Distance from u to v by a BFS that stops at v; -1 if unreachable."""
        return self.distances_to(u, (v,))[0]

    def certified(self, margin: int) -> range:
        """Vertices whose in-graph neighborhood of the given margin is not
        truncated by the rim, those with dist <= radius - margin: a prefix
        of the BFS order.  Rimless graphs certify everything."""
        if self.radius is None:
            return range(self.n)
        return range(bisect_right(self.dist, self.radius - margin))

    def bfs_parents(self, root: int):
        """(parent, dist) of a BFS from root, parent[root] = -1.  A vertex's
        parent is its neighbour one step closer to root that the search
        dequeued first (each vertex scans its neighbours in index order),
        which need not be the smallest-index such neighbour.  Every chart's
        geodesic follows these parents."""
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

    def __init__(self, action: ActionSystem, labels, succ, radius, dist):
        self.action = action
        super().__init__(labels, succ, base=0, radius=radius, dist=dist)

    def point(self, v: int) -> BoundaryPoint:
        return self.labels[v]

    def cut(self, radius: int) -> SchreierBall:
        """The ball of a radius at most this one's, equal to what build_ball
        returns: its vertices are a prefix of these (build_ball adds them
        layer by layer), and its rows these rows' first entries, with the
        images beyond that prefix off the ball."""
        if not 0 <= radius <= self.radius:
            raise InvalidRadius(f"cannot cut radius {radius} from a ball of "
                                f"radius {self.radius}")
        k = bisect_right(self.dist, radius)
        succ = {g: [w if w < k else -1 for w in row[:k]]
                for g, row in self.succ.items()}
        return SchreierBall(self.action, self.labels[:k], succ, radius,
                            self.dist[:k])


class LevelGraph(Graph):
    """Action graph on all binary words of a fixed length."""

    def __init__(self, action: ActionSystem, level, labels, succ, base):
        self.action = action
        self.level = level
        super().__init__(labels, succ, base=base, radius=None)


def build_ball(action: ActionSystem, radius: int,
               cap: int = DEFAULT_VERTEX_CAP) -> SchreierBall:
    """Exact radius-r ball around the basepoint, deterministic indexing.

    Each (vertex, generator) image is computed once: the search keeps the
    images of the layers it expands, and only the last layer's are
    computed afterwards, for the rows.  Points are hashed and sorted by
    their (preperiod, period) tuples, which order them as sort_key does
    and are equal exactly when the points are."""
    if radius < 0:
        raise InvalidRadius("radius must be >= 0")
    if cap < 1:
        raise BallTooLarge(cap, needed=1)  # the base alone
    labels = [action.basepoint]
    seen = {_point_key(labels[0]): 0}
    dist = [0]
    images = {g: [] for g in action.gen_names}  # g's image of each vertex
    first = 0  # the last layer is labels[first:]
    for depth in range(1, radius + 1):
        found = {}
        layer = labels[first:]
        for g, column in images.items():
            row = list(map(action.apply_gen, repeat(g), layer))
            column += row
            found.update(zip(map(_point_key, row), row))
        first = len(labels)
        for key in sorted(k for k in found if k not in seen):
            if len(labels) >= cap:
                raise BallTooLarge(cap)
            seen[key] = len(labels)
            labels.append(found[key])
            dist.append(depth)
        if len(labels) == first:
            break
    layer = labels[first:]
    for g, column in images.items():
        column += map(action.apply_gen, repeat(g), layer)
    succ = {g: list(map(seen.get, map(_point_key, column), repeat(-1)))
            for g, column in images.items()}
    return SchreierBall(action, labels, succ, radius, dist)


def build_level_graph(action: ActionSystem, n: int,
                      cap: int = DEFAULT_VERTEX_CAP) -> LevelGraph:
    """Graph of the truncated action on all 2^n words of length n.

    Vertex i is the i-th word of cells(n).  Each generator's row is its
    level-n image table (GeneratorSpec.level_images), built from its
    states' tables by the section recursion (Transducer.level_tables), so
    no word is run through the transducer.  The vertex ids and the table
    entries are elements of one list: the ints are shared, and the dicts
    the line chart keys by vertex find them by identity.

    Each table is a permutation: a generator has an inverse (ActionSystem
    decides one), so it is a bijection.  Its pieces are at most n deep
    (level_images refuses a deeper one), so the cylinder of a level-n word
    u lies under one piece, whose state, a tree automorphism, maps it onto
    the cylinder of u's image.  Two words with one image would be disjoint
    cylinders mapped onto one, and the generator would not be injective."""
    if n < 1:
        raise InvalidRadius("level must be >= 1")
    if 2 ** n > cap:
        raise BallTooLarge(cap, needed=2 ** n)
    words = cells(n)
    ids = list(range(len(words)))
    specs = [action.generators[g] for g in action.gen_names]
    tables = action.transducer.level_tables(
        {s for spec in specs for s in spec.states}, ids)
    succ = {g: spec.level_images(tables, n)
            for g, spec in zip(action.gen_names, specs)}
    base = ids[int(action.basepoint.prefix(n), 2)]
    return LevelGraph(action, n, words, succ, base)


def neighborhood_set(graph: Graph, W, k: int) -> frozenset:
    """All vertices at distance <= k from W inside the graph."""
    return frozenset(graph.distances_within(W, k))


# --- synthetic fixtures --------------------------------------------------

def path_graph(n: int, base: int = 0) -> Graph:
    labels = [f"p{i:03d}" for i in range(n)]
    succ = {"s": [i + 1 if i + 1 < n else -1 for i in range(n)],
            "s_inv": [i - 1 for i in range(n)]}
    return Graph(labels, succ, base=base)


def star_graph(leaves: int) -> Graph:
    labels = [f"s{i}" for i in range(leaves + 1)]
    succ = {}
    for leaf in range(1, leaves + 1):
        row = succ[f"s{leaf}"] = [-1] * (leaves + 1)
        row[0], row[leaf] = leaf, 0
    return Graph(labels, succ, base=0)


def regular_tree_ball(degree: int, radius: int) -> Graph:
    """Ball of the infinite degree-regular tree (transient control graph);
    degree involutions colour it, each child taking a colour left free."""
    labels = ["r"]
    succ = {f"s{c}": [-1] for c in range(degree)}
    dist = [0]
    frontier = [0]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for row in [row for row in succ.values() if row[v] < 0]:
                w = len(labels)
                labels.append(f"t{w}")
                dist.append(depth)
                for other in succ.values():
                    other.append(-1)
                row[v], row[w] = w, v
                nxt.append(w)
        frontier = nxt
    return Graph(labels, succ, base=0, radius=radius, dist=dist)


# --- exports -------------------------------------------------------------

def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": [graph.label_str(v) for v in range(graph.n)],
        "edges": [list(edge) for edge in graph.edges],
        "dist": list(graph.dist),
        "base": graph.base,
        "radius": graph.radius,
    }


def graph_to_dot(graph: Graph, include_loops: bool = True) -> str:
    lines = ["graph schreier {"]
    for v in range(graph.n):
        lines.append(f'  n{v} [label="{graph.label_str(v)}"];')
    seen = set()
    for u, name, v in graph.edges:
        if u == v and not include_loops:
            continue
        key = (min(u, v), max(u, v), name)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f'  n{u} -- n{v} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
