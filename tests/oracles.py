"""Independent oracles the tests check the library against.

Everything here is deliberately written from scratch (integer
bookkeeping, table-driven wreath recursion, closed-form gambler's ruin,
exhaustive enumerations) and avoids the code paths under test.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

from fullgroup_lab import BoundaryPoint, canonical_point
from fullgroup_lab.cantor_actions import LETTERS

# --- seeded sample points ------------------------------------------------

def random_points(rng: random.Random, count: int, max_preperiod: int = 8,
                  max_period: int = 6) -> list[BoundaryPoint]:
    pts = []
    for _ in range(count):
        npre = rng.randrange(max_preperiod + 1)
        nper = rng.randrange(1, max_period + 1)
        pre = "".join(rng.choice(LETTERS) for _ in range(npre))
        per = "".join(rng.choice(LETTERS) for _ in range(nper))
        pts.append(canonical_point(pre, per))
    return pts


# --- 2-adic odometer bookkeeping -----------------------------------------

def int_to_point(n: int, width: int = 16) -> BoundaryPoint:
    """The 2-adic integer n as an eventually periodic word (LSB first)."""
    if n >= 0:
        bits = bin(n)[2:][::-1] if n else ""
        return canonical_point(bits, "0")
    value = (1 << width) + n
    assert value >= 0
    bits = bin(value)[2:][::-1]
    bits = bits + "0" * (width - len(bits))
    return canonical_point(bits, "1")


def odometer_apply_word_letters(word, letters: str) -> str:
    """A word of t and t_inv on a level word: t adds 1 and t_inv subtracts
    1 modulo 2^len(letters), least significant letter first."""
    k = len(letters)
    n = int(letters[::-1], 2) + list(word).count("t") - list(word).count("t_inv")
    return format(n % (1 << k), f"0{k}b")[::-1]


def point_to_int(pt: BoundaryPoint):
    """Inverse of int_to_point; None for points that are not integers."""
    if pt.period == "0":
        return sum(1 << i for i, b in enumerate(pt.preperiod) if b == "1")
    if pt.period == "1":
        k = len(pt.preperiod)
        value = sum(1 << i for i, b in enumerate(pt.preperiod) if b == "1")
        return value - (1 << k)
    return None


# --- wreath recursion tables (independent of the Transducer class) --------

# gen -> (root permutation swaps?, section at 0, section at 1); None = identity
WREATH = {
    "grigorchuk": {
        "a": (True, None, None),
        "b": (False, "a", "c"),
        "c": (False, "a", "d"),
        "d": (False, None, "b"),
    },
    "dihedral": {
        "a": (True, None, None),
        "b": (False, "a", "b"),
    },
}


def wreath_apply_letters(table: dict, gen, letters: str) -> str:
    """Apply one generator to a finite word via the wreath recursion."""
    out = []
    state = gen
    for ch in letters:
        if state is None:
            out.append(ch)
            continue
        swaps, sec0, sec1 = table[state]
        if swaps:
            out.append("1" if ch == "0" else "0")
            state = None
        else:
            out.append(ch)
            state = sec0 if ch == "0" else sec1
    return "".join(out)


def wreath_apply_word_letters(table: dict, word, letters: str) -> str:
    for gen in reversed(list(word)):
        letters = wreath_apply_letters(table, gen, letters)
    return letters


def points_agree(a: BoundaryPoint, b_prefix: str) -> bool:
    return a.prefix(len(b_prefix)) == b_prefix


# --- gambler's ruin closed forms ------------------------------------------

def path_escape(r: int) -> Fraction:
    return Fraction(1, r)


def tree3_escape(r: int) -> Fraction:
    """Escape before return on the 3-regular tree: outward bias 2/3."""
    return Fraction(2 ** (r - 1), 2 ** r - 1)


# --- independent graph utilities -------------------------------------------

def bfs_distances(n: int, pairs, source: int) -> list:
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def simple_pairs(graph) -> set:
    return {(min(u, v), max(u, v)) for u, _g, v in graph.edges if u != v}


def all_pairs(graph) -> list:
    pairs = simple_pairs(graph)
    return [bfs_distances(graph.n, pairs, s) for s in range(graph.n)]


def qi_deviation(rows, f, certified, alpha) -> Fraction:
    """Smallest beta >= 0 with both QI inequalities at this alpha, pairwise
    in rationals."""
    beta = Fraction(0)
    for i, u in enumerate(certified):
        for v in certified[i + 1:]:
            d = rows[u][v]
            gap = abs(f[u] - f[v])
            beta = max(beta, gap - alpha * d, Fraction(d) / alpha - gap)
    return beta


def ceil_to_half(x: Fraction) -> Fraction:
    return Fraction(math.ceil(x * 2), 2)


def qi_constants(graph, f) -> tuple:
    """(alpha, beta) of the rational half-grid fit at alpha = 1."""
    alpha = Fraction(1)
    beta = qi_deviation(all_pairs(graph), f, sorted(graph.certified(1)), alpha)
    return alpha, ceil_to_half(beta)


def qi_holds(rows, f, pairs, alpha, beta) -> bool:
    return all(Fraction(rows[u][v]) / alpha - beta <= abs(f[u] - f[v])
               <= alpha * rows[u][v] + beta for u, v in pairs)


def qi_tight(rows, f, certified, alpha, beta) -> bool:
    """Lowering beta by half a unit leaves it below the deviation."""
    if beta == 0:
        return True
    return qi_deviation(rows, f, certified, alpha) > beta - Fraction(1, 2)


def is_simple_path(graph) -> bool:
    """Degree sequence of a path plus connectivity."""
    degs = graph.degree_sequence()
    if graph.n == 1:
        return degs == [0]
    if degs != [1, 1] + [2] * (graph.n - 2):
        return False
    dist = bfs_distances(graph.n, simple_pairs(graph), 0)
    return all(d >= 0 for d in dist)


def exhaustive_midpoints(graph) -> list:
    """Max n with a length-2n geodesic centered at v, for every vertex v,
    by enumeration over one all-pairs table: the ends of such a geodesic
    lie on one sphere around v, so the pairs on each sphere are compared."""
    rows = all_pairs(graph)
    out = []
    for v in range(graph.n):
        spheres = {}
        for a, n in enumerate(rows[v]):
            spheres.setdefault(n, []).append(a)
        out.append(max(n for n, sphere in spheres.items() if n >= 0 and any(
            rows[a][b] == 2 * n for a in sphere for b in sphere)))
    return out


def midpoint_by_extension(graph, v: int) -> int:
    """Max n with a length-2n geodesic centered at v, by levelwise
    extension of endpoint pairs: a level-n pair (a, b) has
    d(v, a) = d(v, b) = n and d(a, b) = 2n, and the level-(n+1) pairs
    extend both ends by one edge.  One BFS row per pair group and level."""
    dv = graph.distances_from([v])
    pairs = {(v, v)}
    n = 0
    while True:
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


def random_partition(rng, max_depth: int) -> list:
    """A random prefix partition of the cylinder space, depth-capped."""
    cells = [""]
    while True:
        splittable = [c for c in cells if len(c) < max_depth]
        if not splittable or (cells != [""] and rng.random() < 0.4):
            return cells
        cell = rng.choice(splittable)
        cells.remove(cell)
        cells.extend([cell + "0", cell + "1"])


def random_elements(action, rng, count: int, max_depth: int = 3,
                    max_word: int = 3) -> list:
    """Pseudo-random validated elements (resampling past invalid tables).

    After each valid table it draws 32 points and drops them, so that each
    seed keeps giving the elements its tests were written against."""
    from fullgroup_lab import make_element
    from fullgroup_lab.errors import NotInvertible

    gens = list(action.gen_names)
    out = []
    while len(out) < count:
        prefixes = random_partition(rng, max_depth)
        pieces = [(p, tuple(rng.choice(gens)
                            for _ in range(rng.randrange(max_word + 1))))
                  for p in prefixes]
        try:
            out.append(make_element(action, pieces))
        except NotInvertible:
            continue
        random_points(rng, 32)
    return out


def permutation_closure_order(perms, cap: int = 10 ** 6) -> int:
    """Independent breadth-first closure of permutation tuples."""
    def mul(p, q):
        return tuple(p[i] for i in q)

    gens = [tuple(p) for p in perms]
    if not gens:
        return 1
    identity = tuple(range(len(gens[0])))
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = mul(g, h)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    assert len(els) <= cap
        frontier = new
    return len(els)


# --- escape probabilities from the whole harmonic system -----------------

def escape_by_dense_solve(graph, r: int) -> Fraction:
    """P(walk from the base reaches distance r before returning to it), from
    a Gauss-Jordan solve of the whole harmonic system: h = 0 at the base,
    h = 1 at distance >= r and h(v) = the mean of h over v's edges (loops
    dropped, multiple edges counted) at every other vertex.  Rows are
    stored sparse and the unknowns are taken farthest first, so a tree is
    solved leaves first, without fill."""
    dist = bfs_distances(graph.n, [(u, v) for u, _g, v in graph.edges],
                         graph.base)
    unknowns = sorted((v for v in range(graph.n) if 0 < dist[v] < r),
                      key=lambda v: -dist[v])
    column = {v: i for i, v in enumerate(unknowns)}
    m = len(unknowns)
    # row i: deg(v) h(v) - sum over edges vu of h(u) = 0, the boundary
    # values moved to the right-hand side, stored in column m
    rows = [{} for _ in range(m)]
    for u, _g, v in graph.edges:
        for a, b in ((u, v), (v, u)) if u != v else ():
            if a in column:
                row = rows[column[a]]
                row[column[a]] = row.get(column[a], 0) + 1
                if b in column:
                    row[column[b]] = row.get(column[b], 0) - 1
                elif dist[b] >= r:
                    row[m] = row.get(m, 0) + 1
    for i in range(m):
        pivot = next(k for k in range(i, m) if rows[k].get(i, 0) != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        lead = Fraction(rows[i][i])
        rows[i] = {j: x / lead for j, x in rows[i].items()}
        for k in range(m):
            factor = rows[k].get(i, 0)
            if k == i or factor == 0:
                continue
            for j, y in rows[i].items():
                x = rows[k].get(j, 0) - factor * y
                if x == 0:
                    rows[k].pop(j, None)
                else:
                    rows[k][j] = x
    h = [Fraction(int(d >= r)) for d in dist]
    for v, i in column.items():
        h[v] = rows[i].get(m, Fraction(0))
    ends = [b for u, _g, v in graph.edges if u != v
            for a, b in ((u, v), (v, u)) if a == graph.base]
    return sum(h[b] for b in ends) / len(ends)


# --- the rim, the half space's boundaries and end strips, as first written ---

def ball_interior_ok(graph, v: int, n: int) -> bool:
    """Whether B_n(v) stays off the rim: dist(v) + n <= radius - 1, and
    always on a rimless graph."""
    if graph.radius is None:
        return True
    return graph.dist[v] + n <= graph.radius - 1


def half_space_boundaries(graph, members) -> tuple:
    """(boundary, co_boundary): the vertices off the rim, inside and
    outside members, with a neighbor on the other side."""
    interior = {v for v in range(graph.n) if ball_interior_ok(graph, v, 0)}
    boundary = frozenset(
        v for v in members & interior
        if any(u not in members for u in graph.neighbors(v)))
    co_boundary = frozenset(
        v for v in interior - members
        if any(u in members for u in graph.neighbors(v)))
    return boundary, co_boundary


def end_strips_by_index(seg, m: int) -> tuple:
    """(minus strip, plus strip): the first and last max(1, m) vertices of
    seg whose 0-ball stays off the rim."""
    width = max(1, m)
    inside = [i for i, v in enumerate(seg.vertices)
              if ball_interior_ok(seg.graph, v, 0)]
    return (frozenset(seg.vertices[i] for i in inside[:width]),
            frozenset(seg.vertices[i] for i in inside[-width:]))


# --- whole-window forms of the transport checks -----------------------------

def side_boundary_by_scan(graph, side) -> frozenset:
    """Certified vertices of side with a neighbor outside it, by a scan
    of the whole side."""
    w1 = graph.certified(1)
    return frozenset(v for v in side & w1
                     if any(u not in side for u in graph.neighbors(v)))


def is_invariant_by_scan(F, graph, subset) -> bool:
    """Membership in subset is kept by every phi of F and its inverse at
    every vertex of the window certified(max(1, d_phi))."""
    from fullgroup_lab.full_group import displacement_bound, invert, vertex_map

    for phi in F:
        window = graph.certified(max(1, displacement_bound(phi)))
        for direction in (phi, invert(phi)):
            image = vertex_map(direction, graph)
            if any(image[x] < 0 or (x in subset) != (image[x] in subset)
                   for x in window):
                return False
    return True


def reach_avoiding(graph, seeds, forbidden) -> frozenset:
    """The seeds outside forbidden and every vertex a path from them
    reaches without entering forbidden, by one search over the window."""
    seen = set(seeds) - set(forbidden)
    queue = deque(sorted(seen))
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in seen and w not in forbidden:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def transport_sides_by_scan(half, p: int, z: int, n: int) -> tuple:
    """(a_plus, a_minus): the sides of the marks of the match p -> z, each
    grown over the whole window by paths avoiding the other's marks."""
    from fullgroup_lab.pattern_transport import labeled_match

    h = labeled_match(half.graph, p, z, n)
    b_plus = frozenset(h[u] for u in h if u in half.members)
    b_minus = frozenset(h[u] for u in h if u not in half.members)
    return (reach_avoiding(half.graph, b_plus, b_minus),
            reach_avoiding(half.graph, b_minus, b_plus))


def transport_by_scan(F, z: int, n: int, half, anchor):
    """(report, failed check names, Y_z) of the half space transported to
    the match point z, with every check over the whole window: boundaries
    by scan, the R-ball from a full BFS row, invariance at every certified
    vertex.  None when the half space's boundary escapes the match."""
    from fullgroup_lab.line_geometry import end_strips
    from fullgroup_lab.pattern_transport import labeled_match

    graph, chart = half.graph, half.chart
    p, R = anchor
    h = labeled_match(graph, p, z, n)
    if not set(half.boundary) | set(half.co_boundary) <= set(h):
        return None
    a_plus, a_minus = transport_sides_by_scan(half, p, z, n)
    w1 = graph.certified(1)
    boundary_plus = side_boundary_by_scan(graph, a_plus)
    boundary_minus = side_boundary_by_scan(graph, a_minus)
    checks = {
        "cover": w1 <= a_plus | a_minus,
        "disjoint": not a_plus & a_minus,
        "boundary_plus": boundary_plus == {h[u] for u in half.boundary},
        "boundary_minus": boundary_minus == {h[u] for u in half.co_boundary},
    }
    strip_minus, strip_plus = end_strips(chart.geodesic, chart.m)
    ends = [strip <= side for strip in (strip_plus, strip_minus)
            for side in (a_plus, a_minus)]
    checks["one_end_each"] = ends[0] != ends[1] and ends[2] != ends[3] \
        and ends[0] != ends[2]
    y_z, boundary = (a_plus, boundary_plus) if ends[0] else \
        (a_minus, boundary_minus)
    row = graph.distances_from([z])
    checks["boundary_in_R_ball"] = all(row[v] <= R for v in boundary)
    checks["invariance"] = is_invariant_by_scan(F, graph, y_z)
    report = {"z": z, "n": n, "R": R, "y_z_size": len(y_z),
              "boundary": sorted(graph.label_str(v) for v in boundary),
              "checks": dict(sorted(checks.items()))}
    return report, [k for k, v in checks.items() if not v], y_z


# --- the cocycle on two windows -------------------------------------------

def cocycle_by_two_windows(phi, half):
    """(vertices, (w_small, w_big)) of Y symdiff phi(Y), computed on both
    windows and compared, after testing that phi^-1 keeps each window in
    the ball and that each piece word's translate difference lies near
    the boundary; raises NotStabilized with cocycle_value's messages."""
    from fullgroup_lab import neighborhood_set
    from fullgroup_lab.errors import NotStabilized
    from fullgroup_lab.full_group import (FullGroupElement, displacement_bound,
                                          invert, vertex_map)

    graph = half.graph
    if graph.radius is None:
        raise NotStabilized("cocycles need a rim-bounded orbit ball")
    d = max(1, displacement_bound(phi))
    w_big = graph.radius - d
    w_small = w_big - d
    if w_small < 1:
        raise NotStabilized(
            f"radius {graph.radius} too small for displacement {d}")
    pre = vertex_map(invert(phi), graph)

    def sym_diff(w):
        window = [v for v in range(graph.n) if graph.dist[v] <= w]
        if any(pre[v] < 0 for v in window):
            raise NotStabilized(
                f"phi^-1 leaves the ball inside window {w}; radius too small")
        return frozenset(v for v in window
                         if (v in half.members) != (pre[v] in half.members))

    small, big = sym_diff(w_small), sym_diff(w_big)
    if small != big:
        raise NotStabilized(
            f"value changed when growing the window {w_small} -> {w_big}; "
            "radius too small")
    for _prefix, word in phi.pieces:
        if not word:
            continue
        inverse = tuple(phi.action.inverse_word(word))
        back = vertex_map(FullGroupElement(phi.action, (("", inverse),)), graph)
        stray = {v for v in range(graph.n) if graph.dist[v] <= w_small
                 and v not in half.members and back[v] in half.members} - \
            neighborhood_set(graph, half.boundary, len(word))
        if stray:
            raise NotStabilized(
                f"translate difference escapes the boundary neighborhood "
                f"at vertices {sorted(stray)[:4]}")
    return big, (w_small, w_big)


# --- per-vertex lookups computed afresh ------------------------------------

def ball_by_two_passes(action, radius: int) -> tuple:
    """(labels, edges, dist) of the radius ball: a BFS, then every
    (vertex, generator) image computed again for the edge list."""
    labels, dist = [action.basepoint], [0]
    index = {action.basepoint: 0}
    layer = [0]
    for depth in range(1, radius + 1):
        found = {action.apply_gen(g, labels[v])
                 for v in layer for g in action.gen_names} - set(index)
        layer = []
        for pt in sorted(found, key=lambda p: p.sort_key()):
            index[pt] = len(labels)
            layer.append(len(labels))
            labels.append(pt)
            dist.append(depth)
    edges = [(v, g, index[img]) for v, pt in enumerate(labels)
             for g in action.gen_names
             for img in [action.apply_gen(g, pt)] if img in index]
    return labels, edges, dist


def level_graph_by_words(action, n: int, cap: int = 1 << 16):
    """The level-n graph with every word run through the transducer, one
    generator at a time, with the same refusals as build_level_graph."""
    from fullgroup_lab import LevelGraph
    from fullgroup_lab.cantor_actions import cells
    from fullgroup_lab.errors import BallTooLarge, InvalidRadius

    if n < 1:
        raise InvalidRadius("level must be >= 1")
    if 2 ** n > cap:
        raise BallTooLarge(cap, needed=2 ** n)
    words = cells(n)
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for g in action.gen_names:
        images = [action.level_apply_gen(g, w) for w in words]
        if len(set(images)) != len(words):
            raise InvalidRadius(f"generator {g!r} is not a level-{n} permutation")
        edges.extend((i, g, index[img]) for i, img in enumerate(images))
    return LevelGraph(action, n, words, edges, index[action.basepoint.prefix(n)])


def same_pattern_by_word_at(F, graph, v1: int, v2: int, n: int) -> bool:
    """same_pattern with each piece word looked up by word_at at both ends
    of every pair of the match."""
    from fullgroup_lab.pattern_transport import labeled_match

    h = labeled_match(graph, v1, v2, n)
    return h is not None and all(
        phi.word_at(graph.labels[u]) == phi.word_at(graph.labels[image])
        for u, image in h.items() for phi in F)
