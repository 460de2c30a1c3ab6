"""Repeating local action patterns and transported half spaces.

Two vertices carry the same pattern for a family F when their labeled
n-neighborhoods are isomorphic via the generator-equivariant bijection
h(w.v1) = w.v2 and every element of F uses the same piece word at
corresponding points.  A matched vertex z receives a transported half
space: mark B+ = h(Y n B_n(p)) and B- = h(Y^c n B_n(p)), grow each side
by paths avoiding the other, and keep the side containing the plus end
of the geodesic window.

A side is kept as a slab of the chart's levels, not as a set of the
whole window: its members on the levels t1 <= f <= t2, which hold the
match window M, and one verdict for every vertex below t1 and one for
every vertex above t2.  Two facts about f = d(e, .) - d(e, base), e the
chart's minus end, make the verdicts exact:
- {f < t} is connected.  A vertex x != e has a BFS parent toward e, a
  neighbour with f one lower, so the chain of parents from x to e stays
  in {f < t} whenever x is in it.
- Every component of {f > t} meets F_(t+1) = {f = t + 1}.  The chain of
  parents from a vertex of {f > t} lowers f by one per step, so it stays
  in {f > t} until it reaches F_(t+1), inside the vertex's component.
f changes by at most 1 along an edge, so an edge leaving {f < t1} ends
on level t1, and one leaving {f > t2} on level t2.  When neither region
holds a mark, each is a whole piece of G - M (the second one once
F_(t2+1) is seen to lie in one of its components), and the slab's
unmarked vertices make up the other pieces: every check then costs work
near M, not over the window (_sides).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycle import HalfSpace, n_phi, r_constant, stabilizer_test
from .errors import (
    NoRepetition,
    PatternMismatch,
    PreconditionNphi,
    RimContact,
    TransportFailure,
)
from .full_group import displacement_bound, invert, walker, word_column
from .schreier import Graph


def labeled_match(graph: Graph, v1: int, v2: int, n: int):
    """Generator-equivariant bijection B_n(v1) -> B_n(v2), or None.

    The map sends w.v1 to w.v2 for every generator word of length <= n;
    it exists iff the rooted, generator-labeled neighborhoods are
    isomorphic (loops must match loops).
    """
    succ = graph.successors()
    match = {v1: v2}
    reverse = {v2: v1}
    frontier = [v1]
    for _depth in range(n):
        nxt = []
        for a in frontier:
            b = match[a]
            for row in succ.values():
                a2, b2 = row[a], row[b]  # -1: the edge leaves the graph
                if a2 in match or a2 < 0:
                    if match.get(a2, -1) != b2:
                        return None
                    continue
                if b2 in reverse or b2 < 0:
                    return None
                match[a2] = b2
                reverse[b2] = a2
                nxt.append(a2)
        frontier = nxt
    return match


def _piece_mismatch(columns, h: dict):
    """The first u of the match h where a column of piece words differs at
    u and h[u], or None; columns holds word_column(phi, graph) per phi of F."""
    for u, image in h.items():
        for words in columns:
            if words[u] != words[image]:
                return u
    return None


def _same_pattern(columns, graph: Graph, v1: int, v2: int, n: int) -> bool:
    """same_pattern, columns being F's (_piece_mismatch).  The match sends
    v1 to v2, so the words there are compared first."""
    if any(words[v1] != words[v2] for words in columns):
        return False
    h = labeled_match(graph, v1, v2, n)
    return h is not None and _piece_mismatch(columns, h) is None


def same_pattern(F, graph: Graph, v1: int, v2: int, n: int) -> bool:
    """Neighborhoods isomorphic and piece words equal under the match."""
    return _same_pattern([word_column(phi, graph) for phi in F], graph,
                         v1, v2, n)


def pattern_match_points(F, graph: Graph, n: int, anchor: int) -> list:
    """All vertices of certified(n + 1) with the anchor's pattern.  F's
    columns are read once for the scan, however many elements it has."""
    candidates = graph.certified(n + 1)
    if anchor not in candidates:
        raise RimContact("anchor neighborhood touches the rim")
    columns = [word_column(phi, graph) for phi in F]
    return [z for z in sorted(candidates)
            if _same_pattern(columns, graph, anchor, z, n)]


def repetition_radius(matches, n: int, graph: Graph) -> int:
    """Smallest r such that every certified vertex is within r of one of the
    matches (pattern_match_points).  Window-relative evidence, not a proof."""
    if not matches:
        raise NoRepetition("anchor pattern repeats nowhere in the window")
    dist = graph.distances_from(matches)
    r = 0
    for v in sorted(graph.certified(n + 1)):
        if dist[v] < 0:
            raise NoRepetition(f"vertex {v} cannot reach any match")
        r = max(r, dist[v])
    return r


class Slab:
    """A vertex set of a chart's graph, given by its members on the levels
    t1 <= f <= t2 of the chart's f, and one verdict for all the levels
    below and one for all above (see the module docstring).  A plain class:
    a dataclass takes about a millisecond to define at import, and three
    times as long to build."""

    __slots__ = ("f", "t1", "t2", "members", "below", "above")

    def __init__(self, f: tuple, t1: int, t2: int, members: frozenset,
                 below: bool, above: bool):
        self.f, self.t1, self.t2 = f, t1, t2
        self.members, self.below, self.above = members, below, above

    def __contains__(self, v: int) -> bool:
        verdict = self.verdict(self.f[v])
        return v in self.members if verdict is None else verdict

    def verdict(self, t: int):
        """Whether every vertex of level t is a member, or None on the
        slab's own levels."""
        if t < self.t1:
            return self.below
        if t > self.t2:
            return self.above
        return None


@dataclass(frozen=True)
class TransportedHalfSpace:
    z: int
    n: int
    match_map: dict
    slab: Slab         # Y_z
    size: int          # |Y_z|
    boundary: frozenset
    R: int
    checks: dict

    def to_json(self, graph: Graph) -> dict:
        return {
            "z": self.z,
            "n": self.n,
            "R": self.R,
            "y_z_size": self.size,
            "boundary": sorted(graph.label_str(v) for v in self.boundary),
            "checks": {k: bool(v) for k, v in sorted(self.checks.items())},
        }


def transport_anchor(F, n: int, half: HalfSpace) -> tuple:
    """(p, R): the basepoint's projection p onto the chart's geodesic and R
    at p.  Raises TransportFailure unless F stabilizes Y, and
    PreconditionNphi unless n > N_phi."""
    for phi in F:
        if not stabilizer_test(phi, half):
            raise TransportFailure("every element of F must stabilize Y")
    R = r_constant(half)
    worst = max(n_phi(half.chart.m, R, displacement_bound(phi)) for phi in F)
    if n <= worst:
        raise PreconditionNphi(f"need n > {worst}, got {n}")
    return half.chart.p, R


def transport_halfspace(F, z: int, n: int, half: HalfSpace,
                        anchor: tuple) -> TransportedHalfSpace:
    """Build and verify the half space transported to the match point z;
    anchor is transport_anchor(F, n, half).

    Both sides come as slabs (_sides), so every check reads membership in
    O(1) and looks only near the match window M = b_plus | b_minus, but
    disjoint, which reads the slabs' pieces.  cover is True: the chart's
    graph is connected, and a shortest path from any vertex to M meets M
    first at a mark, whose side then reaches the vertex.  A side's
    boundary is its certified part next to the other side's marks, since
    M meets every edge between it and its complement; the R-ball test
    searches from z only to depth R (a full row has no -1 to miss).
    """
    graph = half.graph
    p, R = anchor
    if z not in graph.certified(n + 1):
        raise RimContact(f"B_{n}({z}) touches the rim")

    h = labeled_match(graph, p, z, n)
    if h is None:
        raise PatternMismatch(f"neighborhoods of {p} and {z} are not isomorphic")
    u = _piece_mismatch([word_column(phi, graph) for phi in F], h)
    if u is not None:
        raise PatternMismatch(f"piece words differ at {graph.label_str(u)}")
    if not half.boundary.issubset(h) or not half.co_boundary.issubset(h):
        raise TransportFailure("half-space boundary escapes the match window")

    # the slabs' own levels reach 2d past M's, so every vertex the
    # boundary and invariance tests read (within 2d of M) is on them, and
    # there a side is its members
    d = max(1, max(displacement_bound(phi) for phi in F))
    marks = {h[u]: u in half.members for u in h}
    b_plus = frozenset(v for v, plus in marks.items() if plus)
    b_minus = frozenset(v for v, plus in marks.items() if not plus)
    (a_plus, size_plus), (a_minus, size_minus), disjoint = \
        _sides(half.chart, marks, 2 * d)

    checks = {"cover": True, "disjoint": disjoint}
    boundary_plus = _side_boundary(graph, a_plus.members, b_minus)
    boundary_minus = _side_boundary(graph, a_minus.members, b_plus)
    checks["boundary_plus"] = boundary_plus == frozenset(
        h[u] for u in half.boundary)
    checks["boundary_minus"] = boundary_minus == frozenset(
        h[u] for u in half.co_boundary)

    strip_minus, strip_plus = half.strips
    plus_in_aplus = all(v in a_plus for v in strip_plus)
    plus_in_aminus = all(v in a_minus for v in strip_plus)
    minus_in_aplus = all(v in a_plus for v in strip_minus)
    minus_in_aminus = all(v in a_minus for v in strip_minus)
    checks["one_end_each"] = (plus_in_aplus != plus_in_aminus) and \
        (minus_in_aplus != minus_in_aminus) and \
        (plus_in_aplus != minus_in_aplus)

    y_z, size, boundary = (a_plus, size_plus, boundary_plus) if plus_in_aplus \
        else (a_minus, size_minus, boundary_minus)
    near_z = graph.distances_within((z,), R)
    checks["boundary_in_R_ball"] = all(v in near_z for v in boundary)

    checks["invariance"] = _is_invariant(F, graph, y_z.members, marks.keys())

    result = TransportedHalfSpace(z, n, h, y_z, size, boundary, R, checks)
    failed = [k for k, v in checks.items() if not v]
    if failed:
        raise TransportFailure(f"transport checks failed: {failed}",
                               report=result.to_json(graph))
    return result


def _sides(chart, marks: dict, margin: int) -> tuple:
    """((a_plus, its size), (a_minus, its size), whether they are disjoint),
    the sides as slabs, marks sending each vertex of M to True on b_plus.

    a_plus is b_plus and every vertex whose component of G - M has a
    neighbour in b_plus (a path from b_plus that avoids b_minus leaves M
    for the last time at a plus mark); a_minus likewise.  The slab's
    levels [t1, t2] run from margin >= 1 below M's lowest level to margin
    above its highest, or higher while the levels above are not seen to
    be connected (_joined_above).  The pieces of G - M are then the levels
    below t1 (connected, by the module docstring's first fact), the levels
    above t2 (connected), and the components of the slab's unmarked
    vertices, which one search finds; no mark is next to the levels below
    or above.  Pieces joined by an edge lie in one component, and the
    union of the marks they touch decides both sides there.
    """
    graph, f = chart.graph, chart.f
    low, order, start = chart.levels
    top = low + len(start) - 2
    levels = [f[v] for v in marks]
    t1 = max(low, min(levels) - margin)
    t2 = min(top, max(levels) + margin)
    while t2 < top and not _joined_above(
            graph, f, order[start[t2 + 1 - low]:start[t2 + 2 - low]]):
        t2 += 1

    # pieces: 0 the levels below the slab, 1 those above, then one per
    # component of the slab's unmarked vertices; touch[k] holds the kinds
    # of marks piece k has a neighbour in, next_to[e] the components with
    # a neighbour below (e = 0) or above (e = 1) the slab
    sizes = [start[t1 - low], graph.n - start[t2 + 1 - low]]
    touch = [set(), set()]
    next_to = (set(), set())
    comp = {}
    for v in order[start[t1 - low]:start[t2 + 1 - low]]:
        if v in marks or v in comp:
            continue
        k = len(sizes)
        kinds = set()
        comp[v] = k
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w in marks:
                    kinds.add(marks[w])
                elif f[w] < t1:
                    next_to[0].add(k)
                elif f[w] > t2:
                    next_to[1].add(k)
                elif w not in comp:
                    comp[w] = k
                    stack.append(w)
        sizes.append(0)
        touch.append(kinds)
    for k in comp.values():
        sizes[k] += 1

    # the pieces of one component share its kinds; a slab component next
    # to both the levels below and above joins them
    groups = [next_to[0] | {0}, next_to[1] | {1}]
    if next_to[0] & next_to[1]:
        groups = [groups[0] | groups[1]]
    verdict = list(touch)
    for group in groups:
        kinds = set().union(*(touch[k] for k in group))
        for k in group:
            verdict[k] = kinds

    disjoint = not any(len(kinds) == 2 and size
                       for kinds, size in zip(verdict, sizes))
    sides = []
    for plus in (True, False):
        members = frozenset([v for v, kind in marks.items() if kind == plus] +
                            [v for v, k in comp.items() if plus in verdict[k]])
        size = sum(kind == plus for kind in marks.values()) + \
            sum(s for kinds, s in zip(verdict, sizes) if plus in kinds)
        sides.append((Slab(f, t1, t2, members, plus in verdict[0],
                           plus in verdict[1]), size))
    return sides[0], sides[1], disjoint


def _joined_above(graph: Graph, f, fiber) -> bool:
    """Whether the fiber F_(t+1) lies in one component of the levels t+1
    and t+2, so that the levels above t are connected: each of their
    components meets F_(t+1) (the module docstring's second fact)."""
    if len(fiber) == 1:
        return True
    t = f[fiber[0]]
    seen = {fiber[0]}
    stack = [fiber[0]]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w not in seen and t <= f[w] <= t + 1:
                seen.add(w)
                stack.append(w)
    return all(v in seen for v in fiber)


def _side_boundary(graph: Graph, side, other_marks) -> frozenset:
    """Certified vertices of side with a neighbor outside it, where side is
    the side of its marks that avoids other_marks (_sides): such a
    neighbor is one of other_marks, since the side stops nowhere else."""
    w1 = graph.certified(1)
    return frozenset(v for u in other_marks for v in graph.neighbors(u)
                     if v in side and v in w1)


def _changes_side(images, graph: Graph, subset, seam, d: int) -> bool:
    """Whether one of the walkers images (full_group.walker) sends some x
    of the window certified(max(1, d)) across the subset's border, each
    moving x by a walk of at most d in-ball edges.

    seam must meet every edge between the subset and its complement.  A walk
    that keeps off the seam never changes side, and every walk from an x
    farther than d from the seam keeps off it, so only the x within d of the
    seam are read.
    """
    window = graph.certified(max(1, d))
    near = [x for x in graph.distances_within(seam, d) if x in window]
    return any((x in subset) != (image(x) in subset)
               for image in images for x in near)


def _is_invariant(F, graph: Graph, subset: frozenset, seam) -> bool:
    """Membership in the subset is preserved by every phi of F, both ways,
    at every x of the window certified(max(1, d)), d = displacement_bound(phi):
    no side change (_changes_side) under phi or invert(phi), whose words
    have phi's lengths (an involution, its own inverse, is read once).
    seam must meet every edge between the subset and its complement.
    """
    return not any(_changes_side(
        [walker(e, graph) for e in dict.fromkeys((phi, invert(phi)))],
        graph, subset, seam, displacement_bound(phi)) for phi in F)
