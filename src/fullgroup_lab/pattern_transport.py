"""Repeating local action patterns and transported half spaces.

Two vertices carry the same pattern for a family F when their labeled
n-neighborhoods are isomorphic via the generator-equivariant bijection
h(w.v1) = w.v2 and every element of F uses the same piece word at
corresponding points.  A matched vertex z receives a transported half
space: mark B+ = h(Y n B_n(p)) and B- = h(Y^c n B_n(p)), grow each side
by paths avoiding the other, and keep the side containing the plus end
of the geodesic window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cocycle import HalfSpace, n_phi, r_constant, stabilizer_test
from .errors import (
    NoRepetition,
    PatternMismatch,
    PreconditionNphi,
    RimContact,
    TransportFailure,
)
from .full_group import displacement_bound, invert, vertex_map, word_column
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


def _reach_avoiding(graph: Graph, seeds, forbidden) -> frozenset:
    seen = set(seeds) - set(forbidden)
    q = deque(sorted(seen))
    while q:
        u = q.popleft()
        for w in graph.neighbors(u):
            if w not in seen and w not in forbidden:
                seen.add(w)
                q.append(w)
    return frozenset(seen)


@dataclass(frozen=True)
class TransportedHalfSpace:
    z: int
    n: int
    match_map: dict
    b_plus: frozenset
    b_minus: frozenset
    a_plus: frozenset
    a_minus: frozenset
    y_z: frozenset
    boundary: frozenset
    R: int
    checks: dict

    def to_json(self, graph: Graph) -> dict:
        return {
            "z": self.z,
            "n": self.n,
            "R": self.R,
            "y_z_size": len(self.y_z),
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

    cover is True: the chart's graph is connected, and a shortest path from
    any vertex to the match window M = b_plus | b_minus meets M first at a
    mark, whose side then reaches the vertex.  Every check but disjoint
    looks only near M.  A side grows from its marks along every edge except into the other
    side's marks, so its boundary is its certified part next to those
    marks, and M meets every edge between it and its complement; the R-ball
    test searches from z only to depth R (a full row has no -1 to miss).
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

    b_plus = frozenset(h[u] for u in h if u in half.members)
    b_minus = frozenset(h[u] for u in h if u not in half.members)
    a_plus = _reach_avoiding(graph, b_plus, b_minus)
    a_minus = _reach_avoiding(graph, b_minus, b_plus)

    checks = {"cover": True, "disjoint": not (a_plus & a_minus)}

    if not (half.boundary <= set(h)) or not (half.co_boundary <= set(h)):
        raise TransportFailure("half-space boundary escapes the match window")
    boundary_plus = _side_boundary(graph, a_plus, b_minus)
    boundary_minus = _side_boundary(graph, a_minus, b_plus)
    checks["boundary_plus"] = boundary_plus == frozenset(
        h[u] for u in half.boundary)
    checks["boundary_minus"] = boundary_minus == frozenset(
        h[u] for u in half.co_boundary)

    strip_minus, strip_plus = half.strips
    plus_in_aplus = strip_plus <= a_plus
    plus_in_aminus = strip_plus <= a_minus
    minus_in_aplus = strip_minus <= a_plus
    minus_in_aminus = strip_minus <= a_minus
    checks["one_end_each"] = (plus_in_aplus != plus_in_aminus) and \
        (minus_in_aplus != minus_in_aminus) and \
        (plus_in_aplus != minus_in_aplus)

    y_z, boundary = (a_plus, boundary_plus) if plus_in_aplus else \
        (a_minus, boundary_minus)
    near_z = graph.distances_within((z,), R)
    checks["boundary_in_R_ball"] = all(v in near_z for v in boundary)

    checks["invariance"] = _is_invariant(F, graph, y_z, b_plus | b_minus)

    result = TransportedHalfSpace(z, n, h, b_plus, b_minus, a_plus, a_minus,
                                  y_z, boundary, R, checks)
    failed = [k for k, v in checks.items() if not v]
    if failed:
        raise TransportFailure(f"transport checks failed: {failed}",
                               report=result.to_json(graph))
    return result


def _side_boundary(graph: Graph, side: frozenset, other_marks) -> frozenset:
    """Certified vertices of side with a neighbor outside it, where side is
    _reach_avoiding(graph, its marks, other_marks): such a neighbor is one
    of other_marks, since the reach stops nowhere else."""
    w1 = graph.certified(1)
    return frozenset(v for u in other_marks for v in graph.neighbors(u)
                     if v in side and v in w1)


def _changes_side(images, graph: Graph, subset, seam, d: int) -> bool:
    """Whether one of the vertex maps images sends some x of the window
    certified(max(1, d)) across the subset's border, each map moving x by a
    walk of at most d in-ball edges (vertex_map).

    seam must meet every edge between the subset and its complement.  A walk
    that keeps off the seam never changes side, and every walk from an x
    farther than d from the seam keeps off it, so only the x within d of the
    seam are tested.
    """
    window = graph.certified(max(1, d))
    near = [x for x in graph.distances_within(seam, d) if x in window]
    return any((x in subset) != (image[x] in subset)
               for image in images for x in near)


def _is_invariant(F, graph: Graph, subset: frozenset, seam) -> bool:
    """Membership in the subset is preserved by every phi of F, both ways,
    at every x of the window certified(max(1, d)), d = displacement_bound(phi):
    no side change (_changes_side) under phi or invert(phi), whose words
    have phi's lengths.  seam must meet every edge between the subset and
    its complement.
    """
    return not any(
        _changes_side((vertex_map(e, graph) for e in (phi, invert(phi))),
                      graph, subset, seam, displacement_bound(phi))
        for phi in F)
