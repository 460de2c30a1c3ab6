"""Nested transported half spaces and the finite-symmetric-group embedding.

Anchor points y_i are spaced 2r + 2n + 2m + 2 apart along the geodesic
(y_0 at the basepoint anchor), each receives the nearest pattern match
z_i and a transported half space Y_i (Y_0 is Y itself).  The blocks
Y_i \\ Y_{i+1} are finite, uniformly bounded by the size of the
m-neighborhood of the anchor segment [y_{i-1}, y_{i+2}], and invariant
under F; the group generated by F embeds into the product of the
symmetric groups on the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cocycle import HalfSpace, n_phi, r_constant, stabilizer_test
from .errors import FamilyFailure, OrderCap, PreconditionNphi, WindowTooSmall
from .full_group import FullGroupElement, apply_element, displacement_bound, invert
from .line_geometry import GeodesicSegment, project_to_geodesic
from .pattern_transport import (
    _ball_interior_ok,
    _is_invariant,
    pattern_match_points,
    repetition_radius,
    transport_halfspace,
)
from .schreier import Graph, neighborhood_set

DEFAULT_ORDER_CAP = 10 ** 6


@dataclass(frozen=True)
class NestedFamily:
    graph: Graph
    n: int
    r: int
    spacing: int
    anchor_indices: tuple    # consecutive integers containing 0
    anchors: dict            # i -> y_i vertex
    matches: dict            # i -> z_i vertex
    sets: dict               # i -> frozenset Y_i
    blocks: dict             # i -> frozenset Y_i \ Y_{i+1} (certified window)
    block_bounds: dict       # i -> size of the m-neighborhood bound set
    U: int
    checks: dict

    @property
    def block_indices(self) -> tuple:
        return tuple(sorted(self.blocks))

    def to_json(self) -> dict:
        return {
            "anchors": len(self.anchor_indices),
            "r": self.r,
            "spacing": self.spacing,
            "U": self.U,
            "blocks": {str(i): len(self.blocks[i]) for i in self.block_indices},
            "checks": {k: bool(v) for k, v in sorted(self.checks.items())},
        }


def nested_family(F, n: int, half: HalfSpace, seg: GeodesicSegment) -> NestedFamily:
    """Build and certify as many consecutive anchors as the window allows."""
    graph = half.graph
    chart = half.chart
    m = chart.m
    p = project_to_geodesic(graph, seg, graph.base)
    for phi in F:
        if not stabilizer_test(phi, half):
            raise FamilyFailure("every element of F must stabilize Y")
    R = r_constant(half, seg, p)
    worst = max(n_phi(m, R, displacement_bound(phi)) for phi in F)
    if Fraction(n) <= worst:
        raise PreconditionNphi(f"need n > {worst}, got {n}")

    r = repetition_radius(F, n, graph, anchor=p)
    spacing = int(math.ceil(2 * r + 2 * n + 2 * Fraction(m) + 2))
    matches = pattern_match_points(F, graph, n, anchor=p)

    pos_p = seg.pos(p)
    anchors = {}
    match_of = {}

    def try_anchor(i: int) -> bool:
        q = pos_p + i * spacing
        if q < 0 or q >= len(seg.vertices):
            return False
        y = seg.vertices[q]
        if not _ball_interior_ok(graph, y, n):
            return False
        row = graph.distance_row(y)
        best = min(((row[z], z) for z in matches), default=None)
        if best is None or best[0] > r:
            return False
        anchors[i] = y
        match_of[i] = best[1]
        return True

    if not try_anchor(0):
        raise WindowTooSmall("basepoint anchor is not certifiable")
    i = 1
    while try_anchor(i):
        i += 1
    i = -1
    while try_anchor(i):
        i -= 1
    indices = tuple(sorted(anchors))
    if len(indices) < 3:
        raise WindowTooSmall(
            f"spacing {spacing} admits only {len(indices)} anchors")

    checks = {}
    sets = {}
    for i in indices:
        if i == 0:
            sets[0] = frozenset(half.members)
        else:
            sets[i] = transport_halfspace(F, match_of[i], n, half, seg).y_z

    rows = (graph.distances_from([match_of[i]]) for i in indices[:-1])
    checks["disjoint_n_balls"] = all(
        row[match_of[j]] > 2 * n
        for k, row in enumerate(rows) for j in indices[k + 1:])

    d_max = max(1, max(displacement_bound(phi) for phi in F))
    window = graph.certified(d_max)
    nesting_ok = True
    for i in indices[:-1]:
        if not ((sets[i + 1] & window) <= (sets[i] & window)):
            nesting_ok = False
    checks["nesting"] = nesting_ok

    blocks = {}
    block_bounds = {}
    bound_ok = True
    invariant_ok = True
    for i in indices[:-1]:
        if i - 1 not in anchors or i + 2 not in anchors:
            continue
        segment = seg.segment_between(anchors[i - 1], anchors[i + 2])
        bound_set = neighborhood_set(graph, segment, int(math.ceil(Fraction(m))))
        block = (sets[i] - sets[i + 1]) & window
        blocks[i] = frozenset(block)
        block_bounds[i] = len(bound_set)
        if not block <= bound_set or len(block) > len(bound_set):
            bound_ok = False
        if not _is_invariant(F, graph, frozenset(block)):
            invariant_ok = False
    checks["block_bound"] = bound_ok
    checks["block_invariance"] = invariant_ok

    U = max(block_bounds.values(), default=0)
    family = NestedFamily(graph, n, r, spacing, indices, anchors, match_of,
                          sets, blocks, block_bounds, U, checks)
    failed = [k for k, v in checks.items() if not v]
    if failed:
        raise FamilyFailure(f"family checks failed: {failed}",
                            report=family.to_json())
    return family


def mulclose(generators, cap: int | None = None):
    """Closure of a generator set under the * operator, breadth first."""
    els = set(generators)
    frontier = list(els)
    while frontier:
        new = []
        for a in generators:
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if cap is not None and len(els) > cap:
                        raise OrderCap(f"group closure exceeded {cap} elements")
        frontier = new
    return els


class _PermTuple(tuple):
    """Permutation composition for mulclose: (p * q)[i] = p[q[i]]."""

    def __mul__(self, other):
        return _PermTuple(self[j] for j in other)


def _permutation_on(phi: FullGroupElement, graph: Graph, domain: list) -> _PermTuple:
    index = {v: k for k, v in enumerate(domain)}
    images = []
    for v in domain:
        w = graph.vertex_of(apply_element(phi, graph.labels[v]))
        if w is None or w not in index:
            raise FamilyFailure(f"element does not permute the domain at {v}")
        images.append(index[w])
    if len(set(images)) != len(domain):
        raise FamilyFailure("element is not a permutation of the domain")
    return _PermTuple(images)


@dataclass(frozen=True)
class OrderReport:
    order_blocks: int
    order_brute: int
    agree: bool
    blocks_used: int
    brute_domain: int

    def to_json(self) -> dict:
        return {"order_blocks": self.order_blocks,
                "order_brute": self.order_brute,
                "agree": self.agree,
                "blocks_used": self.blocks_used,
                "brute_domain": self.brute_domain}


def finite_embedding_order(F, family: NestedFamily,
                           cap: int = DEFAULT_ORDER_CAP) -> OrderReport:
    """Order of <F> via the block embedding and via window permutations.

    The block route composes per-block permutations inside the product of
    the symmetric groups on the certified blocks.  The brute route trims
    the certified window to its largest F-closed core and takes the
    closure of the restricted permutations there.
    """
    graph = family.graph
    block_domains = [sorted(family.blocks[i]) for i in family.block_indices]
    if not block_domains:
        raise FamilyFailure("family has no certified blocks to embed into")
    block_gens = []
    for phi in F:
        block_gens.append(tuple(
            _permutation_on(phi, graph, dom) for dom in block_domains))
    order_blocks = len(mulclose(
        [_TupleOfPerms(g) for g in block_gens], cap=cap))

    core = _f_closed_core(F, graph)
    brute_gens = [_permutation_on(phi, graph, core) for phi in F]
    order_brute = len(mulclose(brute_gens, cap=cap))

    return OrderReport(order_blocks, order_brute,
                       order_blocks == order_brute,
                       len(block_domains), len(core))


class _TupleOfPerms(tuple):
    def __mul__(self, other):
        return _TupleOfPerms(a * b for a, b in zip(self, other))


def _f_closed_core(F, graph: Graph) -> list:
    """Largest subset of the certified window mapped to itself by all of F."""
    d_max = max(1, max(displacement_bound(phi) for phi in F))
    core = set(graph.certified(d_max))
    maps = [phi for phi in F] + [invert(phi) for phi in F]
    changed = True
    while changed:
        changed = False
        for phi in maps:
            drop = set()
            for v in core:
                w = graph.vertex_of(apply_element(phi, graph.labels[v]))
                if w is None or w not in core:
                    drop.add(v)
            if drop:
                core -= drop
                changed = True
    return sorted(core)
