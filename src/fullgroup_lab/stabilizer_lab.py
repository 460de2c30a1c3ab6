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

from dataclasses import dataclass

from .cocycle import HalfSpace
from .errors import FamilyFailure, OrderCap, WindowTooSmall
from .full_group import FullGroupElement, displacement_bound, invert, walker
from .pattern_transport import Slab, _is_invariant, transport_halfspace
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


def nested_family(F, n: int, half: HalfSpace, anchor: tuple,
                  repetition: tuple) -> NestedFamily:
    """Build and certify as many consecutive anchors as the window allows
    along the chart's geodesic; anchor is transport_anchor(F, n, half), and
    repetition the (matches, r) of pattern_match_points and
    repetition_radius at its p.

    The work per anchor stays near it and its neighbours:
    - each transported half space is a slab (pattern_transport), and the
      nesting test and the block Y_i \\ Y_{i+1} read two slabs level by
      level from the lower one's first level to the higher one's last
      (_difference): about spacing + 2n levels;
    - y_i's nearest match, if one lies within r, is found by a search
      from y_i to depth r (a chart's graph is connected, so a full row
      holds no -1 that could come out smaller);
    - the matches' n-balls are disjoint by construction, so
      disjoint_n_balls is True: the anchors lie on the chart's geodesic,
      spacing = 2r + 2n + 2m + 2 apart, and each match lies within r of
      its anchor, so d(z_i, z_j) >= spacing - 2r = 2n + 2m + 2 > 2n;
    - a block's bound set is a search to depth m from its anchor segment;
      block_bound stays a run-time test, as only half of it is proved.
      Every vertex v of the block Y_i \\ Y_{i+1} has a level between
      f(y_{i-1}) and f(y_{i+2}).  Below, {f < t} is connected, where t is
      the lowest level of z_i's match window, and the first certified
      vertex of the geodesic lies there (at or before y_{i-1}, and
      f(y_i) - t <= r + n < spacing); it lies outside Y_i (one_end_each),
      so all of {f < t} does.  Above, the last certified geodesic vertex s
      is at or after y_{i+2} and lies in Y_{i+1}; a shortest path from a
      certified v above f(y_{i+2}) to s stays above
      f(y_{i+2}) - beta / 2, hence above z_{i+1}'s match window, so v
      lies on s's side.  (Y_0 = {f >= 0} and |f(p)| <= R < n.)  So the
      geodesic vertex g at v's level lies on the segment, and
      d(v, g) <= beta < m whenever g is certified(1), by beta's
      definition; the test can fail only where the segment leaves the
      window certified(1) between its anchors;
    - a block is F-invariant when membership holds at every x within d_phi
      of the block: a walk of at most d_phi edges from a farther x never
      reaches it (see _is_invariant).
    Y_i and Y_{i+1} are the only transported half spaces held at a time.
    """
    graph = half.graph
    m = half.chart.m
    seg = half.chart.geodesic
    p = anchor[0]
    matches, r = repetition
    match_set = frozenset(matches)
    spacing = 2 * r + 2 * n + 2 * m + 2

    pos_p = seg.pos(p)
    interior = graph.certified(n + 1)
    anchors = {}
    match_of = {}

    def try_anchor(i: int) -> bool:
        q = pos_p + i * spacing
        if q < 0 or q >= len(seg.vertices):
            return False
        y = seg.vertices[q]
        if y not in interior:
            return False
        near = graph.distances_within((y,), r)
        best = min(((d, z) for z, d in near.items() if z in match_set),
                   default=None)
        if best is None:
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

    checks = {"disjoint_n_balls": True}

    def transported(i: int) -> Slab:
        if i == 0:  # Y = {f >= 0}: no level is explicit
            return Slab(half.chart.f, 0, -1, frozenset(), False, True)
        return transport_halfspace(F, match_of[i], n, half, anchor).slab

    d_max = max(1, max(displacement_bound(phi) for phi in F))
    window = graph.certified(d_max)
    nesting_ok = True
    blocks = {}
    block_bounds = {}
    bound_ok = True
    invariant_ok = True
    y_next = transported(indices[0])
    for i in indices[:-1]:
        y_i, y_next = y_next, transported(i + 1)
        block, nested = _difference(y_i, y_next, half.chart.levels, window)
        if not nested:
            nesting_ok = False
        if i - 1 not in anchors or i + 2 not in anchors:
            continue
        segment = seg.vertices[pos_p + (i - 1) * spacing:
                               pos_p + (i + 2) * spacing + 1]
        bound_set = neighborhood_set(graph, segment, m)
        blocks[i] = block
        block_bounds[i] = len(bound_set)
        if not block <= bound_set:
            bound_ok = False
        if not _is_invariant(F, graph, block, block):
            invariant_ok = False
    checks["nesting"] = nesting_ok
    checks["block_bound"] = bound_ok
    checks["block_invariance"] = invariant_ok

    U = max(block_bounds.values(), default=0)
    family = NestedFamily(graph, n, r, spacing, indices, anchors, match_of,
                          blocks, block_bounds, U, checks)
    failed = [k for k, v in checks.items() if not v]
    if failed:
        raise FamilyFailure(f"family checks failed: {failed}",
                            report=family.to_json())
    return family


def _difference(a: Slab, b: Slab, levels: tuple, window) -> tuple:
    """((a - b) & window, whether b & window <= a) for two slabs of one
    chart, levels being its LineChart.levels.  A level that is neither
    slab's own gives one verdict per slab, and is read vertex by vertex
    only where the two differ; so only the levels from the lower slab to
    the higher one are read when the slabs nest, about spacing + 2n."""
    low, order, start = levels
    top = low + len(start) - 2
    lo = max(low, min(a.t1, b.t1))
    hi = min(top, max(a.t2, b.t2))
    spans = [range(lo, hi + 1)]
    if a.below != b.below:
        spans.append(range(low, lo))
    if a.above != b.above:
        spans.append(range(hi + 1, top + 1))
    block, nested = set(), True
    for span in spans:
        for t in span:
            in_a, in_b = a.verdict(t), b.verdict(t)
            if in_a is not None and in_a == in_b:
                continue
            for v in order[start[t - low]:start[t + 1 - low]]:
                if v in window:
                    v_in_a = v in a.members if in_a is None else in_a
                    v_in_b = v in b.members if in_b is None else in_b
                    if v_in_a and not v_in_b:
                        block.add(v)
                    elif v_in_b and not v_in_a:
                        nested = False
    return frozenset(block), nested


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
    """phi on the domain, read at its vertices alone."""
    index = {v: k for k, v in enumerate(domain)}
    image = walker(phi, graph)
    images = []
    for v in domain:
        w = image(v)
        if w not in index:
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
    """Largest subset of the certified window mapped to itself by all of F,
    each distinct element and inverse read at the vertices of the core
    alone (an involution is its own inverse)."""
    d_max = max(1, max(displacement_bound(phi) for phi in F))
    core = set(graph.certified(d_max))
    images = [walker(e, graph)
              for e in dict.fromkeys(e for phi in F for e in (phi, invert(phi)))]
    changed = True
    while changed:
        changed = False
        for image in images:
            drop = {v for v in core if image(v) not in core}
            if drop:
                core -= drop
                changed = True
    return sorted(core)
