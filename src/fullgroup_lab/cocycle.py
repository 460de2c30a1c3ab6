"""The half space Y = f^-1(N), the cocycle Y symdiff phi(Y), and constants.

"Finite set" statements about the infinite orbit are replaced by
stabilization certificates: a cocycle value is accepted only when the
same set comes back from a strictly larger certified window.  Every
certificate records the hash of the chart that pinned Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotStabilized
from .full_group import FullGroupElement, apply_element, displacement_bound, invert
from .line_geometry import GeodesicSegment, LineChart, project_to_geodesic
from .schreier import Graph, neighborhood_set


@dataclass(frozen=True)
class HalfSpace:
    """Vertices with nonnegative chart value, with precomputed boundaries.

    members collects every graph vertex with f >= 0; boundary and
    co_boundary are the rim-safe boundary vertices of Y and of its
    complement.
    """

    chart: LineChart
    members: frozenset
    boundary: frozenset
    co_boundary: frozenset

    @property
    def graph(self) -> Graph:
        return self.chart.graph

    def __contains__(self, v: int) -> bool:
        return v in self.members


def half_space(chart: LineChart) -> HalfSpace:
    graph = chart.graph
    members = frozenset(v for v in range(graph.n) if chart.f[v] >= 0)
    interior = graph.certified(1)
    boundary = frozenset(
        v for v in members & interior
        if any(u not in members for u in graph.neighbors(v)))
    co_boundary = frozenset(
        v for v in interior - members
        if any(u in members for u in graph.neighbors(v)))
    return HalfSpace(chart, members, boundary, co_boundary)


def boundary_level_bound_ok(half: HalfSpace) -> bool:
    """Check that every certified boundary vertex has f in [0, a+b-1]."""
    chart = half.chart
    hi = chart.alpha + chart.beta - 1
    return all(0 <= Fraction(chart.f[v]) <= hi for v in half.boundary)


@dataclass(frozen=True)
class CocycleValue:
    """A stabilized symmetric difference Y symdiff phi(Y)."""

    vertices: frozenset
    window: tuple  # (small, big) window radii that agreed
    chart_hash: str

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def _window(graph: Graph, w: int) -> frozenset:
    return frozenset(v for v in range(graph.n) if graph.dist[v] <= w)


def _sym_diff_in_window(half: HalfSpace, phi_inv: FullGroupElement,
                        w: int) -> frozenset:
    """{v in window : v in Y xor phi^-1(v) in Y}; needs w + d_phi <= radius."""
    graph = half.graph
    out = set()
    for v in sorted(_window(graph, w)):
        pre = graph.vertex_of(apply_element(phi_inv, graph.labels[v]))
        if pre is None:
            raise NotStabilized(
                f"phi^-1 leaves the ball inside window {w}; radius too small")
        if (v in half.members) != (pre in half.members):
            out.add(v)
    return frozenset(out)


def cocycle_value(phi: FullGroupElement, half: HalfSpace) -> CocycleValue:
    """Y symdiff phi(Y), certified by recomputation on a larger window.

    Also verifies, for each piece word g, that the translate difference
    gY \\ Y stays within the len(g)-neighborhood of the boundary of Y.
    """
    graph = half.graph
    if graph.radius is None:
        raise NotStabilized("cocycles need a rim-bounded orbit ball")
    d = max(1, displacement_bound(phi))
    w_big = graph.radius - d
    w_small = w_big - d
    if w_small < 1:
        raise NotStabilized(
            f"radius {graph.radius} too small for displacement {d}")
    phi_inv = invert(phi)
    small = _sym_diff_in_window(half, phi_inv, w_small)
    big = _sym_diff_in_window(half, phi_inv, w_big)
    if small != big:
        raise NotStabilized(
            f"value changed when growing the window {w_small} -> {w_big}; "
            "radius too small")
    _check_translate_bound(phi, half, w_small)
    return CocycleValue(big, (w_small, w_big), half.chart.chart_hash())


def _check_translate_bound(phi: FullGroupElement, half: HalfSpace, w: int):
    """gY \\ Y inside the len(g)-neighborhood of the boundary, per piece."""
    from .cantor_actions import apply_word

    graph = half.graph
    action = phi.action
    for _prefix, word in phi.pieces:
        length = len(word)
        if length == 0:
            continue
        inv_word = action.inverse_word(word)
        translate_minus_y = set()
        for v in sorted(_window(graph, w)):
            if v in half.members:
                continue
            pre = graph.vertex_of(apply_word(action, inv_word, graph.labels[v]))
            if pre is not None and pre in half.members:
                translate_minus_y.add(v)
        allowed = neighborhood_set(graph, half.boundary, length)
        stray = translate_minus_y - allowed
        if stray:
            raise NotStabilized(
                f"translate difference escapes the boundary neighborhood "
                f"at vertices {sorted(stray)[:4]}")


def stabilizer_test(phi: FullGroupElement, half: HalfSpace) -> bool:
    """True iff the stabilized cocycle value is empty (phi fixes Y setwise)."""
    return cocycle_value(phi, half).is_empty


def push_set(phi: FullGroupElement, graph: Graph, vertices) -> frozenset:
    """Image of a vertex set under phi (all images must stay in the graph)."""
    out = set()
    for v in sorted(vertices):
        w = graph.vertex_of(apply_element(phi, graph.labels[v]))
        if w is None:
            raise NotStabilized(f"phi pushes vertex {v} outside the ball")
        out.add(w)
    return frozenset(out)


def r_constant(half: HalfSpace, seg: GeodesicSegment, p: int | None = None) -> int:
    """Minimal R with both boundaries inside the R-ball around p.

    p defaults to the projection of the basepoint onto the geodesic and
    must lie on the geodesic.
    """
    graph = half.graph
    if p is None:
        p = project_to_geodesic(graph, seg, graph.base)
    if p not in seg.vertices:
        raise ValueError("anchor point must lie on the geodesic")
    rim_margin = graph.certified(2)
    for v in half.boundary | half.co_boundary:
        if v not in rim_margin:
            raise NotStabilized(
                "half-space boundary touches the rim; radius too small")
    row = graph.distance_row(p)
    targets = half.boundary | half.co_boundary
    if not targets:
        raise NotStabilized("no boundary found inside the certified window")
    return max(row[v] for v in targets)


def n_phi(m, R: int, dphi: int) -> Fraction:
    """The transport constant 6m + R + 2*d_phi (exact)."""
    return 6 * Fraction(m) + R + 2 * dphi
