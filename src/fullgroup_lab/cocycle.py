"""The half space Y = f^-1(N), the cocycle Y symdiff phi(Y), and constants.

"Finite set" statements about the infinite orbit are replaced by
stabilization certificates: a cocycle value is accepted only when the
same set comes back from a strictly larger certified window.  Every
certificate records the hash of the chart that pinned Y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotStabilized
from .full_group import FullGroupElement, displacement_bound, invert, vertex_map
from .full_group import apply_element  # unused; perfbench/tests reads it here
from .line_geometry import LineChart, project_to_geodesic
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
    """Check that every certified boundary vertex has f in [0, beta], the
    bound [0, alpha + beta - 1] at alpha = 1."""
    f, beta = half.chart.f, half.chart.beta
    return all(0 <= f[v] <= beta for v in half.boundary)


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
    pre = vertex_map(phi_inv, half.graph)
    window = _window(half.graph, w)
    if any(pre[v] < 0 for v in window):
        raise NotStabilized(
            f"phi^-1 leaves the ball inside window {w}; radius too small")
    return frozenset(v for v in window
                     if (v in half.members) != (pre[v] in half.members))


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
    graph = half.graph
    action = phi.action
    for _prefix, word in phi.pieces:
        length = len(word)
        if length == 0:
            continue
        inv_word = tuple(action.inverse_word(word))
        pre = vertex_map(FullGroupElement(action, (("", inv_word),)), graph)
        translate_minus_y = {v for v in _window(graph, w)
                             if v not in half.members and pre[v] in half.members}
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
    image = vertex_map(phi, graph)
    for v in sorted(vertices):
        if image[v] < 0:
            raise NotStabilized(f"phi pushes vertex {v} outside the ball")
    return frozenset(image[v] for v in vertices)


def r_constant(half: HalfSpace) -> int:
    """Minimal R with both boundaries inside the R-ball around p, the
    projection of the basepoint onto the chart's geodesic."""
    graph = half.graph
    p = project_to_geodesic(half.chart.geodesic, graph.base)
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


def n_phi(m: int, R: int, dphi: int) -> int:
    """The transport constant 6m + R + 2*d_phi."""
    return 6 * m + R + 2 * dphi
