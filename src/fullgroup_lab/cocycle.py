"""The half space Y = f^-1(N), the cocycle Y symdiff phi(Y), and constants.

"Finite set" statements about the infinite orbit are replaced by
stabilization certificates: with d = max(1, d_phi), a cocycle value is
computed once, on the vertices within radius - d of the basepoint, and
accepted only when none of it lies farther out than radius - 2d, so that
the smaller window gives the same set.  Three facts hold on every ball that
build_ball or cut returns, and are used without a test:
- a word of length <= d started at dist <= radius - d never leaves the
  ball (a letter changes dist by at most 1): a walker gives no -1 there;
- for a word g, each v of gY \\ Y with dist <= radius - len(g) - 1 lies
  within len(g) of the boundary of Y: the walk of g^-1 from v enters Y at
  most len(g) steps from v, at a vertex of dist <= radius - 1, which is a
  certified boundary vertex;
- the cocycle lives on the 2d chart levels around Y's seam, and is read
  off walks that stay in the ball: take v of certified(d) with preimage
  u = phi^-1 v.  Then u's word walks at most d in-ball edges (reverse the
  walk from v, whose dist is <= radius - d), and f, 1-Lipschitz along ball
  edges, moves by at most d along it.  So when u and v lie on different
  sides of Y, f(u) is in [0, d - 1] (f(v) <= -1) or in [-d, -1]
  (f(v) >= 0).  Conversely, a walk that steps off the ball at step k >= 1
  ends within d - k of a vertex of dist > radius, so outside certified(d)
  wherever the transducers finish it.  Y symdiff phi(Y) on the window is
  therefore the set of images v in certified(d) of the u on the levels
  -d .. d - 1 with (u in Y) != (v in Y), and phi^-1 is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotStabilized
from .full_group import FullGroupElement, displacement_bound, walker
from .full_group import apply_element  # unused; perfbench/tests reads it here
from .line_geometry import LineChart, end_strips
from .schreier import Graph


@dataclass(frozen=True)
class HalfSpace:
    """Vertices with nonnegative chart value, with precomputed boundaries.

    members collects every graph vertex with f >= 0; boundary and
    co_boundary are the rim-safe boundary vertices of Y and of its
    complement, and strips the chart geodesic's end_strips at m.
    """

    chart: LineChart
    members: frozenset
    boundary: frozenset
    co_boundary: frozenset
    strips: tuple

    @property
    def graph(self) -> Graph:
        return self.chart.graph

    def __contains__(self, v: int) -> bool:
        return v in self.members


def half_space(chart: LineChart) -> HalfSpace:
    """Y = f^-1(N).  Its boundary vertices have f = 0, in the bound
    [0, beta] (alpha + beta - 1 at alpha = 1), and its complement's have
    f = -1: f, a BFS row minus a constant, changes by at most 1 along an
    edge, so for neighbours v in Y (f >= 0) and u outside it (f <= -1),
    0 <= f(v) <= f(u) + 1 <= 0, whence f(v) = 0 and f(u) = -1.  So the
    boundary is the certified vertices of level 0 with a neighbour on
    level -1, and the co-boundary those of level -1 with one on level 0;
    a vertex off certified(1) may miss neighbours beyond the rim."""
    graph, f = chart.graph, chart.f
    certified = graph.certified(1)

    def seam(t: int) -> frozenset:
        # certified vertices of level t with a neighbour on level -1 - t
        return frozenset(v for v in certified if f[v] == t and any(
            f[u] == -1 - t for u in graph.neighbors(v)))

    return HalfSpace(
        chart, frozenset(v for v in range(graph.n) if f[v] >= 0),
        seam(0), seam(-1), end_strips(chart.geodesic, chart.m))


@dataclass(frozen=True)
class CocycleValue:
    """A stabilized symmetric difference Y symdiff phi(Y)."""

    vertices: frozenset
    window: tuple  # (small, big) window radii that agreed

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def cocycle_value(phi: FullGroupElement, half: HalfSpace) -> CocycleValue:
    """Y symdiff phi(Y): the v of the window certified(d) with
    (v in Y) != (phi^-1 v in Y), read off phi's walks from the chart levels
    -d .. d - 1, certified when none lies farther out than the smaller
    window (see the module docstring)."""
    graph = half.graph
    if graph.radius is None:
        raise NotStabilized("cocycles need a rim-bounded orbit ball")
    d = max(1, displacement_bound(phi))
    w_big = graph.radius - d
    w_small = w_big - d
    if w_small < 1:
        raise NotStabilized(
            f"radius {graph.radius} too small for displacement {d}")
    window = graph.certified(d)
    f = half.chart.f
    low, order, start = half.chart.levels
    top = low + len(start) - 2
    image = walker(phi, graph)
    value = set()
    for u in order[start[max(low, -d) - low]:start[min(top, d - 1) + 1 - low]]:
        v = image(u)
        if v in window and (f[u] >= 0) != (f[v] >= 0):
            value.add(v)
    if any(graph.dist[v] > w_small for v in value):
        raise NotStabilized(
            f"value changed when growing the window {w_small} -> {w_big}; "
            "radius too small")
    return CocycleValue(frozenset(value), (w_small, w_big))


def stabilizer_test(phi: FullGroupElement, half: HalfSpace) -> bool:
    """True iff the stabilized cocycle value is empty (phi fixes Y setwise)."""
    return cocycle_value(phi, half).is_empty


def push_set(phi: FullGroupElement, graph: Graph, vertices) -> frozenset:
    """Image of a vertex set under phi (all images must stay in the graph),
    read at its own vertices."""
    image = walker(phi, graph)
    pushed = []
    for v in sorted(vertices):
        w = image(v)
        if w < 0:
            raise NotStabilized(f"phi pushes vertex {v} outside the ball")
        pushed.append(w)
    return frozenset(pushed)


def r_constant(half: HalfSpace) -> int:
    """Minimal R with both boundaries inside the R-ball around p, the
    projection of the basepoint onto the chart's geodesic (LineChart.p),
    by a search from p that stops once it has reached them."""
    graph = half.graph
    rim_margin = graph.certified(2)
    targets = half.boundary | half.co_boundary
    for v in targets:
        if v not in rim_margin:
            raise NotStabilized(
                "half-space boundary touches the rim; radius too small")
    if not targets:
        raise NotStabilized("no boundary found inside the certified window")
    return max(graph.distances_to(half.chart.p, targets))


def n_phi(m: int, R: int, dphi: int) -> int:
    """The transport constant 6m + R + 2*d_phi."""
    return 6 * m + R + 2 * dphi
