"""Finite-scale geometry lab for topological full groups of Cantor actions.

The package materializes, on finite windows, the objects behind the
line-like-orbit picture: Schreier balls and level graphs, quasi-isometry
charts to the integers with integer constants, the half-space cocycle and
its kernel, repeating local patterns with transported half spaces, nested
families with uniformly bounded blocks, and exact rational random-walk
escape probabilities.
"""

from .cantor_actions import (
    ActionSystem,
    BoundaryPoint,
    GeneratorSpec,
    Transducer,
    action_from_json,
    action_to_json,
    apply_word,
    builtin_action,
    canonical_point,
    combine_actions,
    fragment_generators,
    parse_point,
)
from .cocycle import (
    CocycleValue,
    HalfSpace,
    cocycle_value,
    half_space,
    n_phi,
    r_constant,
    stabilizer_test,
)
from .errors import FullGroupLabError
from .full_group import (
    FullGroupElement,
    apply_element,
    compose,
    displacement_bound,
    element_from_json,
    element_to_json,
    identity_element,
    invert,
    make_element,
)
from .line_geometry import (
    GeodesicSegment,
    LineChart,
    diametral_geodesic,
    fiber_diameter_check,
    fit_line_chart,
    m_covering_check,
    max_geodesic_midpoint,
    project_to_geodesic,
)
from .pattern_transport import (
    TransportedHalfSpace,
    pattern_match_points,
    repetition_radius,
    same_pattern,
    transport_anchor,
    transport_halfspace,
)
from .recurrence import EscapeReport, escape_probability, escape_series
from .schreier import (
    Graph,
    LevelGraph,
    SchreierBall,
    boundary_set,
    build_ball,
    build_level_graph,
    graph_to_dot,
    graph_to_json,
    neighborhood_set,
    path_graph,
    regular_tree_ball,
    star_graph,
)
from .stabilizer_lab import NestedFamily, OrderReport, finite_embedding_order, nested_family

__version__ = "0.1.0"
