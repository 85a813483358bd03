"""Graph substrate: generators, farness certification, lower bounds, utils."""

from .distance import (
    bipartiteness_farness_bounds,
    bipartiteness_farness_lower_bound,
    bipartiteness_farness_upper_bound,
    cycle_freeness_distance,
    cycle_freeness_farness,
    planarity_farness_lower_bound,
    planarity_skewness_lower_bound,
)
from .far_from_planar import (
    FAR_FAMILIES,
    dense_planar_plus_matching,
    gnp_far,
    make_far,
    planted_kuratowski,
    random_regular_far,
)
from .generators import (
    PLANAR_FAMILIES,
    delaunay_graph,
    grid_graph,
    make_planar,
    random_apollonian,
    random_outerplanar,
    random_planar,
    random_tree,
    triangulated_grid,
)
from .lower_bound import (
    LowerBoundInstance,
    all_views_are_trees,
    lower_bound_instance,
    view_is_tree,
)
from .utils import (
    bfs_levels,
    diameter,
    eccentricity,
    find_short_cycle,
    girth,
    require_simple,
)

__all__ = [
    "FAR_FAMILIES",
    "PLANAR_FAMILIES",
    "LowerBoundInstance",
    "all_views_are_trees",
    "bfs_levels",
    "bipartiteness_farness_bounds",
    "bipartiteness_farness_lower_bound",
    "bipartiteness_farness_upper_bound",
    "cycle_freeness_distance",
    "cycle_freeness_farness",
    "delaunay_graph",
    "dense_planar_plus_matching",
    "diameter",
    "eccentricity",
    "find_short_cycle",
    "girth",
    "gnp_far",
    "grid_graph",
    "lower_bound_instance",
    "make_far",
    "make_planar",
    "planarity_farness_lower_bound",
    "planarity_skewness_lower_bound",
    "planted_kuratowski",
    "random_apollonian",
    "random_outerplanar",
    "random_planar",
    "random_regular_far",
    "random_tree",
    "require_simple",
    "triangulated_grid",
    "view_is_tree",
]
