"""Color-avoiding bond percolation on edge-colored random graphs:
exact analytics cross-validated against Monte Carlo simulation."""

__version__ = "0.1.0"

from .analytic import (
    classify_lambda,
    extended_type_distribution,
    f_infinity_generating_function,
    f_infinity_inclusion_exclusion,
    near_critical_constant,
    solve_p_system,
    survival_theta,
    two_color_f_ell,
)
from .cap import CapDecomposition, color_avoiding_partition
from .ecbp import (
    FriendCountOutcome,
    mc_component_size_distribution,
)
from .graph import (
    EdgeColoredGraph,
    connected_components,
    sample_ecer,
)
from .params import LambdaVector

__all__ = [
    "CapDecomposition",
    "EdgeColoredGraph",
    "FriendCountOutcome",
    "LambdaVector",
    "classify_lambda",
    "color_avoiding_partition",
    "connected_components",
    "extended_type_distribution",
    "f_infinity_generating_function",
    "f_infinity_inclusion_exclusion",
    "mc_component_size_distribution",
    "near_critical_constant",
    "sample_ecer",
    "solve_p_system",
    "survival_theta",
    "two_color_f_ell",
]
