"""Color-avoiding bond percolation on edge-colored random graphs:
exact analytics cross-validated against Monte Carlo simulation."""

__version__ = "0.1.0"

from .analytic import (
    borel_pmf,
    classify_lambda,
    extended_type_distribution,
    f_infinity_generating_function,
    f_infinity_inclusion_exclusion,
    near_critical_constant,
    phi_eval,
    solve_p_system,
    survival_theta,
    total_progeny_gf,
    two_color_f_ell,
)
from .cap import CapDecomposition, brute_force_cap_partition, color_avoiding_partition
from .chronology import build_atlas, core_and_boundary
from .ecbp import (
    FriendCountOutcome,
    mc_component_size_distribution,
    mc_f_infinity,
)
from .graph import (
    EdgeColoredGraph,
    connected_components,
    sample_ecer,
)
from .params import LambdaVector
from .trees import ColoredTree, sample_ecbp

__all__ = [
    "CapDecomposition",
    "ColoredTree",
    "EdgeColoredGraph",
    "FriendCountOutcome",
    "LambdaVector",
    "borel_pmf",
    "brute_force_cap_partition",
    "build_atlas",
    "classify_lambda",
    "color_avoiding_partition",
    "connected_components",
    "core_and_boundary",
    "extended_type_distribution",
    "f_infinity_generating_function",
    "f_infinity_inclusion_exclusion",
    "mc_component_size_distribution",
    "mc_f_infinity",
    "near_critical_constant",
    "phi_eval",
    "sample_ecbp",
    "sample_ecer",
    "solve_p_system",
    "survival_theta",
    "total_progeny_gf",
    "two_color_f_ell",
]
