"""Synthesis, analysis, and simulation of one-round distributed cut algorithms.

The package models what a node in a triangle-free d-regular graph can see
after a single communication round, searches that space for the best cut
rule, proves how good the winning threshold rule is, and replays everything
on concrete graphs:

  * `ngraph` builds the weighted graph of local neighbourhoods whose cuts
    correspond one-to-one to one-round algorithms;
  * `cutsearch` finds maximum cuts of it, exhaustively or via a MaxSAT
    export;
  * `analysis` evaluates threshold rules exactly, locates optimal
    thresholds, and verifies the square-root lower bounds with integer and
    certified interval arithmetic;
  * `sim` generates triangle-free regular graphs and measures the
    algorithms' empirical cut weights;
  * `cli` exposes the pipelines as the `localcut` command.

Like counts use the equality convention throughout: a neighbour u of v is
like-minded when c(u) == c(v).
"""

from .analysis import (
    AlphaValue,
    alpha,
    alpha_sweep,
    optimal_tau,
    optimal_taus,
    shearer_bound,
    tau_formula,
    threshold_bound,
    verify_appendix_estimates,
    verify_theorem_bound,
)
from .cutsearch import (
    BRUTE_FORCE_MAX_DEGREE,
    ThresholdRule,
    brute_force_max_cut,
    evaluate_cut,
    export_wcnf,
    format_wcnf,
    matching_threshold,
    threshold_assignment,
)
from .intervals import Interval
from .ngraph import (
    Neighbourhood,
    WeightedNgraph,
    all_neighbourhoods,
    build_ngraph,
    format_ngraph_table,
)
from .sim import (
    RegularGraph,
    ShearerCut,
    ThresholdCut,
    TrialStats,
    UniformCut,
    VirtualNeighbourCut,
    complete_bipartite,
    cycle_graph,
    from_edges,
    hypercube_graph,
    monte_carlo,
    petersen_graph,
    random_bipartite_regular,
    random_triangle_free,
    read_edge_list,
    write_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaValue",
    "BRUTE_FORCE_MAX_DEGREE",
    "Interval",
    "Neighbourhood",
    "RegularGraph",
    "ShearerCut",
    "ThresholdCut",
    "ThresholdRule",
    "TrialStats",
    "UniformCut",
    "VirtualNeighbourCut",
    "WeightedNgraph",
    "all_neighbourhoods",
    "alpha",
    "alpha_sweep",
    "brute_force_max_cut",
    "build_ngraph",
    "complete_bipartite",
    "cycle_graph",
    "evaluate_cut",
    "export_wcnf",
    "format_ngraph_table",
    "format_wcnf",
    "from_edges",
    "hypercube_graph",
    "matching_threshold",
    "monte_carlo",
    "optimal_tau",
    "optimal_taus",
    "petersen_graph",
    "random_bipartite_regular",
    "random_triangle_free",
    "read_edge_list",
    "shearer_bound",
    "tau_formula",
    "threshold_assignment",
    "threshold_bound",
    "verify_appendix_estimates",
    "verify_theorem_bound",
    "write_edge_list",
    "__version__",
]
