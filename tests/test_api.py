"""The package's public names: `localcut.__all__`, and what it leaves out."""

from __future__ import annotations

import localcut
from localcut import analysis, sim

PUBLIC = [
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
    "__version__",
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
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 41
    assert sorted(localcut.__all__) == PUBLIC
    for name in localcut.__all__:
        assert getattr(localcut, name) is not None


def test_test_only_entry_points_are_not_in_the_package():
    # the one-trial runner and the joint-view sampler live in tests/oracles.py
    for name in ("run_trial", "empirical_joint_distribution"):
        assert not hasattr(localcut, name)
        assert not hasattr(sim, name)
    assert not hasattr(analysis.SqrtBound, "compare")
