"""Acceptance gate: the nine headline checks, one pass/fail line each.

Each criterion prints `criterion N: PASS (...)` on success; a failure shows
up as a normal pytest failure for that criterion's test. Budgets are the
stated ceilings; measured times here run far below them.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from localcut.analysis import (
    alpha,
    alpha_closed_form,
    optimal_tau,
    verify_appendix_estimates,
    verify_theorem_bound,
)
from localcut.cutsearch import (
    ThresholdRule,
    brute_force_max_cut,
    evaluate_cut,
    export_wcnf,
    matching_threshold,
    threshold_assignment,
)
from localcut.ngraph import build_ngraph
from localcut.sim import (
    ShearerCut,
    ThresholdCut,
    VirtualNeighbourCut,
    complete_bipartite,
    from_edges,
    monte_carlo,
    petersen_graph,
    random_bipartite_regular,
)
from oracles import exhaustive_max_weight, sampled_joint_views, threshold_cut_probability

TABLE_1 = [
    2, 3, 3, 4, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10, 10, 11,
    11, 12, 12, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19,
]

TRIALS = 100_000
SEED = 0xC0FFEE


def _report(n: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_1_optimal_threshold_table():
    t0 = time.perf_counter()
    got = [optimal_tau(d)[0] for d in range(2, 33)]
    assert got == TABLE_1
    _report(1, time.perf_counter() - t0, 1.0, "tau_opt for d = 2..32, exact")


def test_criterion_2_brute_force_optimum_is_a_threshold_cut():
    t0 = time.perf_counter()
    for d in range(2, 13):
        g = build_ngraph(d)
        labels, weight = brute_force_max_cut(g)
        tau_best, alpha_best = optimal_tau(d)
        assert weight == alpha_best, f"d={d}: {weight} != {alpha_best}"
        assert tau_best == TABLE_1[d - 2]
        assert matching_threshold(g, labels) == TABLE_1[d - 2]
    _report(2, time.perf_counter() - t0, 120.0,
            "exhaustive max cut equals best threshold for d = 2..12, exact")


def test_criterion_3_lower_bound_holds_to_3000():
    t0 = time.perf_counter()
    report = verify_theorem_bound(3000)
    assert report.all_pass
    assert report.equality_degrees == (4,)
    assert len(report.checks) == 2999
    _report(3, time.perf_counter() - t0, 300.0,
            "alpha(tau(d), d) >= 1/2 + 9/(32 sqrt(d)) for d = 2..3000, "
            "equality exactly at d = 4")


def test_criterion_4_route_equivalence():
    t0 = time.perf_counter()
    for d in range(2, 33):
        g = build_ngraph(d)
        for tau in range((d + 1) // 2 + 1, d + 2):
            closed = alpha_closed_form(tau, d)
            by_graph = evaluate_cut(g, threshold_assignment(ThresholdRule(d, tau)))
            assert closed == by_graph, f"d={d}, tau={tau}"
    for d in range(2, 9):
        for tau in range(d + 2):
            assert alpha(tau, d) == threshold_cut_probability(d, tau)
    _report(4, time.perf_counter() - t0, 30.0,
            "closed form == graph evaluation (d <= 32) == bit-pattern "
            "enumeration (d <= 8), exact")


def test_criterion_5_certified_tail_estimates():
    t0 = time.perf_counter()
    report = verify_appendix_estimates([1500, 2000, 3000])
    assert report.all_hold and report.conclusive
    by_name = {}
    for c in report.checks:
        by_name.setdefault(c.name, []).append(c)
    assert {c.n for c in by_name["central_mass_lower"]} == {1500, 2000, 3000}
    assert {c.j for c in by_name["offcentre_power"]} == {1, 2, 3, 4}
    assert {c.n for c in by_name["window_mass_full"]} >= {1500, 3000}
    assert all(c.status == "holds" for c in report.checks)
    _report(5, time.perf_counter() - t0, 60.0,
            f"{len(report.checks)} interval checks, all conclusive")


def test_criterion_6_simulation_matches_the_exact_weight():
    t0 = time.perf_counter()
    graphs = {
        "K33": complete_bipartite(3),
        "petersen": petersen_graph(),
        "bipartite100": random_bipartite_regular(100, 3, seed=SEED),
    }
    expected = 11 / 16
    for name, g in graphs.items():
        st = monte_carlo(g, ThresholdCut(3), TRIALS, SEED)
        assert abs(st.mean - expected) <= 3 * st.stderr, (
            f"{name}: {st.mean} vs {expected} (se {st.stderr})"
        )
    weights = build_ngraph(3)
    counts = sampled_joint_views(graphs["K33"], (0, 3), TRIALS, SEED)
    assert len(counts) == 64
    for cell, count in counts.items():
        p = float(weights.weight(*cell))
        if p == 0.0:
            assert count == 0, f"impossible cell {cell} observed"
        else:
            sigma = math.sqrt(p * (1 - p) / TRIALS)
            assert abs(count / TRIALS - p) <= 3 * sigma, f"cell {cell}"
    _report(6, time.perf_counter() - t0, 60.0,
            "threshold mean within 3 SE of 11/16 on three graphs; joint "
            "view distribution cell-wise within 3 sigma")


def test_criterion_7_threshold_beats_the_three_cut_rule():
    t0 = time.perf_counter()
    shearer_floor = 0.5 + math.sqrt(2) / (8 * math.sqrt(3))
    graphs = (
        complete_bipartite(3),
        petersen_graph(),
        random_bipartite_regular(100, 3, seed=SEED),
    )
    for g in graphs:
        thr = monte_carlo(g, ThresholdCut(3), TRIALS, SEED)
        she = monte_carlo(g, ShearerCut(), TRIALS, SEED)
        assert thr.mean > she.mean
        assert she.mean >= shearer_floor - 3 * she.stderr
    _report(7, time.perf_counter() - t0, 60.0,
            "paired-seed threshold mean exceeds the three-cut rule's on all "
            "three graphs, which stays above its proven floor")


def test_criterion_8_generalised_modes():
    t0 = time.perf_counter()
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    st = monte_carlo(star, VirtualNeighbourCut(3), TRIALS, SEED, per_edge=True)
    sigma = math.sqrt((11 / 16) * (5 / 16) / TRIALS)
    for e, count in st.per_edge.items():
        assert abs(count / TRIALS - 11 / 16) <= 3 * sigma, f"star edge {e}"

    path = from_edges(3, 2, [(0, 1), (1, 2)])
    st = monte_carlo(path, VirtualNeighbourCut(2), TRIALS, SEED, per_edge=True)
    sigma = math.sqrt((3 / 4) * (1 / 4) / TRIALS)
    for e, count in st.per_edge.items():
        assert abs(count / TRIALS - 3 / 4) <= 3 * sigma, f"path edge {e}"

    # triangle 0-1-2 with one pendant per corner: half the edges flagged
    tri = from_edges(6, 3, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    st = monte_carlo(tri, VirtualNeighbourCut(3), TRIALS, SEED)
    eps = st.flagged_edge_fraction
    assert eps == 0.5
    sigma = math.sqrt((11 / 16) * (5 / 16) / (TRIALS * 3))
    assert abs(st.clean_edge_mean - 11 / 16) <= 3 * sigma
    assert st.mean >= (1 - eps) * (11 / 16) - 3 * st.stderr
    _report(8, time.perf_counter() - t0, 60.0,
            "virtual neighbours reproduce the exact per-edge weight on the "
            "star and the path; triangle-flagged graph keeps the (1-eps) bound")


def test_criterion_9_wcnf_round_trip():
    t0 = time.perf_counter()
    for d in range(2, 9):
        g = build_ngraph(d)
        doc = export_wcnf(g)
        best_weight, _ = exhaustive_max_weight(doc)
        _, w_max = brute_force_max_cut(g)
        scale = 4**d
        assert g.total_weight() == 1
        assert best_weight == scale + w_max * scale, f"d={d}"
    _report(9, time.perf_counter() - t0, 30.0,
            "exported WCNF optimum equals 4^d * (1 + w_max) for d = 2..8")
