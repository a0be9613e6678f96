"""The degree/tau contract of the threshold rule, checked at every entry point.

Degrees are integers >= 2 and taus integers in [0, d + 1]; trial counts and
seeds of the Monte Carlo entry points are integers too. Any integer type
passes, numpy's included, and is computed with as a Python int; anything
else (a float, even an integral one, a fraction, a string) is a ValueError.
"""

from __future__ import annotations

import io
import warnings
from fractions import Fraction

import numpy as np
import pytest

from localcut.analysis import (
    alpha,
    alpha_closed_form,
    alpha_sweep,
    optimal_tau,
    optimal_taus,
    shearer_bound,
    tau_formula,
    threshold_bound,
    verify_theorem_bound,
)
from localcut.cutsearch import ThresholdRule, threshold_assignment
from localcut.ngraph import all_neighbourhoods, build_ngraph, check_degree, check_tau
from localcut.sim import (
    ThresholdCut,
    VirtualNeighbourCut,
    complete_bipartite,
    cycle_graph,
    from_edges,
    hypercube_graph,
    monte_carlo,
    random_bipartite_regular,
    random_triangle_free,
    write_trial_stats_json,
)

NUMPY_INTS = (np.int64, np.int32, np.uint16, np.intp)


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_checks_return_python_ints(kind):
    assert type(check_degree(kind(5))) is int and check_degree(kind(5)) == 5
    assert type(check_tau(kind(6), 5)) is int and check_tau(kind(6), 5) == 6
    assert check_tau(kind(0), 5) == 0


@pytest.mark.parametrize(
    "bad", [1, 0, -3, 2.0, 3.5, Fraction(3), "3", None, np.float64(3), True, False, np.True_]
)
def test_check_degree_rejects_non_degrees(bad):
    with pytest.raises(ValueError, match=r"^degree must be an integer >= 2, got "):
        check_degree(bad)


@pytest.mark.parametrize(
    "bad", [-1, 6, 2.0, 2.5, Fraction(5, 2), "2", None, np.float64(2), True, False, np.False_]
)
def test_check_tau_rejects_non_taus(bad):
    with pytest.raises(ValueError, match=r"^tau must be in \[0, 5\], got "):
        check_tau(bad, 4)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integer_degrees_and_taus_match_python_ints(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warns before it misleads
        for d in range(2, 41):
            nd = kind(d)
            assert build_ngraph(nd) == build_ngraph(d)
            assert type(build_ngraph(nd).degree) is int
            assert all_neighbourhoods(nd) == all_neighbourhoods(d)
            assert alpha_sweep(nd) == alpha_sweep(d)
            assert optimal_tau(nd) == optimal_tau(d)
            assert optimal_taus(nd) == optimal_taus(d)
            assert tau_formula(nd) == tau_formula(d)
            assert threshold_bound(nd) == threshold_bound(d)
            assert type(threshold_bound(nd).degree) is int
            assert shearer_bound(nd) == shearer_bound(d)
            assert threshold_bound(nd).to_float() == threshold_bound(d).to_float()
            for tau in (0, d // 2 + 1, d + 1):
                nt = kind(tau)
                assert alpha(nt, nd) == alpha(tau, d)
                rule = ThresholdRule(nd, nt)
                assert (type(rule.degree), type(rule.tau)) == (int, int)
                assert rule == ThresholdRule(d, tau)
                assert threshold_assignment(rule) == threshold_assignment(ThresholdRule(d, tau))
            assert alpha_closed_form(kind(d), nd) == alpha_closed_form(d, d)


def _entry_points():
    g = complete_bipartite(3)
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    calls = {
        "build_ngraph": lambda x: build_ngraph(x),
        "all_neighbourhoods": lambda x: all_neighbourhoods(x),
        "alpha(d)": lambda x: alpha(2, x),
        "alpha_closed_form(d)": lambda x: alpha_closed_form(3, x),
        "alpha_sweep": lambda x: alpha_sweep(x),
        "optimal_tau": lambda x: optimal_tau(x),
        "optimal_taus": lambda x: optimal_taus(x),
        "tau_formula": lambda x: tau_formula(x),
        "threshold_bound": lambda x: threshold_bound(x),
        "shearer_bound": lambda x: shearer_bound(x),
        "ThresholdRule(d)": lambda x: ThresholdRule(x, 2),
        "alpha(tau)": lambda x: alpha(x, 3),
        "alpha_closed_form(tau)": lambda x: alpha_closed_form(x, 3),
        "ThresholdRule(tau)": lambda x: ThresholdRule(3, x),
        "monte_carlo(ThresholdCut)": lambda x: monte_carlo(g, ThresholdCut(x), 10, 0),
        "monte_carlo(VirtualNeighbourCut)": lambda x: monte_carlo(
            star, VirtualNeighbourCut(x), 10, 0
        ),
        "monte_carlo(trials)": lambda x: monte_carlo(g, ThresholdCut(2), x, 0),
        "monte_carlo(seed)": lambda x: monte_carlo(g, ThresholdCut(2), 10, x),
        "random_bipartite_regular(seed)": lambda x: random_bipartite_regular(6, 3, x),
        "random_triangle_free(seed)": lambda x: random_triangle_free(20, 3, x),
    }
    return list(calls.items())


@pytest.mark.parametrize("name,call", _entry_points(), ids=[n for n, _ in _entry_points()])
@pytest.mark.parametrize(
    "bad", [2.5, 3.0, Fraction(5, 2), np.float64(3.0), True],
    ids=["2.5", "3.0", "5/2", "np3.0", "True"],
)
def test_floats_and_fractions_raise_at_every_entry_point(name, call, bad):
    call(3)  # an integer in range passes
    with pytest.raises(ValueError, match="must be"):
        call(bad)


# The graph builders' sizes and degrees, and the bound's d_max: each entry
# with a value that passes
BUILDERS = {
    "complete_bipartite": (complete_bipartite, 3),
    "cycle_graph": (cycle_graph, 6),
    "hypercube_graph": (hypercube_graph, 3),
    "random_bipartite_regular(n)": (lambda x: random_bipartite_regular(x, 3, 0), 6),
    "random_bipartite_regular(d)": (lambda x: random_bipartite_regular(6, x, 0), 3),
    "random_triangle_free(n)": (lambda x: random_triangle_free(x, 3, 7), 20),
    "random_triangle_free(d)": (lambda x: random_triangle_free(20, x, 7), 3),
    "from_edges(node_count)": (lambda x: from_edges(x, 2, [(0, 1)]), 3),
    "from_edges(degree)": (lambda x: from_edges(3, x, [(0, 1)]), 2),
    "verify_theorem_bound": (verify_theorem_bound, 30),
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize(
    "bad", [2.5, 3.0, np.float64(3.0), Fraction(3), True, "3"],
    ids=["2.5", "3.0", "np3.0", "3/1", "True", "str"],
)
def test_builder_sizes_must_be_integers(name, bad):
    build, good = BUILDERS[name]
    build(good)
    with pytest.raises(ValueError, match=r"an integer .*, got "):
        build(bad)


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_builders_store_python_ints(kind):
    assert hypercube_graph(kind(3)) == hypercube_graph(3)
    for g in (
        complete_bipartite(kind(3)),
        cycle_graph(kind(6)),
        hypercube_graph(kind(3)),
        from_edges(kind(3), kind(2), [(0, 1)]),
        random_bipartite_regular(kind(6), kind(3), 0),
        random_triangle_free(kind(20), kind(3), 7),
    ):
        assert (type(g.node_count), type(g.degree)) == (int, int)
    assert verify_theorem_bound(kind(30)) == verify_theorem_bound(30)


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_trial_counts_and_seeds_are_held_as_python_ints(kind):
    g = complete_bipartite(3)
    stats = monte_carlo(g, ThresholdCut(2), kind(5), kind(7))
    assert stats == monte_carlo(g, ThresholdCut(2), 5, 7)
    assert (type(stats.trials), type(stats.seed)) == (int, int)
    buf = io.StringIO()
    write_trial_stats_json(buf, stats)  # numpy integers would not serialise
    assert '"trials": 5,' in buf.getvalue() and '"seed": 7,' in buf.getvalue()


@pytest.mark.parametrize("generate,args", [
    (random_bipartite_regular, (6, 3)),
    (random_triangle_free, (20, 3)),
])
def test_generator_seeds_are_integers_of_at_least_0(generate, args):
    # None would draw OS entropy, and -1 would reach numpy's own error
    for bad in (None, -1, "7"):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            generate(*args, bad)
    for kind in NUMPY_INTS:
        assert generate(*args, kind(7)) == generate(*args, 7)


def test_a_negative_seed_is_keyed_mod_2_64():
    g = complete_bipartite(3)
    stats = monte_carlo(g, ThresholdCut(2), 5, -1)
    assert stats.seed == -1
    assert stats.mean == monte_carlo(g, ThresholdCut(2), 5, 2**64 - 1).mean
