"""Cut evaluation and exhaustive search, validated against naive enumeration."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.analysis import optimal_tau
from localcut.cutsearch import (
    ThresholdRule,
    brute_force_max_cut,
    complement_assignment,
    evaluate_cut,
    export_wcnf,
    format_wcnf,
    matching_threshold,
    threshold_assignment,
)
from localcut.ngraph import Neighbourhood, build_ngraph
from oracles import exhaustive_max_weight, grid_max_cut, threshold_cut_probability, written


def test_threshold_boundary_assignments():
    # tau = 0 complements everything; tau = d + 1 keeps everything
    flipped = threshold_assignment(ThresholdRule(2, 0))
    assert all(side != n.side for n, side in flipped.items())
    identity = threshold_assignment(ThresholdRule(4, 5))
    assert all(side == n.side for n, side in identity.items())


def test_threshold_rule_validation():
    with pytest.raises(ValueError):
        ThresholdRule(3, -1)
    with pytest.raises(ValueError):
        ThresholdRule(3, 5)
    with pytest.raises(ValueError):
        ThresholdRule(1, 1)


def test_evaluate_threshold_d3_tau3():
    g = build_ngraph(3)
    cut = threshold_assignment(ThresholdRule(3, 3))
    assert evaluate_cut(g, cut) == Fraction(11, 16)


@pytest.mark.parametrize("d", range(2, 7))
def test_evaluate_matches_bit_pattern_oracle(d):
    """Threshold cut weight equals the per-edge enumeration, every tau."""
    g = build_ngraph(d)
    for tau in range(d + 2):
        cut = threshold_assignment(ThresholdRule(d, tau))
        assert evaluate_cut(g, cut) == threshold_cut_probability(d, tau)


def test_evaluate_requires_complete_labelling():
    g = build_ngraph(2)
    cut = threshold_assignment(ThresholdRule(2, 2))
    del cut[Neighbourhood("b", 1)]
    with pytest.raises(ValueError):
        evaluate_cut(g, cut)
    cut[Neighbourhood("b", 1)] = "c"
    with pytest.raises(ValueError):
        evaluate_cut(g, cut)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=30, deadline=None)
def test_complement_invariance(d, data):
    g = build_ngraph(d)
    labels = data.draw(
        st.lists(
            st.sampled_from("ab"), min_size=2 * d + 2, max_size=2 * d + 2
        )
    )
    cut = dict(zip(g.nodes, labels))
    assert evaluate_cut(g, cut) == evaluate_cut(g, complement_assignment(cut))


def _naive_max_cut(g):
    """Literal scan over every labelling; lexicographically smallest winner."""
    nodes = g.nodes
    best = None
    best_cut = None
    for labels in product("ab", repeat=len(nodes)):
        cut = dict(zip(nodes, labels))
        w = evaluate_cut(g, cut)
        if best is None or w > best or (w == best and labels < best_labels):
            best, best_cut, best_labels = w, cut, labels
    return best_cut, best


@pytest.mark.parametrize("d", [2, 3, 4])
def test_brute_force_matches_naive_scan(d):
    g = build_ngraph(d)
    fast_cut, fast_w = brute_force_max_cut(g)
    naive_cut, naive_w = _naive_max_cut(g)
    assert fast_w == naive_w
    assert fast_cut == naive_cut
    assert evaluate_cut(g, fast_cut) == fast_w


def test_brute_force_d2():
    g = build_ngraph(2)
    cut, w = brute_force_max_cut(g)
    assert w == Fraction(3, 4)
    assert matching_threshold(g, cut) == 2


def test_brute_force_d3_is_threshold_3():
    g = build_ngraph(3)
    cut, w = brute_force_max_cut(g)
    assert w == Fraction(11, 16)
    assert cut == threshold_assignment(ThresholdRule(3, 3))


@pytest.mark.parametrize("d", range(2, 9))
def test_brute_force_equals_best_threshold(d):
    g = build_ngraph(d)
    _, w = brute_force_max_cut(g)
    best_threshold = max(
        evaluate_cut(g, threshold_assignment(ThresholdRule(d, tau)))
        for tau in range(d + 2)
    )
    assert w == best_threshold


@pytest.mark.parametrize("d", range(2, 13))
def test_brute_force_matches_grid_oracle(d):
    g = build_ngraph(d)
    assert brute_force_max_cut(g) == grid_max_cut(d)


@pytest.mark.parametrize("d", range(13, 17))
def test_brute_force_optimum_is_the_best_threshold_above_12(d):
    g = build_ngraph(d)
    labels, w = brute_force_max_cut(g)
    tau, value = optimal_tau(d)
    assert w == value
    assert matching_threshold(g, labels) == tau


def test_brute_force_cap():
    g = build_ngraph(2)
    capped = build_ngraph(17)
    with pytest.raises(ValueError, match="export_wcnf"):
        brute_force_max_cut(capped)
    brute_force_max_cut(g)  # under the cap: fine


# ---------------------------------------------------------------------------
# WCNF export


def test_wcnf_shape_d2():
    doc = export_wcnf(build_ngraph(2))
    assert doc.variable_count == 6
    assert doc.top == 1 + sum(c.weight for c in doc.clauses)


def test_wcnf_clause_count_d3():
    g = build_ngraph(3)
    doc = export_wcnf(g)
    nodes = g.nodes
    nonzero_unordered = sum(
        1
        for i, n1 in enumerate(nodes)
        for n2 in nodes[i:]
        if g.weight(n1, n2) != 0
    )
    assert len(doc.clauses) == 2 * nonzero_unordered == 42


@pytest.mark.parametrize("d", [*range(2, 31), 60])
def test_wcnf_closed_forms_and_text(d):
    g = build_ngraph(d)
    doc = export_wcnf(g)
    assert len(doc.clauses) == doc.clause_count == 2 * (2 * d * d + d)
    assert doc.top == 2 * 4**d + 1 == 1 + sum(c.weight for c in doc.clauses)
    # the clauses in file order are the text's clause lines
    body = written(format_wcnf, doc).splitlines()[2 * d + 4:]
    assert body == [f"{c.weight} {c.literals[0]} {c.literals[1]} 0" for c in doc.clauses]


def test_wcnf_text_format():
    doc = export_wcnf(build_ngraph(2))
    text = written(format_wcnf, doc)
    lines = text.splitlines()
    assert lines[0] == "c d = 2"
    assert lines[1] == "c var 1 = (a,0)"
    header = f"p wcnf 6 {len(doc.clauses)} {doc.top}"
    assert lines[1 + 6] == header
    body = lines[8:]
    assert len(body) == len(doc.clauses)
    assert all(ln.endswith(" 0") and len(ln.split()) == 4 for ln in body)


@pytest.mark.parametrize("d", range(2, 7))
def test_wcnf_round_trip(d):
    """Optimal satisfied weight = total integer edge weight + scaled max cut."""
    g = build_ngraph(d)
    doc = export_wcnf(g)
    _, w_max = brute_force_max_cut(g)
    best, labels = exhaustive_max_weight(doc)
    assert g.total_weight() == 1
    assert best == 4**d + w_max * 4**d
    assert evaluate_cut(g, labels) == w_max
