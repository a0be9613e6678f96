"""Threshold performance analysis: closed form, optima, bounds, tail estimates."""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.analysis import (
    AlphaValue,
    BoundCheck,
    alpha,
    alpha_closed_form,
    alpha_sweep,
    appendix_report_json,
    binomial_row,
    bound_report_json,
    fmt_float,
    optimal_tau,
    optimal_taus,
    shearer_bound,
    TAIL_J,
    tail_offset,
    tail_power,
    tau_formula,
    threshold_bound,
    verify_appendix_estimates,
    verify_theorem_bound,
    write_alpha_sweep_csv,
    write_tau_opt_csv,
    _alpha_float,
    _bound_decision,
    _central_row,
    _decide,
    _gains,
)
from localcut import sim
from localcut.cutsearch import ThresholdRule, evaluate_cut, export_wcnf, threshold_assignment
from localcut.intervals import TERMS, Interval, exp_enclosure
from localcut.ngraph import build_ngraph
import oracles
from oracles import threshold_cut_probability

# Optimal thresholds for d = 2..32, frozen.
OPTIMAL_TAU_TABLE = [
    2, 3, 3, 4, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10, 10, 11,
    11, 12, 12, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19,
]


def test_binomial_row():
    assert binomial_row(0) == [1]
    assert binomial_row(5) == [1, 5, 10, 10, 5, 1]
    with pytest.raises(ValueError):
        binomial_row(-1)


def test_alpha_known_values():
    assert alpha(3, 3) == Fraction(11, 16)
    assert alpha(2, 2) == Fraction(3, 4)
    assert alpha(3, 4) == Fraction(41, 64)


@pytest.mark.parametrize("d", range(2, 13))
def test_alpha_boundaries(d):
    assert alpha(0, d) == Fraction(1, 2)
    assert alpha(d + 1, d) == Fraction(1, 2)


def test_alpha_validation():
    with pytest.raises(ValueError):
        alpha(-1, 3)
    with pytest.raises(ValueError):
        alpha(5, 3)
    with pytest.raises(ValueError):
        alpha(2, 1)
    with pytest.raises(ValueError):
        alpha_closed_form(1, 3)  # tau <= d/2 is outside the closed form


@pytest.mark.parametrize("d", [*range(2, 11), 60])
def test_alpha_routes_agree(d):
    """alpha and alpha_sweep equal the neighbourhood-graph evaluation at every tau."""
    g = build_ngraph(d)
    sweep = alpha_sweep(d)
    for tau in range(d + 2):
        by_graph = evaluate_cut(g, threshold_assignment(ThresholdRule(d, tau)))
        assert alpha(tau, d) == by_graph
        assert sweep[tau].value == by_graph


@pytest.mark.parametrize("d", range(2, 7))
def test_alpha_matches_bit_pattern_oracle(d):
    for tau in range(d + 2):
        assert alpha(tau, d) == threshold_cut_probability(d, tau)


@pytest.mark.parametrize("d", range(2, 301))
def test_alpha_range_invariants(d):
    values = alpha_sweep(d)
    assert [av.tau for av in values] == list(range(d + 2))
    for av in values:
        assert Fraction(1, 4) <= av.value <= 1
        if 2 * av.tau > d:
            assert av.value >= Fraction(1, 2)
        else:
            assert av.value <= Fraction(1, 2)


def test_alpha_lower_extreme():
    # tau = 1 at d = 2 is the worst threshold rule: alpha = 1/4
    assert alpha(1, 2) == Fraction(1, 4)


def test_optimal_tau_matches_frozen_table():
    got = [optimal_tau(d)[0] for d in range(2, 33)]
    assert got == OPTIMAL_TAU_TABLE


@pytest.mark.parametrize("d", range(2, 201))
def test_optimal_tau_against_full_range_sweep(d):
    """The restricted scan agrees with maximising over all tau in [0, d+1]."""
    sweep = alpha_sweep(d)
    best = max(av.value for av in sweep)
    tau, value = optimal_tau(d)
    assert value == best
    assert tau == min(av.tau for av in sweep if av.value == best)
    assert optimal_taus(d) == sorted(av.tau for av in sweep if av.value == best)


def test_walked_optimum_matches_the_full_scan():
    """The early-stopping walk keeps every tie of the scan over all tau."""
    for d in range(2, 801):
        gains = _gains(d, range(d + 2))
        best = max(gains)
        winners = [t for t, g in enumerate(gains) if g == best]
        assert optimal_taus(d) == winners, d
        assert optimal_tau(d) == (winners[0], Fraction(1, 2) + Fraction(best, 4 ** (d - 1))), d


def test_optimal_tau_region():
    for d in range(2, 1001):
        tau = optimal_tau(d)[0]
        assert 2 * tau > d and tau <= d + 1


def test_optimal_tau_d500_anchor():
    tau, value = optimal_tau(500)
    assert tau == 260
    assert float(value) == pytest.approx(0.5150398297718263, rel=1e-14)


def test_tau_formula_values():
    assert tau_formula(2) == 2
    assert tau_formula(4) == 3
    assert tau_formula(9) == 6
    assert tau_formula(22) == 14
    with pytest.raises(ValueError):
        tau_formula(1)


def test_tau_formula_is_ceil():
    for d in range(2, 5000):
        t = tau_formula(d)
        # smallest integer with 2t >= d and (2t - d)^2 >= d
        assert 2 * t >= d and (2 * t - d) ** 2 >= d
        assert not (2 * (t - 1) >= d and (2 * (t - 1) - d) ** 2 >= d)
        assert t == math.ceil((d + math.sqrt(d)) / 2)


def test_formula_never_beats_optimum():
    for d in range(2, 65):
        tau_f = tau_formula(d)
        tau_o, best = optimal_tau(d)
        assert alpha(tau_f, d) <= best
        if tau_f == tau_o:
            assert alpha(tau_f, d) == best


# ---------------------------------------------------------------------------
# Bounds


def test_bound_compare_signs():
    b = threshold_bound(4)
    assert oracles.sqrt_bound_sign(b, Fraction(41, 64)) == 0  # meets the bound exactly at d = 4
    assert oracles.sqrt_bound_sign(b, Fraction(42, 64)) == 1
    assert oracles.sqrt_bound_sign(b, Fraction(40, 64)) == -1
    assert oracles.sqrt_bound_sign(b, Fraction(1, 3)) == -1  # below 1/2


def test_bound_floats():
    assert threshold_bound(4).to_float() == pytest.approx(41 / 64, abs=1e-15)
    assert shearer_bound(3).to_float() == pytest.approx(
        0.5 + math.sqrt(2) / (8 * math.sqrt(3)), abs=1e-15
    )


def test_threshold_bound_dominates_shearer():
    # 9/32 > sqrt(2)/8, i.e. 81/1024 > 32/1024, at every degree
    for d in range(2, 51):
        tb, sb = threshold_bound(d), shearer_bound(d)
        assert tb.coeff_sq > sb.coeff_sq
        assert tb.to_float() > sb.to_float()


@given(st.integers(min_value=2, max_value=4000))
@settings(max_examples=60, deadline=None)
def test_bound_compare_agrees_with_float(d):
    b = threshold_bound(d)
    r = Fraction(1, 2) + Fraction(9, 32 * (math.isqrt(d) + 1))  # below the bound
    assert oracles.sqrt_bound_sign(b, r) <= 0


def test_verify_theorem_bound_small():
    report = verify_theorem_bound(120)
    assert report.all_pass
    assert report.equality_degrees == (4,)
    assert len(report.checks) == 119
    for c in report.checks:
        # the incremental binomial walk equals the direct closed form
        assert c.alpha == alpha_closed_form(c.tau, c.degree)
        assert c.tau == tau_formula(c.degree)
        assert oracles.sqrt_bound_sign(threshold_bound(c.degree), c.alpha) == (
            0 if c.equality else (1 if c.passed else -1)
        )


def test_bound_check_gain_and_reported_alpha():
    report = verify_theorem_bound(3000)
    rows = json.loads(oracles.written(bound_report_json, report))["checks"]
    for c, row in zip(report.checks, rows, strict=True):
        assert c.gain == (c.alpha - Fraction(1, 2)) * 4 ** (c.degree - 1)
        assert row == {
            "d": c.degree,
            "tau": c.tau,
            "alpha_float": float(c.alpha),
            "bound_float": threshold_bound(c.degree).to_float(),
            "passed": c.passed,
            "equality": c.equality,
        }


@pytest.mark.parametrize("d_max", [*range(2, 41), 3000])
def test_bound_report_writer_matches_the_encoder(d_max):
    report = verify_theorem_bound(d_max)
    text = oracles.written(bound_report_json, report)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_bound_report_writer_prints_failures():
    report = verify_theorem_bound(3)
    failed = report.checks[1]._replace(passed=False)
    report = report._replace(checks=(report.checks[0], failed), all_pass=False)
    text = oracles.written(bound_report_json, report)
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text
    assert doc["all_pass"] is False and doc["equality_degrees"] == []
    assert [c["passed"] for c in doc["checks"]] == [True, False]


def _fields(report):
    return [(c.degree, c.tau, c.gain, c.margin, c.passed, c.equality) for c in report.checks]


def test_pascal_carried_bound_matches_the_term_walk():
    walk = oracles.bound_walk(3000)
    report = verify_theorem_bound(3000)
    assert _fields(report) == walk
    assert report.all_pass and report.equality_degrees == (4,)
    # each short run starts the carry afresh and meets the window's edge cases
    # (hi = n at d = 2 and 3, the first left drop at d = 4)
    for d_max in range(2, 13):
        assert _fields(verify_theorem_bound(d_max)) == walk[: d_max - 1]


def test_bound_checks_store_the_gain_and_not_the_margin():
    # the margin has about twice the gain's bits; it is built on read, from
    # the same integers that decided passed and equality
    assert BoundCheck._fields == ("degree", "tau", "gain", "passed", "equality")
    for c in verify_theorem_bound(40).checks:
        assert c.margin == c.gain**2 * 1024 * c.degree - 81 * 16 ** (c.degree - 1)
        assert (c.passed, c.equality) == (c.margin >= 0, c.margin == 0)


_RECORDS = {  # each output record as the package builds it, and its fields in order
    "AlphaValue": (lambda: alpha_sweep(3)[2], ("degree", "tau", "value")),
    "SqrtBound": (lambda: threshold_bound(4), ("coeff_sq", "degree")),
    "BoundCheck": (
        lambda: verify_theorem_bound(4).checks[2],
        ("degree", "tau", "gain", "passed", "equality"),
    ),
    "BoundReport": (
        lambda: verify_theorem_bound(4),
        ("d_max", "checks", "all_pass", "equality_degrees"),
    ),
    "EstimateCheck": (
        lambda: verify_appendix_estimates([1500]).checks[0],
        ("name", "n", "j", "lo", "hi", "threshold", "relation", "status", "precision"),
    ),
    "AppendixEstimateReport": (
        lambda: verify_appendix_estimates([1500]),
        ("checks", "all_hold", "conclusive"),
    ),
    "TrialStats": (
        lambda: sim.monte_carlo(sim.complete_bipartite(3), sim.UniformCut(), 10, 7),
        (
            "trials", "mean", "stderr", "seed", "edge_count", "per_edge",
            "clean_edge_mean", "flagged_edge_mean", "flagged_edge_fraction",
        ),
    ),
    "WcnfClause": (lambda: export_wcnf(build_ngraph(2)).clauses[0], ("weight", "literals")),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_output_records_keep_their_fields_and_refuse_assignment(name):
    build, fields = _RECORDS[name]
    record = build()
    assert type(record).__name__ == name and type(record)._fields == fields
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def _exact_decision(gain, d):
    margin = gain * gain * 1024 * d - 81 * 16 ** (d - 1)
    return margin >= 0, margin == 0


def test_bound_decision_at_the_boundary():
    # the gains around the real root of gain^2 * 1024 * d = 81 * 16^(d-1); at
    # d = 4 the root is the integer 9, the equality gain
    assert _bound_decision(9, 4) == (True, True)
    # every degree to 2000, then a sample to 10000 (20000-bit gains)
    for d in [*range(2, 2001), *range(2001, 10_001, 37), 10_000]:
        root = math.isqrt(81 * 16 ** (d - 1) // (1024 * d))
        # and gains off the root in their 40th leading bit, which the
        # 64-bit bracket decides without the exact margin
        wide = root >> 40
        for gain in {root - 1, root, root + 1, root + 2, root - wide, root + wide}:
            if gain >= 0:
                assert _bound_decision(gain, d) == _exact_decision(gain, d), (d, gain)


@given(st.integers(min_value=2, max_value=400), st.data())
@settings(max_examples=300, deadline=None)
def test_bound_decision_matches_the_exact_margin(d, data):
    # gains of every bit length to 4^(d-1) and far past it, where the
    # bracket keeps more than 64 bits so as not to shift the right side
    bits = data.draw(st.integers(min_value=0, max_value=2 * d + 80))
    gain = data.draw(st.integers(min_value=0, max_value=1 << bits))
    assert _bound_decision(gain, d) == _exact_decision(gain, d)


def test_verify_theorem_bound_validation():
    with pytest.raises(ValueError):
        verify_theorem_bound(1)


# ---------------------------------------------------------------------------
# Certified tail estimates


def test_tail_offset_values():
    assert tail_offset(4, 1500) == 27
    assert tail_offset(1, 1500) == 6
    # largest delta with 32 * delta^2 <= j^2 * n
    for j in (1, 2, 3, 4):
        for n in (1500, 1777, 3000):
            delta = tail_offset(j, n)
            assert 32 * delta**2 <= j * j * n < 32 * (delta + 1) ** 2


def test_tail_quantities_are_exact():
    assert tail_power(4, 27) == (1 - Fraction(16, 32 * 27)) ** 27


@pytest.mark.parametrize("n", [2, 1500, 1777, 3000])
def test_walked_tail_quantities_match_comb_oracles(n):
    deltas = [tail_offset(j, n) for j in TAIL_J]
    for k in {0, 1, *deltas, n + 2}:  # past i = n the row stays 0
        assert _central_row(n, k) == [math.comb(2 * n, n + i) for i in range(k + 1)]


def test_appendix_window_checks_match_comb_oracles():
    ns = [1500, 1777, 3000]
    report = verify_appendix_estimates(ns)
    got = {(c.name, c.n): c for c in report.checks}
    for n in ns:
        delta4 = tail_offset(4, n)
        for name, hi in (("window_mass_full", delta4), ("window_mass_trimmed", delta4 - 1)):
            c = got[name, n]
            assert c.lo == c.hi == oracles.window_mass(n, 1 - delta4, hi)


def test_appendix_offcentre_checks_match_comb_oracles():
    ns = [1500, 1777, 3000]
    report = verify_appendix_estimates(ns)
    got = {(c.name, c.n, c.j): c for c in report.checks}
    for n in ns:
        for j in TAIL_J:
            c = got["offcentre_mass", n, j]
            ratio = oracles.offset_ratio(n, tail_offset(j, n))
            want = exp_enclosure(Fraction(-j * j, 32)).reciprocal().scale(ratio)
            assert (c.lo, c.hi) == (want.lo, want.hi)
            assert c.precision == TERMS


def test_appendix_estimates_hold():
    report = verify_appendix_estimates([1500, 2000])
    assert report.all_hold and report.conclusive
    names = {c.name for c in report.checks}
    assert names == {
        "central_mass_lower",
        "central_mass_upper",
        "offcentre_mass",
        "window_mass_full",
        "window_mass_trimmed",
        "offcentre_power",
    }
    # 8 checks per n plus the 4 n-independent power checks
    assert len(report.checks) == 8 * 2 + 4
    for c in report.checks:
        assert c.status == "holds"
        assert c.lo <= c.hi


def test_appendix_estimates_reject_small_n():
    with pytest.raises(ValueError):
        verify_appendix_estimates([1499])
    with pytest.raises(ValueError):
        verify_appendix_estimates([])


def test_decision_engine_reports_inconclusive():
    # an enclosure that straddles the threshold must not pass
    wide = Interval(Fraction(0), Fraction(1))
    check = _decide("stub", None, None, wide, Fraction(1, 2), ">")
    assert check.status == "inconclusive"
    assert check.precision == 16
    assert (check.lo, check.hi) == (wide.lo, wide.hi)
    # nor one that only touches it from above
    check = _decide("stub", None, None, Interval(Fraction(1, 2), Fraction(1)), Fraction(1, 2), ">")
    assert check.status == "inconclusive"


@pytest.mark.parametrize("n", (1500.0, "1500"))
def test_appendix_estimates_reject_an_n_that_is_not_an_integer_of_at_least_1500(n):
    with pytest.raises(ValueError, match=r"^estimates are only claimed for n >= 1500, got "):
        verify_appendix_estimates([n])


@pytest.mark.parametrize("ns", ([1500, "x"], [1500, 1500.0]))
def test_appendix_estimates_check_each_n_before_merging_them(ns):
    # sorting would compare "x" with 1500, and a set would merge 1500.0 into 1500
    with pytest.raises(ValueError, match=r"^estimates are only claimed for n >= 1500, got "):
        verify_appendix_estimates(ns)


def test_appendix_estimates_name_the_smallest_n_out_of_range():
    with pytest.raises(ValueError, match=r", got 1000$"):
        verify_appendix_estimates([1400, 1000, 2000])


def test_appendix_estimates_read_numpy_integers_as_python_ints():
    want = verify_appendix_estimates([1500])
    assert verify_appendix_estimates([np.int64(1500)]) == want


@pytest.mark.parametrize("ns", (range(1500, 1561), [10**4, 10**5]))
def test_appendix_estimates_all_hold_at_precision_16(ns):
    report = verify_appendix_estimates(ns)
    assert len(report.checks) == 8 * len(ns) + 4
    assert all((c.status, c.precision) == ("holds", 16) for c in report.checks)
    assert report.all_hold and report.conclusive
    # the widest enclosures (the off-centre ones) are about 3.7e-20 wide
    assert max(c.hi - c.lo for c in report.checks) < Fraction(1, 10**19)


def test_decision_engine_reports_a_failure():
    # an interval wholly on the wrong side of the threshold fails
    check = _decide("stub", None, None, Interval.point(Fraction(1, 3)), Fraction(1, 2), ">")
    assert (check.status, check.precision) == ("fails", 16)
    # touching the threshold is not strictly above it
    check = _decide("stub", None, None, Interval.point(Fraction(1, 2)), Fraction(1, 2), ">")
    assert check.status == "fails"
    check = _decide("stub", 7, 2, Interval(Fraction(5, 8), Fraction(3, 4)), Fraction(1, 2), ">")
    assert (check.status, check.n, check.j, check.lo) == ("holds", 7, 2, Fraction(5, 8))


def test_decision_engine_below_the_threshold():
    half = Fraction(1, 2)
    check = _decide("stub", None, None, Interval.point(Fraction(1, 3)), half, "<")
    assert (check.status, check.precision) == ("holds", 16)
    check = _decide("stub", None, None, Interval.point(Fraction(2, 3)), half, "<")
    assert (check.status, check.precision) == ("fails", 16)
    # touching the threshold is not strictly below it
    check = _decide("stub", None, None, Interval.point(half), half, "<")
    assert (check.status, check.precision) == ("fails", 16)
    check = _decide("stub", None, None, Interval(Fraction(1, 4), half), half, "<")
    assert check.status == "inconclusive"
    wide = Interval(Fraction(0), Fraction(1))
    check = _decide("stub", 7, 2, wide, half, "<")
    assert (check.status, check.precision, check.relation) == ("inconclusive", 16, "<")
    assert (check.n, check.j, check.lo, check.hi) == (7, 2, wide.lo, wide.hi)
    # 3/8 +- 3/32 lies wholly below 1/2
    check = _decide("stub", None, None, Interval(Fraction(9, 32), Fraction(15, 32)), half, "<")
    assert (check.status, check.hi) == ("holds", Fraction(15, 32))


def test_decision_engine_rejects_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation"):
        _decide("stub", None, None, Interval.point(1), Fraction(1, 2), ">=")


# ---------------------------------------------------------------------------
# Emitters


def test_alpha_sweep_csv():
    buf = io.StringIO()
    write_alpha_sweep_csv(buf, [5, 2])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "d,tau,alpha_num,alpha_den,alpha_float"
    assert lines.count(lines[0]) == 1  # one header for the whole table
    assert len(lines) == 1 + 7 + 4
    assert [line.split(",")[:2] for line in lines[8:]] == [["2", str(t)] for t in range(4)]
    d, tau, num, den, flt = lines[4].split(",")
    assert (d, tau) == ("5", "3")
    assert Fraction(int(num), int(den)) == alpha(3, 5)
    assert float(flt) == pytest.approx(float(alpha(3, 5)), rel=1e-14)


def test_tau_opt_csv():
    buf = io.StringIO()
    ties = write_tau_opt_csv(buf, range(2, 9))
    assert ties == []  # no ties in this range
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == (
        "d,tau_opt,tau_formula,alpha_opt_float,our_bound_float,shearer_bound_float"
    )
    assert len(lines) == 1 + 7
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert row["d"] == "4" and row["tau_opt"] == "3" and row["tau_formula"] == "3"
    assert float(row["alpha_opt_float"]) == pytest.approx(41 / 64)
    assert float(row["our_bound_float"]) == pytest.approx(41 / 64)


@pytest.mark.parametrize(
    "degrees", [[9, 2, 2, 800, 799], [2, 3, 4, 3, 4, 5, 5, 6, 40, 41, 39], list(range(2, 200))]
)
def test_tau_opt_csv_carries_the_binomial_across_any_degree_list(monkeypatch, degrees):
    """Gaps, repeats and steps down give the rows of one degree at a time."""
    expected, expected_ties = [], []
    for d in degrees:  # each a fresh table, so each its own math.comb
        buf = io.StringIO()
        expected_ties += write_tau_opt_csv(buf, [d])
        expected.append(buf.getvalue().splitlines()[1])
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append(n + 1) or comb(n, k))
    buf = io.StringIO()
    ties = write_tau_opt_csv(buf, degrees)
    assert buf.getvalue().splitlines()[1:] == expected
    assert ties == expected_ties
    # math.comb only at the first degree and where the next is not d + 1 or d
    fresh = [d for i, d in enumerate(degrees) if i == 0 or d not in (degrees[i - 1], degrees[i - 1] + 1)]
    assert calls == fresh


def test_tau_opt_csv_floats_match_the_exact_values():
    buf = io.StringIO()
    write_tau_opt_csv(buf, range(2, 3001))
    lines = buf.getvalue().splitlines()[1:]
    assert len(lines) == 2999
    for d, line in zip(range(2, 3001), lines, strict=True):
        value = optimal_tau(d)[1]
        gain = (value - Fraction(1, 2)) * 4 ** (d - 1)
        assert gain.denominator == 1
        assert _alpha_float(gain.numerator, d) == float(value)
        assert line.split(",")[3:] == [
            fmt_float(float(value)),
            fmt_float(threshold_bound(d).to_float()),
            fmt_float(shearer_bound(d).to_float()),
        ], d


def test_report_json_shapes():
    rep = json.loads(oracles.written(bound_report_json, verify_theorem_bound(6)))
    assert rep["all_pass"] is True
    assert rep["equality_degrees"] == [4]
    assert {c["d"] for c in rep["checks"]} == set(range(2, 7))
    app = json.loads(oracles.written(appendix_report_json, verify_appendix_estimates([1500])))
    assert app["all_hold"] is True and app["conclusive"] is True
    assert all(
        set(c) == {"name", "n", "j", "lo_float", "hi_float", "threshold", "relation", "status", "precision"}
        for c in app["checks"]
    )
