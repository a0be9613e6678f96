"""Graph generation, the one-round rules, and Monte Carlo measurement."""

from __future__ import annotations

import hashlib
import io
import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import sim
from localcut.ngraph import Neighbourhood, build_ngraph
from localcut.sim import (
    ShearerCut,
    ThresholdCut,
    TrialStats,
    UniformCut,
    VirtualNeighbourCut,
    apply_shearer_rule,
    apply_threshold_rule,
    apply_virtual_rule,
    complete_bipartite,
    cycle_graph,
    draw_bits,
    empirical_joint_distribution,
    from_edges,
    hypercube_graph,
    labels_from_bits,
    make_trial_rng,
    monte_carlo,
    petersen_graph,
    random_bipartite_regular,
    random_triangle_free,
    read_edge_list,
    run_trial,
    trial_stats_jsonable,
    write_edge_list,
    write_trial_stats_csv,
)
import oracles
from oracles import (
    cut_fraction,
    expected_cut_weight_exhaustive,
    neighbour_lists,
    set_graph,
    shearer_expected_cut,
    threshold_rule_on_graph,
    virtual_expected_edge_cuts,
)


def triangle_with_pendants() -> sim.RegularGraph:
    # 0-1-2 triangle, one pendant hanging off each corner; half the edges flagged
    return from_edges(6, 3, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


# ---------------------------------------------------------------------------
# Graph construction


def test_complete_bipartite():
    g = complete_bipartite(3)
    assert g.node_count == 6 and g.edge_count == 9
    assert g.is_strict and g.is_regular
    assert all(v >= 3 for v in g.nbr[0].tolist())  # bipartite split at 3


def test_cycle_graph():
    g = cycle_graph(5)
    assert g.node_count == 5 and g.edge_count == 5 and g.degree == 2
    assert g.is_strict
    with pytest.raises(ValueError):
        cycle_graph(3)


def test_hypercube_graph():
    g = hypercube_graph(3)
    assert g.node_count == 8 and g.edge_count == 12 and g.degree == 3
    assert g.is_strict
    assert g.nbr[0].tolist() == [1, 2, 4]


@pytest.mark.parametrize(
    "build, n, d, pairs",
    [
        (lambda: complete_bipartite(4), 8, 4, [(u, 4 + v) for u in range(4) for v in range(4)]),
        (lambda: cycle_graph(7), 7, 2, [(i, (i + 1) % 7) for i in range(7)]),
        (
            lambda: hypercube_graph(4),
            16,
            4,
            [(x, x | 1 << b) for x in range(16) for b in range(4) if not x >> b & 1],
        ),
    ],
    ids=["kdd", "cycle", "hypercube"],
)
def test_fixed_families_hand_from_edges_an_int_array(monkeypatch, build, n, d, pairs):
    seen = []

    def spy(node_count, degree, edges):
        seen.append(edges)
        return from_edges(node_count, degree, edges)

    monkeypatch.setattr(sim, "from_edges", spy)
    g = build()
    assert len(seen) == 1
    assert isinstance(seen[0], np.ndarray) and seen[0].dtype.kind == "i"
    assert seen[0].tolist() == [list(p) for p in pairs]  # the pairs, in the same order
    assert g == from_edges(n, d, pairs)


def test_petersen_graph():
    g = petersen_graph()
    assert g.node_count == 10 and g.edge_count == 15 and g.degree == 3
    assert g.is_strict
    # girth 5: no 4-cycles either, i.e. any two nodes share at most one neighbour
    for u in range(10):
        for v in range(u + 1, 10):
            common = set(g.nbr[u].tolist()) & set(g.nbr[v].tolist())
            assert len(common) <= 1


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self-loop"):
        from_edges(2, 1, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        from_edges(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        from_edges(2, 1, [(0, 2)])
    with pytest.raises(ValueError, match="above the declared bound"):
        from_edges(3, 1, [(0, 1), (0, 2)])


def test_from_edges_names_the_first_repeat_in_input_order():
    # the repeats in input order: (6, 5), then (1, 0), (3, 3), (8, 7); in key
    # order (1, 0) and (3, 3) come first
    edges = [(5, 6), (0, 1), (7, 8), (6, 5), (1, 0), (3, 3), (8, 7)]
    with pytest.raises(ValueError, match=r"^duplicate edge \(6, 5\)$"):
        from_edges(10, 9, edges)
    # long runs of equal half-edges in a large input, which an unstable sort
    # may reorder
    rng = np.random.default_rng(11)
    n = 3000
    cycle = [(i, (i + 1) % n) for i in range(n)]
    copies = [cycle[i][::s] for i in (0, 7, 1500) for s in (1, -1) * 40]
    edges = [tuple(int(x) for x in cycle[i]) for i in rng.permutation(n)]
    for c in rng.permutation(len(copies)):
        edges.insert(int(rng.integers(len(edges) + 1)), copies[c])
    with pytest.raises(ValueError) as want:
        set_graph(n, 2, edges)
    with pytest.raises(ValueError) as got:
        from_edges(n, 2, edges)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("edges", [
    [(0.5, 1), (1, 2)],  # a cast to intp would truncate this to (0, 1)
    [(0, 1.0)],
    [(True, 1), (1, 2)],  # bools beside ints convert to an integer dtype
    [(np.True_, 2)],
    [("0", 1)],
    [(0, None)],
    [(object(), 1)],
    [(2**63, 1)],  # an int beyond int64 converts to an object array
    np.array([[0.5, 1.0]]),
    np.array([[False, True]]),
    np.array([[0, 1]], dtype=object),
])
def test_from_edges_rejects_non_integer_endpoints(edges):
    with pytest.raises(TypeError, match="must be integers"):
        from_edges(3, 2, edges)


def test_from_edges_accepts_integer_lists_and_arrays():
    want = [[0, 1], [1, 2]]
    for edges in (want, [(np.int64(0), np.int32(1)), (1, 2)], np.array(want, dtype=np.uint8),
                  np.array(want, dtype=np.int32)):
        assert from_edges(3, 2, edges).edges.tolist() == want
    assert from_edges(3, 2, []).edges.shape == (0, 2)


DEFECTS = ("self-loop", "out of range", "duplicate edge", "above the declared bound")


@st.composite
def edge_lists(draw):
    """A simple graph on n <= 8 nodes in random order, and at most one defect."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(v, u) if draw(st.booleans()) else (u, v)
             for u, v in draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]]
    top = max(sum(x in e for e in edges) for x in range(n))  # the highest degree
    d = max(1, top) + draw(st.integers(0, 2))
    defect = draw(st.sampled_from((None,) + DEFECTS))
    if defect == "above the declared bound" and top < 2:
        defect = None
    if defect == "self-loop":
        edges.insert(draw(st.integers(0, len(edges))), (draw(st.integers(0, n - 1)),) * 2)
    elif defect == "out of range":
        bad = (draw(st.integers(0, n - 1)), draw(st.sampled_from((-1, n, n + 3))))
        edges.insert(draw(st.integers(0, len(edges))), bad[:: draw(st.sampled_from((1, -1)))])
    elif defect == "duplicate edge" and edges:
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(edges.index((u, v)) + 1, len(edges))), (v, u))
    elif defect == "above the declared bound":
        d = draw(st.integers(1, top - 1))
    else:
        defect = None
    return n, d, edges, defect


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_from_edges_matches_the_set_oracle(case):
    n, d, edges, defect = case
    try:
        nbrs, triangles = set_graph(n, d, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_edges(n, d, edges)
        assert defect is not None and defect in str(exc)
        assert str(got.value) == str(exc)  # one defect: the same message
        return
    assert defect is None
    for g in (from_edges(n, d, edges), from_edges(n, d, np.array(edges).reshape(-1, 2))):
        assert [row[row >= 0].tolist() for row in g.nbr] == nbrs
        assert g.nbr.shape == (n, d)
        assert [tuple(e) for e in g.edges[g.triangle].tolist()] == triangles


@st.composite
def raw_edge_lists(draw):
    """Any pairs on n <= 8 nodes, often with several defects; half may leave the range."""
    n = draw(st.integers(1, 8))
    node = st.integers(-1, n) if draw(st.booleans()) else st.integers(0, n - 1)
    return n, draw(st.integers(1, 4)), draw(st.lists(st.tuples(node, node), max_size=14))


@settings(max_examples=300, deadline=None)
@given(raw_edge_lists())
def test_from_edges_raises_exactly_when_the_set_oracle_does(case):
    n, d, edges = case
    try:
        nbrs, triangles = set_graph(n, d, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_edges(n, d, edges)
        # from_edges checks every endpoint's range first; past that, both
        # report the first self-loop or repeat in input order, then the
        # first node over the bound
        if all(0 <= x < n for e in edges for x in e):
            assert str(got.value) == str(exc)
        return
    g = from_edges(n, d, edges)
    assert [row[row >= 0].tolist() for row in g.nbr] == nbrs
    assert [tuple(e) for e in g.edges[g.triangle].tolist()] == triangles


def test_triangle_flags():
    g = triangle_with_pendants()
    assert g.edges[g.triangle].tolist() == [[0, 1], [0, 2], [1, 2]]
    assert not g.is_strict and g.is_regular is False  # pendants have degree 1
    p = petersen_graph()
    assert p.edges[p.triangle].tolist() == []


@st.composite
def dense_graphs(draw):
    """Graphs on 4..24 nodes under a degree bound d <= 12, often planted with K4s.

    Edges that would exceed the bound are skipped, so most rows keep -1
    padding. Edges come in random order and orientation.
    """
    n = draw(st.integers(4, 24))
    d = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    deg = [0] * n
    edges = set()
    quads = draw(st.lists(st.lists(node, min_size=4, max_size=4, unique=True), max_size=4))
    pairs = [p for quad in quads for p in combinations(quad, 2)]
    for u, v in pairs + draw(st.lists(st.tuples(node, node), max_size=80)):
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < d and deg[v] < d:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    edges = [e[:: draw(st.sampled_from((1, -1)))] for e in draw(st.permutations(sorted(edges)))]
    return n, d, edges


@pytest.mark.parametrize("budget", (1, 7, sim.TRIANGLE_BUDGET))
@settings(max_examples=150, deadline=None)
@given(dense_graphs())
def test_triangle_flags_match_the_set_oracle(budget, case):
    # a budget of 1 makes every edge a chunk of its own; 7 splits the rows
    # of d > 7 below one edge
    n, d, edges = case
    nbrs, triangles = set_graph(n, d, edges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "TRIANGLE_BUDGET", budget)
        g = from_edges(n, d, edges)
    assert [row[row >= 0].tolist() for row in g.nbr] == nbrs
    assert [tuple(e) for e in g.edges[g.triangle].tolist()] == triangles


@pytest.mark.parametrize("budget", (1, sim.TRIANGLE_BUDGET))
def test_triangle_flags_span_chunks(budget, monkeypatch):
    # a 50000-cycle with a chord (i, i + 2) every 997 nodes: its 50000+
    # edges span several chunks at the default budget, one edge a chunk at 1
    n = 50_000
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 2) for i in range(0, n - 2, 997)]
    monkeypatch.setattr(sim, "TRIANGLE_BUDGET", budget)
    assert len(edges) > 2 * (sim.TRIANGLE_BUDGET // 3)  # three chunks or more
    g = from_edges(n, 3, edges)
    assert [tuple(e) for e in g.edges[g.triangle].tolist()] == set_graph(n, 3, edges)[1]


def test_random_bipartite_regular():
    g = random_bipartite_regular(100, 3, seed=1)
    assert g.node_count == 200 and g.edge_count == 300
    assert g.is_strict
    # bipartite: left nodes only touch right nodes
    assert all(w >= 100 for v in range(100) for w in g.nbr[v].tolist())
    assert g == random_bipartite_regular(100, 3, seed=1)  # deterministic
    assert g != random_bipartite_regular(100, 3, seed=2)  # seed-sensitive


def test_random_bipartite_smallest_case_is_the_4cycle():
    g = random_bipartite_regular(2, 2, seed=0)
    assert g.edges.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]


# SHA-256 of write_edge_list's output for seeded generator calls; the
# benchmark's recorded means and input digests depend on these streams
GENERATOR_STREAMS = [
    (random_bipartite_regular, (100, 4, 0xC0FFEE),
     "33f9f10c31374cddc59a85d37298ff48c3c3390a8b4e7aaca189fcd2c74bf666"),
    (random_triangle_free, (2000, 3, 7),
     "dc48e5bd22a2ee5ddb74ea1c4165312c46fa257a0062b5eb3dc38c8aee114bc7"),
    (random_bipartite_regular, (30, 3, 4),
     "2a7ba9889a1e65d1f0fb2d4fadfdee3b09b39272e2d1cd3a14378a4de7d2d411"),
    (random_triangle_free, (20, 3, 7),
     "cfc93fc9f5c60e38b71a25de27eb59e0695733fefa12ff3cd299e89476d8b920"),
]


@pytest.mark.parametrize("generate,args,digest", GENERATOR_STREAMS)
def test_generator_streams_are_pinned(generate, args, digest):
    buf = io.StringIO()
    write_edge_list(buf, generate(*args))
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# The benchmark's generator calls and the attempt each accepts at: the
# rejection decisions, not only the accepted graph, stay as they were
@pytest.mark.parametrize("generate,args,attempts", [
    (random_bipartite_regular, (100, 4, 0xC0FFEE), 260),
    (random_bipartite_regular, (10000, 3, 7), 10),
    (random_triangle_free, (20000, 3, 7), 7),
])
def test_generator_attempt_counts_are_pinned(caplog, generate, args, attempts):
    with caplog.at_level("INFO", logger="localcut.sim"):
        generate(*args)
    (rec,) = [r for r in caplog.records if "attempt" in r.msg]
    assert rec.args[0] == attempts


def test_rejected_draws_are_not_explained(monkeypatch):
    # naming a draw's first repeated edge is left to from_edges' callers; the
    # rejection loop only needs to know that one exists
    want = random_bipartite_regular(100, 4, 0xC0FFEE)  # 260 attempts
    monkeypatch.setattr(sim, "_first_repeat", lambda *a: pytest.fail("explained a draw"))
    assert random_bipartite_regular(100, 4, 0xC0FFEE) == want
    with pytest.raises(pytest.fail.Exception):
        from_edges(3, 2, [(0, 1), (1, 0)])


def test_random_bipartite_errors(monkeypatch):
    with pytest.raises(ValueError, match="n_per_side >= d"):
        random_bipartite_regular(2, 3, seed=0)
    # first attempt at seed 0 collides, so a budget of 1 must fail loudly
    monkeypatch.setattr(sim, "REJECTION_BUDGET", 1)
    with pytest.raises(RuntimeError, match="budget exhausted"):
        random_bipartite_regular(2, 2, seed=0)


def test_random_triangle_free():
    g = random_triangle_free(20, 3, seed=7)
    assert g.node_count == 20 and g.edge_count == 30
    assert g.is_strict  # regular and triangle-free, by the validating flags
    assert g == random_triangle_free(20, 3, seed=7)


def test_random_triangle_free_logs_acceptance(caplog):
    with caplog.at_level("INFO", logger="localcut.sim"):
        random_triangle_free(20, 3, seed=7)
    assert any("accepted after" in rec.message for rec in caplog.records)


@pytest.mark.parametrize(
    "generate,args", [(random_triangle_free, (20, 3, 7)), (random_bipartite_regular, (2, 2, 0))]
)
def test_generators_log_the_attempt_count_first(caplog, generate, args):
    # the benchmark's listener reads the count from record.args[0]
    with caplog.at_level("INFO", logger="localcut.sim"):
        generate(*args)
    (rec,) = [r for r in caplog.records if "attempt" in r.msg]
    assert type(rec.args[0]) is int and rec.args[0] >= 1
    assert f"accepted after {rec.args[0]} attempt(s)" in rec.getMessage()


@pytest.mark.parametrize(
    "generate,args,params",
    [
        (random_triangle_free, (6, 4, 0), "n=6, d=4"),
        (random_bipartite_regular, (2, 2, 0), "n_per_side=2, d=2"),
    ],
)
def test_generators_name_their_parameters_when_the_budget_runs_out(
    generate, args, params, monkeypatch
):
    monkeypatch.setattr(sim, "REJECTION_BUDGET", 1)  # read when the generator runs
    with pytest.raises(RuntimeError, match=f"budget exhausted after 1 attempts .*{params}"):
        generate(*args)


def test_random_triangle_free_errors(monkeypatch):
    with pytest.raises(ValueError, match="even"):
        random_triangle_free(5, 3, seed=0)
    with pytest.raises(ValueError, match="n > d"):
        random_triangle_free(3, 3, seed=0)
    # 4-regular on 6 nodes is near-impossible for the model; tiny budget fails
    monkeypatch.setattr(sim, "REJECTION_BUDGET", 3)
    with pytest.raises(RuntimeError, match="budget exhausted"):
        random_triangle_free(6, 4, seed=0)


def test_edge_list_round_trip():
    for g in (petersen_graph(), random_triangle_free(20, 3, seed=7)):
        buf = io.StringIO()
        write_edge_list(buf, g)
        assert read_edge_list(io.StringIO(buf.getvalue())) == g
    header = io.StringIO("10 15 3\n")
    with pytest.raises(ValueError, match="declares 15 edges"):
        read_edge_list(header)
    with pytest.raises(ValueError, match="header"):
        read_edge_list(io.StringIO("10 15\n"))
    with pytest.raises(ValueError, match="empty"):
        read_edge_list(io.StringIO(""))
    for body in ("0 x", "0", "0 1 2"):
        with pytest.raises(ValueError, match=f"expected 'u v', got '{body}'"):
            read_edge_list(io.StringIO(f"2 1 1\n{body}\n"))



def test_edge_lists_span_chunks_and_name_the_bad_line():
    g = cycle_graph(2 * sim.EDGE_CHUNK + 7)
    buf = io.StringIO()
    write_edge_list(buf, g)
    text = buf.getvalue()
    assert text == f"{g.node_count} {g.edge_count} 2\n" + "".join(
        f"{u} {v}\n" for u, v in g.edges.tolist()
    )
    assert read_edge_list(io.StringIO(text)) == g
    assert read_edge_list(io.StringIO(text.replace(" ", " \t ").replace("\n", "\n\n  "))) == g
    lines = text.splitlines()
    k = sim.EDGE_CHUNK + 5  # a line past the first chunk
    for bad in ("0 1 2", "x 1", f"{2**63} 1"):
        broken = "\n".join(lines[:k] + [bad] + lines[k + 1 :])
        with pytest.raises(ValueError, match=f"^expected 'u v', got '{bad}'$"):
            read_edge_list(io.StringIO(broken))
    # token counts that make up for each other across lines
    with pytest.raises(ValueError, match=r"^expected 'u v', got '0 1 2'$"):
        read_edge_list(io.StringIO("4 2 3\n0 1 2\n3\n"))


# texts that numpy's tokeniser must not read, or that int() reads and it
# would not: each result is the line-by-line reader's
_EDGE_TEXTS = {
    "blank lines and tabs": ("4 3 3\n\n0\t1\n \t\n  1  2 \t\n\n2\t 3\n\n", [(0, 1), (1, 2), (2, 3)]),
    "plus sign": ("6 2 3\n+5 0\n1 2\n", [(5, 0), (1, 2)]),
    "underscore": ("1001 1 3\n1_000 0\n", [(1000, 0)]),
    "non-ASCII digits": ("4 1 3\n\u0663 \u06f0\n", [(3, 0)]),
    "19 digits, zero-led": ("4 1 3\n0 0000000000000000003\n", [(0, 3)]),
    "19 digits, int64 max": (
        "4 1 3\n0 9223372036854775807\n",
        "edge (0, 9223372036854775807) out of range for 4 nodes",
    ),
    "19 digits, past int64": (
        "4 1 3\n0 9223372036854775808\n", "expected 'u v', got '0 9223372036854775808'"
    ),
    "20 digits": ("4 1 3\n1 99999999999999999999\n", "expected 'u v', got '1 99999999999999999999'"),
    "count before a bad line": ("4 2 3\n0 1\nx 2\n2 3\n", "header declares 2 edges, found 3"),
    "first bad line": ("4 3 3\n0 1\n1 2 3\n2 x\n", "expected 'u v', got '1 2 3'"),
}


@pytest.mark.parametrize("chunk", [1, 3, sim.EDGE_CHUNK])
@pytest.mark.parametrize("case", _EDGE_TEXTS)
def test_edge_list_chunks_read_what_int_reads(monkeypatch, case, chunk):
    text, want = _EDGE_TEXTS[case]
    monkeypatch.setattr(sim, "EDGE_CHUNK", chunk)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            read_edge_list(io.StringIO(text))
        assert str(err.value) == want
        with pytest.raises(ValueError) as err:
            from_edges(*oracles.edge_list_by_lines(text))
        assert str(err.value) == want
    else:
        n, d, edges = oracles.edge_list_by_lines(text)
        assert edges == want
        assert read_edge_list(io.StringIO(text)) == from_edges(n, d, edges)


_EDGE_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "03", "+1", "-1", "1_0", "\u0663", "x", "0.5",
     "9223372036854775807", "9223372036854775808", "99999999999999999999"]
)
_EDGE_GAPS = st.sampled_from([" ", "\t", " \t ", "\r", "\x0c", "\u3000"])


def _outcome(read):
    try:
        g = read()
    except ValueError as exc:
        return str(exc)
    return g.node_count, g.degree, g.nbr.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.lists(_EDGE_TOKENS, max_size=3), _EDGE_GAPS, _EDGE_GAPS), max_size=8),
    st.sampled_from([0, 0, 1, -1]),
    st.sampled_from(["", "\n", "\n\n"]),
    st.sampled_from([1, 3, sim.EDGE_CHUNK]),
)
def test_edge_list_reader_matches_the_line_reader(rows, miscount, end, chunk):
    lines = [lead + gap.join(tokens) + gap for tokens, lead, gap in rows]
    m = sum(1 for line in lines if line.strip()) + miscount
    text = f"4 {m} 3\n" + "\n".join(lines) + end
    with mock.patch.object(sim, "EDGE_CHUNK", chunk):
        got = _outcome(lambda: read_edge_list(io.StringIO(text)))
    assert got == _outcome(lambda: from_edges(*oracles.edge_list_by_lines(text)))


# ---------------------------------------------------------------------------
# Node rules


def test_threshold_extreme_taus_reduce_to_the_base_cut():
    g = complete_bipartite(3)
    rng = make_trial_rng(11, 0)
    c1 = draw_bits(rng, g.node_count)
    base = labels_from_bits(c1)
    keep = run_trial(g, ThresholdCut(4), seed=11)  # tau = d + 1: nobody flips
    flip = run_trial(g, ThresholdCut(0), seed=11)  # tau = 0: everybody flips
    assert keep == base
    assert flip == {v: "b" if s == "a" else "a" for v, s in base.items()}
    assert cut_fraction(g, keep) == cut_fraction(g, flip)


def test_runner_validation():
    g = complete_bipartite(3)
    with pytest.raises(ValueError, match="tau must be in"):
        run_trial(g, ThresholdCut(5), seed=0)
    with pytest.raises(ValueError, match="VirtualNeighbourCut"):
        run_trial(from_edges(4, 3, [(0, 1), (0, 2), (0, 3)]), ThresholdCut(3), seed=0)
    with pytest.raises(ValueError, match="triangle"):
        run_trial(from_edges(3, 2, [(0, 1), (1, 2), (0, 2)]), ShearerCut(), seed=0)
    with pytest.raises(ValueError, match="tau must be in"):
        run_trial(complete_bipartite(3), VirtualNeighbourCut(5), seed=0)


def test_shearer_ignores_c3_for_odd_degree():
    g = petersen_graph()
    nbr = g.nbr
    rng = make_trial_rng(3, 0)
    c1, c2 = draw_bits(rng, 10), draw_bits(rng, 10)
    out0 = apply_shearer_rule(nbr, c1, c2, np.zeros(10, dtype=np.uint8))
    out1 = apply_shearer_rule(nbr, c1, c2, np.ones(10, dtype=np.uint8))
    assert np.array_equal(out0, out1)


def test_shearer_tie_break():
    g = cycle_graph(4)
    nbr = g.nbr
    # node 0's neighbours are 1 and 3; give it exactly one agreeing neighbour
    c1 = np.array([0, 0, 1, 1], dtype=np.uint8)
    c2 = np.array([1, 1, 1, 1], dtype=np.uint8)
    tie_to_c1 = apply_shearer_rule(nbr, c1, c2, np.zeros(4, dtype=np.uint8))
    tie_to_c2 = apply_shearer_rule(nbr, c1, c2, np.ones(4, dtype=np.uint8))
    assert tie_to_c1[0] == c1[0] and tie_to_c2[0] == c2[0]


def test_one_round_locality():
    g = petersen_graph()
    nbr = g.nbr
    rng = make_trial_rng(42, 0)
    c1, c2, c3 = (draw_bits(rng, 10) for _ in range(3))
    v = 0
    base_thr = apply_threshold_rule(nbr, c1, 3)[v]
    base_she = apply_shearer_rule(nbr, c1, c2, c3)[v]
    for w in range(10):
        if w == v or w in g.nbr[v].tolist():
            continue
        flipped = c1.copy()
        flipped[w] ^= 1
        assert apply_threshold_rule(nbr, flipped, 3)[v] == base_thr
        assert apply_shearer_rule(nbr, flipped, c2, c3)[v] == base_she
        # c2 and c3 of other nodes are invisible to v as well
        for other in (c2, c3):
            bumped = other.copy()
            bumped[w] ^= 1
            args = (bumped, c3) if other is c2 else (c2, bumped)
            assert apply_shearer_rule(nbr, c1, *args)[v] == base_she


def test_virtual_locality_and_padding():
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    padded, total = sim._padded_matrix(star)
    assert total == 6  # three leaves simulate two neighbours each
    c1 = np.array([0, 1, 1, 0], dtype=np.uint8)
    virtual = np.zeros(6, dtype=np.uint8)
    base = apply_virtual_rule(padded, c1, virtual, 3)
    # leaf 1's virtual bits occupy positions 0..1; flipping leaf 2's (2..3)
    # or 3's (4..5) must not move leaf 1's output
    for pos in (2, 3, 4, 5):
        other = virtual.copy()
        other[pos] ^= 1
        assert apply_virtual_rule(padded, c1, other, 3)[1] == base[1]


def test_virtual_equals_threshold_on_regular_graphs():
    g = complete_bipartite(3)
    for seed in (0, 1, 2, 3):
        assert run_trial(g, VirtualNeighbourCut(3), seed) == run_trial(g, ThresholdCut(3), seed)


def test_randomness_budget(monkeypatch):
    # every runner draws through the block kernel; record the (bits, trials)
    # shape of each draw it hands out
    calls = []
    real = sim.philox_bits

    def counting(seed, t0, trials, sizes):
        draws = real(seed, t0, trials, sizes)
        calls.append([a.shape for a in draws])
        return draws

    monkeypatch.setattr(sim, "philox_bits", counting)
    g = petersen_graph()
    run_trial(g, ThresholdCut(3), seed=0)
    assert calls == [[(10, 1)]]  # one bit per node
    calls.clear()
    run_trial(g, ShearerCut(), seed=0)
    assert calls == [[(10, 1), (10, 1), (10, 1)]]  # three cuts
    calls.clear()
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    run_trial(star, VirtualNeighbourCut(3), seed=0)
    assert calls == [[(4, 1), (6, 1)]]  # one own bit per node, then 2 virtual bits per leaf
    calls.clear()
    monte_carlo(g, UniformCut(), trials=3, seed=0)
    assert calls == [[(10, 3)]]  # one bit per node per trial


# ---------------------------------------------------------------------------
# Block kernel against numpy's Philox

KERNEL_SEEDS = (0, 42, 0xC0FFEE, 2**63 + 0x3039, 2**64 - 1, 2**63)

# Bits per trial on either side of BLOCK_SLOTS // FEW_TRIALS = 4096, where a
# block of FEW_TRIALS trials turns from philox_bits' numpy rounds to numpy's
# C Philox: one draw, two draws (the virtual rule) and three (the Shearer
# rule), of odd sizes.
ROUTE_SIZES = [
    (4095,), (4096,), (4097,),
    (2045, 2049), (2047, 2049), (2047, 2051),
    (1365, 1365, 1365), (1365, 1365, 1367), (4093, 1, 3),
]


def c_route_calls(monkeypatch) -> list:
    """Records the arguments of every draw through numpy's C Philox."""
    calls = []
    c_route = sim._c_philox_bytes
    monkeypatch.setattr(sim, "_c_philox_bytes", lambda *a: calls.append(a) or c_route(*a))
    return calls


# The widest blocks of the benchmark's montecarlo workload, each just under
# BLOCK_SLOTS bits: a one-draw rule on 6 nodes, the Shearer rule on 10 and
# the virtual rule on 30 nodes with 50 virtual bits.
WIDE_BLOCKS = [(10000, (6,)), (2184, (10, 10, 10)), (819, (30, 50))]

KERNEL_BLOCKS = [
    (sim.FEW_TRIALS, sizes)
    for sizes in [(n,) for n in (1, 3, 4, 5, 10, 31, 200, 257)]
    + [(10, 10, 10), (4, 6), (5, 0, 7), (1, 257, 3, 31)] + ROUTE_SIZES
] + WIDE_BLOCKS


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
@pytest.mark.parametrize(
    "trials, sizes", KERNEL_BLOCKS, ids=[f"sizes{i}" for i in range(len(KERNEL_BLOCKS))]
)
def test_block_kernel_matches_chained_draws(seed, trials, sizes, monkeypatch):
    assert sim.BLOCK_SLOTS // sim.FEW_TRIALS == 4096
    routed = c_route_calls(monkeypatch)
    t0 = 5
    block = sim.philox_bits(seed, t0, trials, sizes)
    assert bool(routed) == (trials * sum(sizes) > sim.BLOCK_SLOTS)
    assert [a.shape for a in block] == [(n, trials) for n in sizes]
    # every trial of a FEW_TRIALS block; 17 of a wide one: first, middle and last among them
    for i in np.unique(np.linspace(0, trials - 1, sim.FEW_TRIALS + 1, dtype=int)):
        rng = make_trial_rng(seed, t0 + int(i))
        for a, n in zip(block, sizes):
            assert np.array_equal(a[:, i], draw_bits(rng, n))


def test_the_c_route_builds_one_generator_a_block(monkeypatch):
    # each trial resets one generator's state, which matches a fresh
    # Philox(key=...) without seeding a new one from OS entropy
    philox, made = np.random.Philox, []
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(k) or philox(*a, **k))
    for seed in KERNEL_SEEDS:
        rows = sim._c_philox_bytes(seed, 2**40, 5, 7).view("<u8")
        for i, row in enumerate(rows):
            key = np.array([seed % 2**64, 2**40 + i], dtype=np.uint64)
            assert np.array_equal(row, philox(key=key).random_raw(4))
    assert len(made) == len(KERNEL_SEEDS)


# BLOCK_SLOTS for 11-bit trials, and the block widths of a 40-trial run: room
# for three trials still gives FEW_TRIALS a block, room for 17 gives 17
BLOCK_WIDTHS = [(3 * 11, [16, 16, 8]), (17 * 11, [17, 17, 6])]


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_blocks_cross_boundaries_on_the_trial_stream(seed, monkeypatch):
    for slots, widths in BLOCK_WIDTHS:
        monkeypatch.setattr(sim, "BLOCK_SLOTS", slots)
        blocks = list(sim._blocks(seed, 40, (5, 6)))
        assert [c1.shape[1] for c1, _ in blocks] == widths
        c1 = np.concatenate([b[0] for b in blocks], axis=1)
        c2 = np.concatenate([b[1] for b in blocks], axis=1)
        for t in range(40):
            rng = make_trial_rng(seed, t)
            assert np.array_equal(c1[:, t], draw_bits(rng, 5))
            assert np.array_equal(c2[:, t], draw_bits(rng, 6))


@pytest.mark.parametrize("bits", (1, 100, 4095, 4096, 4097, 20_000, 70_000))
def test_only_the_last_block_holds_fewer_than_few_trials(bits, monkeypatch):
    monkeypatch.setattr(sim, "philox_bits", lambda seed, t0, trials, sizes: (t0, trials))
    most = max(sim.FEW_TRIALS, sim.BLOCK_SLOTS // bits)
    trials = 2 * most + 5
    starts, widths = zip(*sim._blocks(0, trials, (bits,)))
    assert list(starts) == [sum(widths[:i]) for i in range(len(widths))]
    assert sum(widths) == trials and widths[-1] == 5
    assert all(sim.FEW_TRIALS <= w <= most for w in widths[:-1])


def test_seeds_at_and_above_2_63_are_distinct():
    def bits(seed):
        return draw_bits(make_trial_rng(seed, 0), 256)

    # a float64 key would round both to the same value
    assert not np.array_equal(bits(0x8000000000003039), bits(0x8000000000003000))
    # and would map 2^64 - 1 to 2^64, i.e. seed 0
    assert not np.array_equal(bits(2**64 - 1), bits(0))
    assert np.array_equal(bits(2**64 + 42), bits(42))  # seeds act mod 2^64


@pytest.mark.parametrize("seed", (0, 42, 0xC0FFEE, 2**63 - 1))
def test_seeds_below_2_63_keep_their_streams(seed):
    listed = np.random.Generator(np.random.Philox(key=[seed, 3]))
    assert np.array_equal(draw_bits(make_trial_rng(seed, 3), 99), draw_bits(listed, 99))


BLOCK_CASES = [
    (graph, alg)
    for graph in ("k33", "petersen", "star", "triangle_with_pendants")
    for alg in ("uniform", "threshold", "shearer", "virtual")
    # the threshold and Shearer runs refuse graphs that are not strict
    if graph in ("k33", "petersen") or alg in ("uniform", "virtual")
]


BLOCK_GRAPHS = {
    "k33": lambda: complete_bipartite(3),
    "petersen": petersen_graph,
    "star": lambda: from_edges(4, 3, [(0, 1), (0, 2), (0, 3)]),
    "triangle_with_pendants": triangle_with_pendants,
}
BLOCK_SPECS = {
    "uniform": UniformCut(),
    "threshold": ThresholdCut(3),
    "shearer": ShearerCut(),
    "virtual": VirtualNeighbourCut(2),
}


def route_slots(bits):
    """BLOCK_SLOTS values, each with the Philox route of full blocks of `bits`-bit trials.

    Below FEW_TRIALS * bits, the blocks hold FEW_TRIALS trials, more than
    BLOCK_SLOTS bits, and draw through numpy's C Philox; from FEW_TRIALS *
    bits on, they hold at most BLOCK_SLOTS bits and run the rounds.
    """
    few = sim.FEW_TRIALS
    return [(1, True), (few * bits - 1, True), (few * bits, False), (1 << 20, False)]


@pytest.mark.parametrize("graph,alg", BLOCK_CASES)
def test_monte_carlo_is_independent_of_the_block_size(graph, alg, monkeypatch):
    # and of the Philox route that each block size takes; run_trial as well
    g, spec = BLOCK_GRAPHS[graph](), BLOCK_SPECS[alg]
    bits = sum(sim._block_rule(g, spec)[0])
    routed = c_route_calls(monkeypatch)

    def run():
        return (monte_carlo(g, spec, trials=3001, seed=0xC0FFEE, per_edge=True),
                run_trial(g, spec, seed=0xC0FFEE))

    default = run()
    assert not routed  # a small graph's default blocks take the rounds
    for slots, c in route_slots(bits):
        monkeypatch.setattr(sim, "BLOCK_SLOTS", slots)
        routed.clear()
        assert run() == default
        assert bool(routed) == c


@pytest.mark.parametrize("graph,edge", [("k33", (0, 3)), ("petersen", (0, 5))])
def test_the_philox_routes_give_the_same_joint_distribution(graph, edge, monkeypatch):
    g = BLOCK_GRAPHS[graph]()
    want = empirical_joint_distribution(g, edge, 301, seed=11)
    for slots, _ in route_slots(g.node_count):
        monkeypatch.setattr(sim, "BLOCK_SLOTS", slots)
        assert empirical_joint_distribution(g, edge, 301, seed=11) == want


def cycle_with_a_triangle(n: int) -> sim.RegularGraph:
    """The n-cycle plus the chord (0, 2): degree bound 3, edges 01, 02, 12 flagged."""
    return from_edges(n, 3, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)])


TALLY_CASES = {
    "petersen-shearer": (petersen_graph, ShearerCut(), 301),
    "pendants-virtual": (triangle_with_pendants, VirtualNeighbourCut(2), 301),
    # more drawn bits per trial than one default block holds
    "long-cycle-virtual": (lambda: cycle_with_a_triangle(40_000), VirtualNeighbourCut(2), 5),
}


@pytest.mark.parametrize("case", TALLY_CASES)
def test_monte_carlo_tally_is_independent_of_the_block_width(case, monkeypatch):
    build, spec, trials = TALLY_CASES[case]
    g = build()
    bits = sum(sim._block_rule(g, spec)[0])

    def run(per_edge):
        return monte_carlo(g, spec, trials, seed=0xC0FFEE, per_edge=per_edge)

    # default blocks: the long cycle's five trials in one C Philox block
    assert (bits > sim.BLOCK_SLOTS) == case.startswith("long")
    want, want_counts = run(False), run(True)
    # the per-edge tally is skipped without per_edge; the rest must not move
    assert want_counts._replace(per_edge=None) == want
    assert (want.flagged_edge_mean is None) == (case == "petersen-shearer")
    for slots in (1, 17 * bits):  # FEW_TRIALS a block, C Philox; 17, the rounds
        monkeypatch.setattr(sim, "BLOCK_SLOTS", slots)
        assert run(False) == want
        assert run(True) == want_counts


def test_monte_carlo_matches_the_per_trial_stream():
    g = petersen_graph()
    nbr = g.nbr
    edges = [tuple(e) for e in g.edges.tolist()]
    counts = dict.fromkeys(edges, 0)
    for t in range(300):
        rng = make_trial_rng(9, t)
        out = apply_shearer_rule(nbr, *(draw_bits(rng, 10) for _ in range(3)))
        for u, v in edges:
            counts[(u, v)] += int(out[u] != out[v])
    st = monte_carlo(g, ShearerCut(), trials=300, seed=9, per_edge=True)
    assert st.per_edge == counts
    assert st.mean == sum(counts.values()) / (300 * 15)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_is_deterministic():
    g = petersen_graph()
    a = monte_carlo(g, ThresholdCut(3), trials=500, seed=5, per_edge=True)
    b = monte_carlo(g, ThresholdCut(3), trials=500, seed=5, per_edge=True)
    assert a == b
    c = monte_carlo(g, ThresholdCut(3), trials=500, seed=6, per_edge=True)
    assert a != c


def test_monte_carlo_mean_matches_per_edge_totals():
    g = complete_bipartite(3)
    st = monte_carlo(g, ThresholdCut(3), trials=400, seed=1, per_edge=True)
    total = sum(st.per_edge.values())
    assert st.mean == total / (st.trials * st.edge_count)
    assert set(st.per_edge) == {tuple(e) for e in g.edges.tolist()}


def test_single_trial_weights_on_the_4cycle():
    g = cycle_graph(4)
    for seed in range(12):
        st = monte_carlo(g, ThresholdCut(3), trials=1, seed=seed)
        assert st.mean in (0.0, 0.5, 1.0)  # tau = d + 1 keeps the base cut
        assert st.stderr == 0.0


def test_threshold_mean_matches_exact_enumeration():
    g = cycle_graph(4)
    adjacency = neighbour_lists(g)
    exact = expected_cut_weight_exhaustive(adjacency, threshold_rule_on_graph(adjacency, 2))
    assert exact == Fraction(3, 4)
    st = monte_carlo(g, ThresholdCut(2), trials=20_000, seed=0xC0FFEE)
    assert abs(st.mean - 0.75) <= 3 * st.stderr


def test_graph_independence_of_the_threshold_mean():
    expected = 11 / 16
    for g in (
        complete_bipartite(3),
        petersen_graph(),
        random_bipartite_regular(30, 3, seed=4),
    ):
        st = monte_carlo(g, ThresholdCut(3), trials=20_000, seed=2)
        assert abs(st.mean - expected) <= 3 * max(st.stderr, 1e-9)


def test_shearer_mean_matches_exact_oracle():
    g = complete_bipartite(3)
    assert shearer_expected_cut(neighbour_lists(g), 3) == Fraction(5, 8)
    assert shearer_expected_cut(neighbour_lists(petersen_graph()), 3) == Fraction(5, 8)
    st = monte_carlo(g, ShearerCut(), trials=20_000, seed=3)
    assert abs(st.mean - 0.625) <= 3 * st.stderr


def test_threshold_beats_shearer_on_paired_seeds():
    g = random_bipartite_regular(50, 3, seed=8)
    thr = monte_carlo(g, ThresholdCut(3), trials=20_000, seed=9)
    she = monte_carlo(g, ShearerCut(), trials=20_000, seed=9)
    assert thr.mean > she.mean  # 11/16 vs 5/8, ~30 combined SEs apart


def test_uniform_cut_baseline():
    st = monte_carlo(complete_bipartite(3), UniformCut(), trials=20_000, seed=1)
    assert abs(st.mean - 0.5) <= 3 * st.stderr


def test_virtual_per_edge_frequencies_on_the_star():
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    exact = virtual_expected_edge_cuts(neighbour_lists(star), 3, 3)
    assert set(exact.values()) == {Fraction(11, 16)}
    trials = 20_000
    st = monte_carlo(star, VirtualNeighbourCut(3), trials, seed=7, per_edge=True)
    sigma = math.sqrt((11 / 16) * (5 / 16) / trials)
    for e, count in st.per_edge.items():
        assert abs(count / trials - 11 / 16) <= 3 * sigma


def test_triangle_flagged_edges_are_reported_separately():
    g = triangle_with_pendants()
    with pytest.raises(ValueError, match="virtual"):
        monte_carlo(g, ThresholdCut(3), trials=10, seed=0)
    trials = 20_000
    st = monte_carlo(g, VirtualNeighbourCut(3), trials, seed=11)
    assert st.flagged_edge_fraction == 0.5
    sigma = math.sqrt((11 / 16) * (5 / 16) / (trials * 3))
    assert abs(st.clean_edge_mean - 11 / 16) <= 3 * sigma
    # guarantee only from the clean half: overall mean >= (1 - eps) * alpha
    assert st.mean >= (1 - 0.5) * (11 / 16) - 3 * st.stderr
    # exact per-edge oracle: clean edges hit alpha exactly, flagged ones do not
    exact = virtual_expected_edge_cuts(neighbour_lists(g), 3, 3)
    flagged = {tuple(e) for e in g.edges[g.triangle].tolist()}
    for e, p in exact.items():
        assert (p == Fraction(11, 16)) == (e not in flagged)


def test_monte_carlo_validation():
    g = complete_bipartite(2)
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(g, UniformCut(), trials=0, seed=0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        monte_carlo(g, object(), trials=1, seed=0)
    with pytest.raises(ValueError, match="no edges"):
        monte_carlo(from_edges(2, 1, []), UniformCut(), trials=1, seed=0)


# ---------------------------------------------------------------------------
# Joint view distribution


def test_joint_distribution_matches_ngraph_weights():
    g = complete_bipartite(3)
    trials = 20_000
    counts = empirical_joint_distribution(g, (0, 3), trials, seed=3)
    weights = build_ngraph(3)
    assert len(counts) == 64
    assert sum(counts.values()) == trials
    # structurally impossible cell stays at zero
    assert counts[(Neighbourhood("b", 0), Neighbourhood("b", 1))] == 0
    for cell, count in counts.items():
        p = float(weights.weight(*cell))
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(count / trials - p) <= max(3 * sigma, 1e-9)


def test_joint_distribution_total_variation():
    g = petersen_graph()
    trials = 20_000
    counts = empirical_joint_distribution(g, (0, 5), trials, seed=5)
    weights = build_ngraph(3)
    tv = 0.5 * sum(
        abs(count / trials - float(weights.weight(*cell)))
        for cell, count in counts.items()
    )
    aggregate_sigma = 0.5 * sum(
        math.sqrt(float(weights.weight(*cell)) * (1 - float(weights.weight(*cell))) / trials)
        for cell in counts
    )
    assert tv <= 3 * aggregate_sigma


def test_joint_distribution_validation():
    g = complete_bipartite(3)
    with pytest.raises(ValueError, match="not in the graph"):
        empirical_joint_distribution(g, (0, 1), 10, seed=0)
    for edge in ((0.0, 3), (0, 3.0), (True, 3), ("0", 3)):  # never an index
        with pytest.raises(ValueError, match="^edge endpoints must be integers, got "):
            empirical_joint_distribution(g, edge, 10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        empirical_joint_distribution(g, (0, 3), 0, seed=0)
    star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match="regular"):
        empirical_joint_distribution(star, (0, 1), 10, seed=0)


# ---------------------------------------------------------------------------
# Emitters


def test_trial_stats_json_shape():
    g = complete_bipartite(3)
    st = monte_carlo(g, ThresholdCut(3), trials=50, seed=1, per_edge=True)
    doc = trial_stats_jsonable(st)
    assert set(doc) == {"trials", "mean", "stderr", "seed", "edge_count", "per_edge"}
    assert len(doc["per_edge"]) == 9
    assert doc["per_edge"][0]["cut_count"] == st.per_edge[(0, 3)]
    flagged = monte_carlo(
        triangle_with_pendants(), VirtualNeighbourCut(3), trials=50, seed=1
    )
    fdoc = trial_stats_jsonable(flagged)
    assert {"clean_edge_mean", "flagged_edge_mean", "flagged_edge_fraction"} <= set(fdoc)


def test_trial_stats_csv_shape():
    g = complete_bipartite(3)
    st = monte_carlo(g, ThresholdCut(3), trials=50, seed=1, per_edge=True)
    buf = io.StringIO()
    write_trial_stats_csv(buf, st)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].count(",") == 7
    assert lines[1].split(",")[5] == ""  # no triangle split on a strict graph
    assert lines[2] == "u,v,cut_count,frequency"
    assert len(lines) == 3 + 9
