"""Neighbourhood graph construction against the raw bit-pattern oracle."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from localcut.ngraph import (
    Neighbourhood,
    all_neighbourhoods,
    build_ngraph,
    complement_side,
    format_ngraph_table,
    ngraph_json_chunks,
)
from oracles import joint_view_distribution, ngraph_json_doc, parse_ngraph_table, written


def test_known_weights_d3():
    g = build_ngraph(3)
    assert g.weight(Neighbourhood("b", 0), Neighbourhood("b", 1)) == 0
    assert g.weight(Neighbourhood("a", 2), Neighbourhood("b", 0)) == Fraction(1, 64)
    assert g.weight(Neighbourhood("a", 1), Neighbourhood("b", 1)) == Fraction(1, 16)


def test_same_side_zero_like_impossible_d2():
    n = Neighbourhood("a", 0)
    assert build_ngraph(2).weight(n, n) == 0


@pytest.mark.parametrize("d", range(2, 17))
def test_total_weight_is_one(d):
    g = build_ngraph(d)
    assert g.total_weight() == 1
    assert sum(g.weight(n1, n2) for n1 in g.nodes for n2 in g.nodes) == 1


@pytest.mark.parametrize("d", range(2, 11))
def test_symmetry_and_label_flip(d):
    g = build_ngraph(d)
    for n1 in g.nodes:
        for n2 in g.nodes:
            w = g.weight(n1, n2)
            assert w == g.weight(n2, n1)
            flipped = (
                Neighbourhood(complement_side(n1.side), n1.like_count),
                Neighbourhood(complement_side(n2.side), n2.like_count),
            )
            assert w == g.weight(*flipped)


@pytest.mark.parametrize("d", range(2, 17))
def test_denominators_divide_4_pow_d(d):
    g = build_ngraph(d)
    assert all(
        (4**d) % g.weight(n1, n2).denominator == 0 for n1 in g.nodes for n2 in g.nodes
    )


@pytest.mark.parametrize("d", range(2, 9))
def test_weights_match_bit_pattern_enumeration(d):
    """Every cell of the dense table equals the 2^(2d) enumeration oracle."""
    g = build_ngraph(d)
    oracle = joint_view_distribution(d)
    for n1 in g.nodes:
        for n2 in g.nodes:
            assert g.weight(n1, n2) == oracle.get((n1, n2), Fraction(0))


def test_node_order_and_count():
    nodes = all_neighbourhoods(3)
    assert len(nodes) == 8
    assert nodes[0] == Neighbourhood("a", 0)
    assert nodes[3] == Neighbourhood("a", 3)
    assert nodes[4] == Neighbourhood("b", 0)
    assert nodes[-1] == Neighbourhood("b", 3)


def test_table_round_trip():
    g = build_ngraph(4)
    text = written(format_ngraph_table, g)
    assert text.startswith("d=4\n")
    assert len(text.strip().splitlines()) == 1 + 10 * 10
    parsed = parse_ngraph_table(text)
    assert parsed.degree == 4
    assert parsed == g


def test_table_line_format():
    lines = written(format_ngraph_table, build_ngraph(2)).splitlines()
    # line for the pair ((a,0), (a,0)); zero weight is kept in the table
    assert lines[1] == "a 0 a 0 0 1"


BAD_TABLE_LINES = [
    "a 9 b 1 1 16",
    "c 0 b 1 1 16",
    "a 1 b 1 1 2",  # repeats the pair ((a,1), (b,1))
    "b 2 b 2 1 0",
    "b 2 b 2 1 3",
    "b 2 b 2 1",
    "b 2 b 2 1 16 16",
    "b 2 b 2 -7 16",  # total 1/2
]


@pytest.mark.parametrize(
    "line,first",
    [(line, None) for line in BAD_TABLE_LINES]
    # exchanges the weights 0 of ((a,0), (a,0)) and 1/16 of ((b,2), (b,2)):
    # every weight non-negative, total still 1, the first line named
    + [("b 2 b 2 0 1", "a 0 a 0 1 16")],
    ids=BAD_TABLE_LINES + ["exchanged weights"],
)
def test_table_parse_rejects_nodes_outside_the_graph(line, first):
    lines = written(format_ngraph_table, build_ngraph(2)).splitlines()
    lines[-1] = line  # the line count stays right
    if first is not None:
        lines[1] = first
    named = first or line
    with pytest.raises(ValueError, match=re.escape(repr(named))):
        parse_ngraph_table("\n".join(lines))
    # appended as a 37th line, the bad line is still the one named
    lines[-1:] = ["b 2 b 2 1 16", line]
    with pytest.raises(ValueError, match=re.escape(repr(named))):
        parse_ngraph_table("\n".join(lines))


def test_table_parse_accepts_unreduced_weights():
    text = written(format_ngraph_table, build_ngraph(2)).replace("b 2 b 2 1 16", "b 2 b 2 2 32")
    assert parse_ngraph_table(text) == build_ngraph(2)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_ngraph(1)
    with pytest.raises(ValueError):
        build_ngraph(3).weight(Neighbourhood("a", 4), Neighbourhood("b", 0))
    with pytest.raises(ValueError):
        build_ngraph(3).weight(Neighbourhood("c", 0), Neighbourhood("b", 0))
    with pytest.raises(ValueError):
        complement_side("x")


@pytest.mark.parametrize("d", (2, 3, 7, 20))
def test_ngraph_json_comes_one_row_a_chunk(d):
    g = build_ngraph(d)
    chunks = list(ngraph_json_chunks(g))
    # header, nodes, "weights" opener, one chunk per n1 row, closer
    assert len(chunks) == 3 + 2 * (d + 1) + 1
    assert all(c.count('"n1"') == 2 * (d + 1) for c in chunks[3:-1])
    assert "".join(chunks) == json.dumps(ngraph_json_doc(g), indent=2) + "\n"
