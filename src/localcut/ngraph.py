"""Weighted neighbourhood graphs for one-round cut algorithms.

A one-round randomised algorithm on a d-regular triangle-free graph sees, at
each node, only the node's own uniform random bit and the bits of its d
neighbours.  Fixing an edge {u, v} and conditioning on the random bits, the
local view of u collapses to a pair (side, like_count): which side of the
random cut u picked, and how many of its d neighbours picked the same side.

The neighbourhood graph for degree d has one node per such pair, 2d + 2 in
total, and carries on each ordered node pair the exact probability that a
uniformly random cut produces those two views at the endpoints of an edge.
Because the edge's endpoints are adjacent and triangle-freeness makes their
remaining neighbourhoods disjoint, these probabilities are products of
binomial counts over 4^d, and they sum to exactly 1.

Everything here is exact: the graph holds the two integer binomial profiles
whose products are the weights * 4^d, and hands out `fractions.Fraction`
values over 4^d.  The writers reduce each weight without a gcd, from the
2-adic form o * 2^e (o odd) of every profile entry.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterator, NamedTuple

# The two sides of a cut; bit value b labels side SIDES[b] across the package.
SIDES = ("a", "b")


class Neighbourhood(NamedTuple):
    """Local view (side, like_count) of one endpoint of an edge."""

    side: str
    like_count: int


def complement_side(side: str) -> str:
    if side == "a":
        return "b"
    if side == "b":
        return "a"
    raise ValueError(f"unknown side {side!r}, expected 'a' or 'b'")


def all_neighbourhoods(d: int) -> list[Neighbourhood]:
    """All 2d + 2 neighbourhoods in canonical order (a,0)..(a,d),(b,0)..(b,d)."""
    d = check_degree(d)
    return [Neighbourhood(k, i) for k in SIDES for i in range(d + 1)]


def check_integer(x, lo: int, hi: float, what: str) -> int:
    """`x` as a Python int if it is an integer (`operator.index`) in [lo, hi].

    Bools are not integers here. Otherwise a ValueError whose message is
    `what`, with `{hi}` filled in.
    """
    try:
        k = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        k = None
    if k is None or not lo <= k <= hi:
        raise ValueError(f"{what.format(hi=hi)}, got {x!r}")
    return k


def check_degree(d: int) -> int:
    """The degree as a Python int: any integer >= 2, numpy's included."""
    return check_integer(d, 2, math.inf, "degree must be an integer >= 2")


def check_tau(tau: int, d: int) -> int:
    """The threshold as a Python int: any integer in [0, d + 1] for degree d."""
    return check_integer(tau, 0, d + 1, "tau must be in [0, {hi}]")


def _check_neighbourhood(d: int, n: Neighbourhood) -> None:
    if n.side not in SIDES:
        raise ValueError(f"unknown side {n.side!r}, expected 'a' or 'b'")
    if not 0 <= n.like_count <= d:
        raise ValueError(
            f"like count {n.like_count} out of range [0, {d}] for degree {d}"
        )


def binomial_row(n: int) -> list[int]:
    """Row n of Pascal's triangle via the multiplicative recurrence."""
    if n < 0:
        raise ValueError("row index must be >= 0")
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


@dataclass(frozen=True)
class WeightedNgraph:
    """Dense weighted neighbourhood graph for one degree, held as two profiles.

    For views on opposite sides the endpoints' like counts come from the d - 1
    neighbours outside the edge, so the pair ((k, i1), (k', i2)) has weight
    C(d-1, i1) * C(d-1, i2) / 4^d.  On the same side each endpoint already
    likes the other, shifting both counts by one: C(d-1, i1 - 1) *
    C(d-1, i2 - 1) / 4^d.  `cross[i] = C(d-1, i)` and `same[i] = C(d-1, i-1)`
    for i = 0..d hold those factors, zeros included, so `scaled(n1, n2)`, the
    weight * 4^d as an integer, is one product for every ordered pair,
    self-loops too.  Treat instances as immutable.
    """

    degree: int
    cross: tuple[int, ...] = field(repr=False)
    same: tuple[int, ...] = field(repr=False)

    @property
    def nodes(self) -> list[Neighbourhood]:
        return all_neighbourhoods(self.degree)

    def scaled(self, n1: Neighbourhood, n2: Neighbourhood) -> int:
        """The weight of (n1, n2) * 4^d; the nodes are not checked."""
        p = self.same if n1.side == n2.side else self.cross
        return p[n1.like_count] * p[n2.like_count]

    def weight(self, n1: Neighbourhood, n2: Neighbourhood) -> Fraction:
        _check_neighbourhood(self.degree, n1)
        _check_neighbourhood(self.degree, n2)
        return Fraction(self.scaled(n1, n2), 4**self.degree)

    def total_weight(self) -> Fraction:
        """Sum of every ordered pair's weight: 2 * ((sum cross)^2 + (sum same)^2) / 4^d.

        Two ordered side pairs read `same` and two read `cross`, and each sums
        to the square of its profile's total.
        """
        total = 2 * (sum(self.cross) ** 2 + sum(self.same) ** 2)
        return Fraction(total, 4**self.degree)


def build_ngraph(d: int) -> WeightedNgraph:
    """The (2d+2)-node weighted neighbourhood graph for degree d."""
    d = check_degree(d)
    row = tuple(binomial_row(d - 1))
    return WeightedNgraph(degree=d, cross=row + (0,), same=(0,) + row)


def _two_adic(p: int) -> tuple[int, int]:
    """(o, e) with p = o * 2^e and o odd, for p > 0; (0, 0) for p = 0."""
    e = (p & -p).bit_length() - 1 if p else 0
    return p >> e, e


def _weight_rows(g: WeightedNgraph, sep: str) -> Iterator[list[str]]:
    """Per node n1 in order, the weight of (n1, n2) for every n2 as `num{sep}den`, lowest terms.

    With every nonzero profile entry written p = o * 2^e, o odd, the pair
    weight p1 * p2 / 4^d is o1 * o2 / 2^(2d - e1 - e2): an odd numerator
    over a power of two, so already in lowest terms, with no gcd taken.  A
    zero weight is `0{sep}1`.  A row halves into the n2 on n1's side, which
    read `same`, and those across, which read `cross`; side b's rows are side
    a's with the halves swapped.  As same = (0,) + cross[:-1], the same half
    of row i > 0 is a zero and cross row i - 1 less its last entry, so each
    pass (side a, then side b) formats each cross row once and holds two.
    """
    d = g.degree
    den = [f"{sep}{1 << m}" for m in range(2 * d + 1)]
    zero = f"0{sep}1"
    factors = [_two_adic(p) for p in g.cross]
    for swap in (False, True):
        same = [zero] * (d + 1)
        for o1, e1 in factors:
            top = 2 * d - e1
            cross = [f"{o1 * o}{den[top - e]}" if o1 and o else zero for o, e in factors]
            yield cross + same if swap else same + cross
            same = [zero] + cross[:d]


def format_ngraph_table(fh: IO[str], g: WeightedNgraph, fmt: str = "text") -> None:
    """Write the table to `fh`, one n1 row a write: a header, then a line per ordered pair.

    fmt "text": header `d=<d>`, lines `side1 i1 side2 i2 numerator
    denominator`.  fmt "csv": header `side1,i1,side2,i2,num,den`, the same
    lines comma-separated.  Weights are in lowest terms.
    """
    sep, header = {"text": (" ", f"d={g.degree}"), "csv": (",", "side1,i1,side2,i2,num,den")}[fmt]
    fh.write(header + "\n")
    labels = [f"{n.side}{sep}{n.like_count}{sep}" for n in g.nodes]
    for head, row in zip(labels, _weight_rows(g, sep)):
        fh.write("".join([f"{head}{label}{w}\n" for label, w in zip(labels, row)]))


def ngraph_json_chunks(g: WeightedNgraph) -> Iterator[str]:
    """JSON document of the graph, in pieces of one n1 row each, for writing.

    The pieces joined are byte for byte what `json.dump(doc, fh, indent=2)`
    followed by a newline writes for the document

        {"d": d, "nodes": [[side, i], ...],
         "weights": [{"n1": [side, i], "n2": [side, i], "weight": "num/den"}, ...],
         "normalisation": "num/den"}

    with weights in lowest terms and pairs in node order.  The indented text
    is assembled directly: each node's `[side, i]` block is formatted once
    per nesting depth, instead of running the pure-Python encoder over
    4(d+1)^2 dicts, and `_weight_rows` hands over one row at a time.
    """

    def block(n: Neighbourhood, pad: str) -> str:
        return f"[\n{pad}  {json.dumps(n.side)},\n{pad}  {n.like_count}\n{pad}]"

    nodes = g.nodes
    in_pair = [block(n, "      ") for n in nodes]
    yield f'{{\n  "d": {g.degree},\n  "nodes": [\n    '
    yield ",\n    ".join(block(n, "    ") for n in nodes)
    yield '\n  ],\n  "weights": [\n'
    for i, row in enumerate(_weight_rows(g, "/")):
        head = f'    {{\n      "n1": {in_pair[i]},\n      "n2": '
        yield ",\n" * (i > 0) + ",\n".join(
            f'{head}{n2},\n      "weight": "{w}"\n    }}' for n2, w in zip(in_pair, row)
        )
    total = g.total_weight()
    yield f'\n  ],\n  "normalisation": "{total.numerator}/{total.denominator}"\n}}\n'
