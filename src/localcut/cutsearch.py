"""Cut assignments on neighbourhood graphs: evaluation, search, MaxSAT export.

A cut assignment labels every neighbourhood-graph node 'a' or 'b'; its weight
is the total weight of ordered pairs whose labels differ.  By construction of
the neighbourhood graph this weight equals the expected fraction of cut edges
achieved by the corresponding one-round algorithm on any d-regular
triangle-free graph, so maximising it over assignments finds the best
one-round algorithm for that degree.

Three routes to the optimum live here: threshold assignments (the family that
turns out to be optimal), an exact search over all assignments by an upper
convex hull (up to d = 16), and an exported weighted MaxSAT instance for
handing the same search to an external solver at larger d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Dict, Iterator, NamedTuple

from .ngraph import (
    SIDES, Neighbourhood, WeightedNgraph, all_neighbourhoods, check_degree, check_tau,
    complement_side,
)

#: Cut assignments map every node of the neighbourhood graph to 'a' or 'b'.
CutAssignment = Dict[Neighbourhood, str]

BRUTE_FORCE_MAX_DEGREE = 16


@dataclass(frozen=True)
class ThresholdRule:
    """Keep own side while like_count < tau, otherwise switch.

    tau = 0 complements every label, tau = d + 1 keeps every label.
    """

    degree: int
    tau: int

    def __post_init__(self) -> None:  # hold both as checked Python ints
        object.__setattr__(self, "degree", check_degree(self.degree))
        object.__setattr__(self, "tau", check_tau(self.tau, self.degree))


def threshold_assignment(rule: ThresholdRule) -> CutAssignment:
    """The cut assignment induced by a threshold rule."""
    out = {}
    for n in all_neighbourhoods(rule.degree):
        keep = n.like_count < rule.tau
        out[n] = n.side if keep else complement_side(n.side)
    return out


def complement_assignment(cut: CutAssignment) -> CutAssignment:
    return {n: complement_side(side) for n, side in cut.items()}


def evaluate_cut(g: WeightedNgraph, cut: CutAssignment) -> Fraction:
    """Total weight of ordered pairs with differing labels, as an exact rational."""
    nodes = g.nodes
    for n in nodes:
        if n not in cut:
            raise ValueError(f"cut assignment is missing a label for {n}")
        if cut[n] not in SIDES:
            raise ValueError(f"label for {n} must be 'a' or 'b', got {cut[n]!r}")
    total = 0
    for n1 in nodes:
        l1 = cut[n1]
        for n2 in nodes:
            if l1 != cut[n2]:
                total += g.scaled(n1, n2)
    return Fraction(total, 4**g.degree)


def brute_force_max_cut(g: WeightedNgraph) -> tuple[CutAssignment, Fraction]:
    """Exact maximum cut of the neighbourhood graph of `g.degree`, up to d = 16.

    Fixes the label of (a,0) to 'a' (complementing an assignment never changes
    its weight) and labels each side by a mask over its d + 1 nodes, bit i for
    node (side, i): 0 for 'a', 1 for 'b'.  With x[m] the sum of B over the
    label-b bits, a1[m] the sum of A over them and a0[m] the sum of A over the
    rest (B = g.cross, A = g.same), q[m] = a0[m] * a1[m] + sum(B) * x[m]
    and side masks ma, mb cut 2 * (q[ma] + q[mb] - 2 * x[ma] * x[mb]) / 4^d.

    For a fixed ma the best mb maximises q - 2 * x[ma] * x over the points
    (x[mb], q[mb]), so it lies on their upper convex hull, built by Andrew's
    monotone chain with integer cross products.  The hull is the certificate:
    every point lies on or under it, so its value at each side-a x bounds
    every side-b choice, and the search reads the hull (26 vertices at
    d = 16) once per distinct side-a x.  Python ints throughout, no floats.
    Ties go to the lexicographically smallest assignment in node order
    (a,0), ..., (b,d), found by scanning only the side-a masks that reach the
    optimum and, for each, the side-b masks that reach it.
    """
    d = g.degree
    if d > BRUTE_FORCE_MAX_DEGREE:
        raise ValueError(
            f"exhaustive search is capped at d = {BRUTE_FORCE_MAX_DEGREE}; "
            f"use export_wcnf and an external MaxSAT solver for d = {d}"
        )
    B, A = g.cross, g.same
    x, a1 = [0], [0]
    for b, a in zip(B, A):  # doubling: masks with bit i set follow those without
        x += [v + b for v in x]
        a1 += [v + a for v in a1]
    sa, sb = sum(A), sum(B)
    q = [(sa - a) * a + sb * v for a, v in zip(a1, x)]

    top: dict[int, int] = {}  # the largest q at each x, over all masks
    for v, w in zip(x, q):  # weights >= 0 and a1 <= sum(A), so every q >= 0 > -1
        if w > top.get(v, -1):
            top[v] = w
    hull: list[tuple[int, int]] = []  # upper hull, x ascending
    for px, py in sorted(top.items()):
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (py - y0) < (y1 - y0) * (px - x0):
                break  # a right turn: hull[-1] stays
            hull.pop()
        hull.append((px, py))

    side_a: dict[int, int] = {}  # the largest q at each x, over side a's masks
    for v, w in zip(x[::2], q[::2]):  # even masks: (a,0) on 'a'
        if w > side_a.get(v, -1):
            side_a[v] = w
    # side-a x -> max over mb of q[mb] - 2 * x * x[mb]
    reach = {v: max(hy - 2 * v * hx for hx, hy in hull) for v in side_a}
    best = max(w + reach[v] for v, w in side_a.items())

    hits = [
        (ma, mb)
        for ma in range(0, len(x), 2)
        if q[ma] + reach[x[ma]] == best
        for mb in range(len(x))
        if q[mb] - 2 * x[ma] * x[mb] == reach[x[ma]]
    ]
    # labels as bits in node order (a,0), ..., (b,d); '0' < '1' as 'a' < 'b'
    bits = min(f"{ma:0{d + 1}b}"[::-1] + f"{mb:0{d + 1}b}"[::-1] for ma, mb in hits)
    labels = {n: SIDES[int(c)] for n, c in zip(g.nodes, bits)}
    return labels, Fraction(2 * best, 4**d)


def matching_threshold(g: WeightedNgraph, cut: CutAssignment) -> int | None:
    """The tau whose threshold assignment equals `cut` (or its complement), if any."""
    for tau in range(g.degree + 2):
        t = threshold_assignment(ThresholdRule(g.degree, tau))
        if cut == t or cut == complement_assignment(t):
            return tau
    return None


# ---------------------------------------------------------------------------
# Weighted MaxSAT export


class WcnfClause(NamedTuple):
    weight: int
    literals: tuple[int, int]


@dataclass(frozen=True)
class WcnfDocument:
    """Weighted CNF whose optimum encodes the maximum cut of `graph`.

    One boolean variable per neighbourhood-graph node (true = label 'a').
    Every unordered node pair with nonzero weight contributes the clause pair
    (x_u or x_v) and (not x_u or not x_v); exactly one of the two is satisfied
    when the labels agree and both when they differ, so the satisfied total is
    the graph's total integer edge weight plus the scaled cut weight.  Clause
    weights merge both directed weights of the pair, keeping that identity
    exact in the directed convention.

    Every count is a closed form in d.  The directed weights * 4^d sum to
    4^d, so the clause weights sum to 2 * 4^d and `top` is 2 * 4^d + 1.
    The nonzero profile entries are cross[0..d-1] and same[1..d], so d^2
    pairs across the sides and d(d + 1) / 2 on each side are nonzero:
    2 * (2d^2 + d) clauses.  `clauses` is built only when read.
    """

    graph: WeightedNgraph

    @property
    def variable_count(self) -> int:
        return 2 * self.graph.degree + 2

    @property
    def clause_count(self) -> int:
        d = self.graph.degree
        return 2 * (2 * d * d + d)

    @property
    def top(self) -> int:
        # All clauses are soft; top just needs to exceed their total weight.
        return 1 + 2 * 4**self.graph.degree

    @cached_property
    def clauses(self) -> tuple[WcnfClause, ...]:
        return tuple(
            c
            for u, row in _clause_rows(self.graph)
            for v, w in row
            for c in (WcnfClause(w, (u, v)), WcnfClause(w, (-u, -v)))
        )


def _clause_rows(g: WeightedNgraph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(u, [(v, w), ...]) per variable u: its nonzero pairs with v >= u, in file order.

    Variable u = side * (d + 1) + i + 1 is node (side, i).  A pair on one
    side merges same[i] * same[j] from both directions, so w doubles unless
    i = j; a pair across the sides merges 2 * cross[i] * cross[j].
    """
    k = g.degree + 1
    same, cross = g.same, g.cross
    for side in (0, 1):
        base = side * k + 1
        for i, s in enumerate(same):
            row = []
            if s:
                row.append((base + i, s * s))
                s2 = 2 * s
                row += [(base + j, s2 * t) for j, t in enumerate(same[i + 1:], i + 1) if t]
            if side == 0 and cross[i]:
                c2 = 2 * cross[i]
                row += [(k + 1 + j, c2 * t) for j, t in enumerate(cross) if t]
            yield base + i, row


def export_wcnf(g: WeightedNgraph) -> WcnfDocument:
    return WcnfDocument(g)


def format_wcnf(fh: IO[str], doc: WcnfDocument) -> None:
    """Write DIMACS WCNF text to `fh`: comments, `p wcnf` header, one clause per line.

    Written row by row from the graph's two profiles, one variable's clauses
    a write; `doc.clauses` is not built.
    """
    g = doc.graph
    lines = [f"c d = {g.degree}"]
    lines += [f"c var {i} = ({n.side},{n.like_count})" for i, n in enumerate(g.nodes, start=1)]
    lines.append(f"p wcnf {doc.variable_count} {doc.clause_count} {doc.top}")
    fh.write("\n".join(lines) + "\n")
    for u, row in _clause_rows(g):  # w printed once for both clauses
        fh.write("".join([f"{w} {u} {v} 0\n{w} -{u} -{v} 0\n" for v, w in row for w in [str(w)]]))
