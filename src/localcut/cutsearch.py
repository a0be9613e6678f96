"""Cut assignments on neighbourhood graphs: evaluation, search, MaxSAT export.

A cut assignment labels every neighbourhood-graph node 'a' or 'b'; its weight
is the total weight of ordered pairs whose labels differ.  By construction of
the neighbourhood graph this weight equals the expected fraction of cut edges
achieved by the corresponding one-round algorithm on any d-regular
triangle-free graph, so maximising it over assignments finds the best
one-round algorithm for that degree.

Three routes to the optimum live here: threshold assignments (the family that
turns out to be optimal), exhaustive search over all assignments (exact up to
d = 12), and an exported weighted MaxSAT instance for handing the same search
to an external solver at larger d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable

import numpy as np

from .ngraph import (
    Neighbourhood,
    WeightedNgraph,
    all_neighbourhoods,
    complement_side,
    scaled_numerator,
    weight_profiles,
)

#: Cut assignments map every node of the neighbourhood graph to 'a' or 'b'.
CutAssignment = Dict[Neighbourhood, str]

BRUTE_FORCE_MAX_DEGREE = 12


@dataclass(frozen=True)
class ThresholdRule:
    """Keep own side while like_count < tau, otherwise switch.

    tau = 0 complements every label, tau = d + 1 keeps every label.
    """

    degree: int
    tau: int

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError(f"degree must be >= 2, got {self.degree}")
        if not 0 <= self.tau <= self.degree + 1:
            raise ValueError(
                f"tau must be in [0, {self.degree + 1}], got {self.tau}"
            )


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
    scale = 4**g.degree
    nodes = g.nodes
    for n in nodes:
        if n not in cut:
            raise ValueError(f"cut assignment is missing a label for {n}")
        if cut[n] not in ("a", "b"):
            raise ValueError(f"label for {n} must be 'a' or 'b', got {cut[n]!r}")
    total = 0
    for n1 in nodes:
        l1 = cut[n1]
        for n2 in nodes:
            if l1 != cut[n2]:
                total += scaled_numerator(g.weights[(n1, n2)], scale)
    return Fraction(total, scale)


def _side_sums(masks: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mask partial sums of the two weight profiles, split by label bit.

    Bit i of a mask is the label of node (side, i): 0 for 'a', 1 for 'b'.
    Returns (sum of B over label-a bits, sum of B over label-b bits,
    product of the label-split A sums), for B and A of `weight_profiles`.
    """
    B, A = weight_profiles(d)
    b1 = np.zeros(masks.shape, dtype=np.int64)
    a1 = np.zeros(masks.shape, dtype=np.int64)
    for i in range(d + 1):
        bit = (masks >> i) & 1
        b1 += B[i] * bit
        a1 += A[i] * bit
    b0 = sum(B) - b1
    a0 = sum(A) - a1
    return b0, b1, a0 * a1


def brute_force_max_cut(g: WeightedNgraph) -> tuple[CutAssignment, Fraction]:
    """Exhaustive maximum cut of the neighbourhood graph, exact up to d = 12.

    Scans all 2^(2d+1) assignments after fixing the label of (a,0) to 'a'
    (complementing an assignment never changes its weight).  Each assignment
    is evaluated exactly through per-side partial sums of the binomial weight
    profiles; everything stays in int64, which is safe because the scaled cut
    weight is below 4^d <= 2^24.  Ties are broken by the lexicographically
    smallest assignment in node order (a,0), ..., (b,d).
    """
    d = g.degree
    if d > BRUTE_FORCE_MAX_DEGREE:
        raise ValueError(
            f"exhaustive search is capped at d = {BRUTE_FORCE_MAX_DEGREE}; "
            f"use export_wcnf and an external MaxSAT solver for d = {d}"
        )
    n_bits = d + 1
    masks_a = np.arange(0, 1 << n_bits, 2, dtype=np.int64)  # bit 0 fixed to 'a'
    masks_b = np.arange(0, 1 << n_bits, dtype=np.int64)
    a_b0, a_b1, a_pp = _side_sums(masks_a, d)
    b_b0, b_b1, b_pp = _side_sums(masks_b, d)

    # Scaled cut weight of (ma, mb):
    #   2 * (B_a-sum(label a) * B_b-sum(label b) + B_a-sum(b) * B_b-sum(a))
    #   + 2 * A-products of each side.
    best = -1
    hits: list[tuple[int, int]] = []
    block = 256
    for s in range(0, len(masks_a), block):
        e = min(s + block, len(masks_a))
        vals = 2 * (
            a_b0[s:e, None] * b_b1[None, :] + a_b1[s:e, None] * b_b0[None, :]
        )
        vals += 2 * a_pp[s:e, None]
        vals += 2 * b_pp[None, :]
        m = int(vals.max())
        if m > best:
            best = m
            hits = []
        if m == best:
            ia, ib = np.nonzero(vals == best)
            hits.extend(
                (int(masks_a[s + i]), int(masks_b[j])) for i, j in zip(ia, ib)
            )

    def lex_key(pair: tuple[int, int]) -> tuple[int, ...]:
        ma, mb = pair
        return tuple((ma >> i) & 1 for i in range(n_bits)) + tuple(
            (mb >> i) & 1 for i in range(n_bits)
        )

    ma, mb = min(hits, key=lex_key)
    labels = {}
    for i in range(n_bits):
        labels[Neighbourhood("a", i)] = "ab"[(ma >> i) & 1]
        labels[Neighbourhood("b", i)] = "ab"[(mb >> i) & 1]
    return labels, Fraction(best, 4**d)


def matching_threshold(g: WeightedNgraph, cut: CutAssignment) -> int | None:
    """The tau whose threshold assignment equals `cut` (or its complement), if any."""
    for tau in range(g.degree + 2):
        t = threshold_assignment(ThresholdRule(g.degree, tau))
        if cut == t or cut == complement_assignment(t):
            return tau
    return None


# ---------------------------------------------------------------------------
# Weighted MaxSAT export


@dataclass(frozen=True)
class WcnfClause:
    weight: int
    literals: tuple[int, int]


@dataclass(frozen=True)
class WcnfDocument:
    """Weighted CNF whose optimum encodes the maximum cut.

    One boolean variable per neighbourhood-graph node (true = label 'a').
    Every unordered node pair with nonzero weight contributes the clause pair
    (x_u or x_v) and (not x_u or not x_v); exactly one of the two is satisfied
    when the labels agree and both when they differ, so the satisfied total is
    the graph's total integer edge weight plus the scaled cut weight.  Clause
    weights merge both directed weights of the pair, keeping that identity
    exact in the directed convention.
    """

    degree: int
    variable_count: int
    clauses: tuple[WcnfClause, ...]
    var_nodes: tuple[Neighbourhood, ...]

    @property
    def top(self) -> int:
        # All clauses are soft; top just needs to exceed their total weight.
        return 1 + sum(c.weight for c in self.clauses)


def export_wcnf(g: WeightedNgraph) -> WcnfDocument:
    d = g.degree
    scale = 4**d
    nodes = g.nodes
    index = {n: i + 1 for i, n in enumerate(nodes)}  # DIMACS vars are 1-based
    clauses = []
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i:]:
            w = scaled_numerator(g.weights[(n1, n2)], scale)
            if n1 != n2:
                w += scaled_numerator(g.weights[(n2, n1)], scale)
            if w == 0:
                continue
            u, v = index[n1], index[n2]
            clauses.append(WcnfClause(w, (u, v)))
            clauses.append(WcnfClause(w, (-u, -v)))
    return WcnfDocument(
        degree=d,
        variable_count=len(nodes),
        clauses=tuple(clauses),
        var_nodes=tuple(nodes),
    )


def format_wcnf(doc: WcnfDocument) -> str:
    """DIMACS WCNF text: comments, `p wcnf` header, one clause per line."""
    lines = [f"c d = {doc.degree}"]
    for i, n in enumerate(doc.var_nodes, start=1):
        lines.append(f"c var {i} = ({n.side},{n.like_count})")
    lines.append(f"p wcnf {doc.variable_count} {len(doc.clauses)} {doc.top}")
    for c in doc.clauses:
        lines.append(f"{c.weight} {c.literals[0]} {c.literals[1]} 0")
    return "\n".join(lines) + "\n"


def exhaustive_max_weight(doc: WcnfDocument) -> tuple[int, CutAssignment]:
    """Best satisfied clause weight over all assignments, by direct enumeration.

    Only meant for small documents (2d + 2 variables, d <= 8 or so).  Decodes
    the best assignment back to labels via x true = 'a'; ties resolve to the
    lexicographically smallest assignment in node order.
    """
    nv = doc.variable_count
    if nv > 22:
        raise ValueError(f"refusing exhaustive evaluation with {nv} variables")
    assignments = np.arange(1 << nv, dtype=np.int64)
    truth = [(assignments >> i) & 1 for i in range(nv)]  # truth[i] = var i+1
    total = np.zeros(len(assignments), dtype=np.int64)
    for c in doc.clauses:
        sat = np.zeros(len(assignments), dtype=bool)
        for lit in c.literals:
            t = truth[abs(lit) - 1]
            sat |= (t == 1) if lit > 0 else (t == 0)
        total += c.weight * sat
    best = int(total.max())

    def lex_key(mask: int) -> tuple[int, ...]:
        # label 'a' (x true) sorts before 'b', hence the negation
        return tuple(1 - ((mask >> i) & 1) for i in range(nv))

    winners = [int(m) for m in np.nonzero(total == best)[0]]
    mask = min(winners, key=lex_key)
    labels = {
        n: "a" if (mask >> i) & 1 else "b" for i, n in enumerate(doc.var_nodes)
    }
    return best, labels
