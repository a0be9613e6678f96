"""Independent brute-force oracles used to pin down derived expected values.

These deliberately avoid the library's formula paths: the expected values are
computed by enumerating raw random-bit patterns, so they can arbitrate whether
the closed forms and the neighbourhood-graph weights are right, and the tail
quantities take every binomial from its own `math.comb`, so they can
arbitrate the walked binomials of `analysis`.  The serialisation oracles
build each weight as a `Fraction` and run the standard `json` encoder, and
the bound oracle walks every degree's summation window term by term.  The
max-cut oracle scans every pair of side masks on an int64 grid, the WCNF
text oracle writes one clause pair per node pair from `scaled`, and the
MaxSAT oracle scores every assignment of a WCNF document's variables.  The
table parser reads `build-ngraph`'s text back, and `cut_fraction` scores a
labelled graph edge by edge, apart from the Monte Carlo runner's XOR tally,
and `edge_list_by_lines` reads an edge list line by line through `int()`.
`run_trial` reaches a rule's trial 0 through numpy's Generator rather than
the Monte Carlo block kernel, `sampled_joint_views` tallies the endpoint
views of one edge under uniform random cuts, and `sqrt_bound_sign` compares
a rational with a `SqrtBound` by squaring out the root.  None of the three
validates its arguments: only tests call them.  `written` collects what
one of the package's streaming writers writes, as one string.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from itertools import product

import numpy as np

from localcut import sim
from localcut.analysis import tau_formula
from localcut.ngraph import (
    Neighbourhood, WeightedNgraph, all_neighbourhoods, build_ngraph, check_degree,
)

_SIDE = ("a", "b")


def written(write, *args) -> str:
    """Everything `write(fh, *args)` writes to `fh`."""
    fh = io.StringIO()
    write(fh, *args)
    return fh.getvalue()


def _popcount(x: int) -> int:
    return bin(x).count("1")


def enumerate_edge_views(d: int):
    """Yield (view_u, view_v, probability) over all 2^(2d) bit patterns.

    The pattern covers one edge {u, v}: both endpoint bits plus the d - 1
    private neighbours of each endpoint (disjoint by triangle-freeness).
    Every pattern has probability 1 / 4^d.
    """
    m = d - 1
    prob = Fraction(1, 4**d)
    for p in range(1 << (2 * d)):
        b_u = p & 1
        b_v = (p >> 1) & 1
        u_priv = (p >> 2) & ((1 << m) - 1)
        v_priv = (p >> (2 + m)) & ((1 << m) - 1)
        ones_u = _popcount(u_priv)
        ones_v = _popcount(v_priv)
        like_u = (b_u == b_v) + (ones_u if b_u == 1 else m - ones_u)
        like_v = (b_u == b_v) + (ones_v if b_v == 1 else m - ones_v)
        yield (
            Neighbourhood(_SIDE[b_u], like_u),
            Neighbourhood(_SIDE[b_v], like_v),
            prob,
            (b_u, b_v, like_u, like_v),
        )


def joint_view_distribution(d: int) -> dict:
    """Exact distribution of endpoint view pairs under a uniform random cut."""
    dist: dict = {}
    for view_u, view_v, prob, _ in enumerate_edge_views(d):
        key = (view_u, view_v)
        dist[key] = dist.get(key, Fraction(0)) + prob
    return dist


def threshold_cut_probability(d: int, tau: int) -> Fraction:
    """Exact cut probability of one edge under the threshold-tau rule.

    Computed straight from the bit patterns: each endpoint flips its own bit
    when its like count reaches tau, and the edge is cut when the final
    labels differ.
    """
    cut = Fraction(0)
    for _, _, prob, (b_u, b_v, like_u, like_v) in enumerate_edge_views(d):
        out_u = b_u ^ (like_u >= tau)
        out_v = b_v ^ (like_v >= tau)
        if out_u != out_v:
            cut += prob
    return cut


def set_graph(node_count, degree, edges):
    """Neighbour lists and triangle edges of an edge list, built with Python sets.

    An independent route to `sim.from_edges`: walks the edges in input order
    with one set per node and raises `ValueError` at the first defect met (a
    self-loop, an endpoint out of range, an edge seen before in either
    orientation), then at the first node over the degree bound. Returns the
    sorted neighbour list of every node and the triangle edges (u, v), u < v,
    in lexicographic order; an edge lies in a triangle when its endpoints
    share a neighbour.
    """
    nbrs = [set() for _ in range(node_count)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
        if v in nbrs[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    for u, s in enumerate(nbrs):
        if len(s) > degree:
            raise ValueError(f"node {u} has degree {len(s)}, above the declared bound {degree}")
    triangles = sorted((u, v) for u, a in enumerate(nbrs) for v in a if u < v and a & nbrs[v])
    return [sorted(s) for s in nbrs], triangles


def edge_list_by_lines(text: str):
    """(n, d, edges) of an edge-list text, read one stripped line at a time.

    An independent route to `sim.read_edge_list`'s chunked reader: it holds
    every nonblank line, checks the header and its edge count, then names
    the first line that is not two `int()` tokens within int64.
    """
    lines = [line.strip() for line in text.split("\n") if line.strip()]
    if not lines:
        raise ValueError("empty edge list")
    try:
        n, m, d = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"expected header 'n m d', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"expected 'u v', got {line!r}") from None
        if not all(-(2**63) <= x < 2**63 for x in (u, v)):
            raise ValueError(f"expected 'u v', got {line!r}")
        edges.append((u, v))
    return n, d, edges


def neighbour_lists(g):
    """`set_graph`'s neighbour lists for the edges of a `sim.RegularGraph`."""
    return set_graph(g.node_count, g.degree, g.edges.tolist())[0]


def cut_fraction(g, labels: dict) -> Fraction:
    """Fraction of the edges of a `sim.RegularGraph` whose endpoints got different labels."""
    cut = sum(labels[u] != labels[v] for u, v in g.edges.tolist())
    return Fraction(cut, g.edge_count)


def run_trial(g, alg, seed: int) -> dict:
    """Trial 0 of `sim.monte_carlo(g, alg, trials, seed)`, as node labels "a" and "b".

    The rule is the runner's own (`sim._block_rule`); its bits come from
    `make_trial_rng(seed, 0)` and `draw_bits`, one draw per size in order.
    """
    sizes, rule = sim._block_rule(g, alg)
    rng = sim.make_trial_rng(seed, 0)
    out = rule(*(sim.draw_bits(rng, n) for n in sizes))
    return {v: _SIDE[b] for v, b in enumerate(out.tolist())}


def sampled_joint_views(g, edge, trials: int, seed: int) -> dict:
    """Counts of the (view of u, view of v) cells of an edge under uniform random cuts.

    Views are taken with respect to the base cut alone (no rule applied):
    side from the node's own bit, like count over its neighbours. Every
    ordered cell is present, impossible ones with count 0; each cell's count
    is binomial with the corresponding neighbourhood-graph weight as success
    probability.
    """
    u, v = edge
    d = g.degree
    views = all_neighbourhoods(d)  # view (side bit s, like l) sits at s * (d + 1) + l
    k = len(views)
    tally = np.zeros(k * k, dtype=np.int64)
    for (c1,) in sim._blocks(seed, trials, (g.node_count,)):
        view = c1.astype(np.intp) * (d + 1) + sim.like_counts(g.nbr, c1)
        tally += np.bincount(view[u] * k + view[v], minlength=k * k)
    return {cell: int(c) for cell, c in zip(product(views, views), tally)}


def sqrt_bound_sign(bound, r: Fraction) -> int:
    """Sign of r - bound for an `analysis.SqrtBound`: -1 below, 0 equal, +1 above.

    For r >= 1/2, r >= bound iff (r - 1/2)^2 * d >= coeff_sq.
    """
    if r < Fraction(1, 2):
        return -1
    gap = (r - Fraction(1, 2)) ** 2 * bound.degree
    return (gap > bound.coeff_sq) - (gap < bound.coeff_sq)


def expected_cut_weight_exhaustive(adjacency, rule) -> Fraction:
    """Exact expected cut weight of a one-round rule on a whole small graph.

    `adjacency` is a list of neighbour lists, as `neighbour_lists` gives;
    `rule(bits, v)` maps the full bit vector to node v's final label bit.
    Averages the cut fraction over all 2^n bit vectors.
    """
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    total = Fraction(0)
    for bits in product((0, 1), repeat=n):
        out = [rule(bits, v) for v in range(n)]
        cut = sum(1 for u, v in edges if out[u] != out[v])
        total += Fraction(cut, len(edges))
    return total / 2**n


def threshold_rule_on_graph(adjacency, tau):
    """One-round threshold rule as a bit-vector function, for small graphs."""

    def rule(bits, v):
        like = sum(1 for w in adjacency[v] if bits[w] == bits[v])
        return bits[v] ^ (like >= tau)

    return rule


def shearer_expected_cut(adjacency, d) -> Fraction:
    """Exact expected cut weight of the three-cut rule on a small graph.

    Conditions on the base cut c1: given c1, node v's output is c1(v) when
    under half its neighbours agree, a fresh uniform bit when over half
    agree, and c1(v) with probability 3/4 at a tie (the tie-break keeps c1
    half the time and falls back to a fresh bit otherwise). Outputs are
    independent across nodes given c1, so per-edge cut probabilities
    multiply out exactly.
    """
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    total = Fraction(0)
    for pattern in range(1 << n):
        bits = [(pattern >> v) & 1 for v in range(n)]
        p_one = []  # P(out_v = 1 | c1)
        for v in range(n):
            like2 = 2 * sum(1 for w in adjacency[v] if bits[w] == bits[v])
            if like2 < d:
                p_one.append(Fraction(bits[v]))
            elif like2 > d:
                p_one.append(Fraction(1, 2))
            else:
                p_one.append(Fraction(3, 4) if bits[v] else Fraction(1, 4))
        for u, v in edges:
            total += p_one[u] * (1 - p_one[v]) + (1 - p_one[u]) * p_one[v]
    return total / (len(edges) * 2**n)


def virtual_expected_edge_cuts(adjacency, d, tau) -> dict:
    """Exact per-edge cut probabilities of the virtual-neighbour rule.

    Enumerates every assignment of own bits and virtual-neighbour bits, so
    it is only usable when n + sum(d - deg(v)) stays small.
    """
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    missing = [d - len(adjacency[v]) for v in range(n)]
    offsets = []
    pos = 0
    for v in range(n):
        offsets.append(pos)
        pos += missing[v]
    total_bits = n + pos
    counts = {e: 0 for e in edges}
    for pattern in range(1 << total_bits):
        bits = [(pattern >> v) & 1 for v in range(n)]
        virtual = [(pattern >> (n + i)) & 1 for i in range(pos)]
        out = []
        for v in range(n):
            like = sum(1 for w in adjacency[v] if bits[w] == bits[v])
            like += sum(
                1
                for i in range(offsets[v], offsets[v] + missing[v])
                if virtual[i] == bits[v]
            )
            out.append(bits[v] ^ (like >= tau))
        for u, v in edges:
            if out[u] != out[v]:
                counts[(u, v)] += 1
    return {e: Fraction(c, 1 << total_bits) for e, c in counts.items()}


def offset_ratio(n: int, delta: int) -> Fraction:
    """C(2n, n + delta) / C(2n, n)."""
    return Fraction(math.comb(2 * n, n + delta), math.comb(2 * n, n))


def window_mass(n: int, lo: int, hi: int) -> Fraction:
    """sum_{i=lo}^{hi} C(2n, n+i) / 4^n, one `math.comb` per term."""
    total = sum(math.comb(2 * n, n + i) for i in range(lo, hi + 1))
    return Fraction(total, 4**n)


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def ngraph_json_doc(g) -> dict:
    """The `build-ngraph --format json` document, one `Fraction` per pair.

    `json.dumps(doc, indent=2) + "\\n"` is the byte-identity reference for
    the joined `ngraph.ngraph_json_chunks`.
    """
    return {
        "d": g.degree,
        "nodes": [[n.side, n.like_count] for n in g.nodes],
        "weights": [
            {
                "n1": [n1.side, n1.like_count],
                "n2": [n2.side, n2.like_count],
                "weight": _rational(g.weight(n1, n2)),
            }
            for n1 in g.nodes
            for n2 in g.nodes
        ],
        # a sum over the pairs, not `total_weight`, which the writer reads
        "normalisation": _rational(sum(g.weight(n1, n2) for n1 in g.nodes for n2 in g.nodes)),
    }


def ngraph_table_lines(d: int) -> list[str]:
    """The pair lines of `format_ngraph_table`, each weight from `math.comb`.

    Across sides the pair ((k, i1), (k', i2)) weighs C(d-1, i1) * C(d-1, i2)
    / 4^d; on one side both like counts include the other endpoint, so each
    binomial takes i - 1 (and C(d-1, -1) is 0).
    """

    def count(i: int) -> int:
        return math.comb(d - 1, i) if i >= 0 else 0

    nodes = [Neighbourhood(k, i) for k in _SIDE for i in range(d + 1)]
    lines = []
    for n1 in nodes:
        for n2 in nodes:
            shift = n1.side == n2.side
            w = Fraction(count(n1.like_count - shift) * count(n2.like_count - shift), 4**d)
            lines.append(
                f"{n1.side} {n1.like_count} {n2.side} {n2.like_count}"
                f" {w.numerator} {w.denominator}"
            )
    return lines


def parse_ngraph_table(text: str) -> WeightedNgraph:
    """Inverse of `format_ngraph_table`; returns `build_ngraph(d)` for its table.

    Rejects fewer lines than the graph has pairs, then, naming the line, a
    wrong field count, a node outside the graph, a repeated pair (so no line
    is extra), a denominator 0, and a weight other than the built graph's.
    Unreduced weights such as `2 32` pass.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("d="):
        raise ValueError("missing 'd=<d>' header line")
    d = check_degree(int(lines[0][2:]))
    expected = (2 * d + 2) ** 2
    if len(lines) - 1 < expected:
        raise ValueError(f"expected {expected} weight lines, got {len(lines) - 1}")
    g = build_ngraph(d)
    seen = set()
    for ln in lines[1:]:
        try:
            s1, i1, s2, i2, num, den = ln.split()
            pair = (Neighbourhood(s1, int(i1)), Neighbourhood(s2, int(i2)))
            if pair in seen:
                raise ValueError("repeats an earlier pair")
            if int(den) == 0:
                raise ValueError("denominator 0")
            if Fraction(int(num), int(den)) != g.weight(*pair):
                raise ValueError(f"expected weight {g.weight(*pair)} for degree {d}")
        except ValueError as exc:
            raise ValueError(f"line {ln!r}: {exc}") from None
        seen.add(pair)
    return g


def bound_walk(d_max: int) -> list[tuple[int, int, int, int, bool, bool]]:
    """(d, tau, gain, margin, passed, equality) for d = 2..d_max, term by term.

    At every degree the summation window [d - tau + 1, tau - 1] of row
    n = d - 1 is walked from C(n, lo): gain = C(n, tau-1) * sum, and
    margin = gain^2 * 1024 * d - 81 * 16^(d-1).  C(n, lo) is carried across
    degrees by small-factor steps.
    """
    rows = []
    cur = 1  # C(n, k) at n = d - 1, k = lo(d); starts at C(1, 1) for d = 2
    cur_k = 1
    for d in range(2, d_max + 1):
        n = d - 1
        tau = tau_formula(d)
        lo, hi = d - tau + 1, tau - 1
        if d > 2:
            # advance the carried binomial from row n-1 to row n at fixed k
            cur = cur * n // (n - cur_k)
        while cur_k < lo:
            cur = cur * (n - cur_k) // (cur_k + 1)
            cur_k += 1
        while cur_k > lo:
            cur = cur * cur_k // (n - cur_k + 1)
            cur_k -= 1
        seg_sum = val = cur
        for i in range(lo + 1, hi + 1):
            val = val * (n - i + 1) // i
            seg_sum += val
        gain = val * seg_sum
        margin = gain * gain * 1024 * d - 81 * 16 ** (d - 1)
        rows.append((d, tau, gain, margin, margin >= 0, margin == 0))
    return rows


def _side_sums(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables x and q over all masks labelling one side's d + 1 nodes.

    Bit i of a mask is the label of node (side, i): 0 for 'a', 1 for 'b'.
    x sums B over the label-b bits and q = a0 * a1 + sum(B) * x, where a0 and
    a1 sum A over the label-a and label-b bits, with B[i] = C(d-1, i) and
    A[i] = C(d-1, i-1) from `math.comb`.
    """
    B = [math.comb(d - 1, i) for i in range(d + 1)]  # C(d-1, d) = 0
    A = [0] + B[:d]
    masks = np.arange(1 << (d + 1), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(d + 1)) & 1
    x, a1 = np.array([B, A], dtype=np.int64) @ bits.T
    return x, (sum(A) - a1) * a1 + sum(B) * x


def grid_max_cut(d: int):
    """Maximum cut of `build_ngraph(d)` by a scan of every pair of side masks.

    Scans all 2^(2d+1) assignments after fixing the label of (a,0) to 'a'
    (complementing an assignment never changes its weight).  Both sides read
    the tables of `_side_sums`: labelling side a by mask ma and side b by mb
    cuts 2 * (q[ma] + q[mb] - 2 * x[ma] * x[mb]) / 4^d.  int64 is safe: q and
    2 * x * x' stay below 2 * 4^(d-1) <= 2^23.  Ties go to the
    lexicographically smallest assignment in node order (a,0), ..., (b,d).
    Returns (labels, weight) as `cutsearch.brute_force_max_cut` does.
    """
    x, q = _side_sums(d)
    xa, qa = x[::2], q[::2]  # side a's masks with (a,0) on 'a'
    minus_2x = -2 * x
    best = -1
    hits: list[tuple[int, int]] = []
    block = 256
    grid = np.empty((block, len(x)), dtype=np.int64)
    for s in range(0, len(xa), block):
        e = min(s + block, len(xa))
        vals = grid[: e - s]
        np.multiply(xa[s:e, None], minus_2x, out=vals)
        vals += qa[s:e, None]
        vals += q
        m = int(vals.max())
        if m > best:
            best = m
            hits = []
        if m == best:
            ia, ib = np.nonzero(vals == best)
            hits.extend((2 * (s + int(i)), int(j)) for i, j in zip(ia, ib))

    # labels as bits in node order (a,0), ..., (b,d); '0' < '1' as 'a' < 'b'
    bits = min(f"{ma:0{d + 1}b}"[::-1] + f"{mb:0{d + 1}b}"[::-1] for ma, mb in hits)
    labels = {n: "ab"[int(c)] for n, c in zip(build_ngraph(d).nodes, bits)}
    return labels, Fraction(2 * best, 4**d)


def wcnf_text(g) -> str:
    """`export-wcnf`'s DIMACS text for graph `g`, one `g.scaled` pair at a time.

    Walks the unordered node pairs u <= v in node order and merges both
    directed weights of each; a nonzero merged weight w gives the clauses
    `w u v 0` and `w -u -v 0`, and `top` is one more than the clause
    weights' sum.
    """
    nodes = g.nodes
    clauses = []
    for i, n1 in enumerate(nodes):
        for j in range(i, len(nodes)):
            n2 = nodes[j]
            w = g.scaled(n1, n2) + (g.scaled(n2, n1) if j > i else 0)
            if w:
                clauses += [(w, i + 1, j + 1), (w, -i - 1, -j - 1)]
    lines = [f"c d = {g.degree}"]
    lines += [f"c var {i} = ({n.side},{n.like_count})" for i, n in enumerate(nodes, 1)]
    lines.append(f"p wcnf {len(nodes)} {len(clauses)} {1 + sum(c[0] for c in clauses)}")
    lines += [f"{w} {u} {v} 0" for w, u, v in clauses]
    return "\n".join(lines) + "\n"


def exhaustive_max_weight(doc) -> tuple[int, dict]:
    """Best satisfied clause weight of a `cutsearch.WcnfDocument`, by enumeration.

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
        n: "a" if (mask >> i) & 1 else "b" for i, n in enumerate(doc.graph.nodes)
    }
    return best, labels
