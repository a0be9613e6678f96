"""Distributed one-round cut algorithms on explicit graphs.

Triangle-free regular graph generators, the node rules (uniform; Shearer's,
which follows c1 below d/2 agreement and c2 above it, c3 breaking ties;
threshold), the virtual-neighbour wrapper for irregular graphs, and Monte
Carlo measurement of cut weights and per-edge statistics.

Randomness contract: trial t of master seed s draws from Philox4x64-10 keyed
by (s mod 2^64, t), so trials are reproducible and independent, and runs of
different algorithms at the same (seed, trial) share the base cut c1. Within
a trial, bits are drawn in node-index order, one array per cut. Monte Carlo
runs draw blocks of trials (`philox_bits`), 16 or more in every block but
the last: a block of at most 2^16 bits through Philox rounds written in
numpy, a larger one through numpy's C Philox, one trial at a time.
Like-mindedness is the equality convention: a neighbour u of v counts
towards l(v) when c1(u) == c1(v).
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from itertools import islice, product
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union,
)

import numpy as np

from .ngraph import SIDES, Neighbourhood, all_neighbourhoods, check_integer, check_tau

logger = logging.getLogger(__name__)

NodeLabels = Dict[int, str]

UINT64_MASK = (1 << 64) - 1

REJECTION_BUDGET = 1000


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple graph with a declared degree bound d, in two read-only arrays.

    Row u of the (n, d) array `nbr` lists u's neighbours in ascending order,
    then -1 padding; the bool mask `triangle` flags each edge of `edges` (u < v,
    lexicographic) whose endpoints share a neighbour. Strict mode (no padding,
    no flag) is where the one-round rules carry their exact per-edge guarantee.
    """

    node_count: int
    degree: int
    nbr: np.ndarray
    triangle: np.ndarray

    def __post_init__(self) -> None:
        self.nbr.setflags(write=False)
        self.triangle.setflags(write=False)

    def __eq__(self, other: object) -> bool:  # nbr's shape (n, d) carries the degree
        return isinstance(other, RegularGraph) and np.array_equal(self.nbr, other.nbr)

    @property
    def edges(self) -> np.ndarray:
        u, slot = np.nonzero(self.nbr > np.arange(self.node_count)[:, None])  # never padding
        return np.stack([u, self.nbr[u, slot]], axis=1)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.nbr >= 0)) // 2

    @property
    def is_regular(self) -> bool:
        return bool(np.all(self.nbr >= 0))

    @property
    def is_strict(self) -> bool:
        return self.is_regular and not self.triangle.any()


def from_edges(node_count: int, degree: int, edges: Union[Sequence, np.ndarray]) -> RegularGraph:
    """Build and validate a graph from (u, v) pairs or an (m, 2) array.

    Raises `TypeError` for an endpoint that is not an integer (a float, bool,
    string or other object), which a cast would truncate or coerce. Rejects
    out-of-range endpoints, then the first self-loop or repeated edge in
    input order (one sort of the m keys min(u, v) * n + max(u, v) finds
    both, before anything is built), then nodes above the degree bound.
    Sorted half-edges fill `nbr`; comparing the rows nbr[u] and nbr[v]
    flags (u, v) in a triangle (`_triangle_flags`).
    """
    node_count = check_integer(node_count, 1, math.inf, "node_count must be an integer >= 1")
    degree = check_integer(degree, 1, math.inf, "degree must be an integer >= 1")
    e = np.asarray(edges)
    if e.size and e.dtype.kind not in "iu":
        raise TypeError(f"edge endpoints must be integers that fit in int64, got {e.dtype} values")
    if e.size and not isinstance(edges, np.ndarray):
        # a list that mixes bools with ints converts to an integer dtype
        kinds = {type(x) for x in np.asarray(edges, dtype=object).flat}
        if any(issubclass(t, (bool, np.bool_)) for t in kinds):
            raise TypeError("edge endpoints must be integers that fit in int64, got bool values")
    e = e.astype(np.intp, copy=False).reshape(-1, 2)
    g = _simple_graph(node_count, degree, e)
    if g is None:
        u, v = e[_first_repeat(e, node_count)]
        raise ValueError(f"self-loop at node {u}" if u == v else f"duplicate edge ({u}, {v})")
    return g


def _simple_graph(node_count: int, degree: int, e: np.ndarray) -> Optional[RegularGraph]:
    """`from_edges` of an (m, 2) int array, but None for a loop or repeat, unnamed."""
    outside = (e < 0) | (e >= node_count)
    if outside.any():
        u, v = e[outside.any(axis=1)][0]
        raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    keys = lo * node_count + hi
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any() or (lo == hi).any():
        return None
    keys = np.concatenate([keys, hi * node_count + lo])  # the half-edges (tail, head)
    keys.sort()
    tail, head = np.divmod(keys, node_count)
    deg = np.bincount(tail, minlength=node_count)
    if deg.max() > degree:
        u = (deg > degree).argmax()
        raise ValueError(f"node {u} has degree {deg[u]}, above the declared bound {degree}")
    nbr = np.full((node_count, degree), -1, dtype=np.intp)
    nbr[tail, np.arange(len(tail)) - (np.cumsum(deg) - deg)[tail]] = head
    edge = tail < head  # each edge (u, v), u < v, once, in lexicographic order
    return RegularGraph(node_count, degree, nbr, _triangle_flags(nbr, tail[edge], head[edge]))


def _first_repeat(e: np.ndarray, node_count: int) -> int:
    """Index of the first edge of e that is a self-loop or repeats an earlier one."""
    lo, hi = e.min(axis=1), e.max(axis=1)
    bad = np.ones(len(e), dtype=bool)  # all but each key's first occurrence
    bad[np.unique(lo * node_count + hi, return_index=True)[1]] = False
    return int((bad | (lo == hi)).argmax())


# Edges per chunk of the triangle search: max(1, TRIANGLE_BUDGET // d), so
# the chunk's gathered (edges, d) rows have a fixed number of elements.
TRIANGLE_BUDGET = 1 << 16


def _triangle_flags(nbr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether u[i] and v[i] share a neighbour, by d x d comparisons of their rows.

    Padding (-1) in u's row is masked out, so it never matches v's padding.
    The work grows as d^2 per edge and the memory stays within one chunk.
    """
    d = nbr.shape[1]
    out = np.empty(len(u), dtype=bool)
    step = max(1, TRIANGLE_BUDGET // d)
    for i in range(0, len(u), step):
        a, b = nbr[u[i : i + step]], nbr[v[i : i + step]]
        hit = a == b[:, :1]
        for k in range(1, d):
            hit |= a == b[:, k : k + 1]
        hit &= a >= 0
        out[i : i + step] = hit.any(axis=1)
    return out


def complete_bipartite(d: int) -> RegularGraph:
    """K_{d,d}: nodes 0..d-1 on one side, d..2d-1 on the other."""
    d = check_integer(d, 1, math.inf, "d must be an integer >= 1")
    side = np.arange(d)
    return from_edges(2 * d, d, np.stack([np.repeat(side, d), d + np.tile(side, d)], axis=1))


def cycle_graph(n: int) -> RegularGraph:
    n = check_integer(n, 4, math.inf, "cycle needs an integer n >= 4 to be triangle-free")
    i = np.arange(n)
    return from_edges(n, 2, np.stack([i, (i + 1) % n], axis=1))


def hypercube_graph(k: int) -> RegularGraph:
    """k-dimensional hypercube: 2^k nodes, k-regular, bipartite."""
    k = check_integer(k, 1, math.inf, "dimension must be an integer >= 1")
    x, b = np.repeat(np.arange(1 << k), k), np.tile(np.arange(k), 1 << k)
    low = (x >> b & 1) == 0  # each edge once, from the end whose bit b is 0
    return from_edges(1 << k, k, np.stack([x[low], (x | 1 << b)[low]], axis=1))


def petersen_graph() -> RegularGraph:
    """The Petersen graph: 3-regular, girth 5, not bipartite."""
    # outer cycle, spokes, inner pentagram
    edges = [e for i in range(5) for e in ((i, (i + 1) % 5), (i, 5 + i), (5 + i, 5 + (i + 2) % 5))]
    return from_edges(10, 3, edges)


def _first_strict(draw: Callable[[], np.ndarray], n: int, d: int, params: str) -> RegularGraph:
    """The first strict `from_edges(n, d, draw())` within REJECTION_BUDGET draws (read per call).

    A self-loop or repeated edge (left unnamed) or a `ValueError` rejects a
    draw, as a triangle does; one sort of the draw's edge keys finds those
    before anything is built. The INFO record's first
    argument is the attempt count; `params` names the generator's inputs
    there and on exhaustion.
    """
    for attempt in range(1, REJECTION_BUDGET + 1):
        try:
            g = _simple_graph(n, d, draw())
        except ValueError:
            continue
        if g is not None and g.is_strict:
            logger.info("accepted after %d attempt(s) (%s)", attempt, params)
            return g
    raise RuntimeError(
        f"rejection budget exhausted after {REJECTION_BUDGET} attempts ({params}); "
        "parameters too tight"
    )


def random_bipartite_regular(n_per_side: int, d: int, seed: int) -> RegularGraph:
    """Union of d uniform random perfect matchings, resampled until simple.

    `from_edges` rejects an attempt whose matchings share an edge. Bipartite,
    hence triangle-free; strict mode by construction. Running out of
    REJECTION_BUDGET signals parameters too tight (n_per_side close to d).
    """
    d = check_integer(d, 1, math.inf, "d must be an integer >= 1")
    n_per_side = check_integer(
        n_per_side, d, math.inf, "need an integer n_per_side >= d for d disjoint matchings"
    )
    rng = np.random.default_rng(check_integer(seed, 0, math.inf, "seed must be an integer >= 0"))
    left = np.tile(np.arange(n_per_side), d)

    def draw() -> np.ndarray:
        right = np.concatenate([rng.permutation(n_per_side) for _ in range(d)]) + n_per_side
        return np.stack([left, right], axis=1)

    params = f"bipartite, n_per_side={n_per_side}, d={d}"
    return _first_strict(draw, 2 * n_per_side, d, params)


def random_triangle_free(n: int, d: int, seed: int) -> RegularGraph:
    """Configuration model conditioned on simple and triangle-free.

    Pairs n*d stubs uniformly and rejects any sample that `from_edges` refuses
    (self-loops, parallel edges) or flags a triangle in, so accepted graphs
    are uniform over strict-mode instances reachable by the model. n*d even.
    """
    d = check_integer(d, 1, math.inf, "d must be an integer >= 1")
    n = check_integer(n, d + 1, math.inf, "need an integer n > d for a simple d-regular graph")
    if n * d % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(check_integer(seed, 0, math.inf, "seed must be an integer >= 0"))
    stubs = np.repeat(np.arange(n), d)
    return _first_strict(
        lambda: rng.permutation(stubs).reshape(-1, 2), n, d, f"triangle-free, n={n}, d={d}"
    )


# Edge-list lines per chunk in write_edge_list and read_edge_list: it bounds
# the text formatted, read and parsed at once. `_EDGE_TEXT` keeps some 650
# bytes of backtracking state a line, so 2^14 lines would hold about 10 MiB.
EDGE_CHUNK = 1 << 10


def write_edge_list(fh: TextIO, g: RegularGraph) -> None:
    """Plain text format: `n m d` header, then one `u v` line per edge."""
    fh.write(f"{g.node_count} {g.edge_count} {g.degree}\n")
    edges = g.edges
    for i in range(0, len(edges), EDGE_CHUNK):
        chunk = edges[i : i + EDGE_CHUNK]
        fh.write("%d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


# Edge-list text that np.fromstring reads as int() would: lines that are
# blank or hold two ASCII tokens amid spaces and tabs. A token has at most 18
# digits, below int64's 19, because np.fromstring saturates silently.
_EDGE_LINE = r"[ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?"
_EDGE_TEXT = re.compile(rf"(?:{_EDGE_LINE}\n)*{_EDGE_LINE}")


def read_edge_list(fh: TextIO) -> RegularGraph:
    """Parse write_edge_list's format; blank lines and surrounding whitespace are ignored.

    Reads EDGE_CHUNK lines at a time. numpy's tokeniser parses a chunk that
    `_EDGE_TEXT` matches; any other chunk goes line by line through int(),
    which also takes forms such as "+5" and "1_000". The header's edge count
    is checked against the whole file before a bad line is named.
    """
    header = next((line for line in map(str.strip, fh) if line), None)
    if header is None:
        raise ValueError("empty edge list")
    try:
        n, m, d = map(int, header.split())
    except ValueError:
        raise ValueError(f"expected header 'n m d', got {header!r}") from None
    parts = [np.empty(0, dtype=np.intp)]
    found, bad = 0, None  # edge lines, and the message naming the first bad one
    while lines := list(islice(fh, EDGE_CHUNK)):
        text = "".join(lines)
        if _EDGE_TEXT.fullmatch(text):
            if not text.isspace():  # numpy reads blank text as [0]
                parts.append(np.fromstring(text, dtype=np.intp, sep=" "))
                found += len(parts[-1]) // 2
            continue
        ends = []
        for line in filter(None, map(str.strip, lines)):
            found += 1
            if bad is None:
                try:
                    pair = np.array(list(map(int, line.split())), dtype=np.intp).reshape(2)
                except (ValueError, OverflowError):
                    bad = f"expected 'u v', got {line!r}"
                else:
                    ends += pair.tolist()
        parts.append(np.array(ends, dtype=np.intp))
    if found != m:
        raise ValueError(f"header declares {m} edges, found {found}")
    if bad is not None:
        raise ValueError(bad)
    return from_edges(n, d, np.concatenate(parts).reshape(-1, 2))


# ---------------------------------------------------------------------------
# Node rules, as pure functions of the drawn bits

# All rules read bits as numpy uint8 arrays indexed by node; trailing axes,
# if any, are independent trials. The pure appliers exist so that locality
# is testable without touching the RNG: change a non-neighbour's bit and
# node v's output must not change.


def like_counts(nbr_matrix: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """l(v) = number of neighbours agreeing with v, equality convention.

    Row v of nbr_matrix indexes v's neighbours in bits; counted per column,
    in the smallest dtype that holds d + 1.
    """
    own = bits[: len(nbr_matrix)]
    like = np.zeros(own.shape, np.min_scalar_type(nbr_matrix.shape[1] + 1))
    for col in nbr_matrix.T:
        like += np.take(bits, col, axis=0) == own
    return like


def apply_threshold_rule(nbr_matrix: np.ndarray, c1: np.ndarray, tau: int) -> np.ndarray:
    """Keep own bit while fewer than tau neighbours agree, else flip."""
    return c1 ^ (like_counts(nbr_matrix, c1) >= tau)


def apply_shearer_rule(
    nbr_matrix: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray
) -> np.ndarray:
    """Follow c1 below d/2 agreement, c2 above, c3 breaking the tie.

    A node keeps its c1 bit when under half its d = nbr_matrix.shape[1]
    neighbours agree (many cut edges locally), falls back to the fresh cut
    c2 when over half agree, and at exactly d/2 follows c1 if its c3 bit is
    0 and c2 if it is 1.
    """
    like = like_counts(nbr_matrix, c1)
    rest = nbr_matrix.shape[1] - like  # disagreeing neighbours
    keep_c1 = (like < rest) | ((like == rest) & (c3 == 0))
    return np.where(keep_c1, c1, c2)


def apply_virtual_rule(
    padded_matrix: np.ndarray, c1: np.ndarray, virtual_bits: np.ndarray, tau: int
) -> np.ndarray:
    """Threshold rule where padding entries index virtual_bits, appended to c1."""
    ext = np.concatenate([c1, virtual_bits]).astype(np.uint8, copy=False)
    return c1 ^ (like_counts(padded_matrix, ext) >= tau)


# ---------------------------------------------------------------------------
# Seeded execution

# Most bits a block draws through the numpy Philox rounds (see philox_bits).
BLOCK_SLOTS = 1 << 16
# Fewest trials in a block but a run's last (see _blocks).
FEW_TRIALS = 16


def make_trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial, keyed by (seed mod 2^64, trial)."""
    key = np.array([seed & UINT64_MASK, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform bits; the unit in which the randomness budget is counted."""
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def philox_bits(seed: int, t0: int, trials: int, sizes: Sequence[int]) -> List[np.ndarray]:
    """Chained draw_bits(make_trial_rng(seed, t), n), n in sizes, for a block.

    Evaluates Philox4x64-10 under key (seed mod 2^64, t) for t0 <= t <
    t0 + trials and returns one (n, trials) uint8 array per draw, bit for bit
    numpy's stream: the counter starts at 1, each uint64 splits into two
    uint32 (low half first), each uint32 into four bytes (low byte first),
    bit = byte >> 7, and every draw starts on a fresh uint32.

    The bits drawn by the whole block pick the route. A block of more than
    BLOCK_SLOTS bits reads numpy's C Philox one trial at a time; a smaller
    one runs the ten rounds on all its counters at once, in numpy.
    """
    words = [-(-n // 4) for n in sizes]
    route = _c_philox_bytes if trials * sum(sizes) > BLOCK_SLOTS else _block_philox_bytes
    bits = np.right_shift(route(seed, t0, trials, sum(words)).T, 7, order="C")
    starts = np.cumsum([0] + words) * 4
    return [bits[s : s + n] for s, n in zip(starts, sizes)]


def _c_philox_bytes(seed: int, t0: int, trials: int, words: int) -> np.ndarray:
    """Each trial's stream as bytes, one row a trial, through `words` uint32 at least.

    Each trial resets one generator to `Philox(key=...)`'s first state,
    which skips a `SeedSequence` drawn from OS entropy per new generator.
    """
    rows = np.empty((trials, -(-words // 2)), "<u8")
    gen = np.random.Philox(key=np.array([seed & UINT64_MASK, t0], dtype=np.uint64))
    state = gen.state
    for i in range(trials):
        state["state"]["key"][1] = t0 + i
        gen.state = state
        rows[i] = gen.random_raw(rows.shape[1])
    return rows.view(np.uint8)


def _block_philox_bytes(seed: int, t0: int, trials: int, words: int) -> np.ndarray:
    """`_c_philox_bytes`'s rows, from the ten rounds run on all the block's counters at once."""
    counters = -(-words // 8)
    shape = (2, trials, counters)
    # state words 0, 2 are multiplied; words 1, 3 are xored into them
    mul = np.zeros(shape, np.uint64)
    mul[0] = np.arange(1, counters + 1, dtype=np.uint64)
    xor = np.zeros(shape, np.uint64)
    key = np.empty((2, trials, 1), np.uint64)
    key[0] = seed & UINT64_MASK
    key[1, :, 0] = np.arange(t0, t0 + trials, dtype=np.uint64)
    # Philox4x64-10 (Salmon et al., SC'11): multipliers of words 0, 2 and the
    # key's Weyl increments, built per call (numpy work at import would cost
    # every command resident memory)
    m = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
    w = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None, None]
    low, s = np.uint64(0xFFFFFFFF), np.uint64(32)
    m0, m1 = m & low, m >> s
    for _ in range(10):
        a, b = mul & low, mul >> s  # 32-bit limbs of mul
        t = a * m0
        t >>= s
        t += b * m0
        a *= m1
        a += t & low
        a >>= s
        t >>= s
        b *= m1
        b += t
        b += a  # b = high 64 bits of mul * m
        # next words 0, 2: the crossed high halves ^ words 1, 3 ^ key;
        # next words 1, 3: the crossed low halves
        xor ^= key
        xor ^= b[::-1]
        mul, xor = xor, mul[::-1] * m[::-1]
        key += w
    state = np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1).astype("<u8", copy=False)
    return state.view(np.uint8).reshape(trials, -1)


def labels_from_bits(bits: np.ndarray) -> NodeLabels:
    return {v: SIDES[int(b)] for v, b in enumerate(bits)}


def _require_strict(g: RegularGraph, rule: str) -> None:
    if not g.is_regular:
        raise ValueError(
            f"{rule} needs an exactly {g.degree}-regular graph; "
            "run irregular graphs with VirtualNeighbourCut (--alg virtual)"
        )
    if g.triangle.any():
        raise ValueError(
            f"{rule} carries its guarantee only on triangle-free graphs; "
            f"{np.count_nonzero(g.triangle)} edge(s) lie in triangles "
            "(VirtualNeighbourCut, --alg virtual, runs regardless)"
        )


def _padded_matrix(g: RegularGraph) -> Tuple[np.ndarray, int]:
    """`g.nbr` with its padding numbered as virtual bits in node, then slot order."""
    padded = g.nbr.astype(np.intp)
    slots = padded < 0
    padded[slots] = np.arange(g.node_count, g.node_count + np.count_nonzero(slots))
    return padded, int(np.count_nonzero(slots))


def run_trial(g: RegularGraph, alg: AlgorithmSpec, seed: int) -> NodeLabels:
    """One trial, trial index 0 of the seed's stream, as node labels.

    The one-trial sibling of `monte_carlo(g, alg, trials, seed)`, drawing
    what its trial 0 draws. `ShearerCut` draws c1, c2, c3 in that order.
    `VirtualNeighbourCut` gives each node of degree d' <= d its own bit plus
    d - d' virtual-neighbour bits and counts agreement over real and virtual
    neighbours together: own bits come first (node order), then the virtual
    bits (node order).
    """
    seed = check_integer(seed, -math.inf, math.inf, "seed must be an integer")
    sizes, rule = _block_rule(g, alg)
    return labels_from_bits(rule(*philox_bits(seed, 0, 1, sizes))[:, 0])


# ---------------------------------------------------------------------------
# Algorithm specs and Monte Carlo measurement


@dataclass(frozen=True)
class UniformCut:
    """Each node takes its own uniform bit; baseline with mean 1/2."""


@dataclass(frozen=True)
class ThresholdCut:
    tau: int


@dataclass(frozen=True)
class ShearerCut:
    """Three-cut rule with majority fallback and random tie-break."""


@dataclass(frozen=True)
class VirtualNeighbourCut:
    """Threshold rule at the graph's declared degree, padding with virtual neighbours."""

    tau: int


AlgorithmSpec = Union[UniformCut, ThresholdCut, ShearerCut, VirtualNeighbourCut]


class TrialStats(NamedTuple):
    """Monte Carlo estimate of the expected cut weight.

    mean is total cut edges over trials * edge_count; stderr is the sample
    standard deviation of per-trial weights (ddof=1) over sqrt(trials), 0.0
    for one trial. On a graph with triangle-flagged edges the per-class means
    are reported separately: the per-edge guarantee applies only to clean
    edges, so flagged edges get an empirical number and no assertion.
    """

    trials: int
    mean: float
    stderr: float
    seed: int
    edge_count: int
    per_edge: Optional[Dict[Tuple[int, int], int]] = None
    clean_edge_mean: Optional[float] = None
    flagged_edge_mean: Optional[float] = None
    flagged_edge_fraction: Optional[float] = None


def _block_rule(g: RegularGraph, alg: AlgorithmSpec):
    """Bits drawn per trial, and the rule from a block's draws to outputs."""
    n = g.node_count
    if isinstance(alg, UniformCut):
        return (n,), lambda c1: c1
    if isinstance(alg, (ThresholdCut, ShearerCut)):
        _require_strict(g, type(alg).__name__)
        if isinstance(alg, ShearerCut):
            return (n, n, n), lambda *cuts: apply_shearer_rule(g.nbr, *cuts)
        tau = check_tau(alg.tau, g.degree)
        return (n,), lambda c1: apply_threshold_rule(g.nbr, c1, tau)
    if isinstance(alg, VirtualNeighbourCut):
        tau = check_tau(alg.tau, g.degree)
        padded, virtual_total = _padded_matrix(g)
        return (n, virtual_total), lambda *bits: apply_virtual_rule(padded, *bits, tau)
    raise ValueError(f"unknown algorithm spec {alg!r}")


def _blocks(seed: int, trials: int, sizes: Sequence[int]) -> Iterator[List[np.ndarray]]:
    """philox_bits for trials 0..trials-1, in blocks of `step` trials but the last."""
    step = max(FEW_TRIALS, BLOCK_SLOTS // sum(sizes))
    for t0 in range(0, trials, step):
        yield philox_bits(seed, t0, min(step, trials - t0), sizes)


def _cut_counts(
    out: np.ndarray, u: np.ndarray, v: np.ndarray, edge_cut_counts: Optional[np.ndarray]
) -> np.ndarray:
    """Edges cut per trial of a block's outputs; adds per-edge counts if given.

    A function of its own, so that its arrays are freed before the next
    block is drawn.
    """
    cut = np.take(out, u, axis=0)  # 0/1 per edge and trial
    cut ^= np.take(out, v, axis=0)
    if edge_cut_counts is not None:
        edge_cut_counts += cut.sum(axis=1, dtype=np.int64)
    return cut.sum(axis=0)


def monte_carlo(
    g: RegularGraph, alg: AlgorithmSpec, trials: int, seed: int, per_edge: bool = False
) -> TrialStats:
    """Independent trials with sub-seeds (seed, 0), (seed, 1), ...

    Identical (graph, algorithm, trials, seed) give bit-identical TrialStats.
    Trials run in blocks; memory does not grow with the trial count.
    """
    trials = check_integer(trials, 1, math.inf, "trials must be >= 1")
    seed = check_integer(seed, -math.inf, math.inf, "seed must be an integer")
    sizes, rule = _block_rule(g, alg)
    u, v = g.edges.T.copy()
    m = len(u)
    if not m:
        raise ValueError("graph has no edges to measure")
    flagged = bool(g.triangle.any())
    # nothing but per_edge and the triangle split reads the per-edge counts
    edge_cut_counts = np.zeros(m, dtype=np.int64) if per_edge or flagged else None
    total_cut = total_sq = 0  # sums of c and c^2 over trials, c = edges cut
    for draws in _blocks(seed, trials, sizes):
        c = _cut_counts(rule(*draws), u, v, edge_cut_counts)
        total_cut += int(c.sum())
        total_sq += int(c @ c)
    mean = total_cut / (trials * m)
    # squared stderr of the weights c / m (ddof=1) from exact sums, rounded once
    stderr = math.sqrt(
        (trials * total_sq - total_cut**2) / (trials * trials * (trials - 1) * m * m or 1)
    )
    split: list = [None] * 3  # clean mean, flagged mean, flagged fraction
    if flagged:
        for i, mask in enumerate((~g.triangle, g.triangle)):
            if mask.any():
                split[i] = float(edge_cut_counts[mask].sum() / (trials * mask.sum()))
        split[2] = float(g.triangle.sum() / m)
    counts = dict(zip(zip(u.tolist(), v.tolist()), edge_cut_counts.tolist())) if per_edge else None
    return TrialStats(trials, mean, stderr, seed, m, counts, *split)


def empirical_joint_distribution(
    g: RegularGraph, edge: Tuple[int, int], trials: int, seed: int
) -> Dict[Tuple[Neighbourhood, Neighbourhood], int]:
    """Counts of the (view of u, view of v) cells under uniform random cuts.

    Views are taken with respect to the base cut alone (no rule applied):
    side from the node's own bit, like count over its neighbours. Every
    ordered cell is present, impossible ones with count 0; each cell's count
    is binomial with the corresponding neighbourhood-graph weight as success
    probability.
    """
    _require_strict(g, "empirical_joint_distribution")
    trials = check_integer(trials, 1, math.inf, "trials must be >= 1")
    seed = check_integer(seed, -math.inf, math.inf, "seed must be an integer")
    u, v = (check_integer(x, -math.inf, math.inf, "edge endpoints must be integers") for x in edge)
    if not (0 <= u < g.node_count) or v not in g.nbr[u]:
        raise ValueError(f"edge ({u}, {v}) is not in the graph")
    d = g.degree
    views = all_neighbourhoods(d)  # view (side bit s, like l) sits at s * (d + 1) + l
    k = len(views)
    tally = np.zeros(k * k, dtype=np.int64)
    for (c1,) in _blocks(seed, trials, (g.node_count,)):
        view = c1.astype(np.intp) * (d + 1) + like_counts(g.nbr, c1)
        tally += np.bincount(view[u] * k + view[v], minlength=k * k)
    return {(n1, n2): int(c) for (n1, n2), c in zip(product(views, views), tally)}


# ---------------------------------------------------------------------------
# TrialStats emitters: json, csv and text, one format each


def _scalars(stats: TrialStats) -> dict:
    return {f: getattr(stats, f) for f in TrialStats._fields if f != "per_edge"}


def _value(x) -> str:
    """A scalar as csv and text print it: floats to 15 significant digits."""
    return "" if x is None else f"{x:.15g}" if isinstance(x, float) else str(x)


def trial_stats_jsonable(stats: TrialStats) -> dict:
    doc = {k: x for k, x in _scalars(stats).items() if x is not None}
    if stats.per_edge is not None:
        doc["per_edge"] = [
            {"u": u, "v": v, "cut_count": c, "frequency": c / stats.trials}
            for (u, v), c in stats.per_edge.items()
        ]
    return doc


def write_trial_stats_json(fh: TextIO, stats: TrialStats) -> None:
    json.dump(trial_stats_jsonable(stats), fh, indent=2)
    fh.write("\n")


def write_trial_stats_csv(fh: TextIO, stats: TrialStats) -> None:
    """Scalar row first; per-edge counts follow as a second block if present.

    The triangle-split columns are empty for strict graphs so the schema does
    not depend on the input.
    """
    row = _scalars(stats)
    fh.write(",".join(row) + "\n")
    fh.write(",".join(map(_value, row.values())) + "\n")
    if stats.per_edge is not None:
        fh.write("u,v,cut_count,frequency\n")
        for (u, v), c in stats.per_edge.items():
            fh.write(f"{u},{v},{c},{c / stats.trials:.15g}\n")


def write_trial_stats_text(fh: TextIO, stats: TrialStats) -> None:
    """The run's `name=value` pairs on one line, the split's set ones on a second.

    The second line is left out on a strict graph, as JSON leaves the split
    out; `edge u v cut_count frequency` lines follow if per-edge counts are present.
    """
    items = [f"{k}={_value(x)}" for k, x in _scalars(stats).items() if x is not None]
    fh.write(" ".join(items[:5]) + "\n")  # trials to edge_count, always set
    if items[5:]:
        fh.write(" ".join(items[5:]) + "\n")
    if stats.per_edge is not None:
        for (u, v), c in stats.per_edge.items():
            fh.write(f"edge {u} {v} {c} {c / stats.trials:.15g}\n")
