"""Output checks, independent of the code under test.

* Exact outputs are compared byte for byte, by SHA-256, with digests recorded
  at the seed commit (`expected.json`); they are seed-independent.
* `simulate` outputs are checked against this module's own exact value of
  the rule on a strict graph (mean within 5 standard errors), and per-edge
  counts must add up to mean x trials x edge_count exactly. When the command
  and its input match one recorded at the seed commit, the mean and per-edge
  counts must also match exactly (only `stderr` may move, in the last ulp).
* Edge lists are validated with numpy: header against body, simple edges,
  exact d-regularity and no triangles.

Every check returns a list of problems; empty means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SE_TOLERANCE = 5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_key(argv, input_bytes: Optional[bytes] = None) -> str:
    """How an expectation is looked up: the arguments, plus the input read."""
    key = " ".join(argv)
    if input_bytes is not None:
        key += f" <{sha256(input_bytes)[:16]}>"
    return key


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Exact outputs


def check_digest(stdout: bytes, key: str, expected: dict) -> List[str]:
    want = expected["stdout_sha256"].get(key)
    if want is None:
        return [f"no digest recorded for `{key}`"]
    got = sha256(stdout)
    if got != want:
        return [f"stdout of `{key}` has digest {got[:16]}, recorded {want[:16]}"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo outputs


def _binomial_tail(n: int, k: int) -> Fraction:
    """P(Bin(n, 1/2) >= k)."""
    return Fraction(sum(comb(n, i) for i in range(max(k, 0), n + 1)), 2**n)


def threshold_value(tau: int, d: int) -> Fraction:
    """Exact cut probability of an edge under the threshold-tau rule.

    On a triangle-free d-regular graph the endpoints' other d - 1 neighbours
    are disjoint, so each endpoint's agreement count among them is an
    independent Bin(d - 1, 1/2). Endpoints that agree with each other both
    count the other; a node flips once its count reaches tau. Equal bits are
    cut when exactly one endpoint flips, different bits when both or neither
    flip.
    """
    p_same = _binomial_tail(d - 1, tau - 1)  # flips, given the edge agrees
    p_diff = _binomial_tail(d - 1, tau)  # flips, given the edge disagrees
    cut_same = 2 * p_same * (1 - p_same)
    cut_diff = p_diff**2 + (1 - p_diff) ** 2
    return (cut_same + cut_diff) / 2


def optimal_threshold(d: int) -> int:
    """Smallest tau with the largest exact value."""
    values = [threshold_value(tau, d) for tau in range(d + 2)]
    return values.index(max(values))


def shearer_value(d: int) -> Fraction:
    """Exact cut probability of an edge under the three-cut rule.

    A node keeps its first bit below d/2 agreement, takes an independent
    fresh bit above, and each with probability 1/2 at exactly d/2. An edge
    whose endpoints both keep is cut when their first bits differ; otherwise
    it is cut with probability 1/2. With K the keep probability given the
    edge agrees (K1) or disagrees (K0), the value is 1/2 + (K0^2 - K1^2)/4.
    """

    def keep(like_offset: int) -> Fraction:
        total = Fraction(0)
        for x in range(d):
            w = Fraction(comb(d - 1, x), 2 ** (d - 1))
            twice = 2 * (x + like_offset)
            total += w * (1 if twice < d else Fraction(1, 2) if twice == d else 0)
        return total

    k1, k0 = keep(1), keep(0)
    return Fraction(1, 2) + (k0 * k0 - k1 * k1) / 4


def exact_value(argv, degree: int) -> Optional[Fraction]:
    """The simulate command's exact expected cut fraction on a strict graph."""
    args = list(argv)
    alg = args[args.index("--alg") + 1]
    if alg == "shearer":
        return shearer_value(degree)
    if alg == "threshold":
        tau = int(args[args.index("--tau") + 1]) if "--tau" in args else optimal_threshold(degree)
        return threshold_value(tau, degree)
    return None


def parse_simulate(stdout: bytes) -> Tuple[dict, Optional[List[Tuple[int, int, int]]]]:
    """(scalars, per-edge (u, v, count) rows) from JSON or CSV output.

    Scalars keep the printed text of `mean` for exact comparison, and the
    format that printed it.
    """
    text = stdout.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        scalars = {k: doc[k] for k in ("trials", "mean", "stderr", "edge_count")}
        scalars["mean_text"] = repr(float(doc["mean"]))
        scalars["format"] = "{!r}"
        rows = None
        if "per_edge" in doc:
            rows = [(e["u"], e["v"], e["cut_count"]) for e in doc["per_edge"]]
        return scalars, rows
    lines = list(csv.reader(io.StringIO(text)))
    head = dict(zip(lines[0], lines[1]))
    scalars = {
        "trials": int(head["trials"]),
        "mean": float(head["mean"]),
        "stderr": float(head["stderr"]),
        "edge_count": int(head["edge_count"]),
        "mean_text": head["mean"],
        "format": "{:.15g}",
    }
    rows = None
    if len(lines) > 2:
        if lines[2] != ["u", "v", "cut_count", "frequency"]:
            raise ValueError(f"unexpected per-edge header {lines[2]}")
        rows = [(int(u), int(v), int(c)) for u, v, c, _ in lines[3:]]
    return scalars, rows


def per_edge_digest(rows: List[Tuple[int, int, int]]) -> str:
    return sha256("".join(f"{u} {v} {c}\n" for u, v, c in rows).encode())


def check_simulate(
    stdout: bytes, argv, key: str, expected: dict, degree: Optional[int]
) -> List[str]:
    """`degree` is the graph's degree when it is strict, else None."""
    try:
        s, rows = parse_simulate(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable simulate output: {exc}"]
    problems = []
    trials, m = s["trials"], s["edge_count"]
    if trials != int(argv[list(argv).index("--trials") + 1]):
        problems.append(f"trials {trials} differs from the request")
    if degree is not None:
        value = exact_value(argv, degree)
        if value is not None and abs(s["mean"] - float(value)) > SE_TOLERANCE * s["stderr"]:
            problems.append(
                f"mean {s['mean']} is more than {SE_TOLERANCE} standard errors "
                f"({s['stderr']}) from the exact {value} = {float(value):.6f}"
            )
    if rows is not None:
        total = sum(c for _, _, c in rows)
        if len(rows) != m or any(not 0 <= c <= trials for _, _, c in rows):
            problems.append(f"per-edge block has {len(rows)} rows for {m} edges")
        printed = s["format"].format(total / (trials * m))
        if printed != s["mean_text"]:
            problems.append(
                f"per-edge counts sum to {total}, mean {printed}; printed {s['mean_text']}"
            )
    want = expected["simulate"].get(key)
    if want is not None:
        if s["mean_text"] != want["mean"]:
            problems.append(f"mean {s['mean_text']} differs from the recorded {want['mean']}")
        if rows is not None and per_edge_digest(rows) != want["per_edge_sha256"]:
            problems.append("per-edge counts differ from the recorded ones")
    return problems


def simulate_expectation(stdout: bytes) -> Dict[str, str]:
    s, rows = parse_simulate(stdout)
    doc = {"mean": s["mean_text"]}
    if rows is not None:
        doc["per_edge_sha256"] = per_edge_digest(rows)
    return doc


# ---------------------------------------------------------------------------
# Edge lists


def check_edge_list(data: bytes, n_expected: int, d_expected: int) -> List[str]:
    """Header against body, simple edges, exact d-regularity, no triangles."""
    text = data.decode()
    head, _, body = text.partition("\n")
    try:
        n, m, d = (int(x) for x in head.split())
        ends = np.array(body.split(), dtype=np.int64)
    except ValueError as exc:
        return [f"unparseable edge list: {exc}"]
    if (n, d) != (n_expected, d_expected):
        return [f"header declares n={n}, d={d}; asked for n={n_expected}, d={d_expected}"]
    if len(ends) != 2 * m or body.count("\n") != m:
        return [f"header declares {m} edges, body has {body.count(chr(10))} lines"]
    u, v = ends[0::2], ends[1::2]
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        return ["endpoint out of range"]
    if np.any(u == v):
        return ["self-loop"]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if np.unique(lo * n + hi).size != m:
        return ["duplicate edge"]
    degree = np.bincount(ends, minlength=n)
    if np.any(degree != d):
        bad = int(np.flatnonzero(degree != d)[0])
        return [f"node {bad} has degree {int(degree[bad])}, not {d}"]
    # with every degree exactly d, row x of `nbrs` lists x's neighbours
    owners = np.concatenate([u, v])
    others = np.concatenate([v, u])
    nbrs = others[np.argsort(owners, kind="stable")].reshape(n, d)
    shared = (nbrs[u][:, :, None] == nbrs[v][:, None, :]).any(axis=(1, 2))
    if shared.any():
        i = int(np.flatnonzero(shared)[0])
        return [f"edge ({int(u[i])}, {int(v[i])}) lies in a triangle"]
    return []
