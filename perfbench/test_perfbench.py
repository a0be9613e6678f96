"""Self-test of the benchmark: python3 -m pytest perfbench -q

Smoke-sized passes of every workload must report every metric named in
BENCHMARK.json with its unit, the checks must catch corrupted outputs, the
exact values the checks use must agree with brute force, per-layer counts
must repeat exactly, and without the sources the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 0, bench: Path = BENCH):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_pass_reports_every_end_to_end_metric(workload):
    r = result_of(smoke(workload, 0))
    assert r["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    assert all(v["value"] > 0 for v in r["metrics"].values())
    assert r["failed"] == 0 and r["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_smoke_pass_reports_every_per_layer_metric(workload):
    r = result_of(smoke(workload, 1))
    assert r["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["cli.main.self_s"] > 0
    assert abs(m["trace.self_share"] - 1) < 0.05
    if workload == "montecarlo":
        assert m["sim.make_trial_rng.calls"] == 4 * workloads.SIZES["smoke"]["trials"]
        assert m["sim.bits_drawn"] > 0
    if workload == "exact":
        assert m["cutsearch.wcnf_clauses"] > 0 and m["analysis.appendix.max_precision"] > 0
    if workload == "graphgen":
        assert m["error_rate"] == 0 and m["sim.gen.attempts"] >= 2


def test_per_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        r = result_of(smoke("montecarlo", 1, seed=3))
        counts.append({k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("exact", 0, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# The checks catch corrupted outputs


def captured(argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from localcut import cli; "
         "sys.exit(cli.main(sys.argv[2:]))", str(ROOT / "src"), *argv],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digest_check_catches_one_flipped_digit():
    wl = workloads.build("exact", 0, "smoke")
    cmd = next(c for c in wl.commands if c.name == "sweep_tau")
    out = captured(cmd.argv)
    expected = checks.load_expected()
    key = checks.command_key(cmd.argv)
    assert checks.check_digest(out, key, expected) == []
    i = next(i for i in range(len(out) - 1, 0, -1) if out[i:i + 1].isdigit())
    flipped = out[:i] + str((int(out[i:i + 1]) + 1) % 10).encode() + out[i + 1:]
    assert checks.check_digest(flipped, key, expected)


def test_simulate_check_catches_a_changed_count():
    wl = workloads.build("montecarlo", 0, "smoke")
    cmd = next(c for c in wl.commands if c.name == "sim_bipartite")
    out = captured(cmd.argv)
    expected = checks.load_expected()
    key = checks.command_key(cmd.argv)
    assert checks.check_simulate(out, cmd.argv, key, expected, cmd.degree) == []
    lines = out.decode().splitlines()
    u, v, c, f = lines[3].split(",")
    lines[3] = ",".join([u, v, str(int(c) + 1), f])
    changed = ("\n".join(lines) + "\n").encode()
    assert checks.check_simulate(changed, cmd.argv, key, expected, cmd.degree)


K33 = b"6 9 3\n" + b"".join(f"{u} {v}\n".encode() for u in range(3) for v in range(3, 6))
K4 = b"4 6 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_edge_list_check():
    assert checks.check_edge_list(K33, 6, 3) == []
    assert "triangle" in checks.check_edge_list(K4, 4, 3)[0]
    assert checks.check_edge_list(K33.replace(b"6 9 3", b"6 10 3"), 6, 3)
    assert checks.check_edge_list(K33.replace(b"0 5\n", b"0 4\n"), 6, 3)  # duplicate
    assert checks.check_edge_list(K33, 6, 4)


# ---------------------------------------------------------------------------
# The checks' exact values agree with brute force


def brute_force_value(d: int, rule) -> Fraction:
    """Mean cut fraction of K_{d,d} over every first cut c1.

    `rule(like, d)` gives the probability that a node keeps its c1 bit
    (threshold) or its keep probability (three-cut, where not keeping means
    an independent fresh bit).
    """
    nodes = range(2 * d)
    nbrs = [[v for v in nodes if (v < d) != (u < d)] for u in nodes]
    edges = [(u, v) for u in range(d) for v in range(d, 2 * d)]
    total = Fraction(0)
    for c1 in product((0, 1), repeat=2 * d):
        keep = [rule(sum(c1[w] == c1[u] for w in nbrs[u]), d) for u in nodes]
        for u, v in edges:
            total += rule.cut(c1[u], c1[v], keep[u], keep[v])
    return total / (2 ** (2 * d) * len(edges))


class Threshold:
    def __init__(self, tau):
        self.tau = tau

    def __call__(self, like, d):
        return like < self.tau  # keep below tau, flip at or above

    @staticmethod
    def cut(cu, cv, ku, kv):
        return int((cu if ku else 1 - cu) != (cv if kv else 1 - cv))


class ThreeCut:
    def __call__(self, like, d):
        return Fraction(1) if 2 * like < d else Fraction(1, 2) if 2 * like == d else Fraction(0)

    @staticmethod
    def cut(cu, cv, ku, kv):
        both = ku * kv
        return both * (cu != cv) + (1 - both) / 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_values_match_brute_force(d):
    for tau in range(d + 2):
        assert checks.threshold_value(tau, d) == brute_force_value(d, Threshold(tau))
    assert checks.shearer_value(d) == brute_force_value(d, ThreeCut())
    assert checks.threshold_value(3, 3) == Fraction(11, 16)
