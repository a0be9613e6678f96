"""Benchmark of the `localcut` CLI: the README's commands, end to end.

    python3 perfbench/run.py --workload exact|montecarlo|graphgen|all \
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]

Each command runs in a fresh child process (`child.py`), one child at a
time, which imports `localcut.cli` from `src/` and calls `cli.main(argv)`.
Commands are run round-robin for `--seconds`: the first round always
completes, after that a command starts only if its previous duration still
fits. Every output is checked (`checks.py`); a command fails if it exits
non-zero or its check fails. Each metric is a trimmed mean (see `_centre`)
over the run's samples of each command, summed over the commands it covers;
end-to-end times are then scaled to a reference machine speed (see
REFERENCE_S).

With `--trace 0` the last line of stdout is the result with the end-to-end
metrics; with `--trace 1` untraced and traced rounds alternate, and the
result holds the per-layer metrics from the spans of `spans.py`. Lines before
it are a human-readable report and a JSON provenance record.

Exit status 2 without a result if there is no `src/localcut` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
import workloads
from spans import EDGES_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The whole run, every child included, ends within this many seconds.
RUN_LIMIT_S = 170

# The speed of this machine drifts by up to 1.5x over minutes (other tenants
# share its cores), far more than the end-to-end bounds allow. So the parent
# times a fixed reference workload before every command, and the end-to-end
# times are scaled to a machine on which that reference takes REFERENCE_S:
# reported = measured x REFERENCE_S / _centre(reference times in the run).
# Raw wall times are kept in the record. REFERENCE_S is about the reference's
# time on a 2-vCPU Intel Xeon with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.09

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics read from spans: (span, field) with field one of
# calls / s (inclusive) / self_s.
SPAN_METRICS = [
    ("sim.make_trial_rng", ("calls", "s")),
    ("sim.draw_bits", ("calls", "s")),
    ("sim.rule", ("calls", "s")),
    ("sim.like_counts", ("calls", "s")),
    ("sim.monte_carlo", ("calls", "self_s")),
    ("sim.random_triangle_free", ("s",)),
    ("sim.random_bipartite_regular", ("s",)),
    ("sim.from_edges", ("calls", "s")),
    (EDGES_SPAN, ("calls", "s")),
    ("sim.read_edge_list", ("s",)),
    ("sim.write_edge_list", ("s",)),
    ("sim.emit", ("s",)),
    ("analysis.optimal_taus", ("calls", "self_s")),
    ("analysis.binomial_row", ("calls", "s")),
    ("analysis.alpha_closed_form", ("calls", "s")),
    ("analysis.alpha_sweep", ("calls", "self_s")),
    ("analysis.optimal_tau", ("s",)),
    ("analysis.verify_theorem_bound", ("s",)),
    ("analysis.verify_appendix_estimates", ("self_s",)),
    ("analysis.emit", ("s", "self_s")),
    ("cutsearch.evaluate_cut", ("calls", "s")),
    ("cutsearch.threshold_assignment", ("calls", "s")),
    ("cutsearch.brute_force_max_cut", ("s",)),
    ("cutsearch.matching_threshold", ("s",)),
    ("cutsearch.export_wcnf", ("s",)),
    ("cutsearch.format_wcnf", ("s",)),
    ("ngraph.build_ngraph", ("calls", "s")),
    ("intervals.pi_enclosure", ("calls", "s")),
    ("intervals.exp_enclosure", ("calls", "s")),
    ("intervals.sqrt_enclosure", ("calls", "s")),
    ("cli.main", ("self_s",)),
]
COUNTER_METRICS = {
    "sim.bits_drawn": "count",
    "sim.gen.attempts": "count",
    "cutsearch.wcnf_clauses": "count",
}
# Per-layer metrics computed from the run as a whole.
RUN_METRICS = {
    "sim.gen.accept_ratio": "ratio",
    "sim.edge_list.bytes": "bytes",
    "analysis.appendix.max_precision": "count",
    "cli.import_s": "s",
    "error_rate": "ratio",
    "trace.overhead": "ratio",
    "trace.self_share": "ratio",
}
# The named end-to-end command groups of every workload, reported per layer.
GROUPS = [
    "sweep_opt_s", "sweep_tau_s", "ngraph_io_s", "certify_s",
    "sim_threshold_s", "sim_shearer_s", "sim_virtual_s", "gen_s", "load_sim_s",
]


def per_layer_units() -> Dict[str, str]:
    units = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update(COUNTER_METRICS)
    units.update(RUN_METRICS)
    units.update({f"cmd.{g}": "s" for g in GROUPS})
    return units


# ---------------------------------------------------------------------------
# Running one command


def reference_work() -> float:
    """Seconds for a fixed mix of the kinds of work the commands do.

    Big-integer and Fraction arithmetic (the exact analysis), tuple and set
    building (graph construction), many small numpy calls on a Philox
    stream (per-trial Monte Carlo) and a dict of 150k scattered keys (the
    memory traffic of large graphs). Without the dict the reference tracks
    the commands' speed less well: the quartile spread of scaled run_s over
    six seeds was about 0.045 instead of 0.03.
    """
    t0 = time.perf_counter()
    row = [1]
    for i in range(800):
        row.append(row[-1] * (800 - i) // (i + 1))
    sum(Fraction(x, 1 << 800) for x in row[::3])
    for _ in range(4):
        {(i, (i * 7919) % 10007) for i in range(20_000)}
    gen = np.random.Generator(np.random.Philox(key=[1, 2]))
    a = np.arange(64)
    for _ in range(3000):
        (a[gen.integers(0, 2, size=64, dtype=np.uint8).astype(bool)] > 3).sum()
    d = {}
    for i in range(150_000):
        d[(i * 2654435761) % 1_000_003] = i
    sum(d.values())
    return time.perf_counter() - t0


class Sample:
    """What one run of one command gave."""

    def __init__(self, cmd: workloads.Command, traced: bool):
        self.cmd = cmd
        self.traced = traced
        self.rc: Optional[int] = None
        self.main_s: Optional[float] = None
        self.import_s: Optional[float] = None
        self.rss_mib: Optional[float] = None
        self.trace: Optional[dict] = None
        self.wall_s = 0.0
        self.problems: List[str] = []
        self.exhausted = False  # the generator's documented loud failure
        self.io_bytes = 0
        self.max_precision = 0

    @property
    def failed(self) -> bool:
        return self.exhausted or bool(self.problems)


def spawn(work: Path, argv, trace: bool, stdout, stderr, timeout: float) -> dict:
    """Run child.py on `argv` (None: import only); its result record."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": None if argv is None else list(argv),
        "trace": trace,
        "result": str(result_path),
        "spawn_ns": time.monotonic_ns(),
    }
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        cwd=work, stdout=stdout, stderr=stderr, timeout=timeout,
    )
    if not result_path.exists():
        raise RuntimeError(f"child exited {proc.returncode} without a result")
    result = json.loads(result_path.read_text())
    result["exit"] = proc.returncode
    return result


def run_command(
    cmd: workloads.Command, work: Path, traced: bool, expected: dict, deadline: float
) -> Sample:
    s = Sample(cmd, traced)
    out_path, err_path = work / f"{cmd.name}.out", work / f"{cmd.name}.err"
    t0 = time.monotonic()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            r = spawn(work, cmd.argv, traced, out, err, max(1.0, deadline - t0))
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        s.problems.append(f"{cmd.name}: {exc}")
        s.wall_s = time.monotonic() - t0
        return s
    s.rc, s.main_s, s.import_s = r["exit"], r.get("main_s"), r["import_s"]
    s.rss_mib, s.trace = r["maxrss_mib"], r.get("trace")
    stderr = err_path.read_bytes()
    if s.rc != 0:
        if cmd.may_exhaust and s.rc == 1 and b"rejection budget exhausted" in stderr:
            s.exhausted = True
        else:
            s.problems.append(f"{cmd.name} exited {s.rc}: {stderr.decode()[-500:]}")
    else:
        s.problems += check_output(s, work, expected)
    s.wall_s = time.monotonic() - t0
    return s


def check_output(s: Sample, work: Path, expected: dict) -> List[str]:
    cmd = s.cmd
    stdout = (work / f"{cmd.name}.out").read_bytes()
    if cmd.check == "digest":
        if cmd.argv[0] == "verify" and "--appendix" in cmd.argv:
            s.max_precision = max(c["precision"] for c in json.loads(stdout)["checks"])
        return checks.check_digest(stdout, checks.command_key(cmd.argv), expected)
    if cmd.check == "simulate":
        data = (work / cmd.reads).read_bytes() if cmd.reads else None
        s.io_bytes = len(data) if data is not None else 0
        key = checks.command_key(cmd.argv, data)
        return checks.check_simulate(stdout, cmd.argv, key, expected, cmd.degree)
    if cmd.check == "edge_list":
        data = (work / cmd.out).read_bytes() if cmd.out else stdout
        s.io_bytes = len(data)
        return checks.check_edge_list(data, *cmd.graph)
    raise ValueError(f"unknown check {cmd.check!r}")


# ---------------------------------------------------------------------------
# One run of a workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    wl = workloads.build(name, seed, scale)
    expected = checks.load_expected()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    limit = time.monotonic() + RUN_LIMIT_S
    # Warm-up: compile bytecode and load shared libraries before timing.
    spawn(work, None, False, subprocess.DEVNULL, subprocess.DEVNULL, 60)

    samples: List[Sample] = []
    setup_s: List[float] = []
    reference_s: List[float] = []
    last_wall: Dict[str, float] = {}
    deadline = time.monotonic() + seconds
    rounds_required = 2 if trace else 1
    round_no = 0
    stop = False
    while not stop:
        traced = trace and round_no % 2 == 1
        if wl.needs_irr:
            t0 = time.perf_counter()
            workloads.write_irregular_graph(work / "irr.txt", seed)
            setup_s.append(time.perf_counter() - t0)
        for cmd in wl.commands:
            now = time.monotonic()
            if round_no >= rounds_required and now + last_wall[cmd.name] > deadline:
                stop = True
                break
            reference_s.append(reference_work())
            s = run_command(cmd, work, traced, expected, limit)
            last_wall[cmd.name] = s.wall_s
            samples.append(s)
        round_no += 1
    shutil.rmtree(work, ignore_errors=True)
    return summarise(wl, seed, trace, scale, samples, setup_s, reference_s)


def _centre(xs: List[float]) -> float:
    """Mean of the samples, without the lowest and the highest of five or more.

    On a shared host one command's time is bimodal: a process runs either at
    full speed or about a third slower, depending on what shares its core. A
    median jumps between the two modes as their mix shifts from run to run; a
    mean moves with the mix smoothly, and the reference scaling then cancels
    it. Dropping the two extremes keeps a single outlier out.
    """
    if len(xs) >= 5:
        xs = sorted(xs)[1:-1]
    return statistics.fmean(xs) if xs else 0.0


def summarise(wl, seed, trace, scale, samples: List[Sample], setup_s, reference_s) -> dict:
    by_cmd = {c.name: [s for s in samples if s.cmd.name == c.name] for c in wl.commands}
    plain = {k: [s for s in v if not s.traced] for k, v in by_cmd.items()}

    def centre(group: Dict[str, List[Sample]], attr: str, names=None) -> float:
        names = names or group.keys()
        return sum(_centre([getattr(s, attr) for s in group[n] if getattr(s, attr) is not None])
                   for n in names)

    problems = [p for s in samples for p in s.problems]
    attempted, failed = len(samples), sum(s.failed for s in samples)
    # metric -> (unit, samples), described in the record
    stats = {f"cmd.{n}": ("s", [s.main_s for s in ss if s.main_s is not None])
             for n, ss in plain.items()}
    stats["setup_s.inputs"] = ("s", setup_s)
    stats["reference"] = ("s", reference_s)
    stats.update({f"import.{n}": ("s", [s.import_s for s in ss if s.import_s is not None])
                  for n, ss in plain.items()})
    import_s, run_s = centre(plain, "import_s"), centre(plain, "main_s")
    wall = {"setup_s": _centre(setup_s) + import_s, "run_s": run_s}
    scale_to_reference = REFERENCE_S / _centre(reference_s)
    e2e = {k: v * scale_to_reference for k, v in wall.items()}
    e2e["peak_rss_mb"] = max(_centre([s.rss_mib for s in ss if s.rss_mib]) for ss in plain.values())
    groups = {g: centre(plain, "main_s", names) * scale_to_reference
              for g, names in wl.groups.items()}
    timed = plain
    if trace:
        metrics, count_problems = per_layer(by_cmd, import_s, run_s, groups, failed / attempted)
        problems += count_problems
        units = per_layer_units()
        timed = {k: [s for s in v if s.traced] for k, v in by_cmd.items()}
    else:
        metrics, units = e2e, END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "provenance": provenance(),
        # fewest samples behind any command's time
        "n": min(len([s for s in ss if s.main_s is not None]) for ss in timed.values()),
        "end_to_end": e2e,
        "wall": wall,
        "groups": groups,
        "error_rate": {"failed": failed, "attempted": attempted},
        "samples": {k: describe(v) | {"unit": u} for k, (u, v) in stats.items()},
        "problems": problems[:20],
    }
    return {"result": result, "record": record}


def per_layer(by_cmd, import_s, plain_run, groups, error_rate):
    """Per-layer metrics from the traced samples, and any count that drifted."""
    problems = []
    metrics: Dict[str, float] = {}
    traced = {k: [s for s in v if s.traced and s.trace] for k, v in by_cmd.items()}
    for n, ss in traced.items():
        # counts must repeat exactly from one traced run of a command to the next
        shapes = {json.dumps([{k: v[0] for k, v in s.trace["spans"].items()},
                              s.trace["counters"]], sort_keys=True) for s in ss}
        if len(shapes) > 1:
            problems.append(f"per-layer counts of {n} differ between repeats")

    def span_field(span: str, i: int) -> float:
        """Calls (i = 0) from any repeat; times as `_centre` over repeats."""
        total = 0 if i == 0 else 0.0
        for ss in traced.values():
            values = [s.trace["spans"].get(span, [0, 0.0, 0.0])[i] for s in ss]
            if values:
                total += values[0] if i == 0 else _centre(values)
        return total

    for span, fields in SPAN_METRICS:
        for f in fields:
            metrics[f"{span}.{f}"] = span_field(span, ("calls", "s", "self_s").index(f))

    def counter(key: str) -> int:
        return sum(ss[0].trace["counters"][key] for ss in traced.values() if ss)

    for key in COUNTER_METRICS:
        metrics[key] = counter(key)
    attempts = counter("sim.gen.attempts")
    metrics["sim.gen.accept_ratio"] = counter("sim.gen.successes") / attempts if attempts else 0.0
    first = {n: ss[0] for n, ss in by_cmd.items() if ss}
    metrics["sim.edge_list.bytes"] = sum(s.io_bytes for s in first.values())
    metrics["analysis.appendix.max_precision"] = max(s.max_precision for s in first.values())
    metrics["cli.import_s"] = import_s
    metrics["error_rate"] = error_rate
    traced_run = sum(_centre([s.main_s for s in ss]) for ss in traced.values() if ss)
    metrics["trace.overhead"] = traced_run / plain_run if plain_run else 0.0
    self_total = sum(
        _centre([sum(v[2] for v in s.trace["spans"].values()) for s in ss])
        for ss in traced.values() if ss
    )
    metrics["trace.self_share"] = self_total / traced_run if traced_run else 0.0
    for g in GROUPS:
        metrics[f"cmd.{g}"] = groups.get(g, 0.0)
    return metrics, problems


def describe(values: List[float]) -> dict:
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "centre": _centre(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# Provenance and report


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "localcut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report(out: dict) -> str:
    rec, res = out["record"], out["result"]
    p = rec["provenance"]
    lines = [
        f"# workload={rec['workload']} seed={rec['seed']} scale={rec['scale']} "
        f"trace={int(rec['trace'])} commit={p['git_commit']} python={p['python']} "
        f"numpy={p['numpy']} nproc={p['nproc']} cpu={p['cpu']!r}",
        f"# failed {res['failed']} of {res['attempted']} commands; correct={res['correct']}",
        f"# times scaled to the reference speed; wall: "
        + " ".join(f"{k}={v:.4f}" for k, v in rec["wall"].items()),
    ]
    for problem in rec["problems"]:
        lines.append(f"# problem: {problem}")
    n = rec["n"]
    for k, v in res["metrics"].items():
        lines.append(f"{k:42s} {v['value']:14.6g} {v['unit']:6s} n={n}")
    if not rec["trace"]:
        for g, v in rec["groups"].items():
            lines.append(f"{g:42s} {v:14.6g} {'s':6s} n={n}")
        rate = res["failed"] / res["attempted"]
        lines.append(f"{'error_rate':42s} {rate:14.6g} {'ratio':6s} "
                     f"({res['failed']} of {res['attempted']})")
    for k, s in rec["samples"].items():
        if s["n"]:
            lines.append(
                f"  {k:40s} n={s['n']:<3d} centre={s['centre']:.4f} median={s['median']:.4f} "
                f"q1={s['q1']:.4f} "
                f"q3={s['q3']:.4f} min={s['min']:.4f} max={s['max']:.4f} {s['unit']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "localcut" / "cli.py").is_file():
        print(f"error: no localcut sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        print(report(out))
        print(json.dumps({"record": out["record"]}))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
