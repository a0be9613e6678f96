"""Repeat the benchmark and report how steady it is.

    python3 perfbench/spread.py --workload NAME[,NAME...] [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1] [--same-seed] [--save PATH]

Runs `run.py` once per seed and workload, alternating between the workloads
(seeds first-seed, first-seed + 1, ...; with --same-seed every run uses
first-seed), and prints, per workload and for every metric, the
median and the quartile spread (q3 - q1) / median over the runs, with
`statistics.quantiles(values, n=4)`. With --trace 1 it also requires every
count-valued per-layer metric to repeat exactly across runs of the same
seed, since a count that drifts is a bug in the benchmark, not noise.
--save writes every run's result to PATH as JSON. Exits 1 if any run is
incorrect or a count drifts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# per-layer metrics that must repeat exactly for a fixed seed
COUNT_UNITS = ("count", "bytes")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    # unscaled end-to-end times, to show what the reference scaling removes
    for k, v in json.loads(record)["record"].get("wall", {}).items():
        result["metrics"][f"{k}(wall)"] = {"value": v, "unit": "s"}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--save", type=Path)
    args = p.parse_args(argv)
    names = args.workload.split(",")
    results = {name: [] for name in names}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        for name in names:
            r = one_run(name, seed, args.seconds, args.trace)
            results[name].append(r)
            ok &= r["correct"]
            values = "" if args.trace else " ".join(
                f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
            print(f"{name} run {i} seed={seed} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {values}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(results))
    for name, runs in results.items():
        print(f"{name:42s} {'unit':6s} {'median':>12s} {'spread':>8s}")
        for metric, m in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {metric:40s} {m['unit']:6s} {med:12.6g} {spread:8.3f}")
            if args.trace and args.same_seed and m["unit"] in COUNT_UNITS and len(set(values)) > 1:
                print(f"  count {metric} drifts across runs: {values}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
