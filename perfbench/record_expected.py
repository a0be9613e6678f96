"""Record the reference outputs that `checks.py` compares against.

    python3 perfbench/record_expected.py

Runs every exact and simulate command of every workload once, at workload
seed 0 and at both scales, and writes `expected.json`: the SHA-256 of each
exact command's stdout, and the printed mean and per-edge counts of each
simulate command, keyed by the command and the input it read. Run it only at
the commit whose outputs are the reference; a later commit is checked
against them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run
import workloads


def main() -> int:
    expected = {"stdout_sha256": {}, "simulate": {}}
    work = run.WORK / "record"
    for scale in workloads.SIZES:
        for name in workloads.NAMES:
            wl = workloads.build(name, 0, scale)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if wl.needs_irr:
                workloads.write_irregular_graph(work / "irr.txt", 0)
            for cmd in wl.commands:
                out_path = work / f"{cmd.name}.out"
                with open(out_path, "wb") as out:
                    r = run.spawn(work, cmd.argv, False, out, subprocess.DEVNULL, 600)
                if r["exit"] != 0 or cmd.check == "edge_list":
                    continue
                stdout = out_path.read_bytes()
                if cmd.check == "digest":
                    expected["stdout_sha256"][checks.command_key(cmd.argv)] = checks.sha256(stdout)
                else:
                    data = (work / cmd.reads).read_bytes() if cmd.reads else None
                    key = checks.command_key(cmd.argv, data)
                    expected["simulate"][key] = checks.simulate_expectation(stdout)
                print(f"recorded {scale} {name}/{cmd.name}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
