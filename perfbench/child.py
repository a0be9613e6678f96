"""One `localcut` command in a fresh process, timed from inside.

Usage: child.py SPEC_JSON

SPEC_JSON names the source tree, the CLI arguments (none: import only), the
parent's spawn time on the monotonic clock, whether to trace, and where to
write the result. The child imports `localcut.cli` from the source tree,
optionally installs the tracer, calls `cli.main(argv)` and records the exit
code, the import time (spawn to `localcut.cli` imported), the time inside
`cli.main` (stdout flushed), its peak resident set and any trace. Its stdout and
stderr are the command's.
"""

import json
import resource
import sys
import time


def peak_rss_kib() -> int:
    """This process's peak resident set since exec.

    ru_maxrss would also count the parent's peak, which Linux carries across
    the fork and exec that started this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import localcut.cli as cli

    imported_ns = time.monotonic_ns()
    result = {"import_s": (imported_ns - spec["spawn_ns"]) / 1e9}
    rc = 0
    try:
        if spec["argv"] is not None:
            tracer = None
            if spec["trace"]:
                from spans import Tracer  # beside this file, first on sys.path

                tracer = Tracer()
                tracer.install()
            t0 = time.perf_counter_ns()
            try:
                rc = cli.main(spec["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            sys.stdout.flush()
            result["main_s"] = (time.perf_counter_ns() - t0) / 1e9
            if tracer is not None:
                result["trace"] = tracer.snapshot()
    finally:
        result["rc"] = rc
        result["maxrss_mib"] = peak_rss_kib() / 1024
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
