"""Command-line surface for the cut-synthesis and simulation pipelines.

Seven subcommands cover the full workflow: build the weighted neighbourhood
graph, search it for maximum cuts, export it as a MaxSAT instance, sweep
threshold performance across degrees, verify the lower-bound inequalities,
run the distributed algorithms on concrete graphs, and generate test graphs.

Conventions shared by every subcommand:
  * the default seed is the constant 0xC0FFEE; pass --entropy for a fresh
    OS-entropy seed (printed to stderr so the run can be reproduced);
    gen-graph refuses --seed and --entropy for a family that reads no seed;
  * no environment variables are read;
  * like counts use the equality convention: a neighbour u of v is
    like-minded when c(u) == c(v);
  * exit codes: 0 success, 1 a checked inequality failed or a sampling
    budget was exhausted, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional

from . import analysis, cutsearch, ngraph, sim

DEFAULT_SEED = 0xC0FFEE
DEFAULT_TRIALS = 10_000
DEFAULT_DMAX = 3000

# the graph options of simulate and gen-graph
GRAPH_OPTIONS = {"--n": "n", "--d": "d", "--in": "infile"}


def _read_graph(args: argparse.Namespace, seed: int) -> sim.RegularGraph:
    with open(args.infile) as fh:
        return sim.read_edge_list(fh)


# each --family: the graph options it reads, whether its builder reads the
# seed, and its builder (args, seed) -> graph. Builders and specs look `sim`
# up when called, so they run whatever a tracer or a test has put in its place.
FAMILIES = {
    "kdd": (("--d",), False, lambda a, seed: sim.complete_bipartite(a.d)),
    "cycle": (("--n",), False, lambda a, seed: sim.cycle_graph(a.n)),
    "hypercube": (("--d",), False, lambda a, seed: sim.hypercube_graph(a.d)),
    "petersen": ((), False, lambda a, seed: sim.petersen_graph()),
    "bipartite": (
        ("--n", "--d"), True, lambda a, seed: sim.random_bipartite_regular(a.n, a.d, seed)
    ),
    "triangle-free": (
        ("--n", "--d"), True, lambda a, seed: sim.random_triangle_free(a.n, a.d, seed)
    ),
    "file": (("--in",), False, _read_graph),
}

# each --alg: whether it reads --tau, and its spec from tau
ALGORITHMS = {
    "uniform": (False, lambda tau: sim.UniformCut()),
    "threshold": (True, lambda tau: sim.ThresholdCut(tau)),
    "shearer": (False, lambda tau: sim.ShearerCut()),
    "virtual": (True, lambda tau: sim.VirtualNeighbourCut(tau)),
}


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_degree_range(text: str) -> List[int]:
    """`a` or `a..b` (inclusive), degrees >= 2."""
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise ValueError(f"expected 'a' or 'a..b', got {text!r}") from None
    ngraph.check_degree(lo)
    if hi < lo:
        raise ValueError(f"empty degree range {text!r}")
    return list(range(lo, hi + 1))


@contextmanager
def _output(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _seed(text: str) -> int:
    """An integer `--seed` in 0..2^64-1, the range seeds are keyed over."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in 0..2^64-1, got {text!r}"
        ) from None
    if 0 <= seed <= sim.UINT64_MASK:
        return seed
    raise argparse.ArgumentTypeError(f"seed {seed} is outside 0..2^64-1")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build_ngraph(args: argparse.Namespace) -> int:
    g = ngraph.build_ngraph(args.d)
    with _output(args.out) as fh:  # one n1 row at a time: the document is never held whole
        if args.format == "json":
            fh.writelines(ngraph.ngraph_json_chunks(g))
        else:
            ngraph.format_ngraph_table(fh, g, args.format)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    degrees = _parse_degree_range(args.d)
    over = [d for d in degrees if d > cutsearch.BRUTE_FORCE_MAX_DEGREE]
    if over:
        raise ValueError(
            f"exhaustive search is capped at d = {cutsearch.BRUTE_FORCE_MAX_DEGREE} "
            f"(asked for d = {over[0]}); use the export-wcnf subcommand and an "
            "external MaxSAT solver"
        )
    rows = []
    for d in degrees:
        g = ngraph.build_ngraph(d)
        labels, weight = cutsearch.brute_force_max_cut(g)
        rows.append((d, cutsearch.matching_threshold(g, labels), weight))
    with _output(args.out) as fh:
        if args.format == "csv":
            fh.write("d,tau,weight_num,weight_den,weight_float\n")
            for d, tau, w in rows:
                tau_s = "" if tau is None else str(tau)
                fh.write(
                    f"{d},{tau_s},{w.numerator},{w.denominator},{float(w):.15g}\n"
                )
        elif args.format == "json":
            json.dump(
                [
                    {
                        "d": d,
                        "tau": tau,
                        "weight": _rational(w),
                        "weight_float": float(w),
                    }
                    for d, tau, w in rows
                ],
                fh,
                indent=2,
            )
            fh.write("\n")
        else:
            fh.write("d tau weight weight_float\n")
            for d, tau, w in rows:
                tau_s = "-" if tau is None else str(tau)
                fh.write(f"{d} {tau_s} {_rational(w)} {float(w):.15g}\n")
    return 0


def cmd_export_wcnf(args: argparse.Namespace) -> int:
    doc = cutsearch.export_wcnf(ngraph.build_ngraph(args.d))
    with _output(args.out) as fh:
        cutsearch.format_wcnf(fh, doc)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    degrees = _parse_degree_range(args.d)
    with _output(args.out) as fh:
        if args.opt:
            ties = analysis.write_tau_opt_csv(fh, degrees)
            for d, taus in ties:
                print(
                    f"warning: d={d} has tied optimal thresholds {taus}; "
                    "reporting the smallest",
                    file=sys.stderr,
                )
        else:
            analysis.write_alpha_sweep_csv(fh, degrees)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.bound == (args.appendix is not None):
        raise ValueError("pass exactly one of --bound or --appendix")
    if args.appendix is not None and args.dmax is not None:
        raise ValueError("--dmax does not apply to --appendix")
    # the report is computed before --out is opened, so a usage error leaves
    # an existing file as it was
    if args.bound:
        report = analysis.verify_theorem_bound(DEFAULT_DMAX if args.dmax is None else args.dmax)
        write, ok = analysis.bound_report_json, report.all_pass
    else:
        try:
            ns = [int(x) for x in args.appendix.split(",") if x]
        except ValueError:
            raise ValueError(f"expected comma-separated integers, got {args.appendix!r}") from None
        report = analysis.verify_appendix_estimates(ns)
        write, ok = analysis.appendix_report_json, report.all_hold and report.conclusive
    with _output(args.out) as fh:
        write(fh, report)
    return 0 if ok else 1


def _build_graph(args: argparse.Namespace, tau: Optional[int]) -> tuple[sim.RegularGraph, int]:
    """The graph `--family` names, and the run's seed.

    `--n`, `--d` or `--in` given to a family that does not read it, left out
    by one that does, or a `tau` outside [0, `--d` + 1] is a usage error.
    """
    family = args.family
    reads, _, build = FAMILIES[family]
    given = [flag for flag, dest in GRAPH_OPTIONS.items() if getattr(args, dest, None) is not None]
    stray = [flag for flag in given if flag not in reads]
    if stray:
        raise ValueError(f"{stray[0]} does not apply to --family {family}")
    missing = [flag for flag in reads if flag not in given]
    if missing:
        raise ValueError(f"family {family} needs {' and '.join(missing)}")
    if tau is not None and "--d" in reads and args.d >= 1:
        ngraph.check_tau(tau, args.d)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.entropy:  # 8 bytes: the whole 0..2^64-1 range, without loading OpenSSL
        seed = int.from_bytes(os.urandom(8), "little")
        print(f"entropy seed: {seed}", file=sys.stderr)
    return build(args, seed), seed


def cmd_simulate(args: argparse.Namespace) -> int:
    # checked before the graph is built, so a bad count or tau is a usage error
    ngraph.check_integer(args.trials, 1, math.inf, "trials must be >= 1")
    reads_tau, spec = ALGORITHMS[args.alg]
    if args.tau is not None and not reads_tau:
        raise ValueError(f"--tau does not apply to --alg {args.alg}")
    g, seed = _build_graph(args, args.tau)
    tau = args.tau
    if reads_tau and tau is None:
        tau = analysis.optimal_tau(g.degree)[0]
        print(f"using optimal tau = {tau} for d = {g.degree}", file=sys.stderr)
    stats = sim.monte_carlo(g, spec(tau), args.trials, seed, per_edge=args.per_edge)
    with _output(args.out) as fh:
        # sim.write_trial_stats_json, _csv or _text
        getattr(sim, f"write_trial_stats_{args.format}")(fh, stats)
    return 0


def cmd_gen_graph(args: argparse.Namespace) -> int:
    # only the graph reads the seed here, so a family that ignores it refuses it
    if not FAMILIES[args.family][1] and (args.seed is not None or args.entropy):
        option = "--entropy" if args.entropy else "--seed"
        raise ValueError(f"{option} does not apply to --family {args.family}")
    g, _ = _build_graph(args, None)
    with _output(args.out) as fh:
        sim.write_edge_list(fh, g)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcut",
        description=(
            "Synthesise, analyse, and simulate one-round distributed cut "
            "algorithms on triangle-free regular graphs."
        ),
        epilog=(
            "Like counts everywhere use the equality convention (a neighbour "
            "is like-minded when it holds the same side). The default seed "
            f"is {DEFAULT_SEED:#x}; no environment variables are read. "
            "Exit codes: 0 ok, 1 verification/sampling failure, 2 usage."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")

    def add_seed(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()  # --seed with --entropy is a usage error
        group.add_argument(  # None when not given, so gen-graph can refuse it
            "--seed",
            type=_seed,
            help=f"master seed in 0..2^64-1 (default {DEFAULT_SEED:#x})",
        )
        group.add_argument(
            "--entropy",
            action="store_true",
            help="draw the seed from OS entropy and print it to stderr",
        )

    p = sub.add_parser("build-ngraph", help="emit the weighted neighbourhood graph for degree d")
    p.add_argument("--d", type=int, required=True, help="degree, at least 2")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_out(p)
    p.set_defaults(func=cmd_build_ngraph)

    p = sub.add_parser(
        "solve",
        help=(
            "exhaustive maximum cut of the neighbourhood graph "
            f"(d up to {cutsearch.BRUTE_FORCE_MAX_DEGREE})"
        ),
    )
    p.add_argument("--d", required=True, help="degree or inclusive range a..b")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "export-wcnf",
        help="emit the neighbourhood max-cut instance in weighted DIMACS CNF",
    )
    p.add_argument("--d", type=int, required=True, help="degree, at least 2")
    add_out(p)
    p.set_defaults(func=cmd_export_wcnf)

    p = sub.add_parser(
        "sweep",
        help="CSV of threshold performance: per-tau values, or per-degree optima",
    )
    p.add_argument("--d", required=True, help="degree or inclusive range a..b")
    p.add_argument(
        "--opt",
        action="store_true",
        help="one row per degree with the optimal and formula thresholds",
    )
    add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="check the proven lower-bound inequalities, JSON report")
    p.add_argument(
        "--bound",
        action="store_true",
        help="integer comparison of alpha(tau(d), d) against 1/2 + 9/(32 sqrt(d))",
    )
    # None marks --dmax as unset, so cmd_verify can reject it with --appendix
    p.add_argument("--dmax", type=int, help="largest degree checked")
    p.add_argument(
        "--appendix",
        metavar="N_LIST",
        help="certified tail estimates at these comma-separated n (each >= 1500)",
    )
    add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo run of a one-round algorithm on a graph")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--d", type=int, help="degree / dimension where the family needs it")
    p.add_argument("--n", type=int, help="size parameter where the family needs it")
    p.add_argument("--in", dest="infile", metavar="PATH", help="edge list for --family file")
    p.add_argument("--alg", required=True, choices=tuple(ALGORITHMS))
    p.add_argument(
        "--tau",
        type=int,
        help=(
            "threshold for --alg threshold or virtual; defaults to the exact "
            "optimum for the graph's degree"
        ),
    )
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    add_seed(p)
    p.add_argument("--per-edge", action="store_true", help="include per-edge cut counts")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-graph", help="generate a graph and emit its edge list")
    p.add_argument("--family", required=True, choices=[f for f in FAMILIES if f != "file"])
    p.add_argument("--d", type=int, help="degree / dimension where the family needs it")
    p.add_argument("--n", type=int, help="size parameter where the family needs it")
    add_seed(p)
    add_out(p)
    p.set_defaults(func=cmd_gen_graph)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
