"""The benchmark's workloads: the README's `localcut` commands, by name.

A workload is a list of commands. Each command is one fresh `localcut`
invocation; the end-to-end groups sum the times of named commands, and the
output check to apply is named on the command.

One workload seed drives the inputs. It maps onto the README's defaults by
offset, so seed 0 reproduces the README exactly:

    S1 = 42 + seed,  S2 = 0xC0FFEE + seed.

The graph generators reject and resample, so their run time (and, for tight
parameters, whether they succeed at all) is a geometric random variable of
their seed. Commands that generate a random graph therefore keep the
README's seed (GEN_SEED = 7 for gen-graph, 0xC0FFEE for the bipartite
simulate) whatever the workload seed is; the workload seed still moves every
other trial stream and the set-up's irregular graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

S1_BASE = 42
S2_BASE = 0xC0FFEE
GEN_SEED = 7

IRR_NODES = 30
IRR_DEGREE = 4


@dataclass(frozen=True)
class Command:
    """One `localcut` invocation and how to check what it prints.

    `check` names the output check: "digest" (stdout digest recorded at the
    seed commit), "simulate", or "edge_list". `out` is the file a command
    writes with --out (relative to the work directory), `reads` an edge list
    it reads with --in. `may_exhaust` marks the generator commands whose
    documented loud failure (exit 1, rejection budget exhausted) counts as a
    failed operation rather than an incorrect output.
    """

    name: str
    argv: Tuple[str, ...]
    check: str
    out: Optional[str] = None
    reads: Optional[str] = None
    may_exhaust: bool = False
    # simulate: degree of the strict graph, where the exact value applies
    degree: Optional[int] = None
    # edge_list: expected header (n, d) of a generated graph
    graph: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[Command, ...]
    # end-to-end group name -> command names whose times it sums
    groups: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    # whether set-up writes the irregular graph
    needs_irr: bool = False


def seeds(seed: int) -> Tuple[int, int]:
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    return S1_BASE + seed, S2_BASE + seed


# Sizes per scale. "full" is what the benchmark measures; "smoke" keeps every
# command and every check but runs in a few seconds, for the self-test.
# "full" is smaller than the README's examples (sweep --opt to 800, not
# 2000; d = 60, not 120; 10k trials, not 100k; 20k-node graphs, not 200k):
# one command's time moves by up to a third from one process to the next on
# a shared host, so a run times every command several times and reports
# medians, and a round of every workload takes a few seconds. The README's
# gen-graph example (triangle-free, n = 1000, d = 4, seed 7) is left out: it
# exhausts its rejection budget, and a workload holds no failing command.
SIZES = {
    "full": dict(
        opt_dmax=800, sweep_d=60, ngraph_d=60, solve_dmax=12,
        bound_dmax=3000, appendix="1500,2000,3000", trials=10_000,
        bip_n=100, tf_n=20_000, gen_bip_n=10_000, load_trials=200,
    ),
    "smoke": dict(
        opt_dmax=200, sweep_d=20, ngraph_d=20, solve_dmax=8,
        bound_dmax=300, appendix="1500", trials=2_000,
        bip_n=100, tf_n=2_000, gen_bip_n=1_000, load_trials=20,
    ),
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name` at `scale`, with its seeds derived from `seed`."""
    z = SIZES[scale]
    s1, s2 = seeds(seed)
    trials = str(z["trials"])
    if name == "exact":
        cmds = (
            Command("solve", ("solve", "--d", f"2..{z['solve_dmax']}"), "digest"),
            Command("sweep_opt", ("sweep", "--d", f"2..{z['opt_dmax']}", "--opt"), "digest"),
            Command("sweep_tau", ("sweep", "--d", str(z["sweep_d"])), "digest"),
            Command("verify_bound", ("verify", "--bound", "--dmax", str(z["bound_dmax"])), "digest"),
            Command("verify_appendix", ("verify", "--appendix", z["appendix"]), "digest"),
            Command(
                "build_ngraph",
                ("build-ngraph", "--d", str(z["ngraph_d"]), "--format", "json"),
                "digest",
            ),
            Command("export_wcnf", ("export-wcnf", "--d", str(z["ngraph_d"])), "digest"),
        )
        groups = {
            "sweep_opt_s": ("sweep_opt",),
            "sweep_tau_s": ("sweep_tau",),
            "ngraph_io_s": ("build_ngraph", "export_wcnf"),
            "certify_s": ("solve", "verify_bound", "verify_appendix"),
        }
        return Workload(name, cmds, groups)
    if name == "montecarlo":
        cmds = (
            Command(
                "sim_kdd",
                ("simulate", "--family", "kdd", "--d", "3", "--alg", "threshold",
                 "--trials", trials, "--seed", str(s1)),
                "simulate", degree=3,
            ),
            Command(
                "sim_petersen",
                ("simulate", "--family", "petersen", "--alg", "shearer",
                 "--trials", trials, "--seed", str(s2)),
                "simulate", degree=3,
            ),
            Command(
                "sim_bipartite",
                ("simulate", "--family", "bipartite", "--n", str(z["bip_n"]), "--d", "4",
                 "--alg", "threshold", "--tau", "3", "--trials", trials, "--per-edge",
                 "--format", "csv", "--seed", str(S2_BASE)),
                "simulate", degree=4,
            ),
            Command(
                "sim_virtual",
                ("simulate", "--family", "file", "--in", "irr.txt", "--alg", "virtual",
                 "--trials", trials, "--per-edge", "--seed", str(s2)),
                "simulate", reads="irr.txt",
            ),
        )
        groups = {
            "sim_threshold_s": ("sim_kdd", "sim_bipartite"),
            "sim_shearer_s": ("sim_petersen",),
            "sim_virtual_s": ("sim_virtual",),
        }
        return Workload(name, cmds, groups, needs_irr=True)
    if name == "graphgen":
        gs = str(GEN_SEED)
        cmds = (
            Command(
                "gen_triangle_free",
                ("gen-graph", "--family", "triangle-free", "--n", str(z["tf_n"]),
                 "--d", "3", "--seed", gs, "--out", "tf.txt"),
                "edge_list", out="tf.txt", may_exhaust=True, graph=(z["tf_n"], 3),
            ),
            Command(
                "gen_bipartite",
                ("gen-graph", "--family", "bipartite", "--n", str(z["gen_bip_n"]),
                 "--d", "3", "--seed", gs),
                "edge_list", may_exhaust=True, graph=(2 * z["gen_bip_n"], 3),
            ),
            Command(
                "load_sim",
                ("simulate", "--family", "file", "--in", "tf.txt", "--alg", "threshold",
                 "--trials", str(z["load_trials"]), "--seed", str(s2)),
                "simulate", reads="tf.txt", degree=3,
            ),
        )
        groups = {
            "gen_s": ("gen_triangle_free", "gen_bipartite"),
            "load_sim_s": ("load_sim",),
        }
        return Workload(name, cmds, groups)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


NAMES = ("exact", "montecarlo", "graphgen")


def irregular_graph(seed: int) -> Tuple[int, List[Tuple[int, int]]]:
    """A small irregular graph for the virtual-neighbour run.

    IRR_NODES nodes, degrees 1..IRR_DEGREE, two triangles, the rest a random
    tree plus a few random chords; node labels shuffled. Same seed, same
    graph.
    """
    rng = np.random.default_rng([seed, 0x1EE])
    n, dmax = IRR_NODES, IRR_DEGREE
    adj: List[set] = [set() for _ in range(n)]

    def link(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    for u, v in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):  # two triangles
        link(u, v)
    for v in range(6, n):  # random tree over the rest, attached to earlier nodes
        free = [u for u in range(v) if len(adj[u]) < dmax]
        link(v, free[int(rng.integers(len(free)))])
    for _ in range(6):  # a few chords between nodes with spare degree
        free = [u for u in range(n) if len(adj[u]) < dmax]
        u, v = (int(x) for x in rng.choice(free, size=2, replace=False))
        if v not in adj[u]:
            link(u, v)
    perm = rng.permutation(n)
    edges = sorted(
        tuple(sorted((int(perm[u]), int(perm[v])))) for u in range(n) for v in adj[u] if u < v
    )
    return n, edges


def write_irregular_graph(path: Path, seed: int) -> None:
    n, edges = irregular_graph(seed)
    body = "".join(f"{u} {v}\n" for u, v in edges)
    path.write_text(f"{n} {len(edges)} {IRR_DEGREE}\n{body}")
