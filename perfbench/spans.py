"""Spans around the public functions of each `localcut` module.

The tracer wraps functions from outside the package: for every span it
replaces the function object in every `localcut` module that binds it, so
`analysis.evaluate_cut` (imported by name from `cutsearch`) is traced too.
A reference captured before the wrappers go in (the `lru_cache` around
`build_ngraph` in `analysis`) cannot be replaced; its time stays in the
caller's self time.

Per span name the tracer keeps a call count, inclusive time and self time
(inclusive minus the time of spans nested inside it), so memory stays
bounded however many calls there are. Counters for work that is not a call
(bits drawn, generator attempts, clauses) ride on the same wrappers.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# span name -> [(module, attribute)] of the functions it times. Several
# functions may share one span name ("sim.rule", the emitters).
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "cli.main": [("cli", "main")],
    "ngraph.build_ngraph": [("ngraph", "build_ngraph")],
    "cutsearch.evaluate_cut": [("cutsearch", "evaluate_cut")],
    "cutsearch.threshold_assignment": [("cutsearch", "threshold_assignment")],
    "cutsearch.brute_force_max_cut": [("cutsearch", "brute_force_max_cut")],
    "cutsearch.matching_threshold": [("cutsearch", "matching_threshold")],
    "cutsearch.export_wcnf": [("cutsearch", "export_wcnf")],
    "cutsearch.format_wcnf": [("cutsearch", "format_wcnf")],
    "analysis.optimal_taus": [("analysis", "optimal_taus")],
    "analysis.optimal_tau": [("analysis", "optimal_tau")],
    "analysis.binomial_row": [("analysis", "binomial_row")],
    "analysis.alpha_closed_form": [("analysis", "alpha_closed_form")],
    "analysis.alpha_sweep": [("analysis", "alpha_sweep")],
    "analysis.verify_theorem_bound": [("analysis", "verify_theorem_bound")],
    "analysis.verify_appendix_estimates": [("analysis", "verify_appendix_estimates")],
    "analysis.emit": [
        ("analysis", "write_alpha_sweep_csv"),
        ("analysis", "write_tau_opt_csv"),
        ("analysis", "bound_report_json"),
        ("analysis", "appendix_report_json"),
    ],
    "intervals.pi_enclosure": [("intervals", "pi_enclosure")],
    "intervals.exp_enclosure": [("intervals", "exp_enclosure")],
    "intervals.sqrt_enclosure": [("intervals", "sqrt_enclosure")],
    "sim.monte_carlo": [("sim", "monte_carlo")],
    "sim.make_trial_rng": [("sim", "make_trial_rng")],
    "sim.draw_bits": [("sim", "draw_bits")],
    "sim.like_counts": [("sim", "like_counts")],
    "sim.rule": [
        ("sim", "apply_threshold_rule"),
        ("sim", "apply_shearer_rule"),
        ("sim", "apply_virtual_rule"),
    ],
    "sim.random_triangle_free": [("sim", "random_triangle_free")],
    "sim.random_bipartite_regular": [("sim", "random_bipartite_regular")],
    "sim.from_edges": [("sim", "from_edges")],
    "sim.read_edge_list": [("sim", "read_edge_list")],
    "sim.write_edge_list": [("sim", "write_edge_list")],
    "sim.emit": [("sim", "trial_stats_jsonable"), ("sim", "write_trial_stats_csv")],
}

# The RegularGraph.edges property, traced through its getter.
EDGES_SPAN = "sim.edges"

GENERATORS = ("random_triangle_free", "random_bipartite_regular")


class Tracer:
    """Aggregates spans per name: [calls, inclusive ns, self ns]."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {
            "sim.bits_drawn": 0,
            "sim.gen.attempts": 0,
            "sim.gen.successes": 0,
            "cutsearch.wcnf_clauses": 0,
        }
        # one slot per open span: time spent in spans nested inside it
        self._child_ns: List[int] = []

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`fn` timed under `name`; `after(args, kwargs, result)` may count."""
        stat = self.spans.setdefault(name, [0, 0, 0])
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = child_ns.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - nested
                if child_ns:
                    child_ns[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every span in every loaded `localcut` module that binds it."""
        from localcut import sim

        counters = self.counters

        def count_bits(args, kwargs, result):
            counters["sim.bits_drawn"] += len(result)

        def count_clauses(args, kwargs, result):
            counters["cutsearch.wcnf_clauses"] += len(result.clauses)

        after = {
            ("sim", "draw_bits"): count_bits,
            ("cutsearch", "export_wcnf"): count_clauses,
        }
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "localcut"]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"localcut.{mod_name}"], attr)
                fn = original
                if attr in GENERATORS:
                    fn = self._count_attempts(original, sim.REJECTION_BUDGET)
                wrapped = self.wrap(name, fn, after.get((mod_name, attr)))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        getter = sim.RegularGraph.edges.fget
        sim.RegularGraph.edges = property(self.wrap(EDGES_SPAN, getter))
        self._listen_to_generators()

    def _count_attempts(self, generator: Callable, budget: int) -> Callable:
        """Charge the whole budget to a generator that gives up."""
        counters = self.counters

        @functools.wraps(generator)
        def counted(*args, **kwargs):
            try:
                result = generator(*args, **kwargs)
            except RuntimeError:
                counters["sim.gen.attempts"] += kwargs.get("max_attempts", budget)
                raise
            counters["sim.gen.successes"] += 1
            return result

        return counted

    def _listen_to_generators(self) -> None:
        """Read accepted-after-N-attempts from the generators' INFO records."""
        counters = self.counters

        class Attempts(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                if "attempt" in record.msg:
                    counters["sim.gen.attempts"] += int(record.args[0])

        logger = logging.getLogger("localcut.sim")
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(Attempts())

    def snapshot(self) -> dict:
        return {
            "spans": {k: [c, i / 1e9, s / 1e9] for k, (c, i, s) in self.spans.items()},
            "counters": dict(self.counters),
        }
