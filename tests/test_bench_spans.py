"""The benchmark's trace hooks (`perfbench/spans.py`) still name real functions.

`perfbench/run.py --trace 1` wraps every `(module, attribute)` listed in
`SPANS`, and the getter of the `RegularGraph.edges` property. A rename in the
package would otherwise only show up when a traced benchmark run fails, and
a command that stops calling a wrapped function would be timed under the
wrong span without any failure.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from localcut import analysis, sim
from localcut.cli import main

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_package_function():
    spans = _load_spans()
    for name, targets in spans.SPANS.items():
        for module, attr in targets:
            target = getattr(importlib.import_module(f"localcut.{module}"), attr, None)
            assert callable(target), f"span {name}: localcut.{module}.{attr}"


def test_regular_graph_edges_is_a_property():
    assert isinstance(vars(sim.RegularGraph)["edges"], property)


@pytest.mark.parametrize(
    "writer, argv",
    [
        ("bound_report_json", ["verify", "--bound", "--dmax", "3"]),
        ("appendix_report_json", ["verify", "--appendix", "1500"]),
    ],
)
def test_verify_writes_through_the_timed_emitter(monkeypatch, capsys, writer, argv):
    # `verify` prints only what the emitter writes, so its writing time is
    # counted under the span that wraps that emitter
    assert ("analysis", writer) in _load_spans().SPANS["analysis.emit"]
    monkeypatch.setattr(analysis, writer, lambda fh, report: fh.write(f"sentinel {writer}\n"))
    main(argv)
    assert capsys.readouterr().out == f"sentinel {writer}\n"
