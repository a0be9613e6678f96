"""Command-line surface: formats, exit codes, reproducibility."""

from __future__ import annotations

import io
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from localcut import analysis, cli, ngraph
from localcut.cli import main
from localcut.sim import write_edge_list
import oracles

OPTIMAL_TAU_TABLE = [
    2, 3, 3, 4, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10, 10, 11,
    11, 12, 12, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19,
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_same_text(got: str, expected: str) -> None:
    """Equal text, or a failure naming the first differing line.

    A plain `==` on megabyte outputs would have pytest diff them in full.
    """
    if got != expected:
        a, b = got.split("\n"), expected.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(
            f"line {i + 1} differs: {a[i] if i < len(a) else None!r} != "
            f"{b[i] if i < len(b) else None!r} ({len(a)} vs {len(b)} lines)"
        )


# ---------------------------------------------------------------------------
# build-ngraph


def test_build_ngraph_text_round_trips(capsys):
    code, out, _ = run(capsys, "build-ngraph", "--d", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d=3"
    assert len(lines) == 1 + 64
    assert oracles.parse_ngraph_table(out) == ngraph.build_ngraph(3)


def test_build_ngraph_json_normalisation(capsys):
    code, out, _ = run(capsys, "build-ngraph", "--d", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["normalisation"] == "1/1"
    assert len(doc["nodes"]) == 12
    assert len(doc["weights"]) == 144


def test_build_ngraph_csv(capsys):
    code, out, _ = run(capsys, "build-ngraph", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "side1,i1,side2,i2,num,den"
    assert len(lines) == 1 + 36
    assert all(line.count(",") == 5 for line in lines)


@pytest.mark.parametrize("d", [*range(2, 31), 60])
def test_build_ngraph_json_is_the_encoders_text(capsys, tmp_path, d):
    expected = json.dumps(oracles.ngraph_json_doc(ngraph.build_ngraph(d)), indent=2) + "\n"
    code, out, _ = run(capsys, "build-ngraph", "--d", str(d), "--format", "json")
    assert code == 0
    assert_same_text(out, expected)
    path = tmp_path / "g.json"
    assert run(capsys, "build-ngraph", "--d", str(d), "--format", "json", "--out", str(path))[0] == 0
    assert_same_text(path.read_bytes().decode(), expected)


@pytest.mark.parametrize("d", [*range(2, 31), 60])
def test_build_ngraph_text_and_csv_match_the_fraction_oracle(capsys, d):
    lines = oracles.ngraph_table_lines(d)
    code, out, _ = run(capsys, "build-ngraph", "--d", str(d))
    assert code == 0
    assert_same_text(out, "\n".join([f"d={d}", *lines]) + "\n")
    code, out, _ = run(capsys, "build-ngraph", "--d", str(d), "--format", "csv")
    csv_lines = [line.replace(" ", ",") for line in lines]
    assert code == 0
    assert_same_text(out, "\n".join(["side1,i1,side2,i2,num,den", *csv_lines]) + "\n")


def test_build_ngraph_usage_error(capsys):
    code, _, err = run(capsys, "build-ngraph", "--d", "1")
    assert code == 2
    assert "degree" in err


# ---------------------------------------------------------------------------
# solve and export-wcnf


def test_solve_single_degree(capsys):
    code, out, _ = run(capsys, "solve", "--d", "3")
    assert code == 0
    assert "3 3 11/16 0.6875" in out


def test_solve_range_csv(capsys):
    code, out, _ = run(capsys, "solve", "--d", "2..5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,tau,weight_num,weight_den,weight_float"
    assert lines[1] == "2,2,3,4,0.75"
    assert lines[3] == "4,3,41,64,0.640625"
    assert len(lines) == 5


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--d", "2..3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"d": 2, "tau": 2, "weight": "3/4", "weight_float": 0.75},
        {"d": 3, "tau": 3, "weight": "11/16", "weight_float": 0.6875},
    ]


def test_solve_above_cap_points_to_wcnf(capsys):
    code, out, err = run(capsys, "solve", "--d", "17")
    assert code == 2 and out == ""
    assert err == (
        "error: exhaustive search is capped at d = 16 (asked for d = 17); "
        "use the export-wcnf subcommand and an external MaxSAT solver\n"
    )


def test_solve_over_a_huge_range_is_refused_without_listing_it(capsys):
    # a million degrees listed would trace tens of MB before the refusal
    tracemalloc.start()
    try:
        code = main(["solve", "--d", "2..1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (2, (
        "error: exhaustive search is capped at d = 16 (asked for d = 17); "
        "use the export-wcnf subcommand and an external MaxSAT solver\n"
    ))
    assert peak < 1 << 20, peak


def test_solve_rejects_bad_ranges(capsys):
    assert run(capsys, "solve", "--d", "5..2")[0] == 2
    assert run(capsys, "solve", "--d", "1")[0] == 2
    assert run(capsys, "solve", "--d", "2..4..6")[0] == 2


@pytest.mark.parametrize("text", ["x", "2..", "2..x", "2..3..4"])
def test_a_malformed_degree_range_names_the_expected_form(capsys, text):
    for cmd in ("sweep", "solve"):
        code, out, err = run(capsys, cmd, "--d", text)
        assert (code, out) == (2, "")
        assert err == f"error: expected 'a' or 'a..b', got {text!r}\n"


def test_export_wcnf(capsys):
    code, out, _ = run(capsys, "export-wcnf", "--d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    headers = [ln for ln in lines if ln.startswith("p wcnf ")]
    assert len(headers) == 1
    nvars, nclauses = (int(x) for x in headers[0].split()[2:4])
    assert nvars == 6
    assert sum(1 for ln in lines if not ln.startswith(("c", "p"))) == nclauses
    # deterministic output
    assert run(capsys, "export-wcnf", "--d", "2")[1] == out


@pytest.mark.parametrize("d", [*range(2, 31), 60])
def test_export_wcnf_is_the_pair_loops_text(capsys, tmp_path, d):
    expected = oracles.wcnf_text(ngraph.build_ngraph(d))
    code, out, _ = run(capsys, "export-wcnf", "--d", str(d))
    assert code == 0
    assert_same_text(out, expected)
    path = tmp_path / "g.wcnf"
    assert run(capsys, "export-wcnf", "--d", str(d), "--out", str(path))[0] == 0
    assert_same_text(path.read_text(), expected)


# ---------------------------------------------------------------------------
# the exact writers stream


class CharCount:
    """A text file that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)


def traced_peak(write) -> int:
    """The traced peak, in bytes above the start, while `write()` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["build-ngraph", "--d", "120"],
    ["build-ngraph", "--d", "120", "--format", "csv"],
    ["build-ngraph", "--d", "120", "--format", "json"],
    ["export-wcnf", "--d", "120"],
], ids=["text", "csv", "json", "wcnf"])
def test_graph_writers_hold_a_row_not_the_document(monkeypatch, argv):
    # 3.5 to 14.5 MB of text: a command that holds its whole output (or a
    # copy of it) peaks above that; one that writes a row at a time peaks
    # below 0.4 MB, argparse's parser included
    sink = CharCount()
    monkeypatch.setattr(sys, "stdout", sink)
    peak = traced_peak(lambda: main(argv))
    assert peak < sink.chars / 8, (peak, sink.chars)


def test_bound_report_writer_holds_a_batch_not_the_report():
    # traced from after the report is built: 0.5 MB of text, written 64
    # checks a write
    report = analysis.verify_theorem_bound(3000)
    sink = CharCount()
    peak = traced_peak(lambda: analysis.bound_report_json(sink, report))
    assert peak < sink.chars / 8, (peak, sink.chars)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_shape_and_boundary_values(capsys):
    code, out, _ = run(capsys, "sweep", "--d", "39")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,tau,alpha_num,alpha_den,alpha_float"
    assert len(lines) == 1 + 41
    values = []
    for line in lines[1:]:
        d, tau, num, den, _ = line.split(",")
        assert d == "39"
        values.append(Fraction(int(num), int(den)))
    assert values[0] == Fraction(1, 2) and values[-1] == Fraction(1, 2)
    # a single interior maximum
    best = max(values)
    assert values.count(best) == 1
    assert 0 < values.index(best) < 40


def test_sweep_multi_degree_has_one_header(capsys):
    code, out, _ = run(capsys, "sweep", "--d", "2..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("d,")) == 1
    assert len(lines) == 1 + 4 + 5 + 6


def test_sweep_opt_matches_frozen_table(capsys):
    code, out, _ = run(capsys, "sweep", "--d", "2..32", "--opt")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "d,tau_opt,tau_formula,alpha_opt_float,our_bound_float,shearer_bound_float"
    )
    taus = [int(line.split(",")[1]) for line in lines[1:]]
    assert taus == OPTIMAL_TAU_TABLE


# ---------------------------------------------------------------------------
# verify


def test_verify_bound(capsys):
    code, out, _ = run(capsys, "verify", "--bound", "--dmax", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["equality_degrees"] == [4]
    assert len(doc["checks"]) == 59


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "--appendix", "1500")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True and doc["conclusive"] is True
    assert all(c["status"] == "holds" for c in doc["checks"])


def test_verify_usage_errors(capsys):
    for argv in (["verify"], ["verify", "--bound", "--appendix", "1500"]):
        assert run(capsys, *argv) == (2, "", "error: pass exactly one of --bound or --appendix\n")
    assert run(capsys, "verify", "--bound", "--dmax", "1")[0] == 2
    assert run(capsys, "verify", "--appendix", "1499")[0] == 2
    assert run(capsys, "verify", "--appendix", "xyz")[0] == 2
    code, _, err = run(capsys, "verify", "--appendix", "1500", "--dmax", "5")
    assert code == 2 and "--dmax" in err


@pytest.mark.parametrize("text", ["1500,abc", "1e4", "1500;2000", "x"])
def test_a_malformed_appendix_list_names_the_expected_form(capsys, text):
    assert run(capsys, "verify", "--appendix", text) == (
        2,
        "",
        f"error: expected comma-separated integers, got {text!r}\n",
    )


@pytest.mark.parametrize("text", ["", ","])
def test_an_empty_appendix_list_still_needs_an_n(capsys, text):
    assert run(capsys, "verify", "--appendix", text) == (2, "", "error: need at least one n\n")


def test_verify_has_no_precision_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--appendix", "1500", "--precision-cap", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-cap 64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("--appendix", "10"),
        ("--appendix", "1500,x"),
        ("--bound", "--dmax", "1"),
        ("--bound", "--appendix", "1500"),
        ("--appendix", "1500", "--dmax", "5"),
    ],
)
def test_verify_usage_error_leaves_an_existing_out_file(capsys, tmp_path, argv):
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    assert run(capsys, "verify", *argv, "--out", str(path))[0] == 2
    assert path.read_text() == "kept\n"


def test_verify_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents that are longer than nothing\n")
    code, out, _ = run(capsys, "verify", "--bound", "--dmax", "40")
    assert code == 0
    assert run(capsys, "verify", "--bound", "--dmax", "40", "--out", str(path))[0] == 0
    assert path.read_text() == out


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    real = analysis.verify_theorem_bound

    def failing(d_max):
        return real(d_max)._replace(all_pass=False)

    monkeypatch.setattr(cli.analysis, "verify_theorem_bound", failing)
    code, out, _ = run(capsys, "verify", "--bound", "--dmax", "10")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_reports_inconclusive_with_exit_1(capsys, monkeypatch):
    real = analysis.verify_appendix_estimates

    def inconclusive(ns):
        return real(ns)._replace(conclusive=False)

    monkeypatch.setattr(cli.analysis, "verify_appendix_estimates", inconclusive)
    assert run(capsys, "verify", "--appendix", "1500")[0] == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_json_is_reproducible(capsys):
    args = (
        "simulate", "--family", "kdd", "--d", "3", "--alg", "threshold",
        "--tau", "3", "--trials", "2000", "--seed", "9",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert set(doc) == {"trials", "mean", "stderr", "seed", "edge_count"}
    assert doc["seed"] == 9 and doc["trials"] == 2000
    assert run(capsys, *args)[1] == out1
    assert run(capsys, *args[:-1], "10")[1] != out1  # seed-sensitive


def test_simulate_default_tau_is_announced(capsys):
    code, out, err = run(
        capsys, "simulate", "--family", "kdd", "--d", "3",
        "--alg", "threshold", "--trials", "100",
    )
    assert code == 0
    assert "optimal tau = 3" in err
    assert json.loads(out)["trials"] == 100


def test_simulate_csv_and_text_formats(capsys):
    base = (
        "simulate", "--family", "petersen", "--alg", "shearer",
        "--trials", "500", "--seed", "4",
    )
    code, out, _ = run(capsys, *base, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("trials,mean,stderr,seed,edge_count")
    assert lines[1].split(",")[0] == "500"
    assert run(capsys, *base, "--format", "text") == (
        0, "trials=500 mean=0.626666666666667 stderr=0.00557054313244856 seed=4 edge_count=15\n", ""
    )


def test_simulate_text_per_edge_with_clean_and_flagged_edges(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("4 4 3\n0 1\n0 2\n1 2\n2 3\n")  # a triangle and one clean edge
    assert run(
        capsys, "simulate", "--family", "file", "--in", str(path), "--alg", "virtual",
        "--trials", "200", "--seed", "3", "--per-edge", "--format", "text",
    ) == (
        0,
        "trials=200 mean=0.64 stderr=0.0117072755800629 seed=3 edge_count=4\n"
        "clean_edge_mean=0.71 flagged_edge_mean=0.616666666666667 flagged_edge_fraction=0.75\n"
        "edge 0 1 129 0.645\n"
        "edge 0 2 119 0.595\n"
        "edge 1 2 122 0.61\n"
        "edge 2 3 142 0.71\n",
        "using optimal tau = 3 for d = 3\n",
    )


def test_simulate_text_virtual_on_the_star(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4 3 3\n0 1\n0 2\n0 3\n")
    assert run(
        capsys, "simulate", "--family", "file", "--in", str(path), "--alg", "virtual",
        "--tau", "3", "--trials", "3000", "--seed", "2", "--format", "text",
    ) == (0, "trials=3000 mean=0.685555555555556 stderr=0.00440382871686404 seed=2 edge_count=3\n", "")


@pytest.mark.parametrize("alg", ["uniform", "virtual"])
def test_simulate_text_when_every_edge_is_flagged(capsys, tmp_path, alg):
    # K4: every edge lies in a triangle, so no clean-edge mean is printed
    path = tmp_path / "k4.txt"
    path.write_text("4 6 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(
        capsys, "simulate", "--family", "file", "--in", str(path), "--alg", alg,
        "--trials", "10", "--format", "text",
    )
    assert code == 0
    assert out == (
        "trials=10 mean=0.35 stderr=0.0976577546180386 seed=12648430 edge_count=6\n"
        "flagged_edge_mean=0.35 flagged_edge_fraction=1\n"
    )


def test_simulate_per_edge(capsys):
    code, out, _ = run(
        capsys, "simulate", "--family", "cycle", "--n", "4", "--alg", "uniform",
        "--trials", "300", "--seed", "1", "--per-edge", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["per_edge"]) == 4
    assert all(set(e) == {"u", "v", "cut_count", "frequency"} for e in doc["per_edge"])


def test_simulate_virtual_from_file(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4 3 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run(
        capsys, "simulate", "--family", "file", "--in", str(path),
        "--alg", "virtual", "--tau", "3", "--trials", "3000", "--seed", "2",
        "--per-edge",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_count"] == 3
    for entry in doc["per_edge"]:
        assert abs(entry["frequency"] - 11 / 16) < 0.05


def test_simulate_usage_errors(capsys):
    # bipartite without its size parameters
    code, _, err = run(
        capsys, "simulate", "--family", "bipartite", "--alg", "uniform",
        "--trials", "10",
    )
    assert code == 2 and "bipartite" in err
    argv = ("simulate", "--family", "petersen", "--alg", "uniform", "--trials", "0")
    assert run(capsys, *argv) == (2, "", "error: trials must be >= 1, got 0\n")
    # checked before the graph is built: no optimal-tau line on stderr, and no
    # rejection budget spent on a triangle-free graph that cannot be built
    for graph in (("petersen",), ("triangle-free", "--n", "1000", "--d", "4")):
        argv = ("simulate", "--family", *graph, "--alg", "threshold", "--trials", "0")
        assert run(capsys, *argv) == (2, "", "error: trials must be >= 1, got 0\n")
    # threshold needs a strict graph; a missing file is a usage error too
    code, _, err = run(
        capsys, "simulate", "--family", "file", "--in", "/nonexistent",
        "--alg", "uniform", "--trials", "10",
    )
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "nosuch", "--alg", "uniform"])
    assert exc.value.code == 2


def test_simulate_checks_tau_against_d_before_the_build(capsys):
    # no rejection budget spent on a triangle-free graph that cannot be built
    argv = ("simulate", "--family", "triangle-free", "--n", "1000", "--d", "4",
            "--alg", "threshold", "--tau", "99", "--trials", "10")
    assert run(capsys, *argv) == (2, "", "error: tau must be in [0, 5], got 99\n")


# each family whose degree is --d: the other options it needs, and its own
# message for --d 0, which comes before any tau check
D_FAMILIES = {
    "kdd": ((), "d must be an integer >= 1"),
    "hypercube": ((), "dimension must be an integer >= 1"),
    "bipartite": (("--n", "10"), "d must be an integer >= 1"),
    "triangle-free": (("--n", "10"), "d must be an integer >= 1"),
}


@pytest.mark.parametrize("family", D_FAMILIES)
@pytest.mark.parametrize("alg", ["threshold", "virtual"])
def test_simulate_tau_out_of_range_for_the_degree_d(capsys, family, alg):
    extra, message = D_FAMILIES[family]
    for d, err in (("3", "tau must be in [0, 4], got 5"), ("0", f"{message}, got 0")):
        argv = ("simulate", "--family", family, *extra, "--d", d, "--alg", alg, "--tau", "5")
        assert run(capsys, *argv, "--trials", "10") == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("alg", ["uniform", "shearer"])
def test_simulate_tau_for_a_rule_without_one_is_a_usage_error(capsys, alg):
    code, out, err = run(
        capsys, "simulate", "--family", "kdd", "--d", "3", "--alg", alg,
        "--tau", "2", "--trials", "10",
    )
    assert code == 2 and out == ""
    assert f"--tau does not apply to --alg {alg}" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_usage_error(capsys, seed):
    for argv in (
        ["simulate", "--family", "kdd", "--d", "3", "--alg", "threshold"],
        ["gen-graph", "--family", "triangle-free", "--n", "20", "--d", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", str(seed)])
        assert exc.value.code == 2
        assert "outside 0..2^64-1" in capsys.readouterr().err
    assert run(capsys, "gen-graph", "--family", "bipartite", "--n", "10", "--d", "3",
               "--seed", str(2**64 - 1))[0] == 0


@pytest.mark.parametrize("seed", ["abc", "0x10", ""])
def test_a_seed_that_is_not_an_integer_names_the_expected_form(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "kdd", "--d", "3", "--alg", "threshold", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"error: argument --seed: seed must be an integer in 0..2^64-1, got {seed!r}\n"
    )
    assert "_seed" not in err


# what each --family reads, with values that build a graph
FAMILY_ARGS = {
    "kdd": ["--d", "3"],
    "cycle": ["--n", "6"],
    "hypercube": ["--d", "3"],
    "petersen": [],
    "bipartite": ["--n", "10", "--d", "3"],
    "triangle-free": ["--n", "20", "--d", "3"],
    "file": ["--in", "star.txt"],
}
STRAY = {"--n": "6", "--d": "3", "--in": "star.txt"}


@pytest.fixture
def in_star_dir(tmp_path, monkeypatch):
    (tmp_path / "star.txt").write_text("4 3 3\n0 1\n0 2\n0 3\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "family,option",
    [(f, o) for f, given in FAMILY_ARGS.items() for o in STRAY if o not in given],
)
def test_an_option_the_family_does_not_read_is_a_usage_error(capsys, in_star_dir, family, option):
    argv = ["--family", family, *FAMILY_ARGS[family]]
    runs = [["simulate", *argv, "--alg", "virtual", "--trials", "10"]]
    if family != "file" and option != "--in":
        runs.append(["gen-graph", *argv])
    for cmd in runs:
        code, out, err = run(capsys, *cmd, option, STRAY[option])
        assert code == 2 and out == ""
        assert f"{option} does not apply to --family {family}" in err
        assert run(capsys, *cmd)[0] == 0  # and without it the command runs


@pytest.mark.parametrize(
    "family,option", [(f, o) for f, given in FAMILY_ARGS.items() for o in given[::2]]
)
def test_an_option_the_family_reads_is_required(capsys, in_star_dir, family, option):
    given = FAMILY_ARGS[family]
    i = given.index(option)
    code, out, err = run(
        capsys, "simulate", "--family", family, *given[:i], *given[i + 2:],
        "--alg", "uniform", "--trials", "10",
    )
    assert code == 2 and out == ""
    assert f"family {family} needs {option}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--family", "kdd", "--d", "3", "--alg", "uniform", "--trials", "10"],
        ["gen-graph", "--family", "kdd", "--d", "3"],
    ],
)
def test_seed_with_entropy_is_a_usage_error(capsys, argv):
    for extra in (["--seed", "5", "--entropy"], ["--entropy", "--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err
        assert "entropy seed" not in captured.err


def test_simulate_budget_exhaustion_is_exit_1(capsys, monkeypatch):
    def exhausted(*a, **k):
        raise RuntimeError("rejection budget exhausted (stub)")

    monkeypatch.setattr(cli.sim, "random_triangle_free", exhausted)
    code, _, err = run(
        capsys, "simulate", "--family", "triangle-free", "--n", "6", "--d", "4",
        "--alg", "uniform", "--trials", "10",
    )
    assert code == 1 and "budget" in err


# ---------------------------------------------------------------------------
# gen-graph


def test_gen_graph_round_trips(capsys, tmp_path):
    from localcut.sim import complete_bipartite, read_edge_list

    code, out, _ = run(capsys, "gen-graph", "--family", "kdd", "--d", "3")
    assert code == 0
    assert read_edge_list(io.StringIO(out)) == complete_bipartite(3)


def test_gen_graph_prints_each_fixed_familys_builder(capsys):
    from localcut.sim import complete_bipartite, cycle_graph, hypercube_graph, petersen_graph

    for argv, g in [
        (["kdd", "--d", "3"], complete_bipartite(3)),
        (["cycle", "--n", "6"], cycle_graph(6)),
        (["hypercube", "--d", "4"], hypercube_graph(4)),
        (["petersen"], petersen_graph()),
    ]:
        expected = io.StringIO()
        write_edge_list(expected, g)
        assert run(capsys, "gen-graph", "--family", *argv) == (0, expected.getvalue(), "")


@pytest.mark.parametrize("family", ["kdd", "cycle", "hypercube", "petersen"])
@pytest.mark.parametrize("option", [["--seed", "5"], ["--entropy"]])
def test_gen_graph_refuses_a_seed_its_family_does_not_read(capsys, family, option):
    code, out, err = run(capsys, "gen-graph", "--family", family, *FAMILY_ARGS[family], *option)
    assert code == 2 and out == ""
    assert err == f"error: {option[0]} does not apply to --family {family}\n"


@pytest.mark.parametrize("family", ["bipartite", "triangle-free"])
def test_gen_graph_reads_the_seed_of_a_random_family(capsys, family):
    argv = ["gen-graph", "--family", family, *FAMILY_ARGS[family]]
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--seed", str(cli.DEFAULT_SEED)) == default
    code, out, err = run(capsys, *argv, "--entropy")
    assert code == 0 and err.startswith("entropy seed: ")
    seed = err.split()[-1]
    assert run(capsys, *argv, "--seed", seed) == (0, out, "")


def test_simulate_reads_the_seed_of_every_family(capsys):
    argv = ["simulate", "--family", "petersen", "--alg", "uniform", "--trials", "10"]
    code, out, _ = run(capsys, *argv, "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    assert json.loads(run(capsys, *argv)[1])["seed"] == cli.DEFAULT_SEED


def test_gen_graph_to_file_with_seed(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code = main([
        "gen-graph", "--family", "bipartite", "--n", "10", "--d", "3",
        "--seed", "5", "--out", str(path),
    ])
    assert code == 0
    first = path.read_text()
    assert first.splitlines()[0] == "20 30 3"
    main([
        "gen-graph", "--family", "bipartite", "--n", "10", "--d", "3",
        "--seed", "5", "--out", str(path),
    ])
    assert path.read_text() == first
    capsys.readouterr()


def test_entropy_flag_prints_the_chosen_seed(capsys):
    code, out, err = run(
        capsys, "simulate", "--family", "kdd", "--d", "2", "--alg", "uniform",
        "--trials", "10", "--entropy",
    )
    assert code == 0
    assert "entropy seed:" in err
    seed = int(err.split("entropy seed:")[1].split()[0])
    assert json.loads(out)["seed"] == seed


@pytest.mark.parametrize(
    "raw, seed", [(b"\xff" * 8, 2**64 - 1), (b"\x00" * 8, 0)], ids=["max", "zero"]
)
def test_entropy_seeds_span_the_64_bit_range(capsys, monkeypatch, raw, seed):
    asked = []
    monkeypatch.setattr(cli.os, "urandom", lambda k: asked.append(k) or raw)
    argv = ("simulate", "--family", "kdd", "--d", "2", "--alg", "uniform", "--trials", "10")
    code, out, err = run(capsys, *argv, "--entropy")
    assert (code, asked, err) == (0, [8], f"entropy seed: {seed}\n")
    assert json.loads(out)["seed"] == seed
    assert run(capsys, *argv, "--seed", str(seed)) == (0, out, "")


def test_cli_runs_without_loading_openssl():
    """`--entropy` reads os.urandom: no command loads `secrets`, `hmac` or `_hashlib`."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from localcut import cli\n"
        "assert cli.main(['sweep', '--d', '5']) == 0\n"
        "print(sorted({'secrets', 'hmac', '_hashlib'} & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0 and proc.stderr == "[]\n", proc.stderr
    assert proc.stdout.startswith("d,tau,alpha_num,alpha_den,alpha_float\n")


def test_console_script_is_installed(tmp_path):
    """The ``localcut`` entry of ``[project.scripts]`` runs the CLI.

    The suite runs from ``src/`` without an install, so the test writes the
    wrapper an installer would generate for the declared entry and runs it
    as its own process.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, attr = scripts["localcut"].split(":")
    exe = tmp_path / "localcut"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    exe.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [str(exe), "solve", "--d", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    assert "3/4" in proc.stdout


# ---------------------------------------------------------------------------
# the parser: main builds only the named subcommand's


def parse_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits: help or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


# the full parser's usage line, as any argv that names no command gets it
FULL_USAGE = (
    "usage: localcut [-h]\n"
    "                {build-ngraph,solve,export-wcnf,sweep,verify,simulate,gen-graph}\n"
    "                ...\n"
)


# the least argv each subcommand parses
MINIMAL_ARGV = {
    "build-ngraph": ["--d", "3"],
    "solve": ["--d", "3"],
    "export-wcnf": ["--d", "3"],
    "sweep": ["--d", "3"],
    "verify": ["--bound"],
    "simulate": ["--family", "petersen", "--alg", "uniform"],
    "gen-graph": ["--family", "petersen"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_prints_the_full_parsers_text(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    for argv in ([name, "--help"], [name, "--out"], [name, *MINIMAL_ARGV[name], "--bogus", "x"]):
        full = parse_exit(capsys, cli._make_parser().parse_args, argv)
        assert parse_exit(capsys, cli._make_parser(name).parse_args, argv) == full
        assert parse_exit(capsys, main, argv) == full
    code, out, err = full  # unrecognized: the top-level parser's error, naming every command
    assert (code, out) == (2, "")
    assert err.startswith(FULL_USAGE)


@pytest.mark.parametrize("argv, code, head, says", [
    (["--help"], 0, FULL_USAGE + "\nSynthesise, analyse, and simulate one-round",
     "Exit codes: 0 ok, 1 verification/sampling failure, 2\nusage.\n"),
    ([], 2, FULL_USAGE, "localcut: error: the following arguments are required: command\n"),
    (["bogus"], 2, FULL_USAGE, "localcut: error: argument command: invalid choice: 'bogus'"),
    (["-x", "solve"], 2, "usage: localcut solve [-h] --d D",
     "localcut solve: error: the following arguments are required: --d\n"),
], ids=["help", "no-command", "unknown-command", "option-before-command"])
def test_any_other_argv_gets_the_full_parsers_text(capsys, monkeypatch, argv, code, head, says):
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err = parse_exit(capsys, main, argv)
    text = out + err
    assert got == code
    assert text.startswith(head) and says in text, text
    if argv == ["--help"]:
        assert all(f"    {name} " in out for name in cli.COMMANDS)
