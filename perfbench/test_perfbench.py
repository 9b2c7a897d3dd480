"""Tests for the benchmark's own logic: span arithmetic, the tail-percentile
rule and the output checks. Run with ``python3 -m pytest perfbench``."""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mtbounds import cli, fileio, lp  # noqa: E402
from mtbounds.constants import bh_constants, rescale  # noqa: E402
from mtbounds.matrices import fdp_sd_matrix  # noqa: E402
from mtbounds.procedures import ProcedureSpec, PValueVector, run_procedure  # noqa: E402


def make_spans(rows):
    """rows: (layer, name, parent, start, end[, facts])."""
    return [tracing.Span(i, parent, 0, layer, name, start, end, facts[0] if facts else None)
            for i, (layer, name, parent, start, end, *facts) in enumerate(rows)]


SYNTHETIC = [
    ("cli", "main", None, 0.0, 10.0, {"exit": 0}),
    ("procedures", "run_procedure", 0, 1.0, 8.0),
    ("matrices", "fdp_sd_matrix", 1, 2.0, 6.0, {"bytes": 800}),
    ("matrices", "fdp_sd_aux", 2, 3.0, 4.0),
    ("lp", "solve_cached", 1, 6.5, 7.5),
    ("matrices", "bound_vector", 4, 7.0, 7.25),
    ("fileio", "write_text", 0, 9.0, 9.5, {"written": 12}),
]


def test_self_times_on_a_synthetic_tree():
    spans = make_spans(SYNTHETIC)
    assert tracing.exclusive_times(spans) == [2.5, 2.0, 3.0, 1.0, 0.75, 0.25, 0.5]
    selfs = tracing.self_times(spans)
    # cli: 10 - 7 (procedures) - 0.5 (fileio); procedures: 7 - 4 - 1;
    # matrices: its outermost span (4) plus the one re-entered under lp (0.25).
    assert selfs == {"cli": 2.5, "procedures": 2.0, "matrices": 4.25, "lp": 0.75,
                     "fileio": 0.5}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_metrics_on_a_synthetic_tree():
    rows = SYNTHETIC + [
        ("cli", "main", None, 20.0, 30.0, {"exit": 2}),
        ("lp", "solve_cached", 7, 21.0, 29.0),
        ("lp", "solve", 8, 22.0, 28.0, {"iterations": 40, "optimal": True}),
        ("matrices", "fdp_sd_matrix", 9, 23.0, 24.0, {"bytes": 800}),
    ]
    m = tracing.layer_metrics(make_spans(rows), bitgens=3)
    assert (m["lp.cache_hits"], m["lp.cache_misses"]) == (1, 1)
    assert m["lp.cache_hit_ratio"] == 0.5
    assert (m["lp.solves"], m["lp.iterations"], m["lp.non_optimal"]) == (1, 40, 0)
    assert m["lp.solve_s"] == 6.0
    assert m["lp.cache_s"] == pytest.approx(0.75 + 2.0)
    # bytes count once per outermost build, not for the per-row helper
    assert m["matrices.bytes_built"] == 1600
    assert m["matrices.calls"] == 4
    assert m["matrices.bound_vector_calls"] == 1
    assert (m["cli.calls"], m["cli.nonzero_exits"]) == (2, 1)
    assert m["fileio.bytes_written"] == 12
    assert m["trace.op_s"] == 20.0
    assert m["simulation.bitgens_created"] == 3
    assert set(m) == {name for name, _ in tracing.PER_LAYER_METRICS}


def test_percentile_matches_inclusive_quantiles():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    assert run.percentile(samples, 50) == statistics.median(samples)
    assert run.percentile(samples, 90) == pytest.approx(
        statistics.quantiles(samples, n=10, method="inclusive")[8])


@pytest.mark.parametrize("unit_s, units", [(7.0, 4), (7.5, 4), (9.0, 3), (0.5, 60)])
def test_run_units_stops_at_the_nearest_unit_boundary(monkeypatch, unit_s, units):
    clock = [0.0]

    def call_cli(argv):
        clock[0] += unit_s
        return 0

    class OneOpUnits:
        def unit_ops(self, unit):
            return [workloads.Op("op", "op", (), Path("out"))]

    monkeypatch.setattr(workloads, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(workloads, "call_cli", call_cli)
    records, wall = workloads.run_units(OneOpUnits(), 30.0)
    assert [rec.unit for rec in records] == list(range(units))
    assert wall == units * unit_s


def test_tail_percentile_needs_ten_samples_beyond():
    value, used, beyond = run.tail_percentile(list(range(1, 101)), 90)
    assert (value, used, beyond) == (pytest.approx(90.1), 90.0, 10)
    # 72 samples: p90 would leave 8 above it, so the highest percentile
    # with 10 above it is used instead
    value, used, beyond = run.tail_percentile(list(range(1, 73)), 90)
    assert used == pytest.approx(100 * 61 / 71) and value == pytest.approx(62.0)
    assert beyond == 10
    # too few samples for any tail: the median
    assert run.tail_percentile([3.0, 1.0, 2.0], 90) == (2.0, 50.0, 1)
    assert run.tail_percentile([4.0], 90) == (4.0, 50.0, 0)


def test_tracer_records_layers_and_restores_the_package(tmp_path):
    data = tmp_path / "p.txt"
    data.write_text("\n".join(map(repr, checks.BH95_PVALUES)) + "\n")
    argv = ["adjust", "--input", str(data), "--rate", "fdp-sd", "--gamma", "0.05",
            "--family", "bh", "--alpha", "0.5", "--modified", "--cache-dir",
            str(tmp_path / "cache"), "--output", str(tmp_path / "out.csv")]
    original, write_text = cli.main, fileio.write_text
    recorder = tracing.SpanRecorder()
    with tracing.LayerTracer(recorder) as tracer:
        assert cli.main is not original
        assert cli.main(argv) == 0
    assert cli.main is original and fileio.write_text is write_text
    m = tracing.layer_metrics(recorder.spans, tracer.bitgens)
    assert m["cli.calls"] == 1 and m["lp.cache_misses"] == 1 and m["lp.solves"] == 1
    assert m["matrices.bytes_built"] == 15 * 15 * 8
    assert m["procedures.hypotheses"] == 15
    assert m["fileio.bytes_written"] == (tmp_path / "out.csv").stat().st_size
    assert m["fileio.bytes_read"] == data.stat().st_size


@pytest.fixture(scope="module")
def solved():
    matrix = fdp_sd_matrix(20, 0.05)
    floor, _ = rescale(bh_constants(20), matrix)
    problem = lp.build_problem(matrix, floor)
    sol = json.loads(fileio.solution_json(problem, lp.solve(problem)))
    return matrix.entries, sol, checks.reference_objective(matrix.entries, floor.values)


def test_solution_check_passes_on_the_solver_output(solved):
    A, sol, reference = solved
    assert checks.check_solution(sol, A, lp.FEASIBILITY_TOL, reference) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda s: s.update(xi=[1.01 * x for x in s["xi"]]), "exceeds 1"),
    (lambda s: s.update(F_xi=s["F_xi"] * (1 + 1e-8)), "differs from reference"),
    (lambda s: s.update(xi=[s["floor"][0] / 2] + s["xi"][1:]), "below the floor"),
    (lambda s: s.update(xi=[s["xi"][1] + 1e-3] + s["xi"][1:]), "nondecreasing"),
    (lambda s: s.update(status="numeric-failure"), "status"),
])
def test_solution_check_fires_on_corrupted_output(solved, corrupt, message):
    A, sol, reference = solved
    bad = json.loads(json.dumps(sol))
    corrupt(bad)
    fails = checks.check_solution(bad, A, lp.FEASIBILITY_TOL, reference)
    assert any(message in f for f in fails), fails


def test_table1_check_fires_on_a_wrong_published_value(solved):
    A, sol, reference = solved
    right = (sol["F_floor"], sol["F_xi"])
    assert checks.check_solution(sol, A, lp.FEASIBILITY_TOL, reference, right) == []
    fails = checks.check_solution(sol, A, lp.FEASIBILITY_TOL, reference,
                                  (right[0] + 0.02, right[1]))
    assert any("F(c)" in f for f in fails)


def decisions_text(p, family, alpha):
    pv = PValueVector(p)
    spec = ProcedureSpec(family=family, n=p.size, alpha=alpha)
    decision, adjusted = run_procedure(pv, spec)
    return fileio.decisions_csv(pv, decision, adjusted, spec.name), decision.n_rejected


def flip_first_flag(text):
    lines = text.splitlines()
    head, flag = lines[3].rsplit(",", 1)
    lines[3] = f"{head},{'0' if flag == '1' else '1'}"
    return "\n".join(lines) + "\n"


def test_decision_checks_on_bh95():
    p = np.array(checks.BH95_PVALUES)
    for alpha in (0.05, 0.10):
        text, count = decisions_text(p, "by", alpha)
        assert count == checks.BH95_COUNTS[(None, "by", alpha, False)]
        assert checks.check_decisions(text, alpha, p, checks.by_reference(p, alpha), count) == []
        fails = checks.check_decisions(flip_first_flag(text), alpha, p,
                                       checks.by_reference(p, alpha), count)
        assert any("rows flagged" in f for f in fails)
        assert any("reference procedure" in f for f in fails)
        assert any("published" in f for f in checks.check_decisions(text, alpha, p,
                                                                    expected_count=count + 1))


def test_by_reference_agrees_with_the_package_on_random_data():
    rng = np.random.default_rng(5)
    p = np.concatenate([rng.uniform(size=300), rng.uniform(0, 1e-3, size=100)])
    for alpha in (0.05, 0.2):
        text, _ = decisions_text(p, "by", alpha)
        assert checks.check_decisions(text, alpha, p, checks.by_reference(p, alpha)) == []


def report(**changes):
    cells = []
    for name in ("FDP-BH-SU", "FDP-BH-SU (mod)", "FDR-BY-SU"):
        cells.append({"trueCount": 5, "d": 1.0, "procedure": name, "tailFDP": 0.1,
                      "fdr": 0.01, "se_tail": 0.001, "se_fdr": 0.001,
                      "containment_violations": 0 if "mod" in name else None})
    cells[changes.pop("cell", 0)].update(changes)
    return {"cells": cells, "failures": []}


def test_report_check():
    assert checks.check_report(report(), procedures=3, cells=1) == []
    assert checks.check_report(report(cell=1, containment_violations=2), 3, 1) == [
        "cell (5, 1.0) FDP-BH-SU (mod): 2 containment violations"]
    assert "tail FDP" in checks.check_report(report(tailFDP=0.6), 3, 1)[0]
    assert "FDR" in checks.check_report(report(cell=2, fdr=0.06), 3, 1)[0]
    dropped = report()
    dropped["failures"] = [{"procedure": "FDP-RS-SD", "error": "solver failed"}]
    assert checks.check_report(dropped, 3, 1) == ["dropped procedure FDP-RS-SD"]
    assert "expected 10 x 15" in checks.check_report(report(), procedures=10, cells=15)[0]


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER_METRICS)


def test_run_refuses_a_checkout_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "adjust-warm", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
