"""Tests of the benchmark's own arithmetic and failure accounting."""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import scem_rd.cli
from scem_rd import CollocationError, SolverConfig, example1, hybrid_solve
from scem_rd.config import config_from_dict
from scem_rd.system import validate_assumptions

from bench_checks import (
    Ledger,
    SolveRecorder,
    compare_convergence_table,
    per_solve_latency,
    tail_percentile,
)
from bench_metrics import END_TO_END, NAME_RE, PER_LAYER
from bench_trace import Tracer, install, patch, self_times, uninstall
from bench_workloads import REFERENCE_DIR, PaperTables, varcoef_config, varcoef_params

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(420) == 90  # 42 beyond p90, 4.2 beyond p99
    assert tail_percentile(1000) == 99
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None


def test_latency_is_taken_per_solve_across_repetitions():
    nan = float("nan")
    reps = [[1.0, 10.0, nan], [3.0, 30.0, nan], [2.0]]  # solve 3 always failed
    assert per_solve_latency(reps).tolist() == [2.0, 20.0]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["child", 1.0, 3.0, 0],
        ["child", 2.0, 4.0, 0],      # overlaps the first child: union is [1, 4]
        ["child", 9.0, 12.0, 0],     # only [9, 10] lies inside the parent
        ["grandchild", 1.5, 2.5, 1],  # covered by its own parent, not subtracted twice
        ["detached", 5.0, 6.0, None],
    ]
    own = self_times(spans)
    assert own["parent"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["child"] == pytest.approx((2.0 - 1.0) + 2.0 + 3.0)
    assert own["grandchild"] == pytest.approx(1.0)
    assert own["detached"] == pytest.approx(1.0)


def test_paused_checks_add_to_no_enclosing_span():
    tracer = Tracer()

    def body():
        with tracer.paused():
            time.sleep(0.2)
            tracer.wrap("inner", lambda: None)()  # not recorded while paused

    tracer.wrap("outer", body)()
    assert [row[0] for row in tracer.spans] == ["outer"]
    assert tracer.totals()["outer"] < 0.1


def test_metric_names_are_valid_and_listed_in_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in PER_LAYER]


def _paper_tables_with_outputs(tmp_path: Path) -> tuple[PaperTables, Ledger]:
    ledger = Ledger()
    workload = PaperTables(tmp_path, seed=1, ledger=ledger)
    workload.prepare()
    for ref in REFERENCE_DIR.glob("*.csv"):
        shutil.copy(ref, workload.out_dir / ref.name)
    return workload, ledger


def test_reference_tables_pass_unchanged(tmp_path):
    workload, ledger = _paper_tables_with_outputs(tmp_path)
    workload.check(first=True)
    assert (ledger.attempted, ledger.failed) == (5, 0)


@pytest.mark.parametrize("row, col, value", [(3, 2, "4.8e-10"), (-1, 1, "3.9")])
def test_perturbed_table_is_counted_as_failed(tmp_path, row, col, value):
    workload, ledger = _paper_tables_with_outputs(tmp_path)
    target = workload.out_dir / "example1_convergence_y1.csv"
    lines = target.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    assert compare_convergence_table(target, REFERENCE_DIR / target.name)
    workload.check(first=True)
    assert (ledger.attempted, ledger.failed) == (5, 1)


def test_solver_exception_is_counted_not_dropped(tmp_path):
    ledger = Ledger()
    recorder = SolveRecorder(ledger)

    def failing(sys, cfg=None):
        raise CollocationError("forced failure")

    with pytest.raises(CollocationError):
        recorder.wrap(failing)(example1(0.5))
    assert (ledger.attempted, ledger.failed) == (1, 1)

    workload = PaperTables(tmp_path, seed=1, ledger=ledger)
    workload.prepare()
    undo = patch([(scem_rd.cli, "hybrid_solve", recorder.wrap(failing))])
    try:
        workload._cli(["convergence", "--problem", "example1", "--eps", "0.5",
                       "--n", "4,8", "--no-adapt", "--out", str(workload.out_dir)])
    finally:
        uninstall(undo)
    assert ledger.failed == ledger.attempted > 2  # every solve and the CLI call
    assert ledger.failed_frac == 1.0


def test_varcoef_systems_are_seeded_and_admissible():
    assert varcoef_params(7) == varcoef_params(7)
    assert varcoef_params(7) != varcoef_params(8)
    for seed in range(20):
        problem = config_from_dict(varcoef_config(varcoef_params(seed), f"varcoef{seed}"))
        assert validate_assumptions(problem.build_system(1e-4)).passed


def test_tracing_leaves_results_bitwise_identical_and_is_removable():
    sys = example1(1e-3)
    cfg = SolverConfig()
    xs = np.linspace(0.0, 1.0, 101)
    plain = hybrid_solve(sys, cfg).eval_many(xs)
    original = scem_rd.scem.solve
    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = scem_rd.scem.hybrid_solve(sys, cfg).eval_many(xs)
    finally:
        uninstall(undo)
    assert scem_rd.scem.solve is original
    assert np.array_equal(plain, traced)
    assert tracer.counts["collocation.solve.calls"] == 2
    assert [s["passes"] for s in tracer.solve_stats] == [1, 1]
    assert tracer.totals()["collocation.solve"] > 0.0
