"""Tests of the benchmark itself (not part of the package's suite).

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from proxlab import InexactCriterion, StepSchedule, make_benchmark, run_ippm  # noqa: E402
from proxlab.errors import InnerBudgetExhausted  # noqa: E402


def test_deck_is_a_function_of_the_seed():
    for workload in bench_workloads.WORKLOADS:
        first = bench_workloads.build_deck(workload, 5)
        assert first == bench_workloads.build_deck(workload, 5)
        assert first != bench_workloads.build_deck(workload, 6)
        commands = sorted(job["cmd"] for job in first)
        assert commands == sorted(job["cmd"] for job in bench_workloads.build_deck(workload, 6))


def test_coverage_map_names_every_shipped_config():
    shipped = {p.name for p in (ROOT / "experiments").glob("*.json")}
    assert set(bench_workloads.COVERAGE) == shipped
    assert set(bench_workloads.COVERAGE.values()) == set(bench_workloads.WORKLOADS)


def test_tail_is_the_eleventh_slowest_job():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert value == 89.0 and pct == 90.0
    assert run.tail([float(i) for i in range(29)]) == (14.0, 50.0)


# -- output checks ---------------------------------------------------------

def test_kkt_check_holds_the_residual_to_what_the_last_step_certifies():
    data = {"n": 20, "m": 50, "s": 10, "seed": 7, "lam": 10.0, "en_reg": 1.0}
    a_mat, y = bench_checks.regression_data(20, 50, 10, 7)

    class Trace:
        pass

    trace = Trace()
    # A zero step certifies only its own inner residual.
    x = np.zeros(50)
    trace.points, trace.steps, trace.residuals = [x, x], [1.0, 1.0], [0.0, None]
    res = bench_checks.kkt_residual(a_mat, y, 10.0, 1.0, x)
    assert res > 0.0
    assert bench_checks._check_kkt(data, trace)
    trace.residuals = [res, None]
    assert bench_checks._check_kkt(data, trace) == []


def test_report_check_flags_a_wrong_constant_and_a_failed_relation(tmp_path):
    body = {"constants": {k: {"value": v} for k, v in bench_checks.ANALYTIC["quad1d"].items()},
            "audit": [{"relation": "mu_r >= mu_s", "status": "pass"}]}
    (tmp_path / "report.json").write_text(json.dumps(body))
    assert bench_checks._check_report(tmp_path / "report.json", "quad1d") == []
    body["constants"]["mu_q"]["value"] = 1.2
    body["audit"][0]["status"] = "fail"
    (tmp_path / "report.json").write_text(json.dumps(body))
    assert len(bench_checks._check_report(tmp_path / "report.json", "quad1d")) == 2


# -- traced runs -------------------------------------------------------------

def _traced_pass(workload: str, seed: int, tmp_path: Path, jobs: int | None = None):
    session = run.Session(workload, seed, tmp_path, "test")
    if jobs is not None:
        session.deck = session.deck[:jobs]
    tracer = Tracer()
    tracer.install()
    try:
        times = run.run_passes(session, 1, failures := [], tracer).times
    finally:
        tracer.uninstall()
        session.close()
    assert failures == []
    return tracer.metrics(len(times))


COUNT_RATIOS = ("prox.composite.grad_per_iter", "regularity.included_frac",
                "cli.estimate_calls_per_job")


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if run.per_layer_units(k) == "count" or k in COUNT_RATIOS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of each workload with one seed (ml_solve: four jobs)."""
    out = {}
    for workload, jobs in (("scalar_steps", None), ("estimate_audit", None),
                           ("ml_solve", 4)):
        out[workload] = [_traced_pass(workload, 3, tmp_path_factory.mktemp(workload), jobs)
                         for _ in range(2)]
    return out


def test_traced_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        counts = _counts(first)
        assert counts == _counts(second), workload
        assert "prox.bisect_1d.inner_iters" in counts and "traceio.rows" in counts


def test_layer_shares_confirm_the_workload_design(traced):
    ml, est, scalar = (traced[w][0] for w in ("ml_solve", "estimate_audit", "scalar_steps"))
    assert ml["share.prox"] > 0.5
    assert ml["ppm.reference_s"] > 0.0 and ml["prox.composite.calls"] > 0
    assert ml["regularity.samples"] == 0 and ml["share.regularity"] == 0.0
    assert est["share.regularity"] + est["share.problem"] > 0.5
    assert est["regularity.samples"] > 0
    loops = sum(scalar[f"share.{layer}"] for layer in ("ppm", "ippm", "gd", "prox"))
    assert loops > 0.5 and scalar["prox.bisect_1d.calls"] > 0
    assert scalar["prox.composite.calls"] == 0 and scalar["prox.svm_dual.calls"] == 0
    assert scalar["regularity.samples"] == 0 and scalar["share.regularity"] == 0.0


# -- the known defect the iPPM horizon cap avoids ------------------------------

@pytest.mark.xfail(raises=InnerBudgetExhausted, strict=True,
                   reason="an A' budget below double precision exhausts the 1-d "
                          "bisection instead of stopping with a named reason")
def test_ippm_horizon_60_budget_below_resolution():
    p = make_benchmark("sine_quad")
    run_ippm(p, [3.0], StepSchedule.constant(0.05),
             InexactCriterion("A'", eps0=0.1, gamma=0.5), max_iter=60)


# -- the command line -----------------------------------------------------------

def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scalar_steps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_the_runs_report(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = _traced_pass("scalar_steps", 1, tmp_path, jobs=3)
    metrics["bench.trace_overhead_frac"] = 0.0
    assert per_layer == {k: run.per_layer_units(k) for k in metrics}
    assert all(math.isfinite(v) for v in metrics.values())
    assert os.path.basename(spec["command"][1]) == "run.py"
