import copy
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxlab import (InnerBudgetExhausted, StepSchedule, cli, generate_lasso_data,
                     make_blob_dataset, read_trace_csv, run_ppm)
from proxlab.cli import main
from proxlab.traceio import CSV_HEADER, emit_trace_csv

from oracles import longest_run_below
from test_zoo import libsvm_text

EXPERIMENTS = Path(__file__).parent.parent / "experiments"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def test_run_ppm_benchmark_with_audit(tmp_path):
    cfg = write_config(tmp_path, "quad.json", {
        "problem": {"benchmark": "quad1d"},
        "schedule": {"constant": 1.0},
        "x0": [1.0],
        "max_iter": 12,
        "nu": 1.0,
        "test_mode": True,
        "estimate": True,
        "audit": True,
    })
    out = tmp_path / "out"
    assert main(["run-ppm", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(a["status"] == "pass" for a in report["audit"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bounds_ok"]
    rows = read_trace_csv(out / "trace.csv")
    assert rows.k == list(range(len(rows.k)))
    assert rows.cost_gap[-1] <= 1e-10  # stopped on the gap rule


def test_trace_csv_row_count_and_empty_columns(tmp_path, lasso_toy_ref):
    trace = run_ppm(lasso_toy_ref, np.zeros(2), StepSchedule.constant(0.16),
                    max_iter=3, stop_gap=0.0, stop_residual=0.0)
    path = tmp_path / "t.csv"
    emit_trace_csv(trace, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # three iterations -> four data rows
    assert "\r" not in text
    parsed = read_trace_csv(path)
    assert parsed.dist == [None] * 4  # no solution oracle on the l1 problem
    assert parsed.cost_gap[0] is not None


def test_read_trace_csv_gives_lists_with_none(tmp_path, quad1d):
    # The parsed view stays plain Python: k a list of int, empty cells None.
    trace = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=3,
                    stop_gap=0.0, stop_residual=0.0)
    emit_trace_csv(trace, tmp_path / "t.csv")
    parsed = read_trace_csv(tmp_path / "t.csv")
    assert parsed.k == [0, 1, 2, 3] and all(type(k) is int for k in parsed.k)
    assert all(type(v) is float for v in parsed.f)
    assert parsed.residual_norm[-1] is None
    assert parsed.eps == parsed.delta == [None] * 4  # exact run: no budgets


def test_trace_csv_round_trip(tmp_path, quad1d):
    trace = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=6,
                    stop_gap=0.0, stop_residual=0.0)
    path = tmp_path / "rt.csv"
    emit_trace_csv(trace, path)
    parsed = read_trace_csv(path)
    gaps = trace.gaps
    dists = trace.dists
    for k in range(len(trace)):
        assert abs(parsed.f[k] - trace.values[k]) <= 1e-15 * max(1.0, abs(trace.values[k]))
        assert abs(parsed.cost_gap[k] - gaps[k]) <= 1e-15
        assert abs(parsed.dist[k] - dists[k]) <= 1e-15


def test_lasso_config_produces_linear_decay(tmp_path):
    cfg = write_config(tmp_path, "lasso.json", {
        "problem": {"ml": "lasso",
                    "data": {"lasso": {"n": 10, "m": 40, "s": 5, "seed": 1}},
                    "params": {"lam": 10.0}},
        "schedule": {"constant": 0.16},
        "x0": "zeros",
        "max_iter": 50,
        "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["run-ppm", "--config", cfg, "--out", str(out)]) == 0
    rows = read_trace_csv(out / "trace.csv")
    gaps = [g for g in rows.cost_gap if g is not None and g > 1e-11]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert longest_run_below(ratios, 0.999) >= 20


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "svm.json", {
        "problem": {"ml": "svm", "data": {"blobs": {"n": 40, "d": 3, "seed": 5}},
                    "params": {"svm_reg": 1.0}},
        "schedule": {"constant": 1.0},
        "max_iter": 20,
        "seed": 5,
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run-ippm", "--config", cfg, "--out", str(out1),
                 ]) == 1  # missing criterion: operational error, not a crash
    cfg2 = write_config(tmp_path, "svm2.json", {
        **json.loads((tmp_path / "svm.json").read_text()),
        "criterion": {"kind": "A'", "eps0": 0.05, "gamma": 0.6},
    })
    assert main(["run-ippm", "--config", cfg2, "--out", str(out1)]) == 0
    assert main(["run-ippm", "--config", cfg2, "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_seed_override_changes_data(tmp_path):
    body = {
        "problem": {"ml": "lasso", "data": {"lasso": {"n": 8, "m": 20, "s": 4}},
                    "params": {"lam": 5.0}},
        "schedule": {"constant": 0.2},
        "max_iter": 10,
        "seed": 1,
    }
    cfg = write_config(tmp_path, "seeded.json", body)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run-ppm", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run-ppm", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_gd_exit_code_two_on_false_constants(tmp_path):
    cfg = write_config(tmp_path, "gd.json", {
        "problem": {"benchmark": "aniso_quad"},
        "gd": {"mu": 8.0, "beta": 1.0},  # claimed secant growth is far too strong
        "x0": [1.0, 1.0],
        "max_iter": 30,
        "test_mode": True,
    })
    assert main(["run-gd", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_gd_valid_constants_exit_zero(tmp_path):
    body = {
        "problem": {"benchmark": "aniso_quad"},
        "gd": {"mu": 1.0, "beta": 1.0},
        "x0": [1.0, 1.0],
        "max_iter": 30,
        "test_mode": True,
    }
    cfg = write_config(tmp_path, "gd_ok.json", body)
    assert main(["run-gd", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert _checks(tmp_path / "out") == {"gd_dist": True, "gd_cost": True}


GD_FALSE_CONSTANTS = {"problem": {"benchmark": "aniso_quad"}, "gd": {"mu": 8.0, "beta": 1.0},
                      "x0": [1.0, 1.0], "max_iter": 30, "test_mode": True}


def run_python(*argv) -> subprocess.CompletedProcess:
    """A child interpreter on ``argv`` that imports proxlab from src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.mark.parametrize("cmd,body,code,err", [
    ("run-gd", None, 0, ""),  # the shipped experiments/gd_aniso.json
    ("run-ppm", {"problem": {"benchmark": "cubic"}}, 1, "config error: problem.benchmark"),
    ("run-gd", GD_FALSE_CONSTANTS, 2, "bound-check failure: ['gd_dist']"),
])
def test_module_entry_point_exit_codes(tmp_path, cmd, body, code, err):
    # ``python -m proxlab.cli`` in a child process: its exit code and stderr.
    cfg = EXPERIMENTS / "gd_aniso.json" if body is None else write_config(tmp_path, "c.json", body)
    done = run_python("-m", "proxlab.cli", cmd, "--config", cfg, "--out", tmp_path / "out")
    assert done.returncode == code
    assert done.stderr.startswith(err) and done.stderr.count("\n") == (code != 0)
    assert (tmp_path / "out" / "summary.json").exists() == (code != 1)



def run_fresh(script: str, *args) -> None:
    """Run ``script`` with ``args`` in a fresh interpreter, and fail with its
    stderr unless it exits 0."""
    done = run_python("-c", script, *args)
    assert done.returncode == 0, done.stderr


OPENSSL = ("_hashlib", "hmac", "secrets")
LASSO_BYTES = """
import sys
from pathlib import Path
from proxlab.zoo import generate_lasso_data
Path(sys.argv[-1]).write_bytes(b"".join(a.tobytes() for a in generate_lasso_data(30, 60, 15, 11)))
"""


def lasso_bytes_match(path) -> bool:
    """Whether ``path`` holds the bytes of generate_lasso_data(30, 60, 15, 11) in this process."""
    want = b"".join(a.tobytes() for a in generate_lasso_data(30, 60, 15, 11))
    return Path(path).read_bytes() == want


def test_drawing_runs_load_no_openssl(tmp_path):
    # A primed iPPM run draws nothing; the lasso data, the test-mode iPPM steps
    # and the estimator's Gaussian sample draw through problem.default_rng,
    # which imports numpy.random without secrets, hmac and OpenSSL.  Then a
    # later ``import secrets`` is the real one, a seedless generator works, and
    # the data are those of a process that imported numpy.random normally.
    test_mode = write_config(tmp_path, "a.json", {
        "problem": {"benchmark": "quad1d"}, "criterion": {"kind": "A", "gamma": 0.5},
        "schedule": {"constant": 1.0}, "x0": [1.0], "max_iter": 20, "test_mode": True})
    script = f"""
import sys
from pathlib import Path
from proxlab.cli import main
out, exp = Path(sys.argv[1]), Path(sys.argv[2])
def run(cmd, config, name):
    assert main([cmd, "--config", str(config), "--out", str(out / name)]) == 0, name
run("run-ippm", exp / "ippm_quad1d_aprime.json", "primed")
assert "numpy.random" not in sys.modules
run("run-ppm", exp / "lasso_small.json", "lasso")
run("run-ippm", sys.argv[3], "test_mode")
run("estimate", exp / "elastic_net_medium.json", "estimate")
assert "numpy.random" in sys.modules
loaded = [name for name in {OPENSSL!r} if name in sys.modules]
assert not loaded, loaded
import secrets
assert len(secrets.token_hex(4)) == 8
import numpy as np
assert 0.0 <= np.random.default_rng().random() < 1.0
""" + LASSO_BYTES
    run_fresh(script, tmp_path, EXPERIMENTS, test_mode, tmp_path / "lasso.bin")
    summary = json.loads((tmp_path / "test_mode" / "summary.json").read_text())
    assert summary["bounds_ok"]
    assert lasso_bytes_match(tmp_path / "lasso.bin")


def test_default_rng_leaves_an_imported_secrets_alone(tmp_path):
    script = """
import sys
import secrets
from proxlab.problem import default_rng
default_rng(0)
assert sys.modules["secrets"] is secrets and "numpy.random" in sys.modules
""" + LASSO_BYTES
    run_fresh(script, tmp_path / "lasso.bin")
    assert lasso_bytes_match(tmp_path / "lasso.bin")


def test_default_rng_imports_numpy_random_normally_past_a_short_stand_in(tmp_path):
    # A numpy that wants more from secrets than randbits: the stand-in here
    # keeps no attribute, so numpy.random's import fails against it and is
    # made again with the real secrets, and the streams stay numpy's own.
    script = """
import sys
import types
class Bare(types.ModuleType):
    def __setattr__(self, name, value):
        pass
types.ModuleType = Bare
from proxlab.problem import default_rng
default_rng(0)
assert type(sys.modules["secrets"]) is not Bare and "_hashlib" in sys.modules
""" + LASSO_BYTES
    run_fresh(script, tmp_path / "lasso.bin")
    assert lasso_bytes_match(tmp_path / "lasso.bin")

def test_config_errors_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"problem": {"benchmark": "cubic"}})
    assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "problem.benchmark" in capsys.readouterr().err
    assert main(["run-ppm", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1
    cfg2 = write_config(tmp_path, "nosolver.json", {"problem": {"benchmark": "quad1d"}})
    assert main(["run-ippm", "--config", cfg2, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("body,line", [
    ({"problem": {}}, "config error: problem: needs either 'benchmark' or 'ml'\n"),
    ({"problem": {"benchmark": "quad1d"}, "x0": [1.0, 2.0]},
     "config error: x0: shape (2,), problem dimension is 1\n"),
])
def test_config_error_names_its_field_once(tmp_path, capsys, body, line):
    cfg = write_config(tmp_path, "bad.json", body)
    assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == line


def test_estimate_and_audit_subcommands(tmp_path):
    cfg = write_config(tmp_path, "wc.json", {"problem": {"benchmark": "wc_piecewise"}})
    out = tmp_path / "audit"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["constants"]["mu_q"]["value"] == pytest.approx(3.0, rel=0.05)
    assert {a["relation"]: a["status"] for a in report["audit"]}[
        "mu_r >= mu_q - rho/2"] == "pass"
    out2 = tmp_path / "estimate"
    assert main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
    assert "audit" not in json.loads((out2 / "report.json").read_text())


def test_non_finite_libsvm_value_exits_one_at_once(tmp_path, capsys):
    data = tmp_path / "inf.libsvm"
    data.write_text("+1 1:0.5 2:1\n-1 1:inf\n", encoding="utf-8")
    cfg = write_config(tmp_path, "svm.json", {
        "problem": {"ml": "svm", "data": {"libsvm": str(data)}},
        "schedule": {"constant": 1.0}, "max_iter": 5})
    start = time.perf_counter()
    assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: non-finite feature value") and err.count("\n") == 1


@pytest.mark.parametrize("name,field,value", [
    ("lasso_small", "lam", math.nan),  # spun to the inner budget in the reference solve
    ("lasso_small", "lam", math.inf),  # exited 0 with a RuntimeWarning
    ("svm_synthetic", "svm_reg", math.nan),  # did not end
    ("elastic_net_medium", "en_reg", math.nan),  # "Eigenvalues did not converge"
    ("elastic_net_medium", "en_reg", math.inf),
    ("quad1d_audit", "x0", [1e300]),  # exited 0 with f = inf in row 0
])
def test_non_finite_parameters_exit_one_naming_the_field(tmp_path, capsys, monkeypatch,
                                                           name, field, value):
    # A regression would show as a spin to the lowered inner budget, not a hang.
    monkeypatch.setattr(importlib.import_module("proxlab.prox"), "MAX_INNER", 100)
    body = json.loads((EXPERIMENTS / f"{name}.json").read_text())
    (body if field == "x0" else body["problem"]["params"])[field] = value
    body["max_iter"] = 30
    cfg = write_config(tmp_path, "bad.json", body)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}") and err.count("\n") == 1
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("separation,line", [
    (math.nan, "config error: problem.data.blobs.separation: expected a finite number"),
    (math.inf, "config error: problem.data.blobs.separation: expected a finite number"),
    (1e300, "config error: squared row norms of the features overflow"),  # ran past 60 s
])
def test_blobs_that_break_the_data_exit_one(tmp_path, capsys, monkeypatch, separation, line):
    # A non-finite separation printed "error: non-finite entries in dataset".  A
    # regression would show as a spin to the lowered inner budget, not a hang.
    monkeypatch.setattr(importlib.import_module("proxlab.prox"), "MAX_INNER", 100)
    body = json.loads((EXPERIMENTS / "svm_synthetic.json").read_text())
    body["problem"]["data"]["blobs"]["separation"] = separation
    body["max_iter"] = 30
    cfg = write_config(tmp_path, "bad.json", body)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1
    assert not list((tmp_path / "o").iterdir())


def test_huge_step_gives_the_limit_of_the_distance_factor(tmp_path):
    # c * c overflowed in RateBounds.theta: a RuntimeWarning and a dist_factor of 0.
    body = json.loads((EXPERIMENTS / "quad1d_audit.json").read_text())
    body["schedule"] = {"constant": 1e300}
    cfg = write_config(tmp_path, "huge.json", body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report, summary = (json.loads((tmp_path / "o" / name).read_text())
                       for name in ("report.json", "summary.json"))
    assert summary["bounds"]["dist_factor"] == report["constants"]["mu_e"]["value"] / 1e300


def test_step_at_the_top_of_the_float_range_meets_every_bound(tmp_path):
    # 2 c overflowed in check_one_step, and inf times the exact step's zero gap
    # and residual is NaN: one_step_improvement failed (exit 2), with seven
    # overflow warnings from the checkers and the factors.
    body = json.loads((EXPERIMENTS / "quad1d_audit.json").read_text())
    body["schedule"] = {"constant": 1.5e308}
    cfg = write_config(tmp_path, "huge.json", body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["bounds_ok"] and summary["asserted"] == 4
    assert summary["bounds"] == {"cost_factor": 0.0, "dist_factor": 0.0}


def test_run_gd_stops_at_a_tiny_gap(tmp_path):
    # run_gd passed no stop rule to the loop: at this horizon it never ended.
    body = json.loads((EXPERIMENTS / "gd_aniso.json").read_text())
    cfg = write_config(tmp_path, "long.json", {**body, "max_iter": 10**12})
    assert main(["run-gd", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "gap" and summary["final_gap"] <= 1e-10
    assert summary["bounds_ok"]


def test_svm_libsvm_config_path(tmp_path):
    data = tmp_path / "toy.libsvm"
    data.write_text("+1 1:1 2:0.5\n-1 1:-1 2:-0.5\n+1 1:0.8\n-1 2:-1\n",
                    encoding="utf-8")
    cfg = write_config(tmp_path, "svmfile.json", {
        "problem": {"ml": "svm", "data": {"libsvm": str(data)},
                    "params": {"svm_reg": 1.0}},
        "schedule": {"constant": 1.0},
        "max_iter": 15,
    })
    out = tmp_path / "outsvm"
    assert main(["run-ppm", "--config", cfg, "--out", str(out)]) == 0
    rows = read_trace_csv(out / "trace.csv")
    assert rows.cost_gap[-1] <= rows.cost_gap[0]


def test_stop_below_resolution_writes_partial_run(tmp_path):
    # The A' budget drops below double precision at step 50.
    cfg = write_config(tmp_path, "floor.json", {
        "problem": {"benchmark": "sine_quad"},
        "criterion": {"kind": "A'", "eps0": 0.1, "gamma": 0.5},
        "schedule": {"constant": 0.05},
        "x0": [3.0],
        "max_iter": 60,
    })
    out = tmp_path / "out"
    assert main(["run-ippm", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "resolution" and summary["iterations"] < 60
    rows = read_trace_csv(out / "trace.csv")
    assert len(rows) == summary["iterations"] + 1
    assert rows.f[-1] == summary["final_value"]


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def _checks(out):
    return {c["name"]: c["ok"] for c in _summary(out)["checks"]}


@pytest.mark.parametrize("cmd,extra", [
    ("run-ppm", {}),
    ("run-ippm", {"criterion": {"kind": "A'", "eps0": 0.1, "gamma": 0.5}}),
    ("run-ippm", {"criterion": {"kind": "B", "delta0": 0.5, "gamma": 0.7}}),
])
def test_weakly_convex_test_mode_asserts_only_theorems(tmp_path, cmd, extra):
    # sine_quad is 10-weakly convex and this run stalls at the suboptimal
    # stationary point near 2.613, where the convex envelopes do not hold.
    # The inexact one-step bound rests on the nonexpansive exact prox, also a
    # convex result.
    cfg = write_config(tmp_path, "wc.json", {
        "problem": {"benchmark": "sine_quad"}, "schedule": {"constant": 0.05},
        "x0": [3.0], "max_iter": 60, "test_mode": True, **extra})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
    assert _checks(out) == ({"one_step_improvement": True} if cmd == "run-ppm" else {})
    convex_rows = ({"sublinear_envelope"} if cmd == "run-ppm"
                   else {"ippm_best_iterate", "inexact_one_step"})
    assert {row for row, why in _summary(out)["skipped"].items()
            if why == "convex result, rho = 10"} == convex_rows


@pytest.mark.parametrize("cmd,extra,names", [
    ("run-ppm", {}, {"sublinear_envelope", "one_step_improvement"}),
    ("run-ippm", {"criterion": {"kind": "A'", "eps0": 0.1, "gamma": 0.5}},
     {"ippm_best_iterate"}),
    ("run-ippm", {"criterion": {"kind": "B", "delta0": 0.5, "gamma": 0.7}},
     {"inexact_one_step"}),
])
def test_convex_test_mode_asserts_the_envelopes(tmp_path, cmd, extra, names):
    cfg = write_config(tmp_path, "convex.json", {
        "problem": {"benchmark": "quad_quartic"}, "schedule": {"constant": 0.5},
        "x0": [1.5], "max_iter": 30, "test_mode": True, **extra})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
    checks = _checks(out)
    assert set(checks) == names and all(checks.values())


@pytest.mark.parametrize("cmd,body", [
    # A schedule without its constant step, and a step that is not positive.
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "schedule": {"sequence": [0.5]}}),
    ("run-ippm", {"problem": {"benchmark": "quad1d"}, "criterion": {"kind": "A'"},
                  "schedule": {"constant": 0}}),
    ("run-ippm", {"problem": {"benchmark": "quad1d"}, "criterion": {"kind": "C"}}),
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "x0": "ones"}),
    # JSON as Python reads it accepts NaN; 2^1024 overflows a float.
    ("run-ppm", {"problem": {"benchmark": "quad_quartic"},
                 "schedule": {"constant": float("nan")}, "test_mode": True}),
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "max_iter": -3}),
    # Values of the wrong JSON type.
    ("run-ppm", []),
    ("run-ppm", {"problem": 3, "schedule": {"constant": 1.0}}),
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "schedule": {"constant": 1.0},
                 "max_iter": "10"}),
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "schedule": {"constant": 1.0},
                 "x0": {"a": 1}}),
    ("estimate", {"problem": {"ml": "svm", "data": {}}}),
    # A data file that cannot be read.
    ("run-ppm", {"problem": {"ml": "svm", "data": {"libsvm": "no_such_dir/data.libsvm"}},
                 "schedule": {"constant": 1.0}}),
    # A gd section without mu on a problem whose metadata has no mu_r.
    ("run-gd", {"problem": {"benchmark": "sine_quad"}, "gd": {}, "x0": [1.0]}),
])
def test_rejected_config_values_exit_one(tmp_path, capsys, cmd, body):
    cfg = write_config(tmp_path, "bad.json", body)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    # Rejected before any step or estimate.
    assert not {"trace.csv", "report.json"} & {f.name for f in (tmp_path / "o").glob("*")}


@pytest.mark.parametrize("cmd,body", [
    ("estimate", {"problem": {"benchmark": "quad1d"}, "nu": math.nan}),
    ("run-ppm", {"problem": {"benchmark": "quad1d"}, "nu": math.nan, "estimate": True}),
])
def test_nan_nu_exits_one_naming_it(tmp_path, capsys, cmd, body):
    # A NaN nu cut no sample: estimate exited 0 with "nu": "inf" in report.json.
    cfg = write_config(tmp_path, "bad.json", body)
    start = time.perf_counter()
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: nu = nan") and err.count("\n") == 1
    assert not list((tmp_path / "o").iterdir())  # refused before the run


# The subcommand that reads a section, where run-ppm does not.
READERS = {"criterion": "run-ippm", "gd": "run-gd"}


@pytest.mark.parametrize("field,value", [
    ("problem", 3), ("schedule", 3), ("max_iter", "10"), ("max_iter", True), ("x0", {"a": 1}),
    ("criterion", "A'"), ("gd", []), ("seed", "x"),
    # A schedule of only the step list or the geometric rule, which are not read.
    ("schedule.constant", {"sequence": [0.5]}),
    ("schedule.constant", {"geometric": {"c0": 1.0, "growth": 1.0}}),
    # A nested field: the value is its whole section.
    ("problem.params", {"ml": "lasso", "params": [1]}),
    ("problem.data", {"ml": "lasso", "data": 3}),
    ("problem.data.lasso", {"ml": "lasso", "data": {"lasso": [20, 50, 10]}}),
    ("problem.data.blobs", {"ml": "svm", "data": {"blobs": 3}}),
    # A scalar field inside its section or list, and the top-level nu and flags.
    ("problem.data.libsvm", {"ml": "svm", "data": {"libsvm": 3}}),
    ("criterion.kind", {"kind": 3}), ("criterion.eps0", {"kind": "A'", "eps0": "x"}),
    ("schedule.constant", {"constant": "x"}),
    ("gd.mu", {"mu": "x"}), ("gd.beta", {"beta": [1]}),
    ("criterion.delta0", {"kind": "B", "delta0": "x"}),
    ("problem.data.blobs.n", {"ml": "svm", "data": {"blobs": {"n": 6.5, "d": 2}}}),
    ("criterion", [{"kind": "A'"}, 3]),
    ("problem.data.lasso.n", {"ml": "lasso", "data": {"lasso": {"n": "x", "m": 6, "s": 2}}}),
    ("criterion.gamma", {"kind": "A'", "gamma": "x"}), ("nu", "x"),
    ("problem.params.en_reg", {"ml": "elastic_net", "params": {"en_reg": "x"}}),
    ("problem.params.lam", {"ml": "lasso", "params": {"lam": "x"}}), ("x0", ["x"]),
    ("test_mode", "yes"), ("estimate", 1), ("audit", "no"),
    # A missing required field, named by its path.
    ("problem.data.lasso.n", {"ml": "lasso", "data": {"lasso": {"m": 6, "s": 2}}}),
    ("problem.data.blobs.d", {"ml": "svm", "data": {"blobs": {"n": 6}}}),
    ("problem.data.blobs.n", {"ml": "svm", "data": {"blobs": {"d": 2}}}),
    # A negative seed, which numpy's generator would reject without the path.
    ("seed", -1),
    ("problem.data.lasso.seed",
     {"ml": "lasso", "data": {"lasso": {"n": 4, "m": 6, "s": 2, "seed": -1}}}),
    ("problem.data.blobs.seed", {"ml": "svm", "data": {"blobs": {"n": 6, "d": 2, "seed": -2}}}),
])
def test_wrong_json_type_names_the_field(tmp_path, capsys, field, value):
    section = field.split(".")[0]
    body = {"problem": {"benchmark": "quad1d"}, "schedule": {"constant": 1.0}, section: value}
    cfg = write_config(tmp_path, "bad.json", body)
    cmd = READERS.get(section, "run-ppm")
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: expected ")


# An integer a float cannot hold (401 digits) in each number field.
HUGE = int("9" * 401)


@pytest.mark.parametrize("cmd,field,body", [
    ("run-ppm", "problem.params.svm_reg",
     {"problem": {"ml": "svm", "data": {"blobs": {"n": 6, "d": 2}}, "params": {"svm_reg": HUGE}}}),
    ("run-ppm", "schedule.constant", {"schedule": {"constant": HUGE}}),
    ("run-ippm", "criterion.gamma", {"criterion": {"kind": "A'", "gamma": HUGE}}),
    ("run-ppm", "x0", {"x0": [HUGE]}),
    ("run-ppm", "problem.data.blobs.separation",
     {"problem": {"ml": "svm", "data": {"blobs": {"n": 6, "d": 2, "separation": HUGE}}}}),
    ("estimate", "nu", {"nu": HUGE}),
    ("run-ippm", "criterion.eps0", {"criterion": {"kind": "A'", "eps0": HUGE}}),
])
def test_integer_too_large_for_a_float_names_the_field(tmp_path, capsys, cmd, field, body):
    # It ended in "OverflowError: int too large to convert to float" and a traceback.
    cfg = write_config(tmp_path, "big.json", {"problem": {"benchmark": "quad1d"}, **body})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1


def lasso(n=4, m=6, s=2):
    return {"ml": "lasso", "data": {"lasso": {"n": n, "m": m, "s": s}}}


def blobs(n=6, d=2):
    return {"ml": "svm", "data": {"blobs": {"n": n, "d": d}}}


@pytest.mark.parametrize("field,problem", [
    ("problem.data.lasso.n", lasso(n=10 ** 400)), ("problem.data.lasso.m", lasso(m=10 ** 400)),
    ("problem.data.lasso.s", lasso(s=10 ** 400)), ("problem.data.blobs.n", blobs(n=10 ** 400)),
    ("problem.data.blobs.d", blobs(d=10 ** 400)), ("problem.data.lasso.s", lasso(s=-1)),
])
def test_array_size_out_of_range_names_the_field(tmp_path, capsys, field, problem):
    # It printed numpy's "Maximum allowed dimension exceeded" or "negative
    # dimensions are not allowed" with no field, or ended in a traceback.
    cfg = write_config(tmp_path, "big.json", {"problem": problem})
    assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not list((tmp_path / "o").iterdir())


# The smallest config of each loop.
LOOPS = {"run-ppm": {"problem": {"benchmark": "quad1d"}},
         "run-ippm": {"problem": {"benchmark": "quad1d"}, "criterion": {"kind": "A'"}},
         "run-gd": {"problem": {"benchmark": "aniso_quad"}, "gd": {"mu": 1.0, "beta": 1.0},
                    "x0": [1.0, 1.0]}}


@pytest.mark.parametrize("max_iter", [-3, 10 ** 400], ids=["negative", "401_digits"])
@pytest.mark.parametrize("cmd", sorted(LOOPS))
def test_max_iter_out_of_range_names_the_field(tmp_path, capsys, cmd, max_iter):
    # -3 ran no step and exited 0.  10**400 printed a 400-digit "c_999...9 = inf"
    # line, and run-gd ran until it was killed.
    cfg = write_config(tmp_path, "big.json", {**LOOPS[cmd], "max_iter": max_iter})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: max_iter: expected an array size, from 0 to ")
    assert err.count("\n") == 1 and not list((tmp_path / "o").iterdir())


def test_negative_seed_option_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", {"problem": {"benchmark": "quad1d"}})
    assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: seed: expected non-negative integer, got -1\n"


@pytest.mark.parametrize("config,out", [
    (".", "o"),              # --config names a directory
    ("ok.json", "ok.json"),  # --out names an existing file
])
def test_unusable_paths_exit_one(tmp_path, capsys, config, out):
    write_config(tmp_path, "ok.json", {"problem": {"benchmark": "quad1d"},
                                       "schedule": {"constant": 1.0}})
    assert main(["run-ppm", "--config", str(tmp_path / config),
                 "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_non_finite_iterates_write_partial_run(tmp_path, monkeypatch, aniso_quad):
    # An aniso_quad(9) that states L = 0.25: the step t = mu / L^2 = 4 exceeds
    # 2/9, x_2 grows 35-fold per step and the iterates overflow.
    monkeypatch.setattr(cli, "make_benchmark", lambda name: replace(aniso_quad, smoothness=0.25))
    cfg = write_config(tmp_path, "diverge.json", {
        "problem": {"benchmark": "aniso_quad"}, "gd": {"mu": 0.25, "beta": 0.25},
        "x0": [1.0, 1.0], "max_iter": 400})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run-gd", "--config", cfg, "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"summary.json is not strict JSON: {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["stop_reason"] == "non_finite" and summary["iterations"] < 400
    assert len(read_trace_csv(out / "trace.csv")) == summary["iterations"] + 1


def test_non_finite_value_writes_partial_run(tmp_path, monkeypatch):
    # A quad1d whose value oracle returns +inf from its fourth call on: x_0 and
    # two steps are recorded, and the third step, whose value is +inf, is not.
    build, calls = cli.make_benchmark, []

    def stub(name):
        p = build(name)
        value = p.value

        def capped(x):
            calls.append(x)
            return math.inf if len(calls) >= 4 else value(x)

        return replace(p, value=capped)

    monkeypatch.setattr(cli, "make_benchmark", stub)
    cfg = write_config(tmp_path, "quad.json", {
        "problem": {"benchmark": "quad1d"}, "schedule": {"constant": 1.0}, "x0": [1.0],
        "max_iter": 10, "test_mode": True})
    out = tmp_path / "out"
    assert main(["run-ppm", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "non_finite" and summary["iterations"] == 2
    assert summary["asserted"] == 2 and summary["bounds_ok"]
    rows = read_trace_csv(out / "trace.csv")
    assert len(rows) == 3 and all(map(math.isfinite, rows.f))


@pytest.mark.parametrize("name,c,extra,checks", [
    ("sine_quad", 0.05, {}, {}),  # estimated mu_q <= rho/2: no contraction theorem
    ("wc_piecewise", 0.4, {"nu": 1.0}, {"ippm_linear_dist": True}),
])
def test_relative_run_asserts_linear_rate_only_with_growth(tmp_path, name, c, extra, checks):
    cfg = write_config(tmp_path, "bprime.json", {
        "problem": {"benchmark": name}, "criterion": {"kind": "B'"},
        "schedule": {"constant": c}, "x0": [0.5], "max_iter": 20, "test_mode": True,
        "estimate": True, **extra})
    out = tmp_path / "out"
    assert main(["run-ippm", "--config", cfg, "--out", str(out)]) == 0
    assert _checks(out) == checks
    if not checks:
        assert _summary(out)["skipped"]["ippm_linear_dist"] == "needs mu_q > rho/2"


def test_run_without_reference_skips_every_row(tmp_path):
    # Lasso has no unique minimizer, so there is no solution oracle: nothing
    # can be asserted or estimated, and the summary says so instead of passing
    # with an empty check list.
    body = json.loads((EXPERIMENTS / "lasso_medium.json").read_text())
    cfg = write_config(tmp_path, "lasso.json", {**body, "test_mode": True, "estimate": True})
    out = tmp_path / "out"
    assert main(["run-ppm", "--config", cfg, "--out", str(out)]) == 0
    summary = _summary(out)
    assert summary["asserted"] == 0 and summary["bounds_ok"]
    assert summary["skipped"] == dict.fromkeys(
        ("sublinear_envelope", "one_step_improvement", "linear_cost", "linear_dist",
         "estimate"), "no f_star or solution oracle")
    assert not (out / "report.json").exists()


def test_unread_params_key_is_ignored(tmp_path):
    # A misspelt weight is an unread key like any other: lam keeps its default.
    body = {"problem": {"ml": "lasso", "data": {"lasso": {"n": 4, "m": 6, "s": 2}},
                        "params": {}},
            "schedule": {"constant": 0.2}, "max_iter": 5}
    for name, params in (("a", {}), ("b", {"lamda": 1.0})):
        body["problem"]["params"] = params
        cfg = write_config(tmp_path, f"{name}.json", body)
        assert main(["run-ppm", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


@pytest.mark.parametrize("cmd,body,removed", [
    ("estimate", {"problem": {"benchmark": "quad1d"}},
     {"estimation": {"count": 500, "nu": 0.5, "tau_s": 0.01, "bracket": [-1.0, 1.0]}}),
    ("run-gd", {"problem": {"benchmark": "aniso_quad"}, "x0": [1.0, 1.0], "max_iter": 20,
                "test_mode": True, "gd": {}}, {"gd": {"step": 1.0}}),
])
def test_removed_settings_are_ignored(tmp_path, cmd, body, removed):
    # An old config's estimation block or gd.step is an unread key like any other.
    outputs = []
    for name, cfg in (("now", body), ("old", {**body, **removed})):
        out = tmp_path / name
        assert main([cmd, "--config", write_config(tmp_path, f"{name}.json", cfg),
                     "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cmd,field,body", [
    ("run-ppm", "problem.params.lam",
     {"problem": {"ml": "lasso", "data": {"lasso": {"n": 4, "m": 6, "s": 2}},
                  "params": {"lam": None}}, "schedule": {"constant": 0.2}, "max_iter": 5}),
    ("run-ppm", "nu", {"problem": {"benchmark": "quad1d"}, "x0": [1.0], "max_iter": 10,
                       "nu": None, "test_mode": True, "estimate": True}),
    ("run-ppm", "problem.data.blobs.seed",
     {"problem": {"ml": "svm", "data": {"blobs": {"n": 10, "d": 2, "seed": None}}},
      "max_iter": 3}),
    ("run-ppm", "x0", {"problem": {"benchmark": "quad1d"}, "x0": None, "max_iter": 3}),
])
def test_null_field_is_an_absent_one(tmp_path, cmd, field, body):
    absent = copy.deepcopy(body)
    *parents, key = field.split(".")
    section = absent
    for name in parents:
        section = section[name]
    del section[key]
    outputs = []
    for name, cfg in (("null", body), ("absent", absent)):
        out = tmp_path / name
        assert main([cmd, "--config", write_config(tmp_path, f"{name}.json", cfg),
                     "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cmd,body,line", [
    ("run-gd", {"problem": {"benchmark": "quad_quartic"}, "gd": {"mu": 1.0, "beta": 1.0},
                "x0": [1.0]}, "error: gradient descent needs a smoothness constant"),
    ("run-ppm", {"problem": {"ml": "svm", "data": {"blobs": {"n": 6, "d": 0}}}},
     "error: blobs need n >= 1"),
    ("run-ppm", {"problem": {"ml": "svm", "data": {"blobs": {"n": 0, "d": 2}}}},
     "error: blobs need n >= 1"),
    ("estimate", {"problem": {"ml": "svm", "data": {"blobs": {"n": 4, "d": 0}}}},
     "error: blobs need n >= 1"),
    ("run-ppm", {"problem": {"ml": "lasso", "data": {"lasso": {"n": 0, "m": 6, "s": 2}}}},
     "error: lasso data need n >= 1"),
    ("estimate", {"problem": {"benchmark": "quad1d"}, "nu": -1},
     "error: no sample point has gap in [tau_s, nu] and dist >= sqrt(tau_s) (nu = -1,"),
])
def test_unusable_problem_prints_one_error_line(tmp_path, capsys, cmd, body, line):
    cfg = write_config(tmp_path, "bad.json", body)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1


@pytest.mark.parametrize("name,c,extra", [
    ("wc_piecewise", 0.4, {}),
    ("quad1d", 0.2, {}),
    ("quad1d", 0.2, {"criterion": {"kind": "B'"}}),
])
def test_linear_rows_check_only_the_reports_sublevel_set(tmp_path, monkeypatch, name, c, extra):
    # The constants are estimated on the nu-sublevel set of the report, so the
    # linear-rate rows may replay only steps whose gap lies within that nu.
    checks = []

    def recording(real):
        def checker(trace, report, nu):
            result = real(trace, report, nu)
            checks.extend(result if isinstance(result, tuple) else [result])
            return result
        return checker

    for checker in ("check_linear_rates", "check_ippm_linear"):
        monkeypatch.setattr(cli, checker, recording(getattr(cli, checker)))
    cfg = write_config(tmp_path, "nu.json", {
        "problem": {"benchmark": name}, "schedule": {"constant": c}, "x0": [0.5],
        "max_iter": 20, "test_mode": True, "estimate": True, "nu": 0.05,
        **extra})
    out = tmp_path / "out"
    assert main(["run-ippm" if extra else "run-ppm", "--config", cfg, "--out", str(out)]) == 0
    nu = json.loads((out / "report.json").read_text())["nu"]
    gaps = read_trace_csv(out / "trace.csv").cost_gap
    assert nu == 0.05 and checks
    assert all(gaps[k] <= nu for check in checks for k in check.indices)


QUARTIC_RUN = {"problem": {"benchmark": "quad_quartic"}, "schedule": {"constant": 0.5},
               "x0": [1.5], "max_iter": 30, "test_mode": True, "estimate": True}


@pytest.mark.parametrize("cmd,checker,extra", [
    ("run-ppm", "check_sublinear_bound", {}),
    ("run-ppm", "check_one_step", {}),
    ("run-ppm", "check_linear_rates", {}),
    ("run-ippm", "check_ippm_sublinear", {"criterion": {"kind": "A'"}}),
    ("run-ippm", "check_ippm_linear", {"criterion": {"kind": "B"}}),
    ("run-ippm", "check_inexact_one_step", {"criterion": {"kind": "B"}}),
    ("run-gd", "verify_gd_rates", {"problem": {"benchmark": "aniso_quad"}, "x0": [1.0, 1.0],
                                   "gd": {}}),
])
def test_each_row_is_checked_through_its_cli_name(tmp_path, monkeypatch, cmd, checker, extra):
    # The tracer times the checkers by rebinding their names in ``cli``, so a run
    # must look each one up there when it replays the row.
    results = []

    def recording(real):
        def call(*args):
            result = real(*args)
            results.extend(result if isinstance(result, tuple) else [result])
            return result
        return call

    monkeypatch.setattr(cli, checker, recording(getattr(cli, checker)))
    cfg = write_config(tmp_path, "rows.json", {**QUARTIC_RUN, **extra})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
    rows = {c["name"]: c for c in _summary(out)["checks"]}
    assert results and all(rows[r.name] == cli._check_to_json(r) for r in results)
    assert all(rows[r.name]["ok"] and rows[r.name]["checked"] > 0 for r in results)


# -- the in-process memo of ML reference solves --------------------------------

def count_reference_solves(monkeypatch) -> list:
    """The problems ``cli.reference_solution`` solves from now on.  Rebinding it
    empties the memo, so the count starts from an empty one."""
    solved, solve = [], cli.reference_solution
    monkeypatch.setattr(cli, "reference_solution", lambda p: solved.append(p) or solve(p))
    return solved


@pytest.fixture
def reference_solves(monkeypatch):
    return count_reference_solves(monkeypatch)


def run_ml(tmp_path, problem, out, **extra):
    cfg = write_config(tmp_path, "ml.json", {
        "problem": problem, "schedule": {"constant": 0.5}, "max_iter": 30, **extra})
    return main(["run-ppm", "--config", cfg, "--out", str(tmp_path / out)])


@pytest.mark.parametrize("problem", [
    {"ml": "elastic_net", "data": {"lasso": {"n": 10, "m": 20, "s": 5}},
     "params": {"lam": 1.0}},
    {"ml": "svm", "data": {"blobs": {"n": 60, "d": 3}}},
])
def test_reference_solve_runs_once_per_problem(tmp_path, reference_solves, problem):
    for out in ("cold", "warm"):
        assert run_ml(tmp_path, problem, out, estimate=True, audit=True) == 0
    assert len(reference_solves) == 1
    for name in ("trace.csv", "summary.json", "report.json"):
        assert (tmp_path / "cold" / name).read_bytes() == \
            (tmp_path / "warm" / name).read_bytes()


def test_reference_memo_keys_on_the_data_and_params(tmp_path, reference_solves):
    data = tmp_path / "blobs.libsvm"
    problem = {"ml": "svm", "data": {"libsvm": str(data)}}
    for seed, out in ((1, "a"), (2, "b"), (2, "c")):  # the file is rewritten once
        data.write_text(libsvm_text(make_blob_dataset(40, 3, seed=seed)), encoding="utf-8")
        assert run_ml(tmp_path, problem, out) == 0
    assert len(reference_solves) == 2
    assert run_ml(tmp_path, {**problem, "params": {"svm_reg": 2.0}}, "d") == 0
    assert len(reference_solves) == 3


def test_rebinding_the_solver_empties_the_memo(tmp_path, monkeypatch):
    problem = {"ml": "elastic_net", "data": {"lasso": {"n": 10, "m": 20, "s": 5}},
               "params": {"lam": 1.0}}
    first = count_reference_solves(monkeypatch)
    assert run_ml(tmp_path, problem, "a") == 0 and run_ml(tmp_path, problem, "b") == 0
    second = count_reference_solves(monkeypatch)  # as a tracer wraps the CLI's names
    assert run_ml(tmp_path, problem, "c") == 0 and run_ml(tmp_path, problem, "d") == 0
    assert (len(first), len(second)) == (2, 1)  # second's solve goes through first
    make = cli.make_ml_problem
    monkeypatch.setattr(cli, "make_ml_problem", lambda *args: make(*args))
    assert run_ml(tmp_path, problem, "e") == 0
    assert len(second) == 2
    for out in "bcde":
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
            (tmp_path / out / "trace.csv").read_bytes()


def test_failed_reference_solve_is_not_kept(tmp_path, capsys, monkeypatch):
    calls, solve = [], cli.reference_solution

    def fails_first(p):
        calls.append(p)
        if len(calls) == 1:
            raise InnerBudgetExhausted("reference solve stopped with inner_budget")
        return solve(p)

    monkeypatch.setattr(cli, "reference_solution", fails_first)
    problem = {"ml": "svm", "data": {"blobs": {"n": 30, "d": 2}}}
    assert run_ml(tmp_path, problem, "a") == 1
    assert capsys.readouterr().err == "error: reference solve stopped with inner_budget\n"
    assert cli._references == {}
    assert run_ml(tmp_path, problem, "b") == 0 and run_ml(tmp_path, problem, "c") == 0
    assert len(calls) == 2


def test_reference_memo_keeps_the_newest_entries(reference_solves):
    def build(seed):
        cfg = {"problem": {"ml": "lasso", "data": {"lasso": {"n": 3, "m": 4, "s": 1}}}}
        return cli.build_problem(cfg, seed)

    for seed in range(cli.REFERENCE_MEMO_SIZE + 1):
        build(seed)
    assert len(reference_solves) == cli.REFERENCE_MEMO_SIZE + 1
    assert len(cli._references) == cli.REFERENCE_MEMO_SIZE
    # Only the solve's numbers are kept: no problem, oracle or data.
    assert all(list(map(type, entry)) == [float, tuple, float, int]
               for entry in cli._references.values())
    build(cli.REFERENCE_MEMO_SIZE)  # the newest is kept
    assert len(reference_solves) == cli.REFERENCE_MEMO_SIZE + 1
    build(0)  # the oldest was evicted
    assert len(reference_solves) == cli.REFERENCE_MEMO_SIZE + 2
    assert len(cli._references) == cli.REFERENCE_MEMO_SIZE


def test_reference_memo_holds_nothing_of_the_data_size(reference_solves):
    cfg = {"problem": {"ml": "svm", "data": {"blobs": {"n": 2000, "d": 20}}}}
    cli.build_problem(cfg, 1)  # 2000 x 20 features and 2000 labels: 328 kB
    (key, entry), = cli._references.items()
    assert [type(part) for part in key] == [cli.MLProblemParams, tuple, tuple]
    assert [(shape, dtype, len(digest)) for shape, dtype, digest in key[1:]] == \
        [((2000, 20), "<f8", 32), ((2000,), "<f8", 32)]
    assert len(pickle.dumps((key, entry))) < 2000


def test_min_norm_cap_stops_an_svm_step_with_inner_budget(tmp_path, monkeypatch):
    # With no pass allowed, an SVM min-norm element at a hinge kink gives up;
    # off every kink it is the gradient and needs none.  A test-mode B step
    # with delta0 = 0 is the exact prox, which sits on kinks, and it certifies
    # that point with the element: the run stops with inner_budget and keeps
    # its trace.
    problem = importlib.import_module("proxlab.problem")
    svm = {"ml": "svm", "data": {"blobs": {"n": 40, "d": 3}}}
    p = cli.build_problem({"problem": svm}, 5)
    row = p.svm.signed_rows[0]
    monkeypatch.setattr(problem, "MIN_NORM_PASSES", 0)
    with pytest.raises(InnerBudgetExhausted, match="after 0 active-set passes"):
        problem.min_norm_subgradient(p, row / row.dot(row))  # on the kink of row 0
    problem.min_norm_subgradient(p, np.zeros(3))
    body = {"problem": svm, "schedule": {"constant": 0.5}, "max_iter": 10, "test_mode": True,
            "criterion": {"kind": "B", "delta0": 0.0}, "seed": 5}
    out = tmp_path / "ippm"
    assert main(["run-ippm", "--config", write_config(tmp_path, "b.json", body),
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["stop_reason"] == "inner_budget"
    assert len(read_trace_csv(out / "trace.csv")) == 1


def test_readme_command_line_names_every_subcommand():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("proxlab ")]
    assert sorted(named) == sorted(cli._COMMANDS)
