"""Work counts and certificates of the structured inner solvers.

The work-count gate pins the deterministic cost of the shipped lasso_medium
run: inner iterations summed over the outer steps, and smooth-gradient
evaluations against one per prox call plus one per inner iteration.  The
property tests draw prox centers and steps at realistic sizes and check that
every returned certificate is a true element of the subproblem subdifferential
at the returned point.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import proxlab.cli as cli
import proxlab.ppm as ppm_module
from proxlab import InnerTolerance, min_norm_subgradient, prox, residual_certificate, run_ppm

from oracles import fista_l1
from test_prox import certificate_is_subgradient

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
TOL = InnerTolerance(1e-10, 200_000)

centers = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
steps = st.floats(0.05, 2.0)


def test_lasso_medium_work_count(monkeypatch):
    cfg = cli.load_config(EXPERIMENTS / "lasso_medium.json")
    p = cli.build_problem(cfg, cfg["seed"])
    grad_calls = 0
    grad = p.composite.grad_smooth

    def counting_grad(x):
        nonlocal grad_calls
        grad_calls += 1
        return grad(x)

    p = replace(p, composite=replace(p.composite, grad_smooth=counting_grad))
    inner = prox_calls = 0

    def counting_prox(*args, **kwargs):
        nonlocal inner, prox_calls
        result = prox(*args, **kwargs)
        inner += result.inner_iterations
        prox_calls += 1
        return result

    monkeypatch.setattr(ppm_module, "prox", counting_prox)
    trace = run_ppm(p, cli.build_x0(cfg, p), cli.build_schedule(cfg),
                    max_iter=cfg["max_iter"])
    assert trace.stop_reason == "gap"
    assert inner <= 300
    # One gradient at the prox center per call, at most one per inner iteration.
    assert grad_calls <= inner + prox_calls


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 50, elements=centers), c=steps)
def test_composite_certificate_recomputes_at_point(lasso_f20, en_f20, z, c):
    for p in (lasso_f20, en_f20):
        res = prox(p, z, c, TOL)
        element, norm = residual_certificate(p, res.point, z, c)
        assert np.max(np.abs(res.residual_element - element)) <= 1e-12
        assert abs(res.residual_norm - norm) <= 1e-12
        assert res.residual_norm <= TOL.target_residual


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 50, elements=centers), c=steps)
def test_composite_support_solve_is_the_subproblem_minimizer(lasso_f20, en_f20, z, c):
    for p in (lasso_f20, en_f20):
        parts = p.composite
        res = prox(p, z, c, TOL)
        x, lam = res.point, parts.l1_weight
        s = res.residual_element - (parts.grad_smooth(x) + (x - z) / c)
        on = x != 0.0
        assert np.allclose(s[on], lam * np.sign(x[on]), rtol=0.0, atol=1e-9)
        assert np.all(np.abs(s[~on]) <= lam)
        lip = float(np.linalg.eigvalsh(parts.hessian)[-1])
        plain = fista_l1(parts.grad_smooth, lip, p.strong_convexity, lam, z, c)
        assert np.max(np.abs(x - plain)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 10, elements=centers), c=steps)
def test_svm_certificate_is_subgradient(svm_blobs, z, c):
    res = prox(svm_blobs, z, c, TOL)
    assert res.residual_norm <= TOL.target_residual
    assert certificate_is_subgradient(svm_blobs, res, z, c, np.random.default_rng(5))


def test_svm_min_norm_and_certificate_share_the_hinge_routine(svm_blobs):
    # Move the reference point so that hinge term 0 sits at its kink; with
    # z = x the prox term vanishes, so both build the same element.
    row = svm_blobs.svm.signed_rows[0]
    x = np.array(svm_blobs.metadata["reference_point"])
    x = x + (1.0 - row @ x) / (row @ row) * row
    assert abs(1.0 - row @ x) <= 1e-12
    info = min_norm_subgradient(svm_blobs, x)
    element, norm = residual_certificate(svm_blobs, x, x, 1.0)
    assert np.array_equal(info.element, element) and info.norm == norm


@pytest.mark.parametrize("command,criterion", [("run-ppm", None),
                                               ("run-ippm", {"kind": "B", "gamma": 0.7})])
def test_run_estimates_constants_once(tmp_path, monkeypatch, command, criterion):
    body = json.loads((EXPERIMENTS / "quad1d_audit.json").read_text())
    if criterion is not None:
        body["criterion"] = criterion
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    calls = []
    estimate = cli.estimate_constants
    monkeypatch.setattr(cli, "estimate_constants",
                        lambda *args: calls.append(args) or estimate(*args))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    assert all(a["status"] == "pass" for a in report["audit"])
