"""The outer loop shared by PPM, iPPM and GD: trace shape and stop reasons.

Every run, however it stops, leaves a trace of finite iterates whose columns
all have one entry per iterate and whose final row carries only the step (the
other transition columns are NaN there).  An inner solver that gives up, or a
step to a non-finite point, ends the run with a named reason and keeps the
rows recorded so far.
"""

import importlib
import time
from pathlib import Path

import numpy as np
import pytest

import proxlab.cli as cli
import proxlab.ippm as ippm_module
import proxlab.ppm as ppm_module
from proxlab import (GDParams, InexactCriterion, InnerBudgetExhausted, Piecewise1D,
                     StepSchedule, problem_from_1d, reference_solution, run_gd, run_ippm,
                     run_ppm)

prox_module = importlib.import_module("proxlab.prox")  # not proxlab.prox, the function
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
COLUMNS = ("points", "values", "steps", "residuals", "eps", "deltas", "ref_prox_points")
MOVE = ("residuals", "eps", "deltas", "ref_prox_points")

# An A' budget that drops below double precision at step 50 of the horizon.
BELOW_RESOLUTION = InexactCriterion("A'", eps0=0.1, gamma=0.5)


def _ppm(fixture):
    return run_ppm(fixture("quad_quartic"), [1.5], StepSchedule.constant(0.5), max_iter=8)


def _ppm_no_f_star(fixture):
    return run_ppm(fixture("lasso_toy"), np.zeros(2), StepSchedule.constant(1.0),
                   max_iter=50)


def _ippm_primed(fixture):
    crits = [InexactCriterion("A'", gamma=0.6), InexactCriterion("B'", gamma=0.6)]
    return run_ippm(fixture("wc_piecewise"), [0.5], StepSchedule.constant(0.4), crits,
                    max_iter=15)


def _ippm_test_mode(fixture):
    return run_ippm(fixture("quad1d"), [1.0], StepSchedule.constant(1.0),
                    InexactCriterion("B", gamma=0.7), max_iter=10, test_mode=True, seed=3)


def _gd(fixture):
    return run_gd(fixture("aniso_quad"), [1.0, 1.0], GDParams(9.0, 1.0, 1.0), iters=12)


def _resolution(fixture):
    return run_ippm(fixture("sine_quad"), [3.0], StepSchedule.constant(0.05),
                    BELOW_RESOLUTION, max_iter=60)


def _inner_budget(fixture):
    # Three steps at c = 0.16 need at most 15 inner iterations each; then the
    # budget drops to 2, fewer than the fourth step needs.
    p, calls = fixture("lasso_f20"), []

    def budgeted_prox(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            patch.setattr(prox_module, "MAX_INNER", 2)
        return prox_module.prox(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ppm_module, "prox", budgeted_prox)
        return run_ppm(p, np.zeros(50), StepSchedule.constant(0.16), max_iter=60)


def _non_finite(fixture):
    # An understated L = 0.25 gives t = mu / L^2 = 4 > 2/9: x_2 grows 35-fold per
    # step until the iterates overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        return run_gd(fixture("aniso_quad"), [1.0, 1.0], GDParams(0.25, 0.25, 0.25),
                      iters=400)


# Each run with the stop reason it ends on; together they cover all six.
RUNS = {"ppm": (_ppm, "max_iter"), "ppm_no_f_star": (_ppm_no_f_star, "residual"),
        "ippm_primed": (_ippm_primed, "gap"), "ippm_test_mode": (_ippm_test_mode, "gap"),
        "gd": (_gd, "max_iter"), "resolution": (_resolution, "resolution"),
        "inner_budget": (_inner_budget, "inner_budget"),
        "non_finite": (_non_finite, "non_finite")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_shape(request, name):
    run, reason = RUNS[name]
    trace = run(request.getfixturevalue)
    assert trace.stop_reason == reason
    assert np.isfinite(trace.points).all()
    for column in COLUMNS:
        assert len(getattr(trace, column)) == len(trace), column
    assert not np.isnan(trace.steps[-1])
    assert all(np.isnan(getattr(trace, column)[-1]).all() for column in MOVE)


def test_budget_below_resolution_stops_with_named_reason(sine_quad, monkeypatch):
    prox, inner = ippm_module.prox, []

    def counting_prox(*args, **kwargs):
        try:
            result = prox(*args, **kwargs)
        except InnerBudgetExhausted as exc:
            inner.append(exc.best.inner_iterations)
            raise
        inner.append(result.inner_iterations)
        return result

    monkeypatch.setattr(ippm_module, "prox", counting_prox)
    trace = _resolution(lambda _: sine_quad)
    steps = len(trace) - 1
    assert 0 < steps < 60 and len(inner) == steps + 1
    assert max(inner) <= 200  # the 1-d solver stops at adjacent floats, not at its budget
    for k in range(steps):  # every recorded step met its A' budget
        assert trace.residuals[k] <= BELOW_RESOLUTION.eps(k) / trace.steps[k]


def test_composite_budget_below_resolution_stops_with_named_reason(monkeypatch):
    # From step 44 the A' budget is below the residual, near 1e-14, of the
    # exact support solve; composite FISTA alone spent its whole budget there.
    cfg = cli.load_config(EXPERIMENTS / "lasso_large.json")
    p = cli.build_problem(cfg, cfg["seed"])
    prox, inner = ippm_module.prox, []

    def counting_prox(*args, **kwargs):
        try:
            result = prox(*args, **kwargs)
        except InnerBudgetExhausted as exc:
            inner.append(exc.best.inner_iterations)
            raise
        inner.append(result.inner_iterations)
        return result

    monkeypatch.setattr(ippm_module, "prox", counting_prox)
    start = time.perf_counter()
    trace = run_ippm(p, np.zeros(p.dimension), StepSchedule.constant(0.16),
                     BELOW_RESOLUTION, max_iter=60)
    assert time.perf_counter() - start < 0.5
    assert trace.stop_reason == "resolution"
    steps = len(trace) - 1
    assert 0 < steps < 60 and len(inner) == steps + 1
    assert max(inner) <= 200
    for k in range(steps):  # every recorded step met its A' budget
        assert trace.residuals[k] <= BELOW_RESOLUTION.eps(k) / trace.steps[k]


def test_inner_budget_keeps_partial_trace(lasso_f20):
    trace = _inner_budget(lambda _: lasso_f20)
    assert len(trace) == 4 and trace.steps.tolist() == [0.16] * 4
    assert all(r <= 1e-10 for r in trace.residuals[:3])


@pytest.mark.parametrize("run", ["ppm", "ippm", "gd"])
def test_non_finite_value_at_x0_raises_naming_x0(quad1d, run):
    # f(1e300) overflows to inf, without a warning; x0 is never recorded.
    with np.errstate(all="raise"), pytest.raises(ValueError, match="^x0: "):
        if run == "ppm":
            run_ppm(quad1d, [1e300], StepSchedule.constant(1.0), max_iter=5)
        elif run == "ippm":
            run_ippm(quad1d, [1e300], StepSchedule.constant(1.0),
                     InexactCriterion("A'", eps0=0.1, gamma=0.5), max_iter=5)
        else:
            run_gd(quad1d, [1e300], GDParams(lipschitz=2.0, mu=2.0, beta=2.0), iters=5)


def test_reference_solution_raises_on_exhausted_inner_solve(monkeypatch):
    # The prox steps of (x - 1)^4 have irrational minimizers, so no float
    # meets a residual target of 1e-300.  The reference solve and iPPM's
    # test-mode reference step read the one target.
    monkeypatch.setattr(ppm_module, "REFERENCE_TARGET", 1e-300)
    pw = Piecewise1D([], [(lambda x: (x - 1.0) ** 4, lambda x: 4.0 * (x - 1.0) ** 3)])
    quartic = problem_from_1d(pw, name="quartic")
    with pytest.raises(InnerBudgetExhausted):
        reference_solution(quartic)
    trace = run_ippm(quartic, [3.0], StepSchedule.constant(1.0),
                     InexactCriterion("A", eps0=0.1, gamma=0.5), max_iter=5, test_mode=True)
    assert trace.stop_reason == "resolution" and len(trace) == 1
