import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import proxlab.ippm as ippm_module
import proxlab.ppm as ppm_module
from proxlab import (InexactCriterion, InnerBudgetExhausted, IterationTrace, MLProblemParams,
                     ProblemSpec, ProxlabError, RateBounds, StepSchedule,
                     check_inexact_one_step, check_linear_rates, check_one_step,
                     check_sublinear_bound, distances_to_solution, estimate_constants,
                     generate_lasso_data, make_benchmark, make_ml_problem, prox,
                     reference_solution, run_ippm, run_ppm)

from conftest import with_solution_point
from oracles import running_diameter

TIGHT = 1e-12


@pytest.fixture(scope="module")
def quad_run(quad1d):
    return run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=12,
                   stop_gap=0.0, stop_residual=0.0)


def test_quad1d_closed_form_recursion(quad_run):
    # x_{k+1} = x_k / (1 + 2c): iterates are exactly 3^-k.
    for k, x in enumerate(quad_run.points):
        assert abs(float(x[0]) - 3.0 ** (-k)) <= 1e-12


def test_fixed_point_at_solution(quad1d):
    tr = run_ppm(quad1d, [0.0], StepSchedule.constant(1.0), max_iter=5,
                 stop_gap=-1.0, stop_residual=-1.0)
    assert all(float(x[0]) == 0.0 for x in tr.points)
    res = prox(quad1d, [0.0], 1.0)
    assert float(res.point[0]) == 0.0  # prox(x) = x iff 0 in the subdifferential


def test_weakly_convex_run_descends(wc_piecewise):
    tr = run_ppm(wc_piecewise, [-0.7], StepSchedule.constant(0.4), max_iter=20,
                 inner_target=TIGHT)
    vals = tr.values
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert float(tr.points[-1][0]) == pytest.approx(-1.0, abs=1e-9)


def test_schedule_validation(wc_piecewise):
    # 1/c must exceed rho = 2: c = 0.5 is refused, a step just below it reaches
    # the minimizer.
    with pytest.raises(ProxlabError):
        run_ppm(wc_piecewise, [-0.7], StepSchedule.constant(0.5), max_iter=3)
    assert run_ppm(wc_piecewise, [-0.7], StepSchedule.constant(0.499),
                   max_iter=3).stop_reason == "gap"


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, 0.6])
def test_one_step_check_refuses_before_any_step(monkeypatch, wc_piecewise, c):
    # A step that is not positive and finite, or one with 1/c <= rho = 2, gives
    # one error from prox and from both loops, and the loops take no step.
    with pytest.raises((ValueError, ProxlabError)) as direct:
        prox(wc_piecewise, [0.5], c)

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(ppm_module, "prox", no_step)
    monkeypatch.setattr(ippm_module, "prox", no_step)
    sched = StepSchedule.constant(c)
    for run in (lambda: run_ppm(wc_piecewise, [0.5], sched, max_iter=5),
                lambda: run_ippm(wc_piecewise, [0.5], sched, InexactCriterion("A'"),
                                 max_iter=5)):
        with pytest.raises(type(direct.value)) as err:
            run()
        assert type(err.value) is type(direct.value)
        assert str(err.value) == str(direct.value)


def test_sublinear_envelope_quad(quad_run):
    chk = check_sublinear_bound(quad_run)
    assert chk.all_ok
    # k = 1: gap 1/9 under envelope 1/2.
    assert chk.lhs[0] == pytest.approx(1.0 / 9.0)
    assert chk.rhs[0] >= 0.5


def test_sublinear_envelope_detects_corruption(quad_run):
    values = quad_run.values.copy()
    values[5] = values[5] * 10.0 + 1.0
    chk = check_sublinear_bound(replace(quad_run, values=values))
    assert not chk.all_ok and chk.first_violation == 5
    # The tightness report points at the same step: the only entry above 1.
    assert chk.max_ratio > 1 and chk.worst_index == chk.first_violation


def test_one_step_improvement_quad(quad_run):
    chk = check_one_step(quad_run)
    assert chk.all_ok
    # k = 0 arithmetic: 2*(1/9) <= 1 - 1/9.
    assert chk.lhs[0] == pytest.approx(2.0 / 9.0)
    assert chk.rhs[0] == pytest.approx(8.0 / 9.0, abs=1e-8)


def test_one_step_detects_corruption(quad_run):
    points, values = quad_run.points.copy(), quad_run.values.copy()
    points[3] = np.array([2.5])  # jump away from the solution
    values[3] = float(quad_run.problem.value(points[3]))
    assert not check_one_step(replace(quad_run, points=points, values=values)).all_ok


def test_one_step_trivial_at_solution(quad1d):
    tr = run_ppm(quad1d, [0.0], StepSchedule.constant(1.0), max_iter=3,
                 stop_gap=-1.0, stop_residual=-1.0)
    chk = check_one_step(tr)
    assert chk.all_ok and all(abs(v) <= 1e-12 for v in chk.lhs)


def test_one_step_lasso_with_inner_slack(lasso_f20):
    # Lasso has no unique minimizer: replay against the reference point.
    p = with_solution_point(lasso_f20, lasso_f20.metadata["reference_point"])
    tr = run_ppm(p, np.zeros(50), StepSchedule.constant(0.16), max_iter=40)
    assert check_one_step(tr).all_ok
    assert check_sublinear_bound(tr).all_ok


@pytest.mark.parametrize("call", [
    lambda p, tr: check_sublinear_bound(tr),
    lambda p, tr: check_one_step(tr),
    lambda p, tr: check_inexact_one_step(tr),
    lambda p, tr: distances_to_solution(p, tr.points),
    lambda p, tr: estimate_constants(p),
], ids=["check_sublinear_bound", "check_one_step", "check_inexact_one_step",
        "distances_to_solution", "estimate_constants"])
def test_a_missing_reference_raises_one_type(lasso_toy, call):
    # The lasso has no reference installed: no f_star and no solution oracle.
    # The first three raised ValueError, the last two their own classes.
    tr = run_ppm(lasso_toy, np.zeros(2), StepSchedule.constant(1.0), max_iter=3)
    with pytest.raises(ProxlabError):
        call(lasso_toy, tr)


def test_linear_rates_quad(quad_run):
    cost, dist = check_linear_rates(quad_run, quad_run.problem.metadata, nu=1.0)
    assert cost.all_ok and dist.all_ok
    bounds = RateBounds(mu_p=4.0, mu_q=1.0, mu_e=0.5)
    assert bounds.omega(1.0) == pytest.approx(1.0 / 3.0)
    # Distance factor: min of the growth branch 1/sqrt(3) and the error-bound
    # branch 1/sqrt(1 + c^2/mu_e^2) = 1/sqrt(5).
    assert bounds.theta(1.0) == pytest.approx(1.0 / math.sqrt(5.0))
    # Observed ratios: 1/9 <= omega, 1/3 <= theta.
    assert all(l <= r for l, r in zip(cost.lhs, cost.rhs))


def test_linear_rates_gated_outside_sublevel(sine_quad):
    # Started beyond the suboptimal stationary points with small steps, the
    # iterates never reach [f <= f* + 1]: every rate check is skipped.
    tr = run_ppm(sine_quad, [2.5], StepSchedule.constant(0.05), max_iter=30,
                 inner_target=TIGHT, stop_gap=-1.0, stop_residual=1e-12)
    cost, dist = check_linear_rates(tr, {"mu_p": 1.0, "mu_q": 1.0, "mu_e": 1.0}, nu=1.0)
    assert len(cost.indices) == len(dist.indices) == 0
    assert tr.entry_index(1.0) is None


def test_values_and_distances_nonincreasing():
    rng = np.random.default_rng(4)
    for name in ("quad1d", "quad_quartic", "aniso_quad"):
        p = make_benchmark(name)
        x0 = rng.uniform(-2, 2, size=p.dimension)
        tr = run_ppm(p, x0, StepSchedule.constant(0.8), max_iter=25, inner_target=TIGHT)
        vals = tr.values
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:])), name
        x_star = np.asarray(p.project_solution(x0))
        ds = [float(np.linalg.norm(x - x_star)) for x in tr.points]
        assert all(b <= a + 1e-10 for a, b in zip(ds, ds[1:])), name


def test_constant_step_sublinear_rate(quad_run):
    # Specialization: gap_k <= dist0^2 / (2 c k).
    gaps = quad_run.gaps
    for k in range(1, len(quad_run)):
        assert gaps[k] <= 1.0 / (2.0 * k) + 1e-12


def test_trace_bookkeeping(quad_run):
    assert len(quad_run.points) == len(quad_run.steps) == 13
    assert np.isnan(quad_run.residuals[-1])
    diam = quad_run.running_diameter()
    assert all(b >= a for a, b in zip(diam, diam[1:]))
    assert diam[-1] == pytest.approx(1.0 - 3.0 ** (-12))
    assert quad_run.entry_index(0.5) == 1  # first gap <= 0.5 is 1/9


def test_finished_trace_is_read_only(quad_run):
    for column in ("points", "values", "steps", "residuals", "gaps", "dists"):
        with pytest.raises(ValueError):
            getattr(quad_run, column)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        quad_run.values = quad_run.values + 1.0
    # A doctored copy derives its gaps and distances again.
    shifted = replace(quad_run, values=quad_run.values + 1.0, points=quad_run.points * 2.0)
    assert np.array_equal(shifted.gaps, quad_run.gaps + 1.0)
    assert np.array_equal(shifted.dists, 2.0 * quad_run.dists)


@st.composite
def point_clouds(draw):
    k, d = draw(st.integers(0, 60)), draw(st.sampled_from([1, 2, 50]))
    return draw(arrays(float, (k, d), elements=st.floats(-1e3, 1e3)))


@settings(max_examples=60, deadline=None)
@given(pts=point_clouds())
def test_running_diameter_matches_pairwise_loop(pts):
    # The row reduction sums squares in another order than one norm per pair
    # does, except at d = 1, where both take sqrt(x * x).
    k, d = pts.shape
    # Without f_star or a solution oracle the trace derives no oracle calls.
    p = ProblemSpec(dimension=d, value=np.sum, subgradient=np.sign,
                    min_norm_subgradient=np.sign)
    columns = [np.full(k, np.nan)] * 5  # values, steps and the transition columns
    diam = IterationTrace(p, pts, *columns, np.full((k, d), np.nan)).running_diameter()
    expect = running_diameter(list(pts))
    if d == 1:
        assert diam.tolist() == expect
    else:
        assert len(diam) == len(expect)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(diam, expect))
    assert all(b >= a for a, b in zip(diam, diam[1:]))


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=301),
       scale=st.sampled_from([10.0 ** e for e in range(-8, 9)]))
def test_1d_running_diameter_matches_the_row_loop(xs, scale):
    # A zero second coordinate sends the same points through the d > 1 row loop.
    pts = np.array(xs)[:, None] * scale
    k = len(pts)

    def diameter(points):
        p = ProblemSpec(dimension=points.shape[1], value=np.sum, subgradient=np.sign,
                        min_norm_subgradient=np.sign)
        columns = [np.full(k, np.nan)] * 5
        return IterationTrace(p, points, *columns, np.full(points.shape, np.nan)) \
            .running_diameter()

    one_d = diameter(pts)
    assert one_d.tobytes() == diameter(np.hstack([pts, np.zeros_like(pts)])).tobytes()


def test_reference_solution_en_toy(en_toy_ref):
    assert en_toy_ref.f_star == pytest.approx(5.75, abs=1e-10)
    ref_pt = np.asarray(en_toy_ref.project_solution(np.zeros(1)))
    assert float(ref_pt[0]) == pytest.approx(1.5, abs=1e-10)


def test_reference_solution_quad(quad1d):
    ref = reference_solution(quad1d)
    assert abs(ref.f_star) <= 1e-12


def test_reference_solution_lasso_policy(lasso_toy_ref):
    # Not strongly convex: value installed, no uniqueness certificate.
    assert lasso_toy_ref.f_star == pytest.approx(2.5, abs=1e-10)
    assert lasso_toy_ref.project_solution is None
    assert lasso_toy_ref.metadata["reference_residual"] <= 1e-10


def test_reference_solve_at_its_step_cap_raises():
    # The elastic net 20x50 with A and y scaled by 2^-10 and its weights by
    # 4^-10, so f scales by 4^-10: step 1 is short at this scale, and the solve
    # runs out of its 400 steps.  It installed f_star = 458.79 * 4^-10 against
    # the true 168.06 * 4^-10.
    a_mat, y, _ = generate_lasso_data(20, 50, 10, seed=7)
    p = make_ml_problem((a_mat * 2.0 ** -10, y * 2.0 ** -10),
                        MLProblemParams("elastic_net", lam=10.0 * 4.0 ** -10, en_reg=4.0 ** -10))
    with pytest.raises(InnerBudgetExhausted, match="with max_iter after 400 steps"):
        reference_solution(p)


def test_schedule_is_one_step(quad_run):
    # The trace records the one step on every row, the final one included.
    assert [f.name for f in dataclasses.fields(StepSchedule)] == ["c"]
    assert StepSchedule.constant(1) == StepSchedule(1.0)
    assert quad_run.steps.tolist() == [1.0] * len(quad_run)


def test_one_step_bound_on_weakly_convex_runs(sine_quad, wc_piecewise):
    # Each subproblem is (1/c - rho)-strongly convex, so the bound keeps a
    # (1 - c rho) share of the next distance and holds on every step, also on
    # the sine_quad run from x0 = 3 whose gaps stall at a suboptimal
    # stationary point.
    for p, x0, c in ((sine_quad, 3.0, 0.05), (wc_piecewise, 0.5, 0.4)):
        trace = run_ppm(p, [x0], StepSchedule.constant(c), max_iter=60)
        check = check_one_step(trace)
        assert check.all_ok, p.name
        values = trace.values.copy()
        values[1] += check.rhs[0] / c  # the first step now claims too much
        assert check_one_step(replace(trace, values=values)).first_violation == 0, p.name
