import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxlab import (InnerBudgetExhausted, MLProblemParams, Piecewise1D, ProxlabError,
                     StepSchedule, generate_lasso_data, make_benchmark, make_ml_problem,
                     min_norm_subgradient, prox, run_ppm)
from proxlab.errors import ResolutionFloor
from proxlab.problem import problem_from_1d

from oracles import golden_section, parabola_polish, refined_grid_argmin_2d

prox_module = importlib.import_module("proxlab.prox")  # not proxlab.prox, the function

TIGHT = 1e-12


def subproblem(p, z, c):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return lambda x: float(p.value(x)) + float(np.dot(x - z, x - z)) / (2.0 * c)


def test_prox_quad1d_closed_form(quad1d):
    res = prox(quad1d, [3.0], 1.0)
    assert res.inner_iterations == 0
    assert float(res.point[0]) == pytest.approx(1.0, abs=1e-15)
    assert res.residual_norm == 0.0


def test_prox_abs_soft_threshold():
    # f = |x|: prox at z=2, c=1 is the shrinkage value 1.0.
    pw = Piecewise1D([0.0], [(lambda x: -x, lambda x: -1.0), (lambda x: x, lambda x: 1.0)])
    p = problem_from_1d(pw, f_star=0.0, project_solution=lambda x: np.zeros(1), name="abs")
    res = prox(p, [2.0], 1.0, TIGHT)
    assert float(res.point[0]) == pytest.approx(1.0, abs=1e-10)
    res0 = prox(p, [0.5], 1.0, TIGHT)  # inside the shrinkage dead zone
    assert float(res0.point[0]) == pytest.approx(0.0, abs=1e-12)
    assert res0.residual_norm == 0.0


def certificate(p, x, z, c):
    """The residual certificate at x of the prox at center z and step c: the
    min-norm element of partial f(x) + (x - z)/c and its norm."""
    x, z = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(z, dtype=float))
    return min_norm_subgradient(p, x, shift=(x - z) / c)


def test_residual_certificate_quad1d(quad1d):
    vec, norm = certificate(quad1d, [1.0], [3.0], 1.0)
    assert norm == 0.0 and np.allclose(vec, [0.0])
    vec, norm = certificate(quad1d, [1.1], [3.0], 1.0)
    assert norm == pytest.approx(0.3, abs=1e-12)
    vec, norm = certificate(quad1d, [0.0], [-1e-200], 1.0)
    assert norm == 1e-200  # where the square of the element underflows


def test_residual_certificate_domain_error():
    from proxlab import ProblemSpec
    p = ProblemSpec(dimension=1,
                    value=lambda x: float(x[0] ** 2) if abs(x[0]) <= 1 else math.inf,
                    subgradient=lambda x: 2.0 * x,
                    min_norm_subgradient=lambda x, shift=0.0: 2.0 * x + shift)
    with pytest.raises(ProxlabError):
        certificate(p, [2.0], [0.0], 1.0)


def test_prox_lasso_toy_vs_separable_oracle(lasso_toy):
    # Subproblem is separable; golden-section each coordinate independently.
    z, c = np.zeros(2), 0.16
    res = prox(lasso_toy, z, c, 1e-10)
    y = np.array([3.0, 0.0])
    for j in range(2):
        scalar = lambda t: 0.5 * (y[j] - t) ** 2 + abs(t) + t * t / (2 * c)
        expect = golden_section(scalar, -4.0, 4.0)
        if abs(expect) > 1e-6:  # smooth piece: polish past the sqrt(eps) floor
            expect = parabola_polish(scalar, expect)
        assert float(res.point[j]) == pytest.approx(expect, abs=1e-8)
    assert res.residual_norm <= 1e-10


def test_prox_lasso_generated_sizes_terminate():
    from proxlab import MLProblemParams, generate_lasso_data, make_ml_problem
    for n, m, s in [(10, 40, 5), (20, 50, 10), (30, 60, 15)]:
        a_mat, y, _ = generate_lasso_data(n, m, s, seed=1)
        p = make_ml_problem((a_mat, y), MLProblemParams("lasso", lam=10.0))
        res = prox(p, np.zeros(m), 0.16, 1e-8)
        assert res.residual_norm <= 1e-8
        assert res.inner_iterations <= 10_000


def test_prox_svm_toy_vs_grid_oracle(svm_toy):
    res = prox(svm_toy, np.zeros(2), 1.0, 1e-8)
    target = subproblem(svm_toy, np.zeros(2), 1.0)
    pt, _ = refined_grid_argmin_2d(target, -3.0, 3.0, side=121, refinements=3)
    assert np.linalg.norm(res.point - pt) <= 1e-4
    assert res.residual_norm <= 1e-8


def test_prox_svm_idempotent_at_optimum(svm_toy):
    # (0.5, 0.5) minimizes the toy objective, hence is a prox fixed point.
    res = prox(svm_toy, np.array([0.5, 0.5]), 1.0, 1e-8)
    assert res.inner_iterations == 0
    assert np.allclose(res.point, [0.5, 0.5], atol=1e-12)


def test_prox_svm_budget_exhausted(svm_toy, monkeypatch):
    monkeypatch.setattr(prox_module, "MAX_INNER", 5)
    with pytest.raises(InnerBudgetExhausted) as err:
        prox(svm_toy, np.array([0.2, -0.4]), 1.0, 1e-30)
    best = err.value.best
    assert best is not None and best.inner_iterations == 5


# A composite, an SVM and a 1-d subproblem, none solved at its start point or
# at a kink: (problem fixture, prox center, step).
SOLVERS = [("lasso_toy", [0.0, 0.0], 0.16), ("svm_toy", [0.2, -0.4], 1.0),
           ("wc_piecewise", [1.0], 0.2)]


@pytest.mark.parametrize("name,z,c", SOLVERS)
@pytest.mark.parametrize("budget", [0, 1, 3, 1000])
def test_refused_candidates_end_in_budget_or_floor(request, monkeypatch, name, z, c, budget):
    # Budgets up to 3 run out before the first support solve and before the
    # bracket reaches adjacent floats.  Within 1000 the composite candidates
    # end at the exact support solve, the 1-d ones at adjacent floats; the
    # SVM coordinate ascent has no floor.
    seen = []

    def refuse(w, rn):
        seen.append(rn)
        return False

    p = request.getfixturevalue(name)
    monkeypatch.setattr(prox_module, "MAX_INNER", budget)
    with pytest.raises(InnerBudgetExhausted) as err:
        prox(p, z, c, stop_rule=refuse)
    assert isinstance(err.value, ResolutionFloor) == (budget > 3 and name != "svm_toy")
    if not isinstance(err.value, ResolutionFloor):
        assert len(seen) == budget + 1  # the start point, then one per iteration
    assert err.value.best.inner_iterations == len(seen) - 1
    assert err.value.best.residual_norm == min(seen)


@pytest.mark.parametrize("name,z,c", SOLVERS)
def test_accepted_start_point_costs_no_iteration(request, name, z, c):
    seen = []

    def accept(w, rn):
        seen.append((w, rn))
        return True

    res = prox(request.getfixturevalue(name), z, c, stop_rule=accept)
    assert res.inner_iterations == 0 and len(seen) == 1
    assert seen[0][0] is res.point and seen[0][1] == res.residual_norm


def test_bracket_walk_without_sign_change_ends():
    # An interval oracle that is no subdifferential: the certificate is -inf
    # everywhere, so the walk finds no sign change before it leaves the floats.
    pw = Piecewise1D([], [(lambda x: 0.0, lambda x: -math.inf)])
    with pytest.raises(ResolutionFloor) as err:
        prox(problem_from_1d(pw, name="no_root"), [0.0], 1.0)
    assert err.value.best.inner_iterations == 0


def test_nan_derivative_certifies_nothing():
    # Every slope is NaN: the start point's element is NaN, not a false zero,
    # and the solve ends there; the outer loop stops with inner_budget.
    pw = Piecewise1D([], [(lambda x: 0.0 * x, lambda x: np.nan * x)])
    p = problem_from_1d(pw, name="nan_slope")
    assert math.isnan(min_norm_subgradient(p, [1.0])[1])
    with pytest.raises(InnerBudgetExhausted, match="NaN residual after 0 iterations") as err:
        prox(p, [1.0], 1.0)
    assert not isinstance(err.value, ResolutionFloor)
    assert err.value.best.inner_iterations == 0 and err.value.best.point.tolist() == [1.0]
    assert math.isnan(err.value.best.residual_norm)
    trace = run_ppm(p, [1.0], StepSchedule.constant(1.0), max_iter=5)
    assert trace.stop_reason == "inner_budget" and len(trace) == 1


def test_nan_certificate_ends_the_composite_solve_at_once():
    # The Gram matrix of A * 1e150 overflows, so the start point's element is
    # NaN; the solve spun MAX_INNER = 100,000 refused candidates (3.7 s) before.
    a_mat, y, _ = generate_lasso_data(10, 20, 5, 0)
    p = make_ml_problem((a_mat * 1e150, y), MLProblemParams("lasso", lam=1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InnerBudgetExhausted, match="composite inner solver: NaN") as err:
            prox(p, 1e10 * np.ones(20), 1.0)
    assert err.value.best.inner_iterations == 0


def test_infinite_certificate_ends_the_composite_solve():
    # On A * 1e100 every certificate norm overflows: the start point's and
    # the first iterate's.  The solve spun MAX_INNER = 100,000 refused
    # candidates (about 4 s) to "residual inf" before.
    a_mat, y, _ = generate_lasso_data(10, 20, 5, 0)
    p = make_ml_problem((a_mat * 1e100, y), MLProblemParams("lasso", lam=1.0))
    with np.errstate(over="ignore"):
        with pytest.raises(InnerBudgetExhausted,
                           match="composite inner solver: infinite residual") as err:
            prox(p, 1e10 * np.ones(20), 1.0)
    assert not isinstance(err.value, ResolutionFloor)
    assert err.value.best.inner_iterations == 1
    assert err.value.best.residual_norm == math.inf


def test_step_too_large(wc_piecewise, sine_quad):
    with pytest.raises(ProxlabError):
        prox(wc_piecewise, [-0.7], 0.6)  # 1/0.6 < rho = 2
    with pytest.raises(ProxlabError):
        prox(sine_quad, [1.0], 0.2)  # 1/0.2 = 5 < rho = 10
    with pytest.raises(ValueError):
        prox(wc_piecewise, [-0.7], -1.0)


@pytest.mark.parametrize("c", [math.nan, math.inf])
@pytest.mark.parametrize("name,z", [("quad1d", [3.0]), ("lasso_toy", [0.0, 0.0]),
                                    ("svm_toy", [0.2, -0.4]), ("sine_quad", [1.0])])
def test_non_finite_step_is_refused_before_any_iteration(request, name, z, c):
    # The closed form, composite, SVM-dual and 1-d paths: a NaN step spun the
    # lasso to its inner budget and certified the centre on sine_quad.
    calls = []
    p = request.getfixturevalue(name)
    if p.prox_closed_form is not None:
        p = replace(p, prox_closed_form=lambda z, c: calls.append(c) or z)
    with pytest.raises(ValueError, match="positive and finite"):
        prox(p, z, c, stop_rule=lambda w, rn: calls.append(rn) or True)
    assert calls == []


def test_prox_weakly_convex_valid_step(wc_piecewise):
    res = prox(wc_piecewise, [-0.7], 0.4, TIGHT)
    assert float(res.point[0]) == pytest.approx(-1.0, abs=1e-12)
    # Oracle: dense scan of the subproblem.
    target = subproblem(wc_piecewise, [-0.7], 0.4)
    xs = np.linspace(-2.0, 0.5, 200_001)
    assert abs(xs[np.argmin([target(np.array([t])) for t in xs])] - (-1.0)) <= 2e-5


def test_firmly_nonexpansive_spot(quad_quartic):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=2)
        px = prox(quad_quartic, [x], 0.7, TIGHT).point
        py = prox(quad_quartic, [y], 0.7, TIGHT).point
        lhs = float(np.dot(px - py, px - py))
        rhs = float(np.dot([x - y], px - py))
        assert lhs <= rhs + 1e-9


@st.composite
def convex_piecewise(draw):
    """A convex Piecewise1D of quadratic pieces with kinks at random breakpoints.

    Piece i is a_i x^2 / 2 + b_i x + e_i with a_i >= 0; at each breakpoint the
    slope jumps up by a nonnegative amount and the value is continuous.
    """
    breaks = sorted(draw(st.lists(st.floats(-3.0, 3.0), max_size=4, unique=True)))
    n = len(breaks)
    curv = draw(st.lists(st.floats(0.0, 3.0), min_size=n + 1, max_size=n + 1))
    jumps = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    lin, const = [draw(st.floats(-2.0, 2.0))], [0.0]
    for i, t in enumerate(breaks):
        lin.append(curv[i] * t + lin[i] + jumps[i] - curv[i + 1] * t)
        const.append(0.5 * (curv[i] - curv[i + 1]) * t * t + (lin[i] - lin[i + 1]) * t
                     + const[i])
    pieces = [(lambda x, a=a, b=b, e=e: 0.5 * a * x * x + b * x + e,
               lambda x, a=a, b=b: a * x + b) for a, b, e in zip(curv, lin, const)]
    return Piecewise1D(breaks, pieces)


@settings(max_examples=80, deadline=None)
@given(pw=convex_piecewise(), x=st.floats(-4.0, 4.0), y=st.floats(-4.0, 4.0),
       c=st.floats(0.05, 2.0))
def test_firmly_nonexpansive_random_piecewise(pw, x, y, c):
    # No closed form: both prox points come from the certified 1-d solver.
    # Each certificate e lies in partial f(p) + (p - z)/c, so monotonicity of
    # partial f gives <p_x - p_y, x - y> >= |p_x - p_y|^2 - c (r_x + r_y) |p_x - p_y|.
    p = problem_from_1d(pw, name="random_convex")
    rx, ry = prox(p, [x], c, TIGHT), prox(p, [y], c, TIGHT)
    d = float(rx.point[0] - ry.point[0])
    slack = c * (rx.residual_norm + ry.residual_norm) * abs(d)
    assert d * d <= d * (x - y) + slack + 1e-12


def test_descent_and_contraction_toward_solutions():
    rng = np.random.default_rng(8)
    for name in ("quad1d", "quad_quartic", "aniso_quad"):
        p = make_benchmark(name)
        for _ in range(50):
            z = rng.uniform(-2, 2, size=p.dimension)
            res = prox(p, z, 0.9, TIGHT)
            assert float(p.value(res.point)) <= float(p.value(z)) + 1e-9, name
            dist_z = np.linalg.norm(z - np.asarray(p.project_solution(z)))
            assert np.linalg.norm(res.point - z) <= dist_z + 1e-9, name


def certificate_is_subgradient(p, res, z, c, rng, samples=100):
    """Subgradient inequality of the (convex) subproblem at the returned point."""
    target = subproblem(p, z, c)
    fx = target(res.point)
    for _ in range(samples):
        y = res.point + rng.uniform(-1.5, 1.5, size=p.dimension)
        lhs = fx + float(np.dot(res.residual_element, y - res.point))
        if target(y) < lhs - 1e-9:
            return False
    return True


def test_certificate_soundness(lasso_toy, svm_toy, wc_piecewise):
    rng = np.random.default_rng(9)
    cases = [(lasso_toy, np.zeros(2), 0.16), (svm_toy, np.array([0.1, -0.3]), 1.0),
             (wc_piecewise, np.array([0.2]), 0.4)]
    for p, z, c in cases:
        res = prox(p, z, c, 1e-9)
        assert certificate_is_subgradient(p, res, z, c, rng), p.name


def test_certificate_matches_min_norm_for_composite(lasso_toy):
    # Box subdifferential: the constructed element is the true min-norm one.
    x, z, c = np.array([0.4, 0.0]), np.zeros(2), 0.5
    _, norm = certificate(lasso_toy, x, z, c)
    # Independent check: coordinate-wise interval distance.
    grad = np.array([0.4 - 3.0, 0.0]) + (x - z) / c
    d0 = abs(grad[0] + 1.0)  # x_0 > 0: subdifferential of |.| is {+1}
    d1 = max(abs(grad[1]) - 1.0, 0.0)  # x_1 = 0: interval [-1, 1]
    assert norm == pytest.approx(float(np.hypot(d0, d1)), abs=1e-12)


def assert_1d_certificate(pw, x, z, c, element, norm, h=1e-6, tol=1e-5):
    """element - (x - z)/c is a subgradient of the convex pw at x, read off
    pw.value alone, and norm is the distance from 0 to partial f(x) + (x - z)/c.

    The one-sided difference quotients bracket the subdifferential,
    (f(x) - f(x - h))/h <= f'_-(x) and f'_+(x) <= (f(x + h) - f(x))/h, and
    meet its ends up to h times the curvature when no other breakpoint lies
    within h of x; only then is the norm compared with the distance.
    """
    shift = (x - z) / c
    fx = pw.value(x)
    left, right = (fx - pw.value(x - h)) / h, (pw.value(x + h) - fx) / h
    assert left - tol <= element - shift <= right + tol
    assert norm == abs(element)
    if not any(b != x and abs(b - x) <= h for b in pw.breakpoints):
        assert abs(norm - max(0.0, left + shift, -(right + shift))) <= tol


@settings(max_examples=80, deadline=None)
@given(pw=convex_piecewise(), z=st.floats(-4.0, 4.0), c=st.floats(0.05, 2.0),
       x=st.floats(-4.0, 4.0), pick=st.integers(0, 7))
def test_1d_certificate_membership(pw, z, c, x, pick):
    # Checked apart from the solver: the residual certificate at an arbitrary
    # x (a breakpoint in about half of the draws that have one) and the
    # certificate prox returns at its own point.
    p = problem_from_1d(pw, name="random_convex")
    if pw.breakpoints and pick % 2:
        x = pw.breakpoints[pick // 2 % len(pw.breakpoints)]
    element, norm = certificate(p, [x], [z], c)
    assert_1d_certificate(pw, x, z, c, float(element[0]), norm)
    res = prox(p, [z], c, TIGHT)
    assert_1d_certificate(pw, float(res.point[0]), z, c, float(res.residual_element[0]),
                          res.residual_norm)
