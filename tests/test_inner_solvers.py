"""Work counts and certificates of the structured inner solvers.

The work-count gates pin the deterministic cost of the shipped lasso_medium,
elastic_net_medium and lasso_large runs (inner iterations summed over the
outer steps, and smooth-gradient evaluations: one per prox call plus one per
inner iteration), of the shipped svm_synthetic run and of two 1-d PPM runs
(inner iterations summed over the outer steps, and interval-oracle calls).
The property tests draw prox centers and steps at realistic sizes and check
that every returned certificate is a true element of the subproblem
subdifferential at the returned point, that the 1-d solver's point is as
close to the subproblem root as its certificate promises, and that its
candidates are those of the solver that tests every breakpoint before the
bracket walk.  The composite solver's candidates, with its memoized support
systems, are bitwise those of the solver that builds every system afresh,
also when the memo is shared by threads, and the memo holds the systems of
one step size at a time.  The SVM's cached row norms are those of its rows,
both read-only, and threads sharing one SVM problem get the candidates of
the same jobs run one after another.
"""

import importlib
import itertools
import json
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import proxlab.cli as cli
import proxlab.ippm as ippm_module
import proxlab.ppm as ppm_module
from proxlab import (InexactCriterion, MLProblemParams, Piecewise1D, StepSchedule,
                     generate_lasso_data, make_benchmark, make_blob_dataset, make_ml_problem,
                     min_norm_subgradient, prox, run_ippm, run_ppm)
from proxlab.errors import ResolutionFloor
from proxlab.problem import problem_from_1d

from oracles import bisect_root, fista_l1, loop_regula_falsi, unmemoized_composite
from test_prox import certificate, certificate_is_subgradient, convex_piecewise

prox_module = importlib.import_module("proxlab.prox")  # not proxlab.prox, the function
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
TOL = 1e-10

centers = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
steps = st.floats(0.05, 2.0)


@pytest.fixture
def prox_work(monkeypatch):
    """Counter of the run's prox calls ("calls") and their inner iterations ("inner")."""
    work = Counter()

    def counting_prox(*args, **kwargs):
        result = prox(*args, **kwargs)
        work.update(calls=1, inner=result.inner_iterations)
        return result

    monkeypatch.setattr(ppm_module, "prox", counting_prox)
    return work


def run_config(name, work, grad_calls=None):
    """The PPM run of a shipped config, with ``work`` counting only the run and not
    the reference solve, and ``grad_calls`` the run's smooth gradients when given."""
    cfg = cli.load_config(EXPERIMENTS / f"{name}.json")
    p = cli.build_problem(cfg, cfg["seed"])
    work.clear()
    if grad_calls is not None:
        grad = p.composite.grad_smooth
        p = replace(p, composite=replace(
            p.composite, grad_smooth=lambda x: grad_calls.update(grad=1) or grad(x)))
    return run_ppm(p, cli.build_x0(cfg, p), cli.build_schedule(cfg), max_iter=cfg["max_iter"])


def test_lasso_medium_work_count(monkeypatch, prox_work):
    grad_calls = Counter()
    support_solve = prox_module._support_solve
    monkeypatch.setattr(prox_module, "_support_solve",
                        lambda *args: prox_work.update(support=1) or support_solve(*args))
    trace = run_config("lasso_medium", prox_work, grad_calls)
    assert trace.stop_reason == "gap"
    # 59 re-solving a refused support solve on the support less its flipped
    # coordinates, 100 without, 195 without the support solve at sign(z).
    assert prox_work["inner"] <= 59
    # One gradient at the prox center per call, then one per inner iteration.
    assert grad_calls["grad"] == prox_work["inner"] + prox_work["calls"]
    # The run's parts are fresh (run_config replaced them), and its step is
    # constant: 10 support systems built for 47 support solves.
    systems = trace.problem.composite._support_systems
    assert list(systems) == [0.16]
    assert len(systems[0.16]) <= 10 < prox_work["support"]


@pytest.mark.parametrize("name,cap", [
    ("elastic_net_medium", 54),  # 95 without re-solving a refused support solve
    ("lasso_large", 83),  # 117 without
])
def test_composite_work_count(prox_work, name, cap):
    grad_calls = Counter()
    assert run_config(name, prox_work, grad_calls).stop_reason == "gap"
    assert prox_work["inner"] <= cap
    assert grad_calls["grad"] == prox_work["inner"] + prox_work["calls"]


def test_lasso_medium_shrinking_step_is_one_pruned_support_solve():
    # Step 10 of the shipped lasso_medium run drops 2 of its center's 15
    # coordinates.  The support solve on sign(z) is refused, and the solve with
    # its flipped coordinates dropped is the prox point.  Without the re-solve,
    # FISTA reached the same system as its held pattern, at inner iteration 12.
    cfg = cli.load_config(EXPERIMENTS / "lasso_medium.json")
    p, c = cli.build_problem(cfg, cfg["seed"]), cfg["schedule"]["constant"]
    z = run_ppm(p, cli.build_x0(cfg, p), StepSchedule.constant(c), max_iter=10).points[10]
    res = prox(p, z, c, TOL)
    assert (res.inner_iterations, np.count_nonzero(z), np.count_nonzero(res.point)) == (1, 15, 13)
    unpruned = itertools.islice(unmemoized_composite(p, z, c, prune=False), 100)
    it, (x, _, _) = next((i, cand) for i, cand in enumerate(unpruned) if cand[2] <= TOL)
    assert it == 12 and x.tobytes() == res.point.tobytes()


def test_svm_synthetic_work_count(prox_work):
    assert run_config("svm_synthetic", prox_work).stop_reason == "gap"
    assert prox_work["inner"] <= 54  # 54 with the free-set finish, 157 sweeping only


# Caps on the interval_1d calls of the runs below.  quad_quartic: 953 testing only
# the breakpoints inside the bracket, 1,545 testing both on every call.
# sine_quad has no breakpoints: 340 calls.
INTERVAL_CAPS = {"quad_quartic": 1_000, "sine_quad": 400}


@pytest.mark.parametrize("name,c,x0,horizon,cap", [
    ("quad_quartic", 0.01, 1.2, 300, 700),  # 345 with the secant steps, 11,383 bisecting
    ("sine_quad", 0.05, 3.0, 60, 450),  # 220 with the secant steps, 2,240 bisecting
])
def test_1d_ppm_work_count(prox_work, name, c, x0, horizon, cap):
    p, calls = make_benchmark(name), Counter()
    interval = p.interval_1d
    p = replace(p, interval_1d=lambda x: calls.update(interval=1) or interval(x))
    trace = run_ppm(p, [x0], StepSchedule.constant(c), max_iter=horizon)
    assert len(trace) - 1 == horizon
    assert prox_work["inner"] <= cap
    assert calls["interval"] <= INTERVAL_CAPS[name]


# interval_1d calls of test_1d_ppm_work_count's runs, which INTERVAL_CAPS caps.
INTERVAL_CALLS = {"quad_quartic": 953, "sine_quad": 340}


@pytest.mark.parametrize("name,c,x0,horizon", [
    ("quad_quartic", 0.01, 1.2, 300), ("sine_quad", 0.05, 3.0, 60)])
def test_loops_call_prox_and_the_interval_oracle_by_name(monkeypatch, name, c, x0, horizon):
    # The benchmark's tracer counts the work of a run by wrapping ppm.prox,
    # ippm.prox and the problem's oracles: a loop that bypassed those names
    # would hide its work from it.
    calls = Counter()

    def tally(key, fn):
        return lambda *args, **kwargs: calls.update([key]) or fn(*args, **kwargs)

    for module in (ppm_module, ippm_module):
        monkeypatch.setattr(module, "prox", tally(module.__name__, module.prox))
    p = make_benchmark(name)
    p = replace(p, interval_1d=tally("interval", p.interval_1d))
    assert len(run_ppm(p, [x0], StepSchedule.constant(c), max_iter=horizon)) - 1 == horizon
    assert calls == {"proxlab.ppm": horizon, "interval": INTERVAL_CALLS[name]}
    calls.clear()
    for crit, test_mode in ((InexactCriterion("A'"), False), (InexactCriterion("B"), True)):
        trace = run_ippm(p, [x0], StepSchedule.constant(c), crit, max_iter=20,
                         test_mode=test_mode)
        assert calls.pop("proxlab.ippm") == len(trace) - 1 > 0
        assert calls.pop("interval") > 0 and not calls


def candidate_bytes(solver, p, z, c, limit=20_000, target=None):
    """The bytes of each candidate ``solver`` yields, in order (at most ``limit``,
    and up to the first whose residual is at most ``target`` when given), then
    the name of the arithmetic error that ended the candidates, if one did.  The
    1-d solver's float candidates have the bytes of their 1-element arrays."""
    out = []
    as_bytes = lambda v: np.atleast_1d(np.float64(v)).tobytes()
    try:
        for x, e, norm in itertools.islice(solver(p, np.atleast_1d(z), c), limit):
            out.append((as_bytes(x), as_bytes(e), float(norm).hex()))
            if target is not None and norm <= target:
                break
    except ArithmeticError as exc:
        out.append(type(exc).__name__)
    return out


def assert_same_candidates(p, z, c):
    # A walk that stops on a zero element leaves a bracket end at zero, and a
    # trial that lands on the minimizer puts the other end there too.  The
    # reference's next secant root then divides 0 by 0, where the solver ends
    # its candidates.
    reference = candidate_bytes(loop_regula_falsi, p, z, c)
    if reference[-1] == "ZeroDivisionError":
        reference.pop()
    assert candidate_bytes(prox_module._regula_falsi, p, z, c) == reference


@settings(max_examples=80, deadline=None)
@given(pw=convex_piecewise(), z=centers, c=steps, kink=st.integers(0, 7),
       t=st.floats(0.0, 1.0))
def test_1d_candidates_match_breakpoints_first_random_convex(pw, z, c, kink, t):
    # In about half of the draws with a breakpoint the centre is one whose prox
    # point is that breakpoint b: z in b + c [lo, hi].
    if pw.breakpoints and kink % 2:
        b = pw.breakpoints[kink // 2 % len(pw.breakpoints)]
        lo, hi = pw.interval(b)
        z = b + c * (lo + t * (hi - lo))
    assert_same_candidates(problem_from_1d(pw, name="random_convex"), z, c)


def test_1d_candidates_match_when_the_walk_meets_a_zero_element():
    # f(x) = -x with a breakpoint (no kink) at -4.4e-211.  From z = -1 at c = 1
    # the walk lands on 0, the minimizer, and goes on to 2, so the bracket is
    # [0, 2]; but x + 1 rounds to 1 for every |x| below 1.1e-16, so the
    # element x + 1 - 1 is exactly zero at the breakpoint too.
    line = (lambda x: -x, lambda x: -1.0 + 0.0 * x)
    pw = Piecewise1D([-4.372344721372969e-211], [line, line])
    assert_same_candidates(problem_from_1d(pw, name="flat_root"), -1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["sine_quad", "wc_piecewise"]), z=st.floats(-4.0, 4.0),
       c_rho=st.floats(0.05, 0.9))
# wc_piecewise at c = 0.3: the prox point of z in [-1, -0.4] is the kink -1,
# and of z in [-0.2, 0.4] the kink -0.5.
@example(name="wc_piecewise", z=-0.7, c_rho=0.6)
@example(name="wc_piecewise", z=0.4, c_rho=0.6)
def test_1d_candidates_match_breakpoints_first_on_weakly_convex(name, z, c_rho):
    p = make_benchmark(name)
    assert_same_candidates(p, z, c_rho / p.weak_convexity)


def test_1d_candidates_end_when_both_bracket_ends_are_zero():
    # f(x) = x from z = 0.99 at c = 1: the element x + 0.01 is exactly zero on
    # a run of floats near the minimizer -0.01, the bracket's ends both reach
    # it, and prox raises ResolutionFloor with its best candidate, not
    # ZeroDivisionError.
    line = (lambda x: x, lambda x: 1.0 + 0.0 * x)
    p = problem_from_1d(Piecewise1D([], [line]), name="line")
    with pytest.raises(ResolutionFloor) as info:
        prox(p, [0.99], 1.0, stop_rule=lambda w, rn: False)
    best = info.value.best
    assert best.residual_norm == 0.0 and abs(best.point[0] + 0.01) <= 1e-15
    assert candidate_bytes(loop_regula_falsi, p, 0.99, 1.0)[-1] == "ZeroDivisionError"


def assert_1d_prox_certified(p, z, c, target):
    """The returned element is the residual certificate at the returned point,
    and the point lies within c r / (1 - c rho) of the subproblem root: the
    subproblem is (1/c - rho)-strongly convex."""
    res = prox(p, [z], c, target)
    element, norm = certificate(p, res.point, [z], c)
    assert np.array_equal(res.residual_element, element) and res.residual_norm == norm
    assert norm <= target
    root = bisect_root(lambda t: 0.5 * sum(p.interval_1d(t)) + (t - z) / c, -100.0, 100.0)
    x = float(res.point[0])
    assert abs(x - root) <= c * norm / (1.0 - c * p.weak_convexity) + 1e-12


targets = st.sampled_from([1e-3, 1e-8, 1e-12])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["sine_quad", "wc_piecewise"]), z=st.floats(-4.0, 4.0),
       c_rho=st.floats(0.05, 0.9), target=targets)
# A subnormal center: the subproblem root lies between 0 and the smallest
# positive float, where the derivative values are subnormal.
@example(name="sine_quad", z=5e-324, c_rho=0.5, target=1e-12)
def test_1d_prox_certified_on_weakly_convex(name, z, c_rho, target):
    # wc_piecewise has kinks at -1 (its minimizer) and -0.5; c rho < 1.
    p = make_benchmark(name)
    assert_1d_prox_certified(p, z, c_rho / p.weak_convexity, target)


@settings(max_examples=60, deadline=None)
@given(pw=convex_piecewise(), z=st.floats(-4.0, 4.0), c=steps, target=targets)
def test_1d_prox_certified_on_random_convex(pw, z, c, target):
    assert_1d_prox_certified(problem_from_1d(pw, name="random_convex"), z, c, target)


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 50, elements=centers), c=steps)
def test_composite_certificate_recomputes_at_point(lasso_f20, en_f20, z, c):
    for p in (lasso_f20, en_f20):
        res = prox(p, z, c, TOL)
        element, norm = certificate(p, res.point, z, c)
        assert np.max(np.abs(res.residual_element - element)) <= 1e-12
        assert abs(res.residual_norm - norm) <= 1e-12
        assert res.residual_norm <= TOL


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


def memo(p) -> dict:
    """The support systems memo of p's composite parts, by step size."""
    return p.composite._support_systems


def fresh_parts(p):
    """Copy of p with a copy of its composite parts, whose memo starts empty."""
    return replace(p, composite=replace(p.composite))


def assert_ppm_steps_match_unmemoized(p, z, c, count=3):
    """From z, ``count`` PPM steps at the one step c: at each, the composite
    solver's candidates up to the first prox accepts at TOL are bitwise the
    unmemoized reference's.  The later steps meet the sign patterns of the
    earlier ones."""
    for _ in range(count):
        ours = candidate_bytes(prox_module._composite, p, z, c, target=TOL)
        assert ours == candidate_bytes(unmemoized_composite, p, z, c, target=TOL)
        z = np.frombuffer(ours[-1][0])
        assert len(memo(p)) <= 1


# Few step sizes, so that consecutive draws often share one and the memo of the
# shared fixture problems hits across draws as well as within one.
memo_steps = st.sampled_from([0.16, 0.5, 2.0])


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 50, elements=centers), c=memo_steps)
def test_composite_candidates_match_unmemoized(lasso_f20, en_f20, z, c):
    for p in (lasso_f20, en_f20):
        assert_ppm_steps_match_unmemoized(p, z, c)


@pytest.mark.parametrize("name", ["svm_blobs", "svm_blobs_40"])
def test_svm_squared_norms_are_those_of_the_read_only_rows(request, name):
    # The row norms are the SVM's one derived array: the dual sweeps divide
    # by them, so they must be the norms of the rows, and neither may change.
    parts = request.getfixturevalue(name).svm
    rows, norms = parts.signed_rows, parts.squared_norms
    assert norms.tobytes() == np.einsum("ij,ij->i", rows, rows).tobytes()
    assert not rows.flags.writeable and not norms.flags.writeable


@pytest.mark.parametrize("name", ["lasso_f20"])
def test_memo_holds_one_step_size_under_a_geometric_schedule(request, name):
    # Proximal steps at c_k = 0.1 * 1.5^k, each centered at the last point.
    p = fresh_parts(request.getfixturevalue(name))
    z, held = np.zeros(p.dimension), []  # the step sizes the memo held after each call
    for k in range(8):
        z = prox(p, z, 0.1 * 1.5 ** k).point
        held.append(list(memo(p)))
        assert len(held[-1]) <= 1
    assert len({c for steps in held for c in steps}) >= 3


@pytest.mark.parametrize("name", ["lasso_f20", "svm_blobs_40"])
def test_memo_shared_by_threads_gives_the_unmemoized_candidates(request, name):
    # Four threads solve the same jobs in rotated orders on one problem, so the
    # composite memo is emptied for one step size while another thread reads it.
    # The SVM holds no memo: its threads must give the candidates that the same
    # jobs gave run one after another before the threads started.
    p = request.getfixturevalue(name)
    if p.composite:
        p, solver, reference = fresh_parts(p), prox_module._composite, unmemoized_composite
    else:
        solver = reference = prox_module._svm_dual
    rng = np.random.default_rng(3)
    jobs = [(2.0 * rng.standard_normal(p.dimension), c) for _ in range(4)
            for c in (0.16, 0.5, 2.0)]
    expected = [candidate_bytes(reference, p, z, c, target=TOL) for z, c in jobs]
    got = {}

    def work(t):
        order = [(i + 3 * t) % len(jobs) for i in range(len(jobs))] * 3
        got[t] = [(i, candidate_bytes(solver, p, *jobs[i], target=TOL)) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(got) == 4
    for results in got.values():
        assert all(candidates == expected[i] for i, candidates in results)


@settings(max_examples=40, deadline=None)
@given(z=arrays(float, 10, elements=centers), c=steps)
def test_svm_certificate_is_subgradient(svm_blobs, z, c):
    res = prox(svm_blobs, z, c, TOL)
    assert res.residual_norm <= TOL
    assert certificate_is_subgradient(svm_blobs, res, z, c, np.random.default_rng(5))


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
def test_composite_center_with_the_minimizer_signs_needs_one_candidate(lasso_f20, en_f20, c):
    # The center whose prox point is a chosen x with signs s: z = x + c (grad g(x)
    # + lam s) on the support of s and 0 off it, where |grad g(x)| <= lam.  An x
    # this close to the minimizer of f keeps both conditions at every c here.
    for p in (lasso_f20, en_f20):
        parts = p.composite
        x = 0.9999 * np.array(p.metadata["reference_point"])
        s, grad = np.sign(x), parts.grad_smooth(x)
        assert np.all(np.abs(grad[s == 0.0]) <= parts.l1_weight)
        z = np.where(s != 0.0, x + c * (grad + parts.l1_weight * s), 0.0)
        assert np.array_equal(np.sign(z), s)
        res = prox(p, z, c, TOL)
        assert res.inner_iterations == 1 and res.residual_norm <= TOL
        assert np.max(np.abs(res.point - x)) <= 1e-9


@pytest.mark.parametrize("center", ["zero", "reference"])
def test_composite_support_candidate_at_the_center_signs(monkeypatch, lasso_f20, center):
    solved = []
    support_solve = prox_module._support_solve

    def recording(parts, v, c, signs):
        solved.append(signs.copy())
        return support_solve(parts, v, c, signs)

    monkeypatch.setattr(prox_module, "_support_solve", recording)
    z = np.zeros(50) if center == "zero" else np.array(lasso_f20.metadata["reference_point"])
    candidates = prox_module._composite(lasso_f20, z, 1.0)
    next(candidates), next(candidates)  # the start point, then the next candidate
    if center == "zero":  # the next candidate is a FISTA step
        assert solved == []
    else:
        assert len(solved) == 1 and np.array_equal(solved[0], np.sign(z))


@pytest.mark.parametrize("rows", ["once", "twice"])
def test_svm_free_set_finish_skips_large_and_singular_sets(monkeypatch, rows):
    # With d = 3 the free set often has more than d rows.  With every row
    # twice, a free set holding both copies of a row has a singular system.
    data = make_blob_dataset(40, 3, seed=5)
    if rows == "twice":
        data = (np.vstack([data[0]] * 2), np.tile(data[1], 2))
    p = make_ml_problem(data, MLProblemParams("svm", svm_reg=1.0))
    sizes, singular = [], []
    solve = np.linalg.solve

    def recording(a, b):
        sizes.append(b.size)
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(b.size)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    rng = np.random.default_rng(0)
    for _ in range(30):
        z, c = rng.normal(size=3), rng.uniform(0.1, 5.0)
        res = prox(p, z, c, TOL)
        assert res.residual_norm <= TOL
        assert np.linalg.norm(res.residual_element) == res.residual_norm
        assert certificate_is_subgradient(p, res, z, c, rng)
    assert sizes and max(sizes) <= 3
    assert bool(singular) == (rows == "twice")


def test_composite_singular_support_system_is_a_refused_solve(monkeypatch):
    # With a duplicated column and c = 1e20, where I/c is lost to rounding, the
    # support system on sign(x0) is singular.  The solve is refused with
    # nothing to drop and FISTA goes on, as for a singular SVM free set; the
    # LinAlgError used to escape the run, losing its trace.
    features, y, xhat = generate_lasso_data(30, 60, 15, 11)
    p = make_ml_problem((np.hstack([features[:, :5], features[:, :1]]), y, xhat),
                        MLProblemParams("lasso", lam=1.0))
    singular = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(b.size)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    monkeypatch.setattr(prox_module, "MAX_INNER", 100)
    trace = run_ppm(p, np.ones(6), StepSchedule.constant(1e20), max_iter=5)
    assert singular[:1] == [6]  # the first, on sign(x0)
    assert trace.stop_reason in ("max_iter", "resolution", "inner_budget")
    assert np.array_equal(trace.points[0], np.ones(6))


@pytest.fixture(scope="module")
def svm_blobs_40():
    # Small enough that some prox points have several hinge terms at their kink.
    return make_ml_problem(make_blob_dataset(40, 3, seed=5),
                           MLProblemParams("svm", svm_reg=1.0))


@pytest.mark.parametrize("name", ["lasso_f20", "svm_blobs_40", "wc_piecewise"])
def test_min_norm_oracle_meets_the_prox_certificate(request, name):
    # At the point prox returns, the min-norm oracle at the prox shift is an
    # element of the same set as the solver's certificate, the one nearest
    # zero, so it is no longer, up to rounding.
    p = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    for _ in range(30):
        z = 2.0 * rng.standard_normal(p.dimension)
        c = rng.uniform(0.05, 0.9) / p.weak_convexity if p.weak_convexity else \
            rng.uniform(0.05, 5.0)
        res = prox(p, z, c, 1e-12)
        _, norm = certificate(p, res.point, z, c)
        assert norm <= res.residual_norm + 1e-15


def test_svm_min_norm_and_certificate_share_the_hinge_routine(svm_blobs):
    # Move the reference point so that hinge term 0 sits at its kink; with
    # z = x the prox term vanishes, so both build the same element.
    row = svm_blobs.svm.signed_rows[0]
    x = np.array(svm_blobs.metadata["reference_point"])
    x = x + (1.0 - row @ x) / (row @ row) * row
    assert abs(1.0 - row @ x) <= 1e-12
    element, norm = min_norm_subgradient(svm_blobs, x)
    shifted, shifted_norm = certificate(svm_blobs, x, x, 1.0)
    assert np.array_equal(element, shifted) and norm == shifted_norm


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
