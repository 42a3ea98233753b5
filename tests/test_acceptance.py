"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and match the module-level checkers.
"""

import math

import numpy as np

from proxlab import (GDParams, InexactCriterion, StepSchedule,
                     audit_implications, check_ippm_linear, check_ippm_sublinear,
                     check_one_step, check_sublinear_bound, estimate_constants,
                     find_suboptimal_stationary_points, prox, run_gd,
                     run_ippm, run_ppm, verify_gd_rates)

from conftest import with_solution_point
from oracles import longest_run_below

TIGHT = 1e-12


def report(num: int, label: str, ok: bool):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_quadratic_ppm_closed_form(quad1d):
    tr = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=10,
                 stop_gap=0.0, stop_residual=0.0)
    iterates_ok = all(abs(float(x[0]) - 3.0 ** (-k)) <= 1e-12
                      for k, x in enumerate(tr.points))
    dists = tr.dists
    gaps = tr.gaps
    theta = 1.0 / math.sqrt(3.0)  # growth-branch factor with mu_q = 1, c = 1
    omega = 1.0 / 3.0  # 2 / (2 + mu_p c) with mu_p = 4
    dist_ok = all(dists[k + 1] <= theta * dists[k] + 1e-15 for k in range(len(tr) - 1))
    cost_ok = all(gaps[k + 1] <= omega * gaps[k] + 1e-15 for k in range(len(tr) - 1))
    report(1, "quadratic PPM closed form and contraction factors",
           iterates_ok and dist_ok and cost_ok)


def test_criterion_02_constant_recovery(quad1d, wc_piecewise):
    rep_q = estimate_constants(quad1d)
    targets_q = {"mu_s": 1.0, "mu_r": 2.0, "mu_e": 0.5, "mu_p": 4.0, "mu_q": 1.0}
    ok_q = all(abs(rep_q.estimates[k].value - v) <= 0.05 * v
               for k, v in targets_q.items())
    rep_w = estimate_constants(wc_piecewise)
    targets_w = {"mu_q": 3.0, "mu_e": 0.5, "mu_p": 4.0 / 3.0}
    ok_w = all(abs(rep_w.estimates[k].value - v) <= 0.05 * v
               for k, v in targets_w.items())
    report(2, "estimator recovers the documented constants within 5%", ok_q and ok_w)


def test_criterion_03_implication_chain(quad1d, quad_quartic, wc_piecewise):
    ok = True
    for p in (quad1d, quad_quartic):
        checks = audit_implications(estimate_constants(p),
                                    p.weak_convexity)
        ok = ok and len(checks) == 6 and all(c.status == "pass" for c in checks)
    checks_w = audit_implications(estimate_constants(wc_piecewise),
                                  rho=2.0)
    growth = {c.relation: c for c in checks_w}["mu_r >= mu_q - rho/2"]
    ok = ok and growth.status == "pass"
    report(3, "implication-chain audit (equivalence witness)", ok)


def test_criterion_04_global_failure_detection(sine_quad):
    rep = estimate_constants(sine_quad)
    pts = find_suboptimal_stationary_points(sine_quad, (-10.0, 10.0))
    ok = (rep.mu_q >= 0.99 and rep.pl_fails_globally
          and len(pts) >= 1
          and all(float(sine_quad.value(x)) - sine_quad.f_star > 0.1 for x in pts))
    report(4, "growth holds globally while dominance fails (stationary points found)", ok)


def test_criterion_05_envelope_and_one_step(quad1d, quad_quartic, aniso_quad,
                                            lasso_toy_ref, en_toy_ref, svm_toy_ref,
                                            lasso_f20, en_f20, svm_blobs):
    runs = [
        (quad1d, [1.0], 1.0, None),
        (quad_quartic, [1.5], 0.7, None),
        (aniso_quad, [1.0, 1.0], 0.9, None),
        (lasso_toy_ref, [0.0, 0.0], 0.16, np.array([2.0, 0.0])),
        (en_toy_ref, [4.0], 1.0, None),
        (svm_toy_ref, [0.0, 0.0], 1.0, None),
        (lasso_f20, np.zeros(50), 0.16, np.array(lasso_f20.metadata["reference_point"])),
        (en_f20, np.zeros(50), 0.16, None),
        (svm_blobs, np.zeros(10), 1.0, None),
    ]
    ok = True
    for p, x0, c, x_star in runs:
        if x_star is not None:  # lasso: replay against the reference minimizer
            p = with_solution_point(p, x_star)
        tr = run_ppm(p, x0, StepSchedule.constant(c), max_iter=40)
        ok = ok and check_sublinear_bound(tr).all_ok and check_one_step(tr).all_ok
    report(5, "sublinear envelope and one-step improvement on every exact run", ok)


def test_criterion_06_gd_rates(quad1d, aniso_quad):
    params_q = GDParams(lipschitz=2.0, mu=2.0, beta=2.0)
    tr_q = run_gd(quad1d, [5.0], params_q, iters=3)
    one_step = float(tr_q.points[1][0]) == 0.0 and params_q.omega_dist == 0.0
    params_a = GDParams(lipschitz=9.0, mu=1.0, beta=1.0)
    tr_a = run_gd(aniso_quad, [1.0, 1.0], params_a, iters=50)
    dist, cost = verify_gd_rates(tr_a, params_a)
    report(6, "gradient descent contraction factors",
           one_step and 0 < params_a.step_size < 2 / params_a.lipschitz and dist.all_ok
           and cost.all_ok)


def test_criterion_07_ippm_sublinear(quad1d):
    crit = InexactCriterion("A'", eps0=0.1, gamma=0.5)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crit, max_iter=40)
    chk = check_ippm_sublinear(tr)
    report(7, "inexact best-iterate envelope with running diameter",
           chk.all_ok and len(chk.indices) == len(tr) - 1)


def test_criterion_08_ippm_linear(en_toy_ref, quad1d):
    crits = (InexactCriterion("A", eps0=0.1, gamma=0.7),
             InexactCriterion("B", delta0=0.5, gamma=0.7))
    tr = run_ippm(en_toy_ref, [4.0], StepSchedule.constant(1.0), crits,
                  max_iter=40, test_mode=True)
    rep = estimate_constants(en_toy_ref, math.inf)
    contraction = check_ippm_linear(tr, rep, nu=math.inf)
    # Degenerate budgets reproduce the exact trace bitwise on closed forms.
    zero = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0),
                    (InexactCriterion("B", delta0=0.0, gamma=0.7),),
                    max_iter=8, test_mode=True, stop_gap=0.0, stop_residual=0.0)
    exact = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=8,
                    stop_gap=0.0, stop_residual=0.0)
    bitwise = all(float(a[0]) == float(b[0]) for a, b in zip(zero.points, exact.points))
    report(8, "inexact distance contraction and exactness degeneracy",
           contraction.all_ok and len(contraction.indices) >= 5 and bitwise)


def test_criterion_09_firmly_nonexpansive(quad1d, quad_quartic, aniso_quad):
    rng = np.random.default_rng(42)
    ok = True
    for p in (quad1d, quad_quartic, aniso_quad):
        for _ in range(1000):
            x = rng.uniform(-2.5, 2.5, size=p.dimension)
            y = rng.uniform(-2.5, 2.5, size=p.dimension)
            px = prox(p, x, 0.8, TIGHT).point
            py = prox(p, y, 0.8, TIGHT).point
            lhs = float(np.dot(px - py, px - py))
            rhs = float(np.dot(x - y, px - py))
            if lhs > rhs + 1e-9:
                ok = False
                break
    report(9, "prox operator is firmly nonexpansive on convex benchmarks", ok)


def test_criterion_10_ml_linear_decay(lasso_f20, en_f20, svm_blobs):
    runs = [
        ("lasso(20,50,10)", lasso_f20, np.zeros(50), 0.16, 60),
        ("elastic_net(20,50,10)", en_f20, np.zeros(50), 0.16, 60),
        # The 1-strongly-convex subproblem contracts the gap by ~1/4 per step
        # at c = 1, so the far start buys a long resolvable decay window.
        ("svm(blobs 200x10)", svm_blobs, 1000.0 * np.ones(10), 1.0, 80),
    ]
    ok = True
    for label, p, x0, c, iters in runs:
        tr = run_ppm(p, x0, StepSchedule.constant(c), max_iter=iters, stop_gap=1e-14)
        gaps = [g for g in tr.gaps if g > 1e-11]
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        sustained = longest_run_below(ratios, 0.999)
        ok = ok and decreasing and sustained >= 20
    report(10, "sustained linear decay on the three ML problem shapes", ok)


def test_criterion_11_weakly_convex_ppm(wc_piecewise):
    tr = run_ppm(wc_piecewise, [0.5], StepSchedule.constant(0.4), max_iter=20,
                 inner_target=TIGHT)
    vals = tr.values
    monotone = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    rep = estimate_constants(wc_piecewise)
    beta = rep.mu_q - 0.5 * wc_piecewise.weak_convexity
    bound = 1.0 / math.sqrt(2.0 * 0.4 * beta + 1.0)
    dists = tr.dists
    k0 = tr.entry_index(1.0)
    contraction = all(dists[k + 1] <= 1.1 * bound * dists[k] + 1e-12
                      for k in range(k0, len(tr) - 1))
    report(11, "weakly convex PPM descends and contracts with the shifted growth rate",
           monotone and beta > 1.5 and contraction)
