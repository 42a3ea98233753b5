import math
from dataclasses import replace

import numpy as np
import pytest

import proxlab.checks as checks_module
from proxlab import (InexactCriterion, ProxlabError, StepSchedule,
                     check_inexact_one_step, check_ippm_linear, check_ippm_sublinear,
                     estimate_constants, run_ippm, run_ppm)


def test_criterion_kinds_and_sequences():
    crit = InexactCriterion("A'", eps0=0.1, gamma=0.5)
    assert crit.implementable and crit.absolute
    assert crit.eps(3) == pytest.approx(0.1 * 0.5 ** 3)
    with pytest.raises(ValueError):
        InexactCriterion("A", gamma=1.0)
    for kind in ("C", "bprime", "a"):  # one spelling per kind
        with pytest.raises(ValueError):
            InexactCriterion(kind)


def test_unprimed_requires_test_mode(quad1d):
    with pytest.raises(ProxlabError):
        run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), InexactCriterion("A"))
    with pytest.raises(ValueError):
        run_ippm(quad1d, [1.0], StepSchedule.constant(1.0),
                 (InexactCriterion("A"), InexactCriterion("B'")), test_mode=True)


def test_aprime_quad1d_converges_and_bound_holds(quad1d):
    crit = InexactCriterion("A'", eps0=0.1, gamma=0.5)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crit, max_iter=40)
    assert tr.gaps[-1] <= 1e-10
    chk = check_ippm_sublinear(tr)
    assert chk.all_ok and len(chk.indices) == len(tr) - 1


def test_sublinear_detects_corruption(quad1d):
    crit = InexactCriterion("A'", eps0=0.1, gamma=0.5)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crit, max_iter=20)
    bad = replace(tr, values=tr.values + 5.0)  # inflate every value: min-gap breaks
    assert not check_ippm_sublinear(bad).all_ok


def test_zero_budget_reduces_to_exact_bitwise(quad1d):
    crit = InexactCriterion("A'", eps0=0.0, gamma=0.5)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crit, max_iter=10,
                  stop_gap=0.0, stop_residual=0.0)
    exact = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=10,
                    stop_gap=0.0, stop_residual=0.0)
    assert len(tr) == len(exact)
    for a, b in zip(tr.points, exact.points):
        assert float(a[0]) == float(b[0])  # bitwise on the closed-form prox


def test_delta_zero_test_mode_bitwise(quad1d):
    crits = (InexactCriterion("B", delta0=0.0, gamma=0.7),)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crits, max_iter=8,
                  test_mode=True, stop_gap=0.0, stop_residual=0.0)
    exact = run_ppm(quad1d, [1.0], StepSchedule.constant(1.0), max_iter=8,
                    stop_gap=0.0, stop_residual=0.0)
    for a, b in zip(tr.points, exact.points):
        assert float(a[0]) == float(b[0])
    chk = check_inexact_one_step(tr)  # reduces to dist(x_{k+1}) <= dist(prox)
    assert chk.all_ok


def test_ab_test_mode_criteria_hold_exactly(en_toy_ref):
    crits = (InexactCriterion("A", eps0=0.1, gamma=0.7),
             InexactCriterion("B", delta0=0.5, gamma=0.7))
    tr = run_ippm(en_toy_ref, [4.0], StepSchedule.constant(1.0), crits,
                  max_iter=40, test_mode=True)
    for k in range(len(tr) - 1):
        ref = tr.ref_prox_points[k]
        gap = float(np.linalg.norm(tr.points[k + 1] - ref))
        assert gap <= tr.eps[k] + 1e-15
        assert gap <= tr.deltas[k] * float(np.linalg.norm(tr.points[k + 1] - tr.points[k])) + 1e-15


@pytest.mark.parametrize("name,x0", [("quad1d", [1.0]), ("aniso_quad", [1.0, 1.0])])
@pytest.mark.parametrize("kind", ["A", "B"])
def test_test_mode_steps_spend_their_budget(request, name, x0, kind):
    # The step falls short of p_k by the largest radius its budget admits, and
    # the rounding recheck shrinks that radius by an ulp before it halves.
    tr = run_ippm(request.getfixturevalue(name), x0, StepSchedule.constant(1.0),
                  InexactCriterion(kind, gamma=0.7), max_iter=40, test_mode=True)
    spent = []
    for k in range(len(tr) - 1):
        x, ref, x_next = tr.points[k], tr.ref_prox_points[k], tr.points[k + 1]
        if np.array_equal(ref, x):
            continue
        budget = tr.eps[k] if kind == "A" else tr.deltas[k] * np.linalg.norm(x_next - x)
        spent.append(np.linalg.norm(x_next - ref) / budget)
    assert len(spent) >= 10 and min(spent) >= 0.9
    assert sum(share >= 1.0 - 1e-12 for share in spent) > len(spent) / 2


@pytest.mark.parametrize("name,x0", [("quad1d", [0.0]), ("aniso_quad", [0.0, 0.0])])
@pytest.mark.parametrize("kind", ["A", "B"])
def test_test_mode_step_from_the_solution_does_not_move(request, name, x0, kind):
    tr = run_ippm(request.getfixturevalue(name), x0, StepSchedule.constant(1.0),
                  InexactCriterion(kind), max_iter=3, test_mode=True,
                  stop_gap=-1.0, stop_residual=-1.0)
    assert len(tr) == 4 and (tr.points == np.array(x0)).all()


def test_inexact_linear_contraction(en_toy_ref):
    crits = (InexactCriterion("A", eps0=0.1, gamma=0.7),
             InexactCriterion("B", delta0=0.5, gamma=0.7))
    tr = run_ippm(en_toy_ref, [4.0], StepSchedule.constant(1.0), crits,
                  max_iter=40, test_mode=True)
    report = estimate_constants(en_toy_ref, math.inf)
    chk = check_ippm_linear(tr, report, nu=math.inf)
    assert chk.all_ok and len(chk.indices) >= 5
    eq20 = check_inexact_one_step(tr)
    assert eq20.all_ok


def test_bprime_production_contraction(en_toy_ref):
    crit = InexactCriterion("B'", delta0=0.5, gamma=0.7)
    tr = run_ippm(en_toy_ref, [4.0], StepSchedule.constant(1.0), crit, max_iter=40)
    report = estimate_constants(en_toy_ref, math.inf)
    chk = check_ippm_linear(tr, report, nu=math.inf)
    assert chk.all_ok


def test_wc_piecewise_beta_adjusted_contraction(wc_piecewise):
    crit = InexactCriterion("B'", delta0=0.3, gamma=0.7)
    tr = run_ippm(wc_piecewise, [0.5], StepSchedule.constant(0.4), crit, max_iter=30)
    report = estimate_constants(wc_piecewise)
    chk = check_ippm_linear(tr, report, nu=1.0)
    assert chk.all_ok  # theta built from beta = mu_q - rho/2 ~ 2


def test_eq20_detector(en_toy_ref):
    crits = (InexactCriterion("B", delta0=0.4, gamma=0.7),)
    tr = run_ippm(en_toy_ref, [4.0], StepSchedule.constant(1.0), crits,
                  max_iter=15, test_mode=True)
    points, values = tr.points.copy(), tr.values.copy()
    k = 3
    points[k + 1] = points[k + 1] + 10.0  # breaches criterion B at step k
    values[k + 1] = float(tr.problem.value(points[k + 1]))
    chk = check_inexact_one_step(replace(tr, points=points, values=values))
    assert not chk.all_ok and chk.first_violation == k


def test_theta_hat_monotone_for_constant_theta(quad1d, monkeypatch):
    # theta_hat_k = (theta + 2 delta_k) / (1 - delta_k), as check_ippm_linear
    # applies it on a constant-step B run: theta = 1/sqrt(2 c mu_q + 1) = 1/sqrt(3).
    factors = []

    def capture(name, s, factor, *args, **kwargs):
        factors.append(factor)
        return contraction(name, s, factor, *args, **kwargs)

    contraction = checks_module._contraction
    monkeypatch.setattr(checks_module, "_contraction", capture)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0),
                  InexactCriterion("B", delta0=0.5, gamma=0.7), max_iter=30,
                  test_mode=True, stop_gap=-1.0, stop_residual=-1.0)
    assert check_ippm_linear(tr, quad1d.metadata, nu=math.inf).all_ok
    (hats,) = factors
    assert len(hats) == 30
    assert all(b < a for a, b in zip(hats, hats[1:]))
    assert hats[-1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


def test_diameter_stabilizes_on_convergent_run(quad1d):
    crit = InexactCriterion("A'", eps0=0.1, gamma=0.5)
    tr = run_ippm(quad1d, [1.0], StepSchedule.constant(1.0), crit, max_iter=60,
                  stop_gap=0.0, stop_residual=0.0)
    diam = tr.running_diameter()
    tail = diam[int(0.8 * len(diam)):]
    assert max(tail) - min(tail) < 1e-6

