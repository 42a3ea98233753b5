import math
from dataclasses import replace

import numpy as np
import pytest

from proxlab import GDParams, ProxlabError, make_benchmark, run_gd, verify_gd_rates

from oracles import central_difference


def test_params_validation():
    with pytest.raises(ValueError):
        GDParams(lipschitz=2.0, mu=3.0, beta=1.0)  # mu > L
    with pytest.raises(ValueError):
        GDParams(lipschitz=2.0, mu=2.0, beta=2.1)  # beta above L^3/(2 mu L - mu^2) = 2
    for mu, beta in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            GDParams(lipschitz=2.0, mu=mu, beta=beta)
    with pytest.raises(ValueError, match="underflows to 0"):
        GDParams(lipschitz=2.0, mu=5e-324, beta=1.0)  # t = mu / L^2 rounds to 0
    p = GDParams(lipschitz=2.0, mu=2.0, beta=2.0)
    assert p.step_size == pytest.approx(0.5)
    assert p.omega_dist == pytest.approx(0.0)


def test_quad1d_one_step_convergence(quad1d):
    params = GDParams(lipschitz=2.0, mu=2.0, beta=2.0)
    tr = run_gd(quad1d, [5.0], params, iters=3)
    assert float(tr.points[1][0]) == 0.0
    assert all(float(x[0]) == 0.0 for x in tr.points[1:])
    dist, cost = verify_gd_rates(tr, params)
    assert dist.all_ok and cost.all_ok and 0 < params.step_size < 2 / params.lipschitz
    # Only the first step has a nonzero denominator; later ones are skipped.
    assert dist.indices.tolist() == [0]


def test_aniso_both_bounds_hold(aniso_quad):
    params = GDParams(lipschitz=9.0, mu=1.0, beta=1.0)
    assert params.step_size == pytest.approx(1.0 / 81.0)
    tr = run_gd(aniso_quad, [1.0, 1.0], params, iters=50)
    dist, cost = verify_gd_rates(tr, params)
    assert dist.all_ok and cost.all_ok and 0 < params.step_size < 2 / params.lipschitz
    assert params.omega_dist == pytest.approx(math.sqrt(1.0 - 1.0 / 81.0))
    assert params.omega_cost == pytest.approx((729.0 - 18.0 + 1.0) / 729.0)


def test_stationary_start(aniso_quad):
    params = GDParams(lipschitz=9.0, mu=1.0, beta=1.0)
    tr = run_gd(aniso_quad, [0.0, 0.0], params, iters=5)
    dist, cost = verify_gd_rates(tr, params)
    assert len(dist.indices) == len(cost.indices) == 0  # nothing to check


def test_run_gd_stops_at_run_ppms_thresholds(aniso_quad):
    # With no stop rule, a horizon of 10**12 steps never ended.
    params = GDParams(lipschitz=9.0, mu=1.0, beta=1.0)
    tr = run_gd(aniso_quad, [1.0, 1.0], params, iters=10**12)
    assert tr.stop_reason == "gap" and tr.gaps[-1] <= 1e-10 < tr.gaps[-2]
    # Without f_star, at a gradient norm ||x_{k+1} - x_k|| / t of at most 1e-10.
    tr = run_gd(replace(aniso_quad, f_star=None), [1.0, 1.0], params, iters=10**12)
    norms = np.linalg.norm(np.diff(tr.points, axis=0), axis=1) / params.step_size
    assert tr.stop_reason == "residual" and norms[-1] <= 1e-10 < norms[-2]


def test_not_smooth(wc_piecewise):
    params = GDParams(lipschitz=1.0, mu=0.5, beta=0.5)
    with pytest.raises(ProxlabError):
        run_gd(wc_piecewise, [-0.7], params, iters=3)


def test_distance_chain_inequality(aniso_quad):
    # dist^2(x_{k+1}) <= (1 - 2 t mu + t^2 L^2) dist^2(x_k) along the run.
    params = GDParams(lipschitz=9.0, mu=1.0, beta=1.0)
    t = params.step_size
    factor = 1.0 - 2.0 * t * 1.0 + t * t * 81.0
    tr = run_gd(aniso_quad, [1.0, 1.0], params, iters=40)
    ds = tr.dists
    for a, b in zip(ds, ds[1:]):
        if a > 1e-14:
            assert b * b <= factor * a * a + 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    for name in ("quad1d", "sine_quad", "aniso_quad", "quad_quartic"):
        p = make_benchmark(name)
        lo, hi = p.metadata["bracket"]
        checked = 0
        while checked < 100:
            x = rng.uniform(lo, hi, size=p.dimension)
            if name == "quad_quartic" and min(abs(abs(x[0]) - 1.0), abs(x[0])) < 1e-3:
                continue  # keep the stencil away from the seams
            grad = np.asarray(p.subgradient(x), dtype=float)
            fd = central_difference(lambda v: float(p.value(v)), x)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / scale <= 1e-4, name
            checked += 1
