import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxlab import (ProxlabError, audit_implications, estimate_constants,
                     find_suboptimal_stationary_points, make_benchmark, regularity, zoo)
from proxlab.problem import BATCH_ELEMENTS

from conftest import counted
from oracles import bisect_root, loop_estimate, loop_secant_rows, loop_stationary_points

ONE_D = ("quad1d", "quad_quartic", "sine_quad", "wc_piecewise")
BENCHMARKS = (*ONE_D, "aniso_quad")


def rel_close(value, target, tol=0.05):
    return abs(value - target) <= tol * abs(target)


def test_quad1d_recovers_documented_constants(quad1d):
    report = estimate_constants(quad1d)
    assert rel_close(report.mu_s, 1.0)
    assert rel_close(report.mu_r, 2.0)
    assert rel_close(report.mu_e, 0.5)
    assert rel_close(report.mu_p, 4.0)
    assert rel_close(report.mu_q, 1.0)
    assert not report.pl_fails_globally and not report.eb_fails_globally
    assert all(e.bound_direction == "exact" for e in report.estimates.values())


def test_wc_piecewise_recovers_constants(wc_piecewise):
    report = estimate_constants(wc_piecewise)
    assert rel_close(report.mu_q, 3.0)
    assert rel_close(report.mu_e, 0.5)
    assert rel_close(report.mu_p, 4.0 / 3.0)
    assert rel_close(report.mu_r, 2.0)
    assert report.mu_s == 0.0  # nonconvex: no secant lower bound survives


def test_sine_quad_global_failure(sine_quad):
    report = estimate_constants(sine_quad)
    assert report.mu_q >= 1.0 - 1e-3
    assert report.mu_p == 0.0
    assert report.pl_fails_globally and report.eb_fails_globally
    assert report.mu_e == math.inf


def test_estimate_requires_reference(lasso_toy):
    with pytest.raises(ProxlabError):
        estimate_constants(lasso_toy)


def test_svm_estimates_tagged_exact(monkeypatch, svm_toy_ref):
    # The SVM min-norm element is exact, so its constants carry the same tag as
    # every other problem's.
    monkeypatch.setattr(regularity, "SAMPLE_COUNT", 400)
    report = estimate_constants(svm_toy_ref, math.inf)
    assert {est.bound_direction for est in report.estimates.values()} == {"exact"}
    assert report.mu_q > 0.0


def test_nu_monotonicity(quad1d):
    wide = estimate_constants(quad1d, 1.0)
    narrow = estimate_constants(quad1d, 0.25)
    assert narrow.mu_q >= wide.mu_q - 1e-12
    assert narrow.mu_p >= wide.mu_p - 1e-12
    assert narrow.mu_r >= wide.mu_r - 1e-12
    assert narrow.mu_e <= wide.mu_e + 1e-12


def test_grid_refinement_stability():
    for name in ("quad1d", "wc_piecewise", "quad_quartic"):
        p = make_benchmark(name)
        a = estimate_constants(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "SAMPLE_COUNT", 20_001)
            b = estimate_constants(p)
        for key in ("mu_r", "mu_e", "mu_p", "mu_q"):
            va, vb = a.estimates[key].value, b.estimates[key].value
            if va > 0 and math.isfinite(va):
                assert abs(vb - va) / va < 0.02, (name, key)


def test_audit_passes_on_convex_benchmarks():
    for name in ("quad1d", "quad_quartic"):
        p = make_benchmark(name)
        report = estimate_constants(p)
        checks = audit_implications(report, p.weak_convexity)
        assert len(checks) == 6
        assert all(c.status == "pass" for c in checks), name


def test_audit_weakly_convex_growth_branch(wc_piecewise):
    report = estimate_constants(wc_piecewise)
    checks = audit_implications(report, rho=2.0)
    by_name = {c.relation: c for c in checks}
    growth = by_name["mu_r >= mu_q - rho/2"]
    assert growth.status == "pass"  # mu_q ~ 3 > rho/2 = 1 fires the branch
    assert growth.expected == pytest.approx(2.0, rel=0.05)


def test_audit_degenerate_on_sine(sine_quad):
    report = estimate_constants(sine_quad)
    checks = audit_implications(report, rho=10.0)
    by_name = {c.relation: c.status for c in checks}
    assert by_name["mu_e <= 1/mu_r"] == "degenerate"
    assert by_name["mu_p >= 2/(2 mu_e + rho mu_e^2)"] == "degenerate"
    assert by_name["mu_e <= 2/mu_p"] == "degenerate"
    assert by_name["mu_q >= 1/(4 mu_e)"] == "degenerate"
    assert by_name["mu_r >= mu_q - rho/2"] == "skipped"  # mu_q ~ 1 < rho/2


def test_quarter_relation_arithmetic(quad1d):
    report = estimate_constants(quad1d)
    # mu_q = 1 >= 1/(4 mu_e) = 0.5 with mu_e = 0.5.
    assert report.mu_q >= 1.0 / (4.0 * report.mu_e) * 0.9


def test_stationary_points_sine(sine_quad):
    pts = find_suboptimal_stationary_points(sine_quad, (1.0, 3.0))
    assert len(pts) >= 1
    # Oracle: the derivative zero of x + 3 sin 2x in (2.5, 2.8).
    root = bisect_root(lambda t: t + 3.0 * math.sin(2.0 * t), 2.5, 2.8)
    assert any(abs(float(x[0]) - root) < 1e-6 for x in pts)
    for x in pts:
        assert float(sine_quad.value(x)) > 1e-6  # strictly suboptimal


def test_stationary_points_empty_when_unique(quad1d, wc_piecewise):
    assert find_suboptimal_stationary_points(quad1d, (-1.0, 1.0)) == []
    assert find_suboptimal_stationary_points(wc_piecewise, (-2.0, 0.5)) == []


def test_stationary_scan_stops_halving_once_no_bracket_moves(sine_quad):
    # The grid is one batch call per BATCH_ELEMENTS points (one call today)
    # and classifying the roots one more; every other call halves the live
    # brackets.  On the sine_quad bracket no end moves after halving 44
    # (halving all 80 times makes 80 calls).
    tally = Counter()
    find_suboptimal_stationary_points(counted(sine_quad, tally), sine_quad.metadata["bracket"])
    calls, _ = tally["min_norm_subgradients"]
    grid_calls = math.ceil(regularity.STATIONARY_SCAN / BATCH_ELEMENTS)
    assert calls - grid_calls - 1 <= 44


def _hex_roots(points):
    return [float(x[0]).hex() for x in points]


# f_star one below the minimum makes every stationary point suboptimal, so the
# scan returns every root it finds.
@pytest.mark.parametrize("name,bracket", [
    *((name, make_benchmark(name).metadata["bracket"]) for name in ONE_D),
    ("quad1d", (0.0, 1.0)), ("quad1d", (-1.0, 0.0)),            # root at vals[0], vals[-1]
    ("quad_quartic", (0.0, 1.8)), ("sine_quad", (-3.0, 0.0)),
    ("wc_piecewise", (-1.0, 0.5)), ("wc_piecewise", (-2.0, -1.0)),  # at a breakpoint
])
def test_stationary_scan_matches_loop_reference(name, bracket):
    p = make_benchmark(name)
    p = replace(p, f_star=p.f_star - 1.0)
    roots = _hex_roots(find_suboptimal_stationary_points(p, bracket))
    assert roots and roots == _hex_roots(loop_stationary_points(p, bracket))


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(ONE_D), lo=st.floats(-12.0, 12.0),
       width=st.floats(1e-3, 20.0))
def test_stationary_scan_matches_loop_reference_on_any_bracket(name, lo, width):
    p = make_benchmark(name)
    p = replace(p, f_star=p.f_star - 1.0)
    bracket = (lo, lo + width)
    assert _hex_roots(find_suboptimal_stationary_points(p, bracket)) \
        == _hex_roots(loop_stationary_points(p, bracket))


def test_report_json_shape(quad1d):
    report = estimate_constants(quad1d)
    body = report.to_json()
    assert set(body["constants"]) == {"mu_s", "mu_r", "mu_e", "mu_p", "mu_q"}
    for entry in body["constants"].values():
        assert {"value", "witness", "bound_direction"} <= set(entry)
    json.dumps(body)  # serializable end to end
    inf_report = estimate_constants(make_benchmark("sine_quad"))
    assert inf_report.to_json()["constants"]["mu_e"]["value"] == "inf"


def test_estimate_refuses_nan_nu_and_bad_brackets(quad1d):
    with pytest.raises(ValueError, match="nu = nan"):  # no sublevel cut at all
        estimate_constants(quad1d, math.nan)
    for bracket in ((0.5, 0.5), (1.0, -1.0), (-1e308, 1e308), (0.0, math.inf),
                    (math.nan, 1.0), (-math.inf, math.inf)):
        with pytest.raises(ValueError, match="bracket"):
            estimate_constants(replace(quad1d, metadata={**quad1d.metadata, "bracket": bracket}))
    for name in zoo.BENCHMARKS:  # every documented bracket spans its grid
        p = make_benchmark(name)
        grid = regularity._sample_points(p)
        assert (grid.min(), grid.max()) == p.metadata["bracket"]


@pytest.mark.parametrize("name,count,seed", [
    ("quad1d", 101, 0), ("quad_quartic", 150, 1), ("sine_quad", 199, 2),
    ("wc_piecewise", 163, 3), ("aniso_quad", 196, 4)])
def test_estimate_is_invariant_under_sample_order(monkeypatch, name, count, seed):
    # Below PAIR_THIN = 200 samples the secant pairs are not thinned, so
    # every constant is an extremum over the same set in any order; only the
    # witness (the first extremal sample) may move.
    p = make_benchmark(name)
    monkeypatch.setattr(regularity, "SAMPLE_COUNT", count)
    grid = regularity._sample_points(p)
    order = np.random.default_rng(seed).permutation(len(grid))
    forward = estimate_constants(p)
    monkeypatch.setattr(regularity, "_sample_points", lambda p: grid[order])
    shuffled = estimate_constants(p)
    assert ({k: e.value for k, e in forward.estimates.items()}
            == {k: e.value for k, e in shuffled.estimates.items()})
    assert (forward.pl_fails_globally, forward.eb_fails_globally, forward.n_samples) \
        == (shuffled.pl_fails_globally, shuffled.eb_fails_globally, shuffled.n_samples)


@pytest.mark.parametrize("lead", [0.5, -0.5])
def test_witness_is_the_first_extremal_sample(monkeypatch, quad1d, lead):
    # f = x^2 is even, so x and -x give bitwise equal ratios: every constant
    # ties between them, and its witness is the sample that comes first.
    sample = np.array([[lead], [-lead]] * 50)
    monkeypatch.setattr(regularity, "_sample_points", lambda p: sample)
    report = estimate_constants(quad1d)
    assert report.n_samples == 100
    assert {e.witness for e in report.estimates.values()} == {(lead,)}


def _close(value, target, rel=1e-12):
    """Equal within ``rel`` relative; zero and infinity only exactly."""
    return value == target or (math.isfinite(target) and abs(value - target) <= rel * abs(target))


def _matches_loop_reference(p):
    report = estimate_constants(p)
    ref, ratios = loop_estimate(p, None)
    assert (report.pl_fails_globally, report.eb_fails_globally, report.n_samples) \
        == (ref.pl_fails_globally, ref.eb_fails_globally, ref.n_samples)
    for key, est in report.estimates.items():
        want = ref.estimates[key]
        assert _close(est.value, want.value), key
        if est.witness != want.witness:
            # A tie: the reference ratio at the new witness is the extremum too.
            assert _close(ratios[key][est.witness], ratios[key][want.witness]), key


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(BENCHMARKS), count=st.integers(100, 2000),
       tau_s=st.sampled_from((1e-9, 1e-2)))
def test_estimate_matches_loop_reference(name, count, tau_s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "SAMPLE_COUNT", count)
        mp.setattr(regularity, "TAU_S", tau_s)
        _matches_loop_reference(make_benchmark(name))


@settings(max_examples=6, deadline=None)
@given(count=st.integers(100, 500), seed=st.integers(0, 2 ** 16),
       tau_s=st.sampled_from((1e-9, 1e-2)))
def test_estimate_matches_loop_reference_on_gaussians(en_f20, count, seed, tau_s):
    # d = 50, sampled around the solution: the thinned secant pairs take
    # their products in blocks of a few rows.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "SAMPLE_SEED", seed)
        mp.setattr(regularity, "SAMPLE_COUNT", count)
        mp.setattr(regularity, "TAU_S", tau_s)
        _matches_loop_reference(en_f20)


@pytest.mark.parametrize("fixture,duplicated", [
    ("quad1d", False), ("aniso_quad", False), ("en_f20", False),
    # Repeated rows start one pair fewer, so their block mixes far counts.
    ("quad1d", True)])
def test_secant_rows_match_row_loop_bitwise(request, monkeypatch, fixture, duplicated):
    p = request.getfixturevalue(fixture)
    if duplicated:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "SAMPLE_COUNT", 150)
            grid = regularity._sample_points(p)
        sample = np.vstack([grid, grid[::10]])
        monkeypatch.setattr(regularity, "_sample_points", lambda p: sample)
    blocked, seen = regularity._secant_rows, {}

    def spy(*args):
        seen["args"], seen["rows"] = args, blocked(*args)
        return seen["rows"]

    monkeypatch.setattr(regularity, "_secant_rows", spy)
    report = estimate_constants(p)
    _, xs, _, rows, tau_s = seen["args"]
    (row_min, starts), (want, want_starts) = seen["rows"], loop_secant_rows(*seen["args"])
    assert row_min.tobytes() == want.tobytes() and np.array_equal(starts, want_starts)
    k = int(np.argmin(want))
    assert report.mu_s == max(float(want[k]), 0.0)
    assert report.estimates["mu_s"].witness == tuple(float(v) for v in xs[want_starts[k]])
    if duplicated:  # below PAIR_THIN rows, every row starts pairs
        step = xs[rows][:, None] - xs[rows]
        assert len(set((np.einsum("ijk,ijk->ij", step, step) >= tau_s).sum(axis=1))) > 1


def test_estimate_keeps_one_sample_sized_array(en_f20):
    # At d = 50 the pass holds the (N, d) sample, per-row numbers and one
    # block's temporaries of about BATCH_ELEMENTS floats each.  A second
    # sample-sized array (the offsets or the min-norm elements of every row)
    # would take the traced peak past twice the sample's bytes.
    tracemalloc.start()
    try:
        estimate_constants(en_f20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * regularity.SAMPLE_COUNT * en_f20.dimension * 8


def test_grid_estimate_imports_no_module():
    # A lazily imported module (np.unique loads numpy.ma, 1.6 MB) would grow
    # every estimating process; a fresh interpreter shows what one run loads.
    script = ("import sys; from proxlab import estimate_constants, make_benchmark\n"
              "before = set(sys.modules)\n"
              "for name in ('quad1d', 'aniso_quad'):\n"
              "    estimate_constants(make_benchmark(name))\n"
              "print(sorted(set(sys.modules) - before))")
    src = str(Path(regularity.__file__).parents[1])  # the package under test
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("fixture,nu,counts", [
    ("quad1d", None, {"values": (3, 14_098), "project_solutions": (1, 10_001),
                      "min_norm_subgradients": (5, 14_298)}),
    ("quad1d", 0.25, {"values": (3, 14_098), "project_solutions": (1, 5_001),
                      "min_norm_subgradients": (5, 9_298)}),
    ("en_f20", None, {"values": (16, 10_001), "project_solution": (1, 1),
                      "project_solutions": (16, 10_001), "min_norm_subgradients": (17, 10_201)}),
    ("en_f20", 800.0, {"values": (16, 10_001), "project_solution": (1, 1),
                       "project_solutions": (9, 5_252), "min_norm_subgradients": (10, 5_452)}),
])
def test_estimate_oracle_work_count(request, fixture, nu, counts):
    # (calls, rows) per oracle, a batch call per 2^15 elements: all of a 1-d
    # grid, 655 rows at d = 50.  One value per sample (quad1d: plus the
    # stationary scan's grid and its one root); a projection only inside the
    # nu-sublevel set, in blocks of its rows (en_f20: plus one scalar call for
    # the Gaussian centre; at nu = 800 the 5,252 scattered rows are 9
    # gathered blocks); a min-norm element only for samples that enter the
    # ratios (quad1d: plus the scan's grid, its one halving and its root),
    # then once more for the PAIR_THIN = 200 rows the secant pairs thin to.
    p = request.getfixturevalue(fixture)
    tally = Counter()
    estimate_constants(counted(p, tally), nu)
    assert dict(tally) == counts


def test_estimate_row_fallback_work_count(quad1d):
    # Without batch forms every row is one scalar call; the calls per oracle
    # are the rows of the batched quad1d case above.
    p = replace(quad1d, values=None, min_norm_subgradients=None, project_solutions=None)
    tally = Counter()
    report = estimate_constants(counted(p, tally))
    assert dict(tally) == {"value": (14_098, 14_098), "project_solution": (10_001, 10_001),
                           "min_norm_subgradient": (14_298, 14_298)}
    assert report.to_json() == estimate_constants(quad1d).to_json()
