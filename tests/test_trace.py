"""The columnar trace against the per-step loop replays, and its oracle work.

Every checker is an array expression over the trace columns; ``oracles``
keeps the loop form of each as the reference.  In 1-d both round alike, so
they must agree bitwise; in 2-d the running diameter sums its squares in
another order than one norm per pair does, so values agree within 1e-12
relative.
"""

import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hypothesis import example, given, settings, strategies as st

import proxlab.cli as cli
from proxlab import (GDParams, InexactCriterion, RateBounds, StepSchedule,
                     check_inexact_one_step, check_ippm_linear, check_ippm_sublinear,
                     check_linear_rates, check_one_step, check_sublinear_bound,
                     make_benchmark, run_gd, run_ippm, run_ppm, verify_gd_rates)
from proxlab.checks import CHECK_ATOL, GD_ATOL
from proxlab.traceio import emit_trace_csv

from conftest import counted
from oracles import (cells, loop_contraction, loop_envelope, loop_inexact_one_step,
                     loop_one_step, per_cell_trace_csv)

# Step ranges inside 1/c > rho for each benchmark.
STEPS = {"quad1d": (0.05, 2.0), "quad_quartic": (0.05, 2.0), "sine_quad": (0.01, 0.09),
         "wc_piecewise": (0.05, 0.45), "aniso_quad": (0.05, 2.0)}
PROBLEMS = {name: make_benchmark(name) for name in STEPS}
# Smooth benchmarks with their gradient-descent constants (L, mu, beta).
GD = {"quad1d": (2.0, 2.0, 2.0), "aniso_quad": (9.0, 1.0, 1.0)}


@st.composite
def runs(draw):
    """A PPM, iPPM (A', B', A, B) or GD run of random length, step and start."""
    kind = draw(st.sampled_from(["ppm", "A'", "B'", "A", "B", "gd"]))
    name = draw(st.sampled_from(sorted(GD if kind == "gd" else STEPS)))
    p = PROBLEMS[name]
    lo, hi = p.metadata["bracket"]
    x0 = [draw(st.floats(lo, hi)) for _ in range(p.dimension)]
    horizon = draw(st.integers(1, 40))
    if kind == "gd":
        lip, _, beta = GD[name]  # beta <= L is below its cap for every mu <= L
        params = GDParams(lip, draw(st.floats(0.01, 1.0)) * lip, beta)  # t in [0.01/L, 1/L]
        return run_gd(p, x0, params, iters=horizon), params
    sched = StepSchedule.constant(draw(st.floats(*STEPS[name])))
    if kind == "ppm":
        return run_ppm(p, x0, sched, max_iter=horizon), None
    crit = InexactCriterion(kind, gamma=draw(st.floats(0.5, 0.8)))
    return run_ippm(p, x0, sched, crit, max_iter=horizon, test_mode=kind in ("A", "B")), crit


def assert_same(check, ref, exact: bool):
    assert check.indices.tolist() == ref.indices
    assert check.ok.tolist() == ref.ok
    assert check.first_violation == ref.first_violation
    assert check.worst_index == ref.worst_index
    pairs = [(check.lhs.tolist(), ref.lhs), (check.rhs.tolist(), ref.rhs),
             ([check.max_ratio], [ref.max_ratio])]
    for got, want in pairs:
        if exact:
            assert got == want
        else:
            assert all(a == b or math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))


# A start whose values and gaps are subnormal, where 2 c g and 2 (c g) round apart.
SUBNORMAL_RUN = run_ppm(PROBLEMS["aniso_quad"], [7.62762228e-162, 0.0],
                        StepSchedule.constant(1.5), max_iter=1)


@settings(max_examples=80, deadline=None)
@given(run=runs(), nu=st.sampled_from([0.1, 1.0, math.inf]))
@example(run=(SUBNORMAL_RUN, None), nu=0.1)
def test_checkers_match_loop_reference(run, nu):
    trace, rule = run
    p = trace.problem
    exact = p.dimension == 1
    steps, residuals = trace.steps.tolist(), cells(trace.residuals)
    gaps, dists = cells(trace.gaps), cells(trace.dists)
    md = p.metadata
    constants = {"mu_p": md.get("mu_p", 0.0), "mu_q": md["mu_q"],
                 "mu_e": md.get("mu_e", math.inf)}
    if isinstance(rule, GDParams):
        dist, cost = verify_gd_rates(trace, rule)
        assert_same(dist, loop_contraction(dists, lambda k: rule.omega_dist, GD_ATOL), exact)
        assert_same(cost, loop_contraction(gaps, lambda k: rule.omega_cost, GD_ATOL), exact)
        return
    assert_same(check_one_step(trace), loop_one_step(trace, CHECK_ATOL), exact)
    if rule is None:
        errors = [c * (r or 0.0) for c, r in zip(steps, residuals)]
        assert_same(check_sublinear_bound(trace),
                    loop_envelope(trace, None, errors, CHECK_ATOL), exact)
        bounds = RateBounds(rho=p.weak_convexity, **constants)
        k0 = trace.entry_index(nu)
        start = len(trace) if k0 is None else k0
        slack = lambda k: steps[k] * (residuals[k] or 0.0)
        cost, dist = check_linear_rates(trace, constants, nu)
        assert_same(cost, loop_contraction(gaps, lambda k: bounds.omega(steps[k]),
                                           CHECK_ATOL, slack, start), exact)
        assert_same(dist, loop_contraction(dists, lambda k: bounds.theta(steps[k]),
                                           CHECK_ATOL, slack, start), exact)
        return
    if rule.absolute:
        assert_same(check_ippm_sublinear(trace),
                    loop_envelope(trace, None, cells(trace.eps), CHECK_ATOL, best=True),
                    exact)
        return
    assert_same(check_inexact_one_step(trace), loop_inexact_one_step(trace, CHECK_ATOL), exact)
    beta = constants["mu_q"] - 0.5 * p.weak_convexity
    deltas = cells(trace.deltas)
    k_entry = trace.entry_index(nu)
    k_delta = next((k for k in range(len(trace) - 1) if deltas[k] < 1.0), None)
    if beta <= 0 or k_entry is None or k_delta is None:
        return

    def theta_hat(k):
        theta = 1.0 / math.sqrt(2.0 * steps[k] * beta + 1.0)
        return (theta + 2.0 * deltas[k]) / (1.0 - deltas[k])

    assert_same(check_ippm_linear(trace, constants, nu),
                loop_contraction(dists, theta_hat, CHECK_ATOL, start=max(k_entry, k_delta)),
                exact)


def test_run_ppm_distance_work_count(tmp_path, monkeypatch):
    # The trace's dists column is one batch projection of its 501 rows; the
    # one-step check makes one more scalar projection for x*.  Every reader
    # shares the column.
    tally = Counter()
    build = cli.make_benchmark
    monkeypatch.setattr(cli, "make_benchmark", lambda *a, **kw: counted(build(*a, **kw), tally))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"benchmark": "quad_quartic"},
                               "schedule": {"constant": 0.007}, "x0": [1.2],
                               "max_iter": 500, "test_mode": True}))
    assert cli.main(["run-ppm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["iterations"] == 500 and summary["asserted"] == 2
    assert tally["project_solutions"] == (1, 501) and tally["project_solution"] == (1, 1)


# Signed zeros, infinities, subnormals, the largest float and a NaN of either
# sign, besides any float.
CELLS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                       2.2250738585072009e-308, 1.7976931348623157e308,
                                       math.nan, -math.nan])
CSV_COLUMNS = ("steps", "values", "gaps", "dists", "residuals", "eps", "deltas")


@st.composite
def csv_columns(draw):
    """The seven CSV columns of K + 1 rows: each free, all NaN, constant or a copy
    of an earlier one."""
    rows = draw(st.integers(1, 30))
    columns = []
    for _ in CSV_COLUMNS:
        kind = draw(st.sampled_from(["free", "nan", "constant", "copy"]))
        if kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "nan":
            columns.append(np.full(rows, math.nan))
        elif kind == "constant":
            columns.append(np.full(rows, draw(CELLS)))
        else:
            columns.append(np.array(draw(st.lists(CELLS, min_size=rows, max_size=rows))))
    return dict(zip(CSV_COLUMNS, columns))


@settings(max_examples=200, deadline=None)
@given(columns=csv_columns())
def test_trace_csv_is_the_per_cell_writer_bytewise(columns):
    trace = SimpleNamespace(**columns)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        emit_trace_csv(trace, got)
        per_cell_trace_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()
