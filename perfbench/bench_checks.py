"""Output checks applied to every benchmark job.

A job passes when the CLI returned 0 and its artifacts hold up:

* ``summary.json`` exists, and ``bounds_ok`` is true wherever ``test_mode``
  is set;
* ``trace.csv`` (run-* subcommands) parses with ``read_trace_csv`` into
  ``iterations + 1`` rows numbered 0..K whose last value is the summary's
  final value;
* constants with an analytic value are estimated within 10% of it (the
  acceptance-criterion-2 tolerance) and no audit relation reports ``fail``;
* lasso and elastic-net runs end at a point whose KKT residual, recomputed
  here from regenerated data, is below the tolerance their last prox step
  certifies (see ``kkt_tolerance``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CONSTANT_RTOL = 0.10

# Absolute and relative slack for rounding in the recomputed KKT residual.
KKT_ATOL = 1e-9
KKT_RTOL = 1e-9

# Analytic regularity constants of the five benchmarks (independent of the
# package's own metadata, so a changed benchmark definition is caught).
ANALYTIC = {
    "quad1d": {"mu_s": 1.0, "mu_r": 2.0, "mu_e": 0.5, "mu_p": 4.0, "mu_q": 1.0},
    "quad_quartic": {"mu_s": 1.0, "mu_r": 2.0, "mu_e": 0.5, "mu_p": 4.0, "mu_q": 1.0},
    "sine_quad": {"mu_q": 1.0},
    "wc_piecewise": {"mu_q": 3.0, "mu_e": 0.5, "mu_p": 4.0 / 3.0, "mu_r": 2.0},
    "aniso_quad": {"mu_s": 0.5, "mu_r": 1.0, "mu_e": 1.0, "mu_p": 2.0, "mu_q": 0.5},
}


def regression_data(n: int, m: int, s: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, y) that a ``data.lasso`` config generates: Gaussian A, y = A xhat."""
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((n, m))
    xhat = rng.standard_normal(m)
    xhat[rng.choice(m, size=s, replace=False)] = 0.0
    return a_mat, a_mat @ xhat


def kkt_residual(a_mat: np.ndarray, y: np.ndarray, lam: float, en_reg: float,
                 x: np.ndarray) -> float:
    """dist(0, subdifferential) of the l1 least-squares objective at x."""
    g = a_mat.T @ (a_mat @ x - y) + en_reg * x
    r = np.where(x != 0.0, g + lam * np.sign(x), np.maximum(np.abs(g) - lam, 0.0))
    return float(np.linalg.norm(r))


def kkt_tolerance(x_prev: np.ndarray, x_last: np.ndarray, c: float,
                  certified_residual: float, grad_scale: float) -> float:
    """What the last step certifies about dist(0, subdifferential) at x_K.

    The step returns x_K with an element e of the subdifferential of
    f + ||. - x_{K-1}||^2 / (2c) at x_K and ||e|| = r, so
    e - (x_K - x_{K-1}) / c lies in the subdifferential of f and
    dist(0, subdifferential of f at x_K) <= ||x_K - x_{K-1}|| / c + r.
    """
    bound = float(np.linalg.norm(x_last - x_prev)) / c + certified_residual
    return bound + KKT_ATOL + KKT_RTOL * grad_scale


def check_job(job: dict, out: Path, code: int, run_trace, read_trace) -> list[str]:
    """Problems found with one job's outputs; empty when the job passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    cfg = job["cfg"]
    if job["cmd"].startswith("run-"):
        if cfg.get("test_mode") and summary.get("bounds_ok") is not True:
            problems.append("bounds_ok is not true in test mode")
        problems += _check_trace(out / "trace.csv", summary, read_trace)
    if job["check"].get("constants"):
        problems += _check_report(out / "report.json", job["check"]["constants"])
    data = job["check"].get("kkt")
    if data:
        problems += _check_kkt(data, run_trace)
    return problems


def _check_kkt(data: dict, run_trace) -> list[str]:
    if run_trace is None or len(run_trace.points) < 2:
        return ["no final step captured"]
    a_mat, y = regression_data(data["n"], data["m"], data["s"], data["seed"])
    x_prev, x_last = run_trace.points[-2], run_trace.points[-1]
    res = kkt_residual(a_mat, y, data["lam"], data["en_reg"], x_last)
    scale = float(np.linalg.norm(a_mat.T @ y)) + data["lam"]
    tol = kkt_tolerance(x_prev, x_last, run_trace.steps[-2],
                        run_trace.residuals[-2] or 0.0, scale)
    if not res <= tol:
        return [f"KKT residual {res:.3e} above the certified {tol:.3e}"]
    return []


def _check_trace(path: Path, summary: dict, read_trace) -> list[str]:
    try:
        rows = read_trace(path)
    except (OSError, ValueError) as exc:
        return [f"trace.csv does not parse: {exc}"]
    problems = []
    expected = summary.get("iterations", -1) + 1
    if len(rows) != expected:
        problems.append(f"trace.csv has {len(rows)} rows, summary says {expected}")
    if rows.k != list(range(len(rows))):
        problems.append("trace.csv k column is not 0..K")
    if rows.f and rows.f[-1] != summary.get("final_value"):
        problems.append("trace.csv final value differs from summary.json")
    return problems


def _check_report(path: Path, benchmark: str) -> list[str]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    problems = []
    for name, exact in ANALYTIC[benchmark].items():
        value = report["constants"][name]["value"]
        value = math.inf if value == "inf" else float(value)
        if not abs(value - exact) <= CONSTANT_RTOL * abs(exact):
            problems.append(f"{name} = {value:.6g}, analytic {exact:.6g}")
    for rel in report.get("audit", []):
        if rel["status"] == "fail":
            problems.append(f"audit relation {rel['relation']!r} fails")
    return problems
