"""Exact proximal point iteration and the bound checkers attached to it.

``run_ppm`` iterates x_{k+1} = prox_{c_k,f}(x_k) and logs everything a bound
check needs: values, distances, certificate residuals, steps.  The checkers
replay the sublinear envelope, the per-step improvement and the linear
contraction factors against a trace and report the first violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InnerBudgetExhausted, ResolutionFloor, StepTooLarge
from .problem import ProblemSpec, as_point, distance_to_solution
from .prox import InnerTolerance, prox

# Absolute slack on every replayed PPM and iPPM inequality.
CHECK_ATOL = 1e-9


@dataclass(frozen=True)
class StepSchedule:
    """Positive prox steps c_k: an explicit list, else c0 * growth^k (constant at growth 1)."""

    c0: float = 1.0
    growth: float = 1.0
    values: tuple[float, ...] = ()

    @staticmethod
    def constant(c: float) -> "StepSchedule":
        return StepSchedule(c0=float(c))

    @staticmethod
    def from_sequence(values: Sequence[float]) -> "StepSchedule":
        steps = tuple(float(v) for v in values)
        if not steps:
            raise ValueError("a step sequence needs at least one step")
        return StepSchedule(values=steps)

    @staticmethod
    def geometric(c0: float, growth: float) -> "StepSchedule":
        return StepSchedule(c0=float(c0), growth=float(growth))

    def at(self, k: int) -> float:
        if self.values:
            # Runs longer than the list repeat the final step.
            return self.values[min(k, len(self.values) - 1)]
        try:
            return self.c0 * self.growth ** k
        except OverflowError:
            return math.inf

    def validate(self, p: ProblemSpec, horizon: int) -> None:
        """Steps c_0 .. c_{horizon-1} are positive, finite and satisfy 1/c > rho."""
        for k in range(horizon):
            c = self.at(k)
            if not 0 < c < math.inf:
                raise ValueError(f"c_{k} = {c:g} is not a positive finite step")
            if p.weak_convexity > 0 and 1.0 / c <= p.weak_convexity:
                raise StepTooLarge(
                    f"1/c_{k} = {1.0 / c:g} must exceed rho = {p.weak_convexity:g}")


@dataclass
class IterationTrace:
    """Per-iteration log of one solver run.

    Row k holds the state at iterate x_k; the transition fields (step, the
    certificate residual and the inexactness budgets) describe the move from
    x_k to x_{k+1} and are None on the final row.
    """

    problem: ProblemSpec
    points: list[np.ndarray] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    residuals: list[float | None] = field(default_factory=list)
    eps: list[float | None] = field(default_factory=list)
    deltas: list[float | None] = field(default_factory=list)
    ref_prox_points: list[np.ndarray | None] = field(default_factory=list)
    stop_reason: str = ""

    def __len__(self) -> int:
        return len(self.points)

    def record(self, c: float, x=None, residual=None, eps=None, delta=None,
               ref=None) -> None:
        """Fill the current row's move (step c and the transition fields), then open x's row.

        Called with only ``c`` it writes the final row.
        """
        self.steps.append(c)
        self.residuals.append(residual)
        self.eps.append(eps)
        self.deltas.append(delta)
        self.ref_prox_points.append(ref)
        if x is not None:
            self.points.append(x)
            self.values.append(float(self.problem.value(x)))

    def gaps(self) -> list[float | None]:
        fs = self.problem.f_star
        return [None if fs is None else v - fs for v in self.values]

    def dists(self) -> list[float | None]:
        if self.problem.project_solution is None:
            return [None] * len(self)
        return [distance_to_solution(self.problem, x) for x in self.points]

    def running_diameter(self) -> list[float]:
        """D_k = max pairwise distance among x_0 .. x_k (monotone in k).

        D_k = max(D_{k-1}, max_{j<k} ||x_k - x_j||), one row of squared
        distances per k over the stacked points, so memory stays O(K d).  The
        square root is taken after the running maximum; it is monotone, so
        this commutes.
        """
        pts = np.array(self.points, dtype=float)
        far = np.zeros(len(pts))  # far[k] = max_{j<k} ||x_k - x_j||^2
        for k in range(1, len(pts)):
            diff = pts[:k] - pts[k]
            diff *= diff
            far[k] = diff.sum(axis=1).max()
        return np.sqrt(np.maximum.accumulate(far)).tolist()

    def entry_index(self, nu: float) -> int | None:
        """First k with f(x_k) <= f_star + nu (empirical sublevel entry)."""
        fs = self.problem.f_star
        if fs is None:
            return None
        for k, v in enumerate(self.values):
            if v <= fs + nu:
                return k
        return None


@dataclass
class BoundCheck:
    """Outcome of replaying one inequality along a trace."""

    name: str
    indices: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    lhs: list[float] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)

    def add(self, k: int, lhs: float, rhs: float) -> None:
        """Record lhs <= rhs at trace index k."""
        self.indices.append(k)
        self.lhs.append(lhs)
        self.rhs.append(rhs)
        self.ok.append(lhs <= rhs)

    @property
    def all_ok(self) -> bool:
        return all(self.ok)

    @property
    def first_violation(self) -> int | None:
        for i, good in zip(self.indices, self.ok):
            if not good:
                return i
        return None

    @property
    def max_ratio(self) -> float | None:
        """How tight the check was: the largest lhs/rhs over entries with rhs > 0."""
        return max((lhs / rhs for lhs, rhs in zip(self.lhs, self.rhs) if rhs > 0), default=None)

    @property
    def worst_index(self) -> int | None:
        """The first trace index attaining ``max_ratio``."""
        worst = self.max_ratio
        return next((k for k, lhs, rhs in zip(self.indices, self.lhs, self.rhs)
                     if rhs > 0 and lhs / rhs == worst), None)


def _contraction(name: str, s: Sequence[float | None], factor, atol: float,
                 slack=lambda k: 0.0, start: int = 0) -> BoundCheck:
    """s[k+1] <= factor(k) s[k] + atol + slack(k) for k >= start, skipping k where
    s[k] is missing or below 1e-14 (converged) or the factor is infinite (no bound).
    """
    check = BoundCheck(name)
    for k in range(start, len(s) - 1):
        if s[k] is not None and s[k] > 1e-14:
            f = factor(k)
            if f < math.inf:
                check.add(k, s[k + 1], f * s[k] + atol + slack(k))
    return check


def _envelope(name: str, trace: IterationTrace, dist0: float | None,
              errors: Sequence[float], best: bool = False) -> BoundCheck:
    """gap_k <= (dist^2(x_0,S) + 2 D_k sum_{j<k} errors_j) / (2 sum_{j<k} c_j) + CHECK_ATOL.

    D_k is the running diameter and errors_j the step's error term (c_j r_j or
    eps_j).  With ``best`` the left side is the best gap so far, min_{j<=k} gap_j.
    """
    if trace.problem.f_star is None:
        raise ValueError("f_star required for the sublinear envelope")
    if dist0 is None:
        dist0 = distance_to_solution(trace.problem, trace.points[0])
    gaps = trace.gaps()
    diam = trace.running_diameter()
    check = BoundCheck(name)
    csum = esum = 0.0
    lhs = gaps[0]
    for k in range(1, len(trace)):
        csum += trace.steps[k - 1]
        esum += errors[k - 1]
        lhs = min(lhs, gaps[k]) if best else gaps[k]
        check.add(k, lhs, (dist0 ** 2 + 2.0 * diam[k] * esum) / (2.0 * csum) + CHECK_ATOL)
    return check


@dataclass(frozen=True)
class RateBounds:
    """Per-step contraction factors built from regularity constants.

    omega bounds the cost-gap ratio, theta the distance ratio.  For a
    rho-weakly convex problem the growth constant is beta = mu_q - rho/2.
    The distance factor from the error bound follows the firmly-nonexpansive
    chain: dist^2 shrinks by 1/(1 + c^2/mu_e^2).
    """

    mu_p: float
    mu_q: float
    mu_e: float
    rho: float = 0.0

    @property
    def beta(self) -> float:
        return self.mu_q - 0.5 * self.rho

    def omega(self, c: float) -> float:
        return 2.0 / (2.0 + self.mu_p * c)

    def theta(self, c: float) -> float:
        branches = []
        if self.beta > 0:
            branches.append(1.0 / math.sqrt(2.0 * c * self.beta + 1.0))
        if 0.0 < self.mu_e < math.inf:
            branches.append(1.0 / math.sqrt(1.0 + c * c / self.mu_e ** 2))
        if not branches:
            return math.inf
        return min(branches)


def _constants(report) -> tuple[float, float, float]:
    """Pull (mu_p, mu_q, mu_e) from a RegularityReport, mapping or metadata."""
    if isinstance(report, Mapping):
        return float(report["mu_p"]), float(report["mu_q"]), float(report["mu_e"])
    return float(report.mu_p), float(report.mu_q), float(report.mu_e)


def _iterate(p: ProblemSpec, x0, sched: StepSchedule, max_iter: int, step,
             stop_gap: float | None = None, stop_residual: float | None = None):
    """The outer loop of PPM, iPPM and GD: ``step(k, x, c)`` gives (x_next, residual, *move).

    ``move`` is the eps / delta / ref fields of ``record``.  Stops with
    ``gap`` (f - f_star <= stop_gap), ``residual`` (||x_{k+1} - x_k||/c_k +
    residual <= stop_residual), ``max_iter``, ``resolution`` / ``inner_budget``
    when a step's inner solver gives up, or ``non_finite`` when a step returns
    a non-finite coordinate, which is not recorded; the trace is kept.
    """
    x = as_point(x0)
    trace = IterationTrace(problem=p, points=[x], values=[float(p.value(x))],
                           stop_reason="max_iter")
    for k in range(max_iter):
        c = sched.at(k)
        try:
            x_next, residual, *move = step(k, x, c)
        except InnerBudgetExhausted as exc:
            trace.stop_reason = ("resolution" if isinstance(exc, ResolutionFloor)
                                 else "inner_budget")
            break
        if not np.isfinite(x_next).all():
            trace.stop_reason = "non_finite"
            break
        trace.record(c, x_next, residual, *move)
        if stop_gap is not None and p.f_star is not None \
                and trace.values[-1] - p.f_star <= stop_gap:
            trace.stop_reason = "gap"
            break
        if stop_residual is not None and \
                float(np.linalg.norm(x_next - x)) / c + residual <= stop_residual:
            trace.stop_reason = "residual"
            break
        x = x_next
    trace.record(sched.at(len(trace) - 1))
    return trace


def run_ppm(p: ProblemSpec, x0, sched: StepSchedule, max_iter: int = 500,
            inner_tol: InnerTolerance = InnerTolerance(),
            stop_gap: float = 1e-10, stop_residual: float = 1e-10) -> IterationTrace:
    """Exact proximal point method; stops on max_iter, tiny gap or tiny residual."""
    sched.validate(p, max_iter)

    def step(k, x, c):
        result = prox(p, x, c, inner_tol)
        return result.point, result.residual_norm

    return _iterate(p, x0, sched, max_iter, step, stop_gap, stop_residual)


def check_sublinear_bound(trace: IterationTrace, dist0: float | None = None) -> BoundCheck:
    """Replay the envelope f(x_k) - f_star <= dist^2(x_0,S) / (2 sum c_t).

    Inexact inner solves widen the envelope by their certified residuals
    (the same diameter-weighted term as the best-iterate bound).
    """
    errors = [c * (r or 0.0) for c, r in zip(trace.steps, trace.residuals)]
    return _envelope("sublinear_envelope", trace, dist0, errors)


def check_one_step(trace: IterationTrace, x_star=None) -> BoundCheck:
    """Per-step improvement 2 c_k (f(x_{k+1}) - f_star) <= |x_k-x*|^2 - (1 - c_k rho)|x_{k+1}-x*|^2.

    Holds for any minimizer x*, since each subproblem is (1/c_k - rho)-strongly
    convex; inexact steps contribute slack 2 c_k r_k ||x_{k+1} - x*|| with r_k
    the certificate residual.
    """
    p = trace.problem
    if x_star is None:
        if p.project_solution is None:
            raise ValueError("need a solution oracle or explicit x_star")
        x_star = p.project_solution(trace.points[0])
    x_star = as_point(x_star)
    f_star_val = float(p.value(x_star))
    rho = p.weak_convexity
    check = BoundCheck("one_step_improvement")
    for k in range(len(trace) - 1):
        c = trace.steps[k]
        r = trace.residuals[k] or 0.0
        x_k, x_n = trace.points[k], trace.points[k + 1]
        d_next = float(np.linalg.norm(x_n - x_star))
        check.add(k, 2.0 * c * (trace.values[k + 1] - f_star_val),
                  float(np.linalg.norm(x_k - x_star)) ** 2 - (1.0 - c * rho) * d_next ** 2
                  + 2.0 * c * r * d_next + CHECK_ATOL)
    return check


def check_linear_rates(trace: IterationTrace, report,
                       nu: float) -> tuple[BoundCheck, BoundCheck]:
    """Cost and distance contraction checks, gated on sublevel-set entry.

    Uses omega_k = 2/(2 + mu_p c_k) for the cost gap and the two-branch
    theta_k for distances, with beta = mu_q - rho/2 on weakly convex
    problems.  Steps before the empirical entry index are skipped.
    """
    mu_p, mu_q, mu_e = _constants(report)
    bounds = RateBounds(mu_p=mu_p, mu_q=mu_q, mu_e=mu_e, rho=trace.problem.weak_convexity)
    k0 = trace.entry_index(nu)
    if k0 is None:
        return BoundCheck("linear_cost"), BoundCheck("linear_dist")
    steps = trace.steps
    slack = lambda k: steps[k] * (trace.residuals[k] or 0.0)
    cost = _contraction("linear_cost", trace.gaps(), lambda k: bounds.omega(steps[k]),
                        CHECK_ATOL, slack, start=k0)
    dist = _contraction("linear_dist", trace.dists(), lambda k: bounds.theta(steps[k]),
                        CHECK_ATOL, slack, start=k0)
    return cost, dist


def reference_solution(p: ProblemSpec, effort: int = 400, c_ref: float = 1.0,
                       inner_target: float = 1e-12) -> ProblemSpec:
    """High-accuracy solve installing f_star (and, if unique, the minimizer).

    Runs the exact method with a tight inner target for up to ``effort``
    iterations.  Strong convexity certifies a unique minimizer, so the
    solution oracle becomes "distance to the reference point"; otherwise only
    f_star is installed and distances stay unavailable.  Raises
    InnerBudgetExhausted when an inner solve gives up, since f_star would then
    be uncertified.
    """
    if p.weak_convexity > 0:
        c_ref = min(c_ref, 0.5 / p.weak_convexity)
    sched = StepSchedule.constant(c_ref)
    tol = InnerTolerance(target_residual=inner_target, max_inner_iterations=200_000)
    trace = run_ppm(p, np.zeros(p.dimension), sched, max_iter=effort,
                    inner_tol=tol, stop_gap=0.0, stop_residual=inner_target * 10)
    if trace.stop_reason in ("resolution", "inner_budget"):
        raise InnerBudgetExhausted(
            f"reference solve stopped with {trace.stop_reason} after {len(trace) - 1} steps")
    x_ref = trace.points[-1]
    f_ref = trace.values[-1]
    tail = float(np.linalg.norm(trace.points[-1] - trace.points[-2])) / c_ref \
        if len(trace) > 1 else 0.0
    project = None
    if p.strong_convexity > 0:
        project = lambda x: x_ref
    return p.with_reference(f_ref, project=project,
                            reference_point=tuple(float(v) for v in x_ref),
                            reference_residual=tail,
                            reference_iterations=len(trace) - 1)
