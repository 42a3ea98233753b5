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

from .errors import InnerBudgetExhausted, NotAvailable, ResolutionFloor, StepTooLarge
from .problem import ProblemSpec, as_point, distances_to_solution, row_dots
from .prox import prox

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


# The columns of a trace, in constructor order after ``problem``.
_COLUMNS = ("points", "values", "steps", "residuals", "eps", "deltas", "ref_prox_points")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Per-iteration log of one solver run, one read-only float array per column.

    Row k holds the state at iterate x_k: ``points`` (K+1, d) and ``values``.
    The transition columns (``steps``, ``residuals``, ``eps``, ``deltas`` and
    the (K+1, d) ``ref_prox_points``) describe the move from x_k to x_{k+1}.
    NaN marks "does not apply": the final row's move, which carries only its
    step, and columns the run does not log.  ``gaps`` and ``dists`` are
    derived once (``dists`` from one batch projection of the points), NaN
    without f_star or a solution oracle.  Edit a copy with
    ``dataclasses.replace``, which derives them again.
    """

    problem: ProblemSpec
    points: np.ndarray
    values: np.ndarray
    steps: np.ndarray
    residuals: np.ndarray
    eps: np.ndarray
    deltas: np.ndarray
    ref_prox_points: np.ndarray
    stop_reason: str = ""
    gaps: np.ndarray = field(init=False)
    dists: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.problem
        cols = {name: np.array(getattr(self, name), dtype=float) for name in _COLUMNS}
        cols["gaps"] = cols["values"] - (math.nan if p.f_star is None else p.f_star)
        cols["dists"] = (np.full(len(cols["points"]), math.nan) if p.project_solution is None
                         else distances_to_solution(p, cols["points"]))
        for name, col in cols.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.points)

    def running_diameter(self) -> np.ndarray:
        """D_k = max pairwise distance among x_0 .. x_k (monotone in k).

        In d > 1, D_k = max(D_{k-1}, max_{j<k} ||x_k - x_j||), one row of squared
        distances per k over the stacked points, so memory stays O(K d).  The
        square root is taken after the running maximum; it is monotone, so
        this commutes.
        """
        pts = self.points
        if pts.shape[1] == 1:
            # In 1-d, max_{j<=k} |x_k - x_j| is the spread of x_0 .. x_k, and the
            # rounded differences and squares are monotone, so squaring and
            # rooting the spread agrees bitwise with the row loop, even where
            # the square under- or overflows.
            spread = np.maximum.accumulate(pts[:, 0]) - np.minimum.accumulate(pts[:, 0])
            return np.sqrt(spread * spread)
        far = np.zeros(len(pts))  # far[k] = max_{j<k} ||x_k - x_j||^2
        for k in range(1, len(pts)):
            diff = pts[:k] - pts[k]
            diff *= diff
            far[k] = diff.sum(axis=1).max()
        return np.sqrt(np.maximum.accumulate(far))

    def entry_index(self, nu: float) -> int | None:
        """First k with f(x_k) <= f_star + nu (empirical sublevel entry)."""
        fs = self.problem.f_star
        return None if fs is None else _first(self.values <= fs + nu)


def _first(mask: np.ndarray) -> int | None:
    """The first index where ``mask`` holds, if any."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _or_zero(column: np.ndarray) -> np.ndarray:
    """A transition column with "does not apply" (NaN) read as 0."""
    return np.where(np.isnan(column), 0.0, column)


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """Outcome of replaying lhs <= rhs at each trace index in ``indices``."""

    name: str
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    lhs: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def ok(self) -> np.ndarray:
        return self.lhs <= self.rhs

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())

    @property
    def first_violation(self) -> int | None:
        i = _first(~self.ok)
        return None if i is None else int(self.indices[i])

    @property
    def max_ratio(self) -> float | None:
        """How tight the check was: the largest lhs/rhs over entries with rhs > 0."""
        ratios = self._ratios()[1]
        return float(ratios.max()) if ratios.size else None

    @property
    def worst_index(self) -> int | None:
        """The first trace index attaining ``max_ratio``."""
        indices, ratios = self._ratios()
        return int(indices[np.argmax(ratios)]) if ratios.size else None

    def _ratios(self) -> tuple[np.ndarray, np.ndarray]:
        positive = self.rhs > 0
        return self.indices[positive], self.lhs[positive] / self.rhs[positive]


def _contraction(name: str, s: np.ndarray, factor, atol: float, slack=0.0,
                 start: int = 0) -> BoundCheck:
    """s[k+1] <= factor_k s[k] + atol + slack_k for k >= start, skipping k where
    s[k] is NaN or below 1e-14 (converged) or the factor is infinite (no bound).

    ``factor`` and ``slack`` are scalars or arrays over the moves k = 0 .. K-1.
    """
    head = s[:-1]
    factor = np.broadcast_to(factor, head.shape)
    slack = np.broadcast_to(slack, head.shape)
    k = np.flatnonzero((head > 1e-14) & (factor < math.inf))
    k = k[k >= start]
    return BoundCheck(name, k, s[k + 1], factor[k] * head[k] + atol + slack[k])


def _envelope(name: str, trace: IterationTrace, dist0: float | None,
              errors: np.ndarray, best: bool = False) -> BoundCheck:
    """gap_k <= (dist^2(x_0,S) + 2 D_k sum_{j<k} errors_j) / (2 sum_{j<k} c_j) + CHECK_ATOL.

    D_k is the running diameter and errors_j the step's error term (c_j r_j or
    eps_j).  With ``best`` the left side is the best gap so far, min_{j<=k} gap_j.
    """
    if trace.problem.f_star is None:
        raise ValueError("f_star required for the sublinear envelope")
    if dist0 is None:
        if trace.problem.project_solution is None:
            raise NotAvailable("no solution oracle on this problem")
        dist0 = float(trace.dists[0])
    lhs = np.minimum.accumulate(trace.gaps) if best else trace.gaps
    diam = trace.running_diameter()
    rhs = ((dist0 ** 2 + 2.0 * diam[1:] * np.cumsum(errors[:-1]))
           / (2.0 * np.cumsum(trace.steps[:-1])) + CHECK_ATOL)
    return BoundCheck(name, np.arange(1, len(trace)), lhs[1:], rhs)


@dataclass(frozen=True)
class RateBounds:
    """Per-step contraction factors built from regularity constants.

    omega bounds the cost-gap ratio, theta the distance ratio.  For a
    rho-weakly convex problem the growth constant is beta = mu_q - rho/2.
    The distance factor from the error bound follows the firmly-nonexpansive
    chain: dist^2 shrinks by 1/(1 + c^2/mu_e^2).  Both factors take a step
    or an array of steps.
    """

    mu_p: float
    mu_q: float
    mu_e: float
    rho: float = 0.0

    @property
    def beta(self) -> float:
        return self.mu_q - 0.5 * self.rho

    def omega(self, c):
        return 2.0 / (2.0 + self.mu_p * c)

    def theta(self, c):
        factor = math.inf
        if self.beta > 0:
            factor = np.minimum(factor, 1.0 / np.sqrt(2.0 * c * self.beta + 1.0))
        if 0.0 < self.mu_e < math.inf:
            factor = np.minimum(factor, 1.0 / np.sqrt(1.0 + c * c / self.mu_e ** 2))
        return factor


def _constants(report) -> tuple[float, float, float]:
    """Pull (mu_p, mu_q, mu_e) from a RegularityReport, mapping or metadata."""
    if isinstance(report, Mapping):
        return float(report["mu_p"]), float(report["mu_q"]), float(report["mu_e"])
    return float(report.mu_p), float(report.mu_q), float(report.mu_e)


def _iterate(p: ProblemSpec, x0, sched: StepSchedule, max_iter: int, step,
             stop_gap: float | None = None, stop_residual: float | None = None):
    """The outer loop of PPM, iPPM and GD: ``step(k, x, c)`` gives the move
    (x_next, residual, eps, delta, ref), None where a field does not apply.

    Stops with ``gap`` (f - f_star <= stop_gap), ``residual`` (||x_{k+1} -
    x_k||/c_k + residual <= stop_residual), ``max_iter``, ``resolution`` /
    ``inner_budget`` when a step's inner solver gives up, or ``non_finite``
    when a step returns a non-finite coordinate, which is not recorded; the
    trace is kept.
    """
    x = as_point(x0)
    points, values, steps, moves = [x], [float(p.value(x))], [], []
    stop_reason = "max_iter"
    for k in range(max_iter):
        c = sched.at(k)
        try:
            x_next, *move = step(k, x, c)
        except InnerBudgetExhausted as exc:
            stop_reason = "resolution" if isinstance(exc, ResolutionFloor) else "inner_budget"
            break
        if not np.isfinite(x_next).all():
            stop_reason = "non_finite"
            break
        points.append(x_next)
        values.append(float(p.value(x_next)))
        steps.append(c)
        moves.append(move)
        if stop_gap is not None and p.f_star is not None and values[-1] - p.f_star <= stop_gap:
            stop_reason = "gap"
            break
        if stop_residual is not None and \
                float(np.linalg.norm(x_next - x)) / c + move[0] <= stop_residual:
            stop_reason = "residual"
            break
        x = x_next
    steps.append(sched.at(len(points) - 1))
    # The final row's move is empty: one more None per transition column.
    residuals, eps, deltas, refs = zip(*moves, (None,) * 4)
    refs = [np.full(x.shape, math.nan) if ref is None else ref for ref in refs]
    return IterationTrace(p, points, values, steps, residuals, eps, deltas, refs, stop_reason)


def run_ppm(p: ProblemSpec, x0, sched: StepSchedule, max_iter: int = 500,
            inner_target: float = 1e-10,
            stop_gap: float = 1e-10, stop_residual: float = 1e-10) -> IterationTrace:
    """Exact proximal point method; stops on max_iter, tiny gap or tiny residual."""
    sched.validate(p, max_iter)

    def step(k, x, c):
        result = prox(p, x, c, inner_target)
        return result.point, result.residual_norm, None, None, None

    return _iterate(p, x0, sched, max_iter, step, stop_gap, stop_residual)


def check_sublinear_bound(trace: IterationTrace, dist0: float | None = None) -> BoundCheck:
    """Replay the envelope f(x_k) - f_star <= dist^2(x_0,S) / (2 sum c_t).

    Inexact inner solves widen the envelope by their certified residuals
    (the same diameter-weighted term as the best-iterate bound).
    """
    return _envelope("sublinear_envelope", trace, dist0, trace.steps * _or_zero(trace.residuals))


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
    c, r = trace.steps[:-1], _or_zero(trace.residuals[:-1])
    diff = trace.points - x_star
    # ||x_k - x*|| as np.linalg.norm takes it, squared by libm pow like a
    # Python float's ** 2; x * x can differ by an ulp.
    d = np.sqrt(row_dots(diff, diff))
    sq = np.float_power(d, 2)
    return BoundCheck("one_step_improvement", np.arange(len(c)),
                      2.0 * c * (trace.values[1:] - f_star_val),
                      sq[:-1] - (1.0 - c * p.weak_convexity) * sq[1:] + 2.0 * c * r * d[1:]
                      + CHECK_ATOL)


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
    start = len(trace) if k0 is None else k0
    c = trace.steps[:-1]
    slack = c * _or_zero(trace.residuals[:-1])
    return (_contraction("linear_cost", trace.gaps, bounds.omega(c), CHECK_ATOL, slack, start),
            _contraction("linear_dist", trace.dists, bounds.theta(c), CHECK_ATOL, slack, start))


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
    trace = run_ppm(p, np.zeros(p.dimension), sched, max_iter=effort,
                    inner_target=inner_target, stop_gap=0.0, stop_residual=inner_target * 10)
    if trace.stop_reason in ("resolution", "inner_budget"):
        raise InnerBudgetExhausted(
            f"reference solve stopped with {trace.stop_reason} after {len(trace) - 1} steps")
    tail = float(np.linalg.norm(trace.points[-1] - trace.points[-2])) / c_ref \
        if len(trace) > 1 else 0.0
    return install_reference(p, float(trace.values[-1]), trace.points[-1], tail,
                             len(trace) - 1)


def install_reference(p: ProblemSpec, f_ref: float, x_ref, residual: float,
                      iterations: int) -> ProblemSpec:
    """``p`` with a reference solve's outcome installed: f_star = f_ref, and x_ref
    as the solution set when ``p`` is strongly convex (a unique minimizer).  The
    point, its tail residual and the step count go into the metadata."""
    x_ref = np.array(x_ref, dtype=float)
    x_ref.flags.writeable = False
    project = project_rows = None
    if p.strong_convexity > 0:
        project = lambda x: x_ref
        project_rows = lambda xs: np.broadcast_to(x_ref, xs.shape)
    return p.with_reference(f_ref, project=project, project_rows=project_rows,
                            reference_point=tuple(float(v) for v in x_ref),
                            reference_residual=residual, reference_iterations=iterations)
