"""Exact proximal point iteration and the outer loop every solver shares.

``run_ppm`` iterates x_{k+1} = prox_{c_k,f}(x_k) and logs everything a bound
check needs: values, distances, certificate residuals, steps.  ``iterate`` is
the loop itself; iPPM and GD run it with their own step rule.  The checkers
that replay the bounds against a trace live in ``checks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InnerBudgetExhausted, ResolutionFloor
from .problem import ProblemSpec, all_finite, as_point, distances_to_solution, vector_norm
from .prox import prox, validate_step


@dataclass(frozen=True)
class StepSchedule:
    """The step c of every iteration: PPM's and iPPM's prox step, GD's gradient step.

    A constant prox step is bounded away from 0, as Rockafellar's (1976) inexact
    criteria need."""

    c: float

    @staticmethod
    def constant(c: float) -> "StepSchedule":
        return StepSchedule(float(c))


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
        if fs is None:
            return None
        hits = np.flatnonzero(self.values <= fs + nu)
        return int(hits[0]) if hits.size else None


def iterate(p: ProblemSpec, x0, c: float, max_iter: int, step,
            stop_gap: float, stop_residual: float):
    """The outer loop of PPM, iPPM and GD at step c: ``step(k, x, c)`` gives the
    move (x_next, residual, eps, delta, ref), None where a field does not apply.

    Stops with ``gap`` (f - f_star <= stop_gap), ``residual`` (||x_{k+1} -
    x_k||/c + residual <= stop_residual, a None residual read as 0),
    ``max_iter``, ``resolution`` / ``inner_budget`` when a step's inner solver
    gives up, or ``non_finite`` when a step returns a point with a non-finite
    coordinate or a value of NaN or +inf, which is not recorded; the trace is
    kept.  An x0 with such a value raises ValueError, as ``as_point`` does for
    a non-finite coordinate.  An overflow is what these stops see, not a warning.
    """
    x = as_point(x0)
    with np.errstate(over="ignore"):
        value = float(p.value(x))
        if not value < math.inf:
            raise ValueError(f"x0: f(x0) = {value}, not finite")
        points, values, steps, moves = [x], [value], [], []
        stop_reason = "max_iter"
        for k in range(max_iter):
            try:
                x_next, *move = step(k, x, c)
            except InnerBudgetExhausted as exc:
                stop_reason = "resolution" if isinstance(exc, ResolutionFloor) else "inner_budget"
                break
            value = float(p.value(x_next)) if all_finite(x_next) else math.nan
            if not value < math.inf:  # a non-finite point, or a value of NaN or +inf
                stop_reason = "non_finite"
                break
            points.append(x_next)
            values.append(value)
            steps.append(c)
            moves.append(move)
            if p.f_star is not None and values[-1] - p.f_star <= stop_gap:
                stop_reason = "gap"
                break
            if vector_norm(x_next - x) / c + (move[0] or 0.0) <= stop_residual:
                stop_reason = "residual"
                break
            x = x_next
    steps.append(c)
    # The final row's move is empty: one more None per transition column.
    residuals, eps, deltas, refs = zip(*moves, (None,) * 4)
    ref_rows = np.full((len(points), x.size), math.nan)
    for k, ref in enumerate(refs):
        if ref is not None:
            ref_rows[k] = ref
    return IterationTrace(p, points, values, steps, residuals, eps, deltas, ref_rows,
                          stop_reason)


def run_ppm(p: ProblemSpec, x0, sched: StepSchedule, max_iter: int = 500,
            inner_target: float = 1e-10,
            stop_gap: float = 1e-10, stop_residual: float = 1e-10) -> IterationTrace:
    """Exact proximal point method; stops on max_iter, tiny gap or tiny residual."""
    validate_step(p, sched.c)

    def step(k, x, c):
        result = prox(p, x, c, inner_target)
        return result.point, result.residual_norm, None, None, None

    return iterate(p, x0, sched.c, max_iter, step, stop_gap, stop_residual)


# The reference solve: at most REFERENCE_STEPS exact steps of size REFERENCE_STEP
# (0.5 / rho if smaller, on a rho-weakly convex problem) from the origin, each
# prox solved to the residual REFERENCE_TARGET.  The gap factor 2 / (2 + mu_p c)
# is small at c = 10, so the shipped ML configs stop after 8 to 10 steps; a
# larger step saves little more and slows the first composite solve from the
# origin.  iPPM's test-mode steps solve their reference prox to REFERENCE_TARGET
# too; both read it at each call.
REFERENCE_STEPS = 400
REFERENCE_STEP = 10.0
REFERENCE_TARGET = 1e-12


def reference_solution(p: ProblemSpec) -> ProblemSpec:
    """High-accuracy solve installing f_star (and, if unique, the minimizer).

    Runs the exact method with the tight inner target REFERENCE_TARGET, read at
    each call.  Strong convexity certifies a unique minimizer, so the solution
    oracle becomes "distance to the reference point"; otherwise only f_star is
    installed and distances stay unavailable.  Raises InnerBudgetExhausted when
    an inner solve gives up or the solve reaches its REFERENCE_STEPS cap short of
    its residual target, since f_star would then be uncertified.
    """
    c_ref, target = REFERENCE_STEP, REFERENCE_TARGET
    if p.weak_convexity > 0:
        c_ref = min(c_ref, 0.5 / p.weak_convexity)
    trace = run_ppm(p, np.zeros(p.dimension), StepSchedule.constant(c_ref),
                    max_iter=REFERENCE_STEPS, inner_target=target, stop_gap=0.0,
                    stop_residual=target * 10)
    if trace.stop_reason in ("resolution", "inner_budget", "max_iter"):
        raise InnerBudgetExhausted(
            f"reference solve stopped with {trace.stop_reason} after {len(trace) - 1} steps")
    tail = vector_norm(trace.points[-1] - trace.points[-2]) / c_ref \
        if len(trace) > 1 else 0.0
    return install_reference(p, float(trace.values[-1]), trace.points[-1], tail,
                             len(trace) - 1)


def install_reference(p: ProblemSpec, f_ref: float, x_ref, residual: float,
                      iterations: int) -> ProblemSpec:
    """``p`` with a reference solve's outcome installed: f_star = f_ref, and x_ref
    as the solution set when ``p`` is strongly convex (a unique minimizer), with
    its batch form.  The point, its tail residual and the step count go into the
    metadata."""
    x_ref = np.array(x_ref, dtype=float)
    x_ref.flags.writeable = False
    solution = {}
    if p.strong_convexity > 0:
        solution = {"project_solution": lambda x: x_ref,
                    "project_solutions": lambda xs: np.broadcast_to(x_ref, xs.shape)}
    return replace(p, f_star=f_ref, **solution, metadata={
        **p.metadata, "reference_point": tuple(float(v) for v in x_ref),
        "reference_residual": residual, "reference_iterations": iterations})
