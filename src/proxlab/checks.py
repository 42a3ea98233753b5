"""The paper's convergence bounds, replayed against recorded traces.

Each checker evaluates one inequality at every index of an ``IterationTrace``,
as an array expression over its columns, and returns a ``BoundCheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ProxlabError
from .gd import GDParams
from .ppm import IterationTrace
from .problem import as_point, distances_to_solution, row_dots

# Absolute slack on every replayed PPM and iPPM inequality.
CHECK_ATOL = 1e-9
# Absolute slack on the replayed gradient descent contractions.
GD_ATOL = 1e-12


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


def _envelope(name: str, trace: IterationTrace, errors: np.ndarray,
              best: bool = False) -> BoundCheck:
    """gap_k <= (dist^2(x_0,S) + 2 D_k sum_{j<k} errors_j) / (2 sum_{j<k} c_j) + CHECK_ATOL.

    D_k is the running diameter and errors_j the step's error term (c_j r_j or
    eps_j).  With ``best`` the left side is the best gap so far, min_{j<=k} gap_j.
    """
    if trace.problem.f_star is None:
        raise ProxlabError("f_star required for the sublinear envelope")
    if trace.problem.project_solution is None:
        raise ProxlabError("no solution oracle on this problem")
    dist0 = float(trace.dists[0])
    lhs = np.minimum.accumulate(trace.gaps) if best else trace.gaps
    diam = trace.running_diameter()
    with np.errstate(over="ignore"):  # a step sum of inf gives the limit, 0
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
    or an array of steps; where a step overflows a factor's denominator, the
    factor is its limit.
    """

    mu_p: float
    mu_q: float
    mu_e: float
    rho: float = 0.0

    @property
    def beta(self) -> float:
        return self.mu_q - 0.5 * self.rho

    def omega(self, c):
        with np.errstate(over="ignore"):
            return 2.0 / (2.0 + self.mu_p * c)

    def theta(self, c):
        factor = math.inf
        with np.errstate(over="ignore"):
            if self.beta > 0:
                factor = np.minimum(factor, 1.0 / np.sqrt(2.0 * c * self.beta + 1.0))
            if 0.0 < self.mu_e < math.inf:
                ratio = c * c / self.mu_e ** 2
                # Where c^2/mu_e^2 overflows, the factor is its limit mu_e / c.
                factor = np.minimum(factor, np.where(np.isinf(ratio), self.mu_e / c,
                                                     1.0 / np.sqrt(1.0 + ratio)))
        return factor


def _constants(report) -> tuple[float, float, float]:
    """Pull (mu_p, mu_q, mu_e) from a RegularityReport, mapping or metadata."""
    if isinstance(report, Mapping):
        return float(report["mu_p"]), float(report["mu_q"]), float(report["mu_e"])
    return float(report.mu_p), float(report.mu_q), float(report.mu_e)


def check_sublinear_bound(trace: IterationTrace) -> BoundCheck:
    """Replay the envelope f(x_k) - f_star <= dist^2(x_0,S) / (2 sum c_t).

    Inexact inner solves widen the envelope by their certified residuals
    (the same diameter-weighted term as the best-iterate bound).
    """
    return _envelope("sublinear_envelope", trace, trace.steps * _or_zero(trace.residuals))


def check_one_step(trace: IterationTrace) -> BoundCheck:
    """Per-step improvement 2 c_k (f(x_{k+1}) - f_star) <= |x_k-x*|^2 - (1 - c_k rho)|x_{k+1}-x*|^2.

    Holds for any minimizer x*, here the solution oracle's projection of x_0,
    since each subproblem is (1/c_k - rho)-strongly convex; inexact steps
    contribute slack 2 c_k r_k ||x_{k+1} - x*|| with r_k the certificate residual.
    """
    p = trace.problem
    if p.project_solution is None:
        raise ProxlabError("need a solution oracle")
    x_star = as_point(p.project_solution(trace.points[0]))
    f_star_val = float(p.value(x_star))
    c, r = trace.steps[:-1], _or_zero(trace.residuals[:-1])
    diff = trace.points - x_star
    # ||x_k - x*|| as np.linalg.norm takes it, squared by libm pow like a
    # Python float's ** 2; x * x can differ by an ulp.
    d = np.sqrt(row_dots(diff, diff))
    sq = np.float_power(d, 2)
    # c is multiplied into the gap and the residual before the 2, so a step
    # whose double overflows still meets an exact step's zeros as 0, not NaN.
    return BoundCheck("one_step_improvement", np.arange(len(c)),
                      2.0 * (c * (trace.values[1:] - f_star_val)),
                      sq[:-1] - (1.0 - c * p.weak_convexity) * sq[1:] + 2.0 * (c * r * d[1:])
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


def check_ippm_sublinear(trace: IterationTrace) -> BoundCheck:
    """Best-iterate envelope with the diameter-weighted error budget.

    min_{j<=k} f(x_j) - f_star <= (dist^2(x_0,S) + 2 D sum eps_j) / (2 sum c_j),
    evaluated with the running diameter D_k.
    """
    if np.isnan(trace.eps[:-1]).any():
        raise ValueError("trace has no absolute (A-type) budgets logged")
    return _envelope("ippm_best_iterate", trace, trace.eps, best=True)


def check_ippm_linear(trace: IterationTrace, report, nu: float) -> BoundCheck:
    """Eventual distance contraction dist_{k+1} <= theta_hat_k dist_k.

    theta_hat_k = (theta_k + 2 delta_k) / (1 - delta_k) with the growth branch
    theta_k = 1/sqrt(2 c_k beta + 1) of ``RateBounds.theta``, beta = mu_q - rho/2.
    Gated at k_bar = max(sublevel entry, first k with delta_k < 1).
    """
    _, mu_q, _ = _constants(report)
    bounds = RateBounds(0.0, mu_q, 0.0, trace.problem.weak_convexity)
    if bounds.beta <= 0:
        raise ValueError("need mu_q > rho/2 for the distance contraction")
    deltas = trace.deltas[:-1]
    if np.isnan(deltas).any():
        raise ValueError("trace has no relative (B-type) budgets logged")
    k_entry = trace.entry_index(nu)
    k_delta = _first(deltas < 1.0)
    if k_entry is None or k_delta is None:
        return BoundCheck("ippm_linear_dist")
    theta = bounds.theta(trace.steps[:-1])
    with np.errstate(divide="ignore"):  # delta_k = 1, before k_delta
        theta_hat = (theta + 2.0 * deltas) / (1.0 - deltas)
    return _contraction("ippm_linear_dist", trace.dists, theta_hat, CHECK_ATOL,
                        start=max(k_entry, k_delta))


def check_inexact_one_step(trace: IterationTrace) -> BoundCheck:
    """Test-mode audit of the inexact distance inequality.

    (1 - delta_k) dist(x_{k+1},S) <= 2 delta_k dist(x_k,S) + dist(prox(x_k),S)
    for every step with delta_k < 1 and a logged reference prox.
    """
    if trace.problem.project_solution is None:
        raise ProxlabError("need a solution oracle")
    refs, deltas, dists = trace.ref_prox_points[:-1], trace.deltas[:-1], trace.dists
    k = np.flatnonzero(~np.isnan(refs).any(axis=1) & (deltas < 1.0))
    ref_dists = distances_to_solution(trace.problem, refs[k])
    return BoundCheck("inexact_one_step", k, (1.0 - deltas[k]) * dists[k + 1],
                      2.0 * deltas[k] * dists[k] + ref_dists + CHECK_ATOL)


def verify_gd_rates(trace: IterationTrace,
                    params: GDParams) -> tuple[BoundCheck, BoundCheck]:
    """Per-step distance and cost-gap contraction checks, returned as (dist, cost).

    Steps whose denominator is below 1e-14 are skipped (converged).  The
    factors are theorems for a step in (0, 2/L), as GDParams' t = mu / L^2 is.
    """
    return (_contraction("gd_dist", trace.dists, params.omega_dist, GD_ATOL),
            _contraction("gd_cost", trace.gaps, params.omega_cost, GD_ATOL))
