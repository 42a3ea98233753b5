"""Empirical estimation of the five regularity constants and their audit.

Constants are extremal ratios over a sampled sublevel region: secant growth
(mu_s) and restricted secant (mu_r) are infima, the subdifferential error
bound (mu_e) is a supremum, gradient dominance (mu_p) and quadratic growth
(mu_q) are infima.  The audit replays the implication chain between them
with a sampling tolerance, which is a direct numerical witness of their
equivalence on convex (and growth-dominated weakly convex) problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProxlabError
from .problem import (BATCH_ELEMENTS, ProblemSpec, as_point, batch_oracle, default_rng,
                      row_dots)

EB_CAP = 1e12
STATIONARY_NORM = 1e-8
SUBOPTIMAL_GAP = 1e-6
# Secant growth is estimated over ordered pairs of at most this many samples.
PAIR_THIN = 200
# Grid points of the sign-change scan for stationary points: one batch-oracle
# block in one dimension while it is at most BATCH_ELEMENTS.
STATIONARY_SCAN = 4096
# Multiplicative sampling tolerance of every audited constant relation.
AUDIT_TOL = 0.10
# Size and seed of the sample: a grid over the problem's metadata bracket
# (dimension <= 2; a 2-d grid has isqrt(SAMPLE_COUNT) points a side), else
# standard Gaussians around a solution point.
SAMPLE_COUNT = 10_001
SAMPLE_SEED = 0
# Points with gap < TAU_S or dist < sqrt(TAU_S) are excluded from ratio
# denominators (estimator bias of order sqrt(TAU_S)); TAU_S > 0 keeps them nonzero.
TAU_S = 1e-9


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    witness: tuple[float, ...] | None
    bound_direction: str  # "exact": the ratio of exact oracle values at a sample


def _estimate(name: str) -> property:
    return property(lambda self: self.estimates[name].value,
                    doc=f"Value of the {name} estimate.")


@dataclass
class RegularityReport:
    estimates: dict[str, ConstantEstimate]
    pl_fails_globally: bool
    eb_fails_globally: bool
    nu: float
    n_samples: int

    mu_s = _estimate("mu_s")
    mu_r = _estimate("mu_r")
    mu_e = _estimate("mu_e")
    mu_p = _estimate("mu_p")
    mu_q = _estimate("mu_q")

    def to_json(self) -> dict:
        body = {}
        for key, est in self.estimates.items():
            body[key] = {
                "value": est.value if math.isfinite(est.value) else "inf",
                "witness": list(est.witness) if est.witness is not None else None,
                "bound_direction": est.bound_direction,
            }
        return {
            "constants": body,
            "flags": {"pl_fails_globally": self.pl_fails_globally,
                      "eb_fails_globally": self.eb_fails_globally},
            "nu": self.nu if math.isfinite(self.nu) else "inf",
            "n_samples": self.n_samples,
        }


def _sample_points(p: ProblemSpec) -> np.ndarray:
    """The sample as one (N, d) array: a grid over ``p.metadata["bracket"]`` when
    there is one, else seeded Gaussians."""
    bracket = p.metadata.get("bracket")
    if bracket is not None:
        lo, hi = bracket  # a finite width needs finite ends
        if not (math.isfinite(hi - lo) and lo < hi):
            raise ValueError(f"bracket [{lo:g}, {hi:g}] is not a finite [lo, hi] with lo < hi")
        if p.dimension == 1:
            return np.linspace(lo, hi, SAMPLE_COUNT)[:, None]
        if p.dimension == 2:
            axis = np.linspace(lo, hi, max(int(math.isqrt(SAMPLE_COUNT)), 10))
            return np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        raise ValueError("grid sampling supports dimension <= 2")
    rng = default_rng(SAMPLE_SEED)
    points = rng.standard_normal((SAMPLE_COUNT, p.dimension))
    points += as_point(p.project_solution(np.zeros(p.dimension)))
    return points


def _secant_rows(p, xs, fx, rows, tau_s):
    """(least ratio of each row i, i) over the pairs (i, j) of a thinned subset
    of rows with ||x_j - x_i||^2 >= tau_s, in blocks of a (B, P, d) difference
    of about BATCH_ELEMENTS elements.  The subset's min-norm elements are one
    batch_oracle call on its at most PAIR_THIN rows.  Each row's
    <g_i, x_j - x_i> is one gemv on its pairs alone: OpenBLAS rounds a row's
    dot by the row count of its matrix."""
    subset = rows[::max(1, rows.size // PAIR_THIN)][:PAIR_THIN]
    pts, vals, d = xs[subset], fx[subset], xs.shape[1]
    g = batch_oracle(p, "min_norm_subgradients", pts)
    row_min, far_pairs = np.empty(subset.size), np.empty(subset.size, dtype=int)
    block = max(1, BATCH_ELEMENTS // (subset.size * d))
    for lo in range(0, subset.size, block):
        at, g_at = subset[lo:lo + block], g[lo:lo + block]
        flat = (pts - xs[at, None]).reshape(-1, d)
        sq = row_dots(flat, flat).reshape(at.size, -1)
        far = sq >= tau_s
        m = far_pairs[lo:lo + block] = far.sum(axis=1)
        dots = np.zeros(far.shape)
        for count in set(m.tolist()):  # one matmul over the rows with `count` pairs
            same = m == count
            pairs = far & same[:, None]
            gathered = flat.compress(pairs.ravel(), axis=0).reshape(same.sum(), count, d)
            dots[pairs] = np.matmul(gathered, g_at[same, :, None]).ravel()
        row_min[lo:lo + block] = np.divide(vals - fx[at, None] - dots, sq, where=far,
                                           out=np.full(sq.shape, math.inf)).min(axis=1)
    return row_min[far_pairs > 0], subset[far_pairs > 0]


def estimate_constants(p: ProblemSpec, nu: float | None = None) -> RegularityReport:
    """Extremal empirical ratios over the sampled nu-sublevel region; ``nu``
    defaults to ``p.metadata["nu"]``, else inf, and a NaN raises ValueError.

    One blockwise pass: f at every row, then the rows in the nu-sublevel set
    in blocks of max(1, BATCH_ELEMENTS // d) rows, each block projected and,
    at its rows that pass the TAU_S filter, given its min-norm elements.  A
    block leaves only per-row numbers (dist, <g, x - proj_S(x)>, ||g||), so
    the sample is the pass's only (N, d) array.  mu_s takes the min-norm
    elements of its at most PAIR_THIN thinned rows from one more batch_oracle
    call.
    The witness of a constant is its first extremal sample in sample order.
    Raises ProxlabError when no sample enters the ratios.
    """
    nu = p.metadata.get("nu", math.inf) if nu is None else nu
    if math.isnan(nu):  # every gap > nan is false, so nothing would be cut
        raise ValueError("nu = nan is not a sublevel bound; give a number or inf")
    if p.f_star is None or p.project_solution is None:
        raise ProxlabError("estimation needs f_star and a solution oracle")
    xs = _sample_points(p)
    bracket = p.metadata.get("bracket")
    if p.dimension == 1 and bracket is not None:
        # Sharpen the sample with bisection-refined stationary points so a
        # dominance failure shows up as an exact zero ratio, not a near-zero.
        xs = np.vstack([xs, *find_suboptimal_stationary_points(p, bracket)])

    # A block is a slice of xs when its rows are consecutive, else a gather.
    # Rows are gathered with take and compress, which copy a row at a time
    # where indexing by an array copies an element at a time (a tenth of the
    # time at d = 2).  A row reaching its min-norm element has a finite value,
    # so it needs no domain check.
    fx = batch_oracle(p, "values", xs)
    gap = fx - p.f_star
    rows = np.flatnonzero(~(gap > nu) & (fx != math.inf))
    dist, secant, gnorm = np.empty((3, rows.size))
    enters = np.empty(rows.size, dtype=bool)
    step = max(1, BATCH_ELEMENTS // xs.shape[1])
    for lo in range(0, rows.size, step):
        at = rows[lo:lo + step]
        block = xs[at[0]:at[-1] + 1] if at[-1] - at[0] == at.size - 1 else xs.take(at, axis=0)
        offset = batch_oracle(p, "project_solutions", block)
        np.subtract(block, offset, out=offset)  # x - proj_S(x)
        near = dist[lo:lo + step] = np.sqrt(row_dots(offset, offset))
        keep = enters[lo:lo + step] = ~(gap[at] < TAU_S) & ~(near < math.sqrt(TAU_S))
        g = batch_oracle(p, "min_norm_subgradients", block.compress(keep, axis=0))
        secant[lo:lo + step][keep] = row_dots(g, offset.compress(keep, axis=0))
        gnorm[lo:lo + step][keep] = np.sqrt(row_dots(g, g))
    rows, dist, secant, gnorm = rows[enters], dist[enters], secant[enters], gnorm[enters]
    if not rows.size:
        raise ProxlabError(f"no sample point has gap in [tau_s, nu] and dist >= sqrt(tau_s) "
                           f"(nu = {nu:g}, bracket = {bracket}, tau_s = {TAU_S:g})")
    gap = gap[rows]

    def first(argpick, ratios, at):
        """(ratio, sample) at the first extremal ratio; (0.0, None) if there is none."""
        if ratios.size == 0:
            return 0.0, None
        k = argpick(ratios)
        return float(ratios[k]), tuple(float(v) for v in xs[at[k]])

    pl_fail = eb_fail = bool(np.any((gnorm < STATIONARY_NORM) & (gap > SUBOPTIMAL_GAP)))
    mu_q = first(np.argmin, gap / dist ** 2, rows)
    mu_r = first(np.argmin, secant / dist ** 2, rows)
    mu_p = first(np.argmin, gnorm ** 2 / gap, rows)
    mu_e = first(np.argmax, np.divide(dist, gnorm, out=np.full(rows.size, math.inf),
                                      where=gnorm > 0), rows)
    if mu_e[0] > EB_CAP:
        mu_e = (math.inf, mu_e[1])
        eb_fail = True
    if pl_fail:
        # A sampled suboptimal stationary point refutes every positive
        # dominance constant; report the failure as an exact zero.
        mu_p = (0.0, mu_p[1])
    if mu_r[0] < 0.0:
        mu_r = (0.0, mu_r[1])  # a negative ratio refutes every positive constant

    mu_s = first(np.argmin, *_secant_rows(p, xs, fx, rows, TAU_S))
    mu_s = (max(mu_s[0], 0.0), mu_s[1])

    estimates = {name: ConstantEstimate(*pair, bound_direction="exact") for name, pair in
                 (("mu_s", mu_s), ("mu_r", mu_r), ("mu_e", mu_e), ("mu_p", mu_p), ("mu_q", mu_q))}
    return RegularityReport(estimates=estimates, pl_fails_globally=pl_fail,
                            eb_fails_globally=eb_fail, nu=nu, n_samples=int(rows.size))


@dataclass(frozen=True)
class ImplicationCheck:
    relation: str
    expected: float
    observed: float
    status: str  # "pass" | "fail" | "degenerate" | "skipped"


def audit_implications(report: RegularityReport, rho: float) -> list[ImplicationCheck]:
    """Replay the constant relations implied by the implication chain.

    Each derived constant must be met by the directly estimated one within the
    multiplicative sampling tolerance ``AUDIT_TOL``.  Degenerate constants (a
    zero growth constant or an unbounded error-bound ratio) mark their
    relations as unauditable rather than failed; the growth-only branch is
    skipped unless the problem is convex or mu_q > rho/2.
    """
    mu_s, mu_r = report.mu_s, report.mu_r
    mu_e, mu_p, mu_q = report.mu_e, report.mu_p, report.mu_q
    out = []

    def check(relation, observed, expected, kind, degenerate=False):
        if degenerate:
            out.append(ImplicationCheck(relation, expected, observed, "degenerate"))
            return
        if kind == "ge":
            good = observed >= expected * (1.0 - AUDIT_TOL)
        else:
            good = observed <= expected * (1.0 + AUDIT_TOL)
        out.append(ImplicationCheck(relation, expected, observed,
                                    "pass" if good else "fail"))

    eb_bad = not (0.0 < mu_e < math.inf)
    pl_bad = mu_p <= 0.0
    check("mu_r >= mu_s", mu_r, mu_s, "ge")
    check("mu_e <= 1/mu_r", mu_e, 1.0 / mu_r if mu_r > 0 else math.inf, "le",
          degenerate=eb_bad or mu_r <= 0)
    check("mu_p >= 2/(2 mu_e + rho mu_e^2)", mu_p,
          2.0 / (2.0 * mu_e + rho * mu_e ** 2) if not eb_bad else 0.0, "ge",
          degenerate=eb_bad or pl_bad)
    check("mu_e <= 2/mu_p", mu_e, 2.0 / mu_p if not pl_bad else math.inf, "le",
          degenerate=eb_bad or pl_bad)
    check("mu_q >= 1/(4 mu_e)", mu_q, 1.0 / (4.0 * mu_e) if not eb_bad else 0.0, "ge",
          degenerate=eb_bad)
    if rho == 0.0 or mu_q > 0.5 * rho:
        check("mu_r >= mu_q - rho/2", mu_r, mu_q - 0.5 * rho, "ge")
    else:
        out.append(ImplicationCheck("mu_r >= mu_q - rho/2", math.nan, mu_r, "skipped"))
    return out


def find_suboptimal_stationary_points(p: ProblemSpec, bracket) -> list[np.ndarray]:
    """Roots of the signed min-norm subgradient that are not minimizers.

    Sign-change bisection over the bracket; keeps points with
    dist(0, subdifferential) < 1e-8 and value gap > 1e-6.  The grid is one
    batch call per oracle, and every sign-change bracket is halved at once,
    at most 80 times; a bracket whose midpoint is an exact root stays there,
    and one whose midpoint is one of its ends (adjacent floats) can no longer
    move, so neither is halved again.  Raises ProxlabError when f is +inf at a
    grid point.
    """
    if p.dimension != 1:
        raise ValueError("stationary-point scan is one-dimensional")
    if p.f_star is None:
        raise ProxlabError("needs f_star to classify stationary points")
    grid = as_point(np.linspace(float(bracket[0]), float(bracket[1]), STATIONARY_SCAN))
    outside = np.flatnonzero(batch_oracle(p, "values", grid[:, None]) == math.inf)
    if outside.size:
        raise ProxlabError(f"value is +inf at {grid[outside[:1]]}")

    def signed(points: np.ndarray) -> np.ndarray:
        return batch_oracle(p, "min_norm_subgradients", points[:, None])[:, 0]

    vals = signed(grid)
    neg = vals < 0.0
    # Signs are compared, since va * vb underflows to 0 below about 1e-162.
    at_zero = vals[:-1] == 0.0
    starts = np.flatnonzero(~at_zero & (vals[1:] != 0.0) & (neg[:-1] != neg[1:]))
    a, b, a_neg = grid[starts], grid[starts + 1], neg[starts]
    live = np.arange(starts.size)
    for _ in range(80):
        mid = 0.5 * (a[live] + b[live])
        moves = (mid != a[live]) & (mid != b[live])
        live, mid = live[moves], mid[moves]
        if not live.size:
            break
        vm = signed(mid)
        # A midpoint that is a root closes its bracket there (a = b = mid);
        # otherwise the half whose ends differ in sign stays.  The sign at a
        # never changes, since a moves only to midpoints of its own sign.
        root = vm == 0.0
        left = a_neg[live] != (vm < 0.0)
        b[live[root | left]] = mid[root | left]
        a[live[root | ~left]] = mid[root | ~left]
        live = live[~root]
    # The root found in each grid interval, in grid order, then the last point.
    found = np.where(at_zero, grid[:-1], math.nan)
    found[starts] = 0.5 * (a + b)
    roots = found[~np.isnan(found)].tolist() + ([float(grid[-1])] if vals[-1] == 0.0 else [])

    unique: list[float] = []
    for r in roots:
        if not any(abs(r - s) < 1e-6 for s in unique):
            unique.append(r)
    points = np.array(unique).reshape(-1, 1)
    gap = batch_oracle(p, "values", points) - p.f_star
    slope = np.abs(signed(points[:, 0]))
    return [points[i] for i in np.flatnonzero((slope < STATIONARY_NORM) & (gap > SUBOPTIMAL_GAP))]
