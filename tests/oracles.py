"""Independent numerical oracles used to derive expected values.

These deliberately avoid the package's solvers: golden-section search,
dense / refined grid minimization, sign bisection, central differences,
plain accelerated proximal gradient, the pairwise running diameter, the
per-sample loop estimator of the regularity constants, the scalar
stationary-point scan, the 1-d inner solver that tests every breakpoint first,
the composite and SVM inner solvers that build every linear system afresh,
the SVM min-norm element by enumeration of the kink weights' bound patterns,
the per-step loop replays of the bound checkers and the trace CSV writer that
formats every cell on its own.
Expected values asserted in the tests were computed with these and frozen.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def golden_section(f, lo: float, hi: float, iters: int = 200) -> float:
    """Argmin of a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def parabola_polish(f, x: float, h: float = 1e-4) -> float:
    """Quadratic-fit vertex around x; exact for locally quadratic functions."""
    num = f(x + h) - f(x - h)
    den = f(x + h) - 2.0 * f(x) + f(x - h)
    if den <= 0.0:
        return x
    return x - 0.5 * h * num / den


def grid_argmin(f, lo: float, hi: float, count: int = 10_001):
    xs = np.linspace(lo, hi, count)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def refined_grid_argmin_2d(f, lo: float, hi: float, side: int = 201,
                           refinements: int = 3):
    """Coarse-to-fine grid search reaching ~(hi-lo)/side^refinements resolution."""
    center = np.array([0.5 * (lo + hi), 0.5 * (lo + hi)])
    half = 0.5 * (hi - lo)
    best_pt, best_val = None, np.inf
    for _ in range(refinements):
        xs = np.linspace(center[0] - half, center[0] + half, side)
        ys = np.linspace(center[1] - half, center[1] + half, side)
        for x in xs:
            for y in ys:
                v = f(np.array([x, y]))
                if v < best_val:
                    best_val, best_pt = v, np.array([x, y])
        center = best_pt
        half *= 2.5 / side  # keep a few coarse cells of slack around the argmin
    return best_pt, best_val


def bisect_root(g, a: float, b: float, iters: int = 200) -> float:
    # Signs, not products: a product of two values below 1e-162 underflows to 0.
    ga, gb = g(a), g(b)
    assert np.sign(ga) * np.sign(gb) <= 0.0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if np.sign(ga) * np.sign(gm) < 0.0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def running_diameter(points) -> list[float]:
    """D_k = max pairwise distance among points[0] .. points[k], pair by pair."""
    out, d = [], 0.0
    for k, x in enumerate(points):
        for j in range(k):
            d = max(d, float(np.linalg.norm(x - points[j])))
        out.append(d)
    return out


class LoopCheck:
    """A replayed inequality as per-entry lists, its tightness read by loops."""

    def __init__(self):
        self.indices, self.ok, self.lhs, self.rhs = [], [], [], []

    def add(self, k: int, lhs: float, rhs: float) -> None:
        self.indices.append(k)
        self.lhs.append(lhs)
        self.rhs.append(rhs)
        self.ok.append(lhs <= rhs)

    @property
    def first_violation(self):
        return next((k for k, good in zip(self.indices, self.ok) if not good), None)

    @property
    def max_ratio(self):
        return max((lhs / rhs for lhs, rhs in zip(self.lhs, self.rhs) if rhs > 0), default=None)

    @property
    def worst_index(self):
        worst = self.max_ratio
        return next((k for k, lhs, rhs in zip(self.indices, self.lhs, self.rhs)
                     if rhs > 0 and lhs / rhs == worst), None)


def cells(column) -> list:
    """A trace column as Python floats, with None where it does not apply (NaN)."""
    return [None if math.isnan(v) else v for v in column.tolist()]


def loop_contraction(s, factor, atol: float, slack=lambda k: 0.0, start: int = 0) -> LoopCheck:
    """s[k+1] <= factor(k) s[k] + atol + slack(k) for k >= start, skipping k where
    s[k] is None or below 1e-14 or the factor is infinite."""
    check = LoopCheck()
    for k in range(start, len(s) - 1):
        if s[k] is not None and s[k] > 1e-14:
            f = factor(k)
            if f < math.inf:
                check.add(k, s[k + 1], f * s[k] + atol + slack(k))
    return check


def loop_envelope(trace, dist0, errors, atol: float, best: bool = False) -> LoopCheck:
    """gap_k <= (dist0^2 + 2 D_k sum_{j<k} errors_j) / (2 sum_{j<k} c_j) + atol, with
    the pairwise running diameter D_k; with ``best`` the left side is min_{j<=k} gap_j."""
    from proxlab.problem import distances_to_solution

    p = trace.problem
    if dist0 is None:
        dist0 = float(distances_to_solution(p, trace.points[:1])[0])
    gaps = [v - p.f_star for v in trace.values.tolist()]
    steps = trace.steps.tolist()
    diam = running_diameter(list(trace.points))
    check = LoopCheck()
    csum = esum = 0.0
    lhs = gaps[0]
    for k in range(1, len(trace)):
        csum += steps[k - 1]
        esum += errors[k - 1]
        lhs = min(lhs, gaps[k]) if best else gaps[k]
        check.add(k, lhs, (dist0 ** 2 + 2.0 * diam[k] * esum) / (2.0 * csum) + atol)
    return check


def loop_one_step(trace, atol: float) -> LoopCheck:
    """2 c_k (f(x_{k+1}) - f*) <= |x_k - x*|^2 - (1 - c_k rho)|x_{k+1} - x*|^2
    + 2 c_k r_k |x_{k+1} - x*| + atol, with x* the projection of x_0."""
    p = trace.problem
    x_star = np.atleast_1d(np.asarray(p.project_solution(trace.points[0]), dtype=float))
    f_star_val = float(p.value(x_star))
    steps, residuals = trace.steps.tolist(), cells(trace.residuals)
    check = LoopCheck()
    for k in range(len(trace) - 1):
        c, r = steps[k], residuals[k] or 0.0
        d_next = float(np.linalg.norm(trace.points[k + 1] - x_star))
        # c multiplies in before the 2, as in the checker: the two orders differ
        # where the products are subnormal.
        check.add(k, 2.0 * (c * (float(trace.values[k + 1]) - f_star_val)),
                  float(np.linalg.norm(trace.points[k] - x_star)) ** 2
                  - (1.0 - c * p.weak_convexity) * d_next ** 2 + 2.0 * (c * r * d_next) + atol)
    return check


def loop_inexact_one_step(trace, atol: float) -> LoopCheck:
    """(1 - delta_k) dist(x_{k+1}) <= 2 delta_k dist(x_k) + dist(prox(x_k)) + atol for
    every step with delta_k < 1 and a logged reference prox."""
    from proxlab.problem import distances_to_solution

    p = trace.problem
    dists = distances_to_solution(p, trace.points).tolist()
    deltas = cells(trace.deltas)
    check = LoopCheck()
    for k in range(len(trace) - 1):
        ref = trace.ref_prox_points[k]
        if np.isnan(ref).any() or deltas[k] is None or deltas[k] >= 1.0:
            continue
        ref_dist = float(distances_to_solution(p, ref[None])[0])
        check.add(k, (1.0 - deltas[k]) * dists[k + 1],
                  2.0 * deltas[k] * dists[k] + ref_dist + atol)
    return check


def loop_stationary_points(p, bracket) -> list:
    """The stationary-point scan one scalar oracle call at a time, for reference.

    Same grid, brackets, 80 halvings and classification as
    ``find_suboptimal_stationary_points``; every call is the checked
    ``min_norm_subgradient`` wrapper.
    """
    from proxlab.errors import ProxlabError
    from proxlab.problem import min_norm_subgradient
    from proxlab.regularity import STATIONARY_NORM, STATIONARY_SCAN, SUBOPTIMAL_GAP

    if p.dimension != 1:
        raise ValueError("stationary-point scan is one-dimensional")
    if p.f_star is None:
        raise ProxlabError("needs f_star to classify stationary points")
    lo, hi = float(bracket[0]), float(bracket[1])

    def signed(x: float) -> float:
        return float(min_norm_subgradient(p, [x])[0][0])

    xs = np.linspace(lo, hi, STATIONARY_SCAN)
    vals = [signed(x) for x in xs]
    roots: list[float] = []
    for i in range(STATIONARY_SCAN - 1):
        a, b, va, vb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(a))
            continue
        # Signs are compared, since va * vb underflows to 0 below about 1e-162;
        # va and every later va, vm are nonzero.
        if vb == 0.0 or (va < 0.0) == (vb < 0.0):
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            vm = signed(mid)
            if vm == 0.0:
                a = b = mid
                break
            if (va < 0.0) != (vm < 0.0):
                b, vb = mid, vm
            else:
                a, va = mid, vm
        roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))

    out, seen = [], []
    for r in roots:
        if any(abs(r - s) < 1e-6 for s in seen):
            continue
        seen.append(r)
        _, norm = min_norm_subgradient(p, [r])
        gap = float(p.value(np.array([r]))) - p.f_star
        if norm < STATIONARY_NORM and gap > SUBOPTIMAL_GAP:
            out.append(np.array([r]))
    return out


def loop_estimate(p, nu):
    """The regularity estimator as a loop over per-sample records, for reference.

    Same sample, filters and extremal ratios as ``estimate_constants(p, nu)``;
    the sample size, seed and TAU_S are the estimator's, read at each call.
    Returns ``(report, ratios)``: ``ratios[name]`` maps each candidate sample,
    as a tuple, to its raw ratio (for mu_s, the least ratio of the pairs the
    sample starts), in sample order.
    """
    from proxlab.regularity import (EB_CAP, PAIR_THIN, SAMPLE_COUNT, SAMPLE_SEED,
                                    STATIONARY_NORM, SUBOPTIMAL_GAP, TAU_S, ConstantEstimate,
                                    RegularityReport)

    nu = p.metadata.get("nu", math.inf) if nu is None else nu
    bracket = p.metadata.get("bracket")
    if bracket is None:
        rng = np.random.default_rng(SAMPLE_SEED)
        center = np.atleast_1d(p.project_solution(np.zeros(p.dimension)))
        points = [center + rng.standard_normal(p.dimension) for _ in range(SAMPLE_COUNT)]
    elif p.dimension == 1:
        points = [np.array([t]) for t in np.linspace(*bracket, SAMPLE_COUNT)]
        points += loop_stationary_points(p, bracket)
    else:
        axis = np.linspace(*bracket, max(math.isqrt(SAMPLE_COUNT), 10))
        points = [np.array([a, b]) for a in axis for b in axis]
    kept = []  # (x, fx, g, gnorm, gap, dist, secant)
    for x in points:
        fx = float(p.value(x))
        if fx - p.f_star > nu or fx == math.inf:
            continue
        offset = x - np.atleast_1d(p.project_solution(x))
        dist = float(np.linalg.norm(offset))
        if fx - p.f_star < TAU_S or dist < math.sqrt(TAU_S):
            continue
        g = np.asarray(p.min_norm_subgradient(x), dtype=float)
        kept.append((x, fx, g, float(np.linalg.norm(g)), fx - p.f_star, dist,
                     float(np.dot(g, offset))))

    def key(x):
        return tuple(float(v) for v in x)

    ratios = {name: {} for name in ("mu_s", "mu_r", "mu_e", "mu_p", "mu_q")}
    for x, _, _, gnorm, gap, dist, secant in kept:
        ratios["mu_q"][key(x)] = gap / dist ** 2
        ratios["mu_r"][key(x)] = secant / dist ** 2
        ratios["mu_p"][key(x)] = gnorm ** 2 / gap
        ratios["mu_e"][key(x)] = dist / gnorm if gnorm > 0 else math.inf
    subset = kept[::max(1, len(kept) // PAIR_THIN)][:PAIR_THIN]
    for xi, fi, gi, *_ in subset:
        row = []
        for xj, fj, *_ in subset:
            step = xj - xi
            sq = float(np.dot(step, step))
            if sq >= TAU_S:
                row.append((fj - fi - float(np.dot(gi, step))) / sq)
        if row:
            ratios["mu_s"][key(xi)] = min(row)

    def first(pick, name):
        return pick(ratios[name].items(), key=lambda item: item[1], default=(None, 0.0))

    pl_fail = eb_fail = any(gnorm < STATIONARY_NORM and gap > SUBOPTIMAL_GAP
                            for _, _, _, gnorm, gap, _, _ in kept)
    picked = {name: first(max if name == "mu_e" else min, name) for name in ratios}
    values = {name: value for name, (_, value) in picked.items()}
    if values["mu_e"] > EB_CAP:
        values["mu_e"], eb_fail = math.inf, True
    if pl_fail:
        values["mu_p"] = 0.0
    values["mu_r"] = max(values["mu_r"], 0.0)
    values["mu_s"] = max(values["mu_s"], 0.0)
    report = RegularityReport(
        {name: ConstantEstimate(values[name], picked[name][0], "") for name in ratios},
        pl_fail, eb_fail, nu, len(kept))
    return report, ratios


def loop_secant_rows(p, xs, fx, rows, tau_s):
    """The estimator's mu_s pair step as one numpy row per thinned sample.

    Same arguments and result as ``regularity._secant_rows``: (the least
    ratio of each row with a pair at squared distance >= tau_s, its row).
    Each row's min-norm element is a batch call on that row alone, and each
    product ``step[far] @ g`` runs on the row's far pairs alone, the
    matrix-vector shape the blocked step must keep to match it bitwise.
    """
    from proxlab.problem import batch_oracle
    from proxlab.regularity import PAIR_THIN

    subset = rows[::max(1, rows.size // PAIR_THIN)][:PAIR_THIN]
    pts, vals = xs[subset], fx[subset]
    row_min, starts = [], []
    for i in subset:
        g = batch_oracle(p, "min_norm_subgradients", xs[i:i + 1])[0]
        step = pts - xs[i]
        sq = np.array([np.dot(v, v) for v in step])
        far = sq >= tau_s
        if far.any():
            row_min.append(np.min((vals[far] - fx[i] - step[far] @ g) / sq[far]))
            starts.append(i)
    return np.array(row_min), np.array(starts, dtype=rows.dtype)


def per_cell_trace_csv(trace, path) -> None:
    """The trace CSV with every cell formatted on its own, for reference:
    ``traceio.emit_trace_csv`` formats each distinct value once."""
    from proxlab.traceio import CSV_HEADER

    def fmt(value: float) -> str:
        return "" if math.isnan(value) else f"{value:.17e}"

    columns = [col.tolist() for col in (trace.steps, trace.values, trace.gaps, trace.dists,
                                        trace.residuals, trace.eps, trace.deltas)]
    rows = (",".join([str(k), *map(fmt, row)])
            for k, row in enumerate(zip(*columns, strict=True)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([CSV_HEADER, *rows, ""]))


def loop_regula_falsi(p, z, c):
    """The 1-d inner solver's candidates with every breakpoint tested before the
    bracket walk, for reference.

    Same candidates, in the same order, as ``prox._regula_falsi``, which tests
    only the breakpoints inside the bracket, after the walk: a breakpoint whose
    element is zero is the subproblem's unique minimizer, so it lies there.
    """
    from proxlab.problem import nearest_zero

    z0 = float(z[0])

    def element(x):
        return nearest_zero(*p.interval_1d(x), (x - z0) / c)

    def candidate(x, e):
        return np.array([x]), np.array([e]), abs(e)

    e_z = element(z0)
    yield candidate(z0, e_z)
    for bp in p.breakpoints_1d:
        if element(bp) == 0.0:
            yield candidate(bp, 0.0)

    side = -1.0 if e_z > 0.0 else 1.0
    stride = side * max(1.0, abs(z0))
    near, far, e_near = z0, z0 + stride, e_z
    e_far = element(far)
    while not side * e_far > 0.0:
        if math.isinf(far):
            return
        stride *= 2.0
        near, far, e_near = far, far + stride, e_far
        e_far = element(far)
    (a, e_a), (b, e_b) = sorted([(near, e_near), (far, e_far)])

    kept = None
    for trial in itertools.count(1):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return
        x = a - e_a * (b - a) / (e_b - e_a)
        if trial % 3 == 0 or not a < x < b:
            x = mid
        e = element(x)
        if e > 0.0:
            b, e_b = x, e
            if kept == "a":
                e_a *= 0.5
            kept = "a"
        else:
            a, e_a = x, e
            if kept == "b":
                e_b *= 0.5
            kept = "b"
        yield candidate(x, e)


def unmemoized_composite(p, z, c):
    """The composite inner solver's candidates with every support system built
    afresh, for reference.

    Same candidates, in the same order, as ``prox._composite``, which takes
    each system from ``CompositeParts.support_system`` and compares sign
    patterns as bytes; here each support solve slices H_EE + I/c out of the
    Hessian itself and patterns are compared with ``np.array_equal``.
    """
    from proxlab.problem import vector_norm

    parts = p.composite
    lip = parts.lipschitz_smooth + 1.0 / c
    step = 1.0 / lip
    root_kappa = math.sqrt(lip / (1.0 / c + p.strong_convexity))
    q = (root_kappa - 1.0) / (root_kappa + 1.0)

    def certified(x, grad_x):
        base = grad_x + (x - z) / c
        element = base + parts.min_norm_h(base, x)
        return x, element, vector_norm(element)

    def support_solve(s):
        on = np.flatnonzero(s)
        h_on = parts.hessian[np.ix_(on, on)]
        h_on.flat[::on.size + 1] += 1.0 / c
        x_on = np.linalg.solve(h_on, v[on] - parts.l1_weight * s[on])
        if not np.array_equal(np.sign(x_on), s[on]):
            return None
        x = np.zeros_like(v)
        x[on] = x_on
        return x

    def finish(s):
        tried.add(s.tobytes())
        w = support_solve(s)
        if w is None:
            return False
        candidate = certified(w, parts.grad_smooth(w))
        yield candidate
        return not candidate[1][s == 0.0].any()

    x = z.copy()
    grad_x = parts.grad_smooth(x)
    yield certified(x, grad_x)
    v = parts.hessian @ z - grad_x + z / c
    tried = set()
    if np.any(z) and (yield from finish(np.sign(z))):
        return
    y, grad_y = x, grad_x
    signs, held = None, 0
    while True:
        w = parts.prox_h(y - step * (grad_y + (y - z) / c), step)
        grad_w = parts.grad_smooth(w)
        yield certified(w, grad_w)
        y = w + q * (w - x)
        grad_y = (1.0 + q) * grad_w - q * grad_x
        x, grad_x = w, grad_w
        s = np.sign(w)
        held = held + 1 if np.array_equal(s, signs) else 1
        signs = s
        if held >= 3 and s.tobytes() not in tried and (yield from finish(s)):
            return


def unmemoized_svm_dual(p, z, c):
    """The SVM dual inner solver's candidates with every free-set system and row
    norm computed afresh, for reference.

    Same candidates, in the same order, as ``prox._svm_dual``, which takes the
    row norms from ``SvmParts.squared_norms`` and each free set's rows and
    B_F B_F^T / sigma from ``SvmParts.free_set_system``.
    """
    from proxlab.problem import KINK_BAND, vector_norm

    parts = p.svm
    n, d = parts.features.shape
    ba = parts.signed_rows
    q = np.einsum("ij,ij->i", ba, ba)
    sigma = parts.reg + 1.0 / c
    w0 = z / (sigma * c)
    cap = 1.0 / n

    def certified(x, alpha):
        margins = 1.0 - ba @ x
        t = np.where(margins > KINK_BAND, 1.0,
                     np.where(margins < -KINK_BAND, 0.0, np.clip(n * alpha, 0.0, 1.0)))
        element = -(t @ ba) / n + parts.reg * x + (x - z) / c
        return (x, element, vector_norm(element)), margins

    def free_set_solve(x, alpha):
        free = (alpha > 0.0) & (alpha < cap)
        key = free.tobytes()
        if not 0 < np.count_nonzero(free) <= d or key in tried:
            return None
        tried.add(key)
        rows = ba[free]
        base = x - (rows.T @ alpha[free]) / sigma
        try:
            alpha_free = np.linalg.solve(rows @ rows.T / sigma, 1.0 - rows @ base)
        except np.linalg.LinAlgError:
            return None
        if not np.all((alpha_free >= 0.0) & (alpha_free <= cap)):
            return None
        alpha = alpha.copy()
        alpha[free] = alpha_free
        return w0 + (ba.T @ alpha) / sigma, alpha

    alpha = np.where(1.0 - ba @ z > 0.0, cap, 0.0)
    alpha[q == 0.0] = cap
    x = w0 + (ba.T @ alpha) / sigma
    tried = set()
    while True:
        candidate, margins = certified(x, alpha)
        yield candidate
        finished = free_set_solve(x, alpha)
        if finished is not None:
            yield certified(*finished)[0]
        pinned = ((alpha == 0.0) & (margins < 0.0)) | ((alpha == cap) & (margins > 0.0))
        for i in np.flatnonzero(~pinned & (q > 0.0)):
            margin = 1.0 - float(np.dot(ba[i], x))
            new = min(max(alpha[i] + sigma * margin / q[i], 0.0), cap)
            if new != alpha[i]:
                x = x + ((new - alpha[i]) / sigma) * ba[i]
                alpha[i] = new
        x = w0 + (ba.T @ alpha) / sigma


def svm_kink_terms(parts, x):
    """(base, rows) of the SVM subdifferential at x: every element is
    base - sum_j t_j rows[j] with t in [0, 1]^k, one row per hinge term at its
    kink (margin within KINK_BAND of zero)."""
    from proxlab.problem import KINK_BAND

    ba, n = parts.signed_rows, parts.labels.size
    margins = 1.0 - ba @ x
    base = -ba[margins > KINK_BAND].sum(axis=0) / n + parts.reg * x
    return base, ba[np.abs(margins) <= KINK_BAND] / n


def box_least_squares(base, rows) -> np.ndarray:
    """The vector base - rows^T t of least norm over t in [0, 1]^k, by enumeration.

    Each weight is at 0, at 1 or free.  For every such pattern the free
    weights solve the least-squares problem with the others fixed, and a
    solution inside [0, 1] (clipped to it) is a candidate.  Some minimizer has
    independent free rows (moving along a null direction of the free rows
    keeps the vector and can be stopped at a bound), so its least-squares
    solution is unique and among the candidates; the least candidate is the
    minimum.
    """
    best = None
    for pattern in itertools.product((0.0, 1.0, None), repeat=len(rows)):
        free = [j for j, s in enumerate(pattern) if s is None]
        t = np.array([0.0 if s is None else s for s in pattern])
        if free:
            rest = base - rows.T @ t
            sol = np.linalg.lstsq(rows[free].T, rest, rcond=None)[0]
            if not np.all((sol >= -1e-12) & (sol <= 1.0 + 1e-12)):
                continue
            t[free] = np.clip(sol, 0.0, 1.0)
        r = base - rows.T @ t
        if best is None or r @ r < best @ best:
            best = r
    return best


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def longest_run_below(ratios, threshold: float) -> int:
    best = run = 0
    for r in ratios:
        run = run + 1 if r < threshold else 0
        best = max(best, run)
    return best


def fista_l1(grad, lipschitz: float, modulus: float, lam: float, z, c: float,
             max_iter: int = 200_000, tol: float = 1e-11):
    """Plain constant-momentum FISTA on g(x) + lam ||x||_1 + ||x - z||^2 / (2c).

    ``grad`` is the gradient of g, which is ``lipschitz``-smooth and
    ``modulus``-strongly convex.  Stops once the gradient mapping falls to
    ``tol``, or after ``max_iter`` iterations.
    """
    lip, mu = lipschitz + 1.0 / c, modulus + 1.0 / c
    q = (np.sqrt(lip / mu) - 1.0) / (np.sqrt(lip / mu) + 1.0)
    x = y = np.array(z, dtype=float)
    for _ in range(max_iter):
        v = y - (grad(y) + (y - z) / c) / lip
        w = np.sign(v) * np.maximum(np.abs(v) - lam / lip, 0.0)
        if lip * np.linalg.norm(w - y) <= tol:
            return w
        y, x = w + q * (w - x), w
    return x
