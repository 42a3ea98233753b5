"""Independent numerical oracles used to derive expected values.

These deliberately avoid the package's solvers: golden-section search,
dense / refined grid minimization, sign bisection, central differences,
plain accelerated proximal gradient and the pairwise running diameter.
Expected values asserted in the tests were computed with these and frozen.
"""

from __future__ import annotations

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
