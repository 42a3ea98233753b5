"""Proximal mapping with residual certificates.

``prox(p, z, c)`` returns the minimizer of ``f(x) + ||x - z||^2 / (2c)``,
either in closed form or through an inner solver, together with an explicit
element of the subproblem subdifferential ``H(x) = partial f(x) + (x - z)/c``
and its norm.  The certificate norm upper-bounds dist(0, H(x)), which is what
the implementable inexactness rules of the outer loop consume; wherever the
subdifferential has box or interval structure the bound is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InnerBudgetExhausted, NotAvailable, ResolutionFloor, StepTooLarge
from .problem import KINK_BAND, ProblemSpec, as_point, min_norm_subgradient, nearest_zero

# accept(candidate, residual_norm) -> bool; lets the outer loop install
# candidate-dependent acceptance (relative inexactness rules).
StopRule = Callable[[np.ndarray, float], bool]


@dataclass(frozen=True)
class InnerTolerance:
    target_residual: float = 1e-10
    max_inner_iterations: int = 10_000

    def __post_init__(self):
        if self.target_residual <= 0:
            raise ValueError("target_residual must be positive")


@dataclass(frozen=True)
class ProxResult:
    point: np.ndarray
    residual_element: np.ndarray  # explicit element of H(point)
    residual_norm: float
    inner_iterations: int
    exact: bool


def _validate_step(p: ProblemSpec, c: float) -> None:
    if c <= 0:
        raise ValueError(f"prox step must be positive, got {c}")
    if p.weak_convexity > 0 and 1.0 / c <= p.weak_convexity:
        raise StepTooLarge(
            f"1/c = {1.0 / c:g} must exceed the weak convexity modulus {p.weak_convexity:g}")


def residual_certificate(p: ProblemSpec, x, z, c: float):
    """Constructed element of H(x) = partial f(x) + (x - z)/c and its norm.

    The min-norm oracle at shift (x - z)/c: exact (equals dist(0, H(x))) for
    problems exposing interval or separable subdifferential structure; an
    upper bound otherwise.
    """
    x, z = as_point(x), as_point(z)
    info = min_norm_subgradient(p, x, shift=(x - z) / c)
    return info.element, info.norm


def prox(p: ProblemSpec, z, c: float, tol: InnerTolerance = InnerTolerance(),
         stop_rule: StopRule | None = None) -> ProxResult:
    """Compute prox_{c,f}(z), exactly or to a certified residual target.

    With a closed form the result is exact (zero is then an element of H at
    the minimizer).  Otherwise the structure-matched inner solver runs until
    ``stop_rule`` accepts (default: residual_norm <= tol.target_residual) and
    the certified point is returned.
    """
    z = as_point(z)
    _validate_step(p, c)
    if p.prox_closed_form is not None:
        point = as_point(p.prox_closed_form(z, c))
        return ProxResult(point, np.zeros_like(point), 0.0, 0, True)
    if stop_rule is None:
        stop_rule = lambda w, rn: rn <= tol.target_residual
    if p.composite is not None:
        return _solve_composite(p, z, c, tol, stop_rule)
    if p.svm is not None:
        return _solve_svm_dual(p, z, c, tol, stop_rule)
    if p.dimension == 1 and p.interval_1d is not None:
        return _solve_1d(p, z, c, tol, stop_rule)
    raise NotAvailable(f"no inner solver for problem {p.name!r}")


def _solve_composite(p: ProblemSpec, z, c, tol, stop_rule) -> ProxResult:
    """Accelerated proximal gradient on F(x) = g(x) + h(x) + ||x - z||^2/(2c),
    finished by exact solves on the signed support.

    The smooth part of F is L-smooth with L = lipschitz_smooth + 1/c, and F
    is mu-strongly convex with mu = 1/c + m, m being the quadratic weight
    declared as ``strong_convexity``.  The momentum is therefore the
    constant (sqrt(kappa) - 1)/(sqrt(kappa) + 1), kappa = L/mu (Nesterov,
    2004, section 2.2).  Warm-started at z.  ``grad_smooth`` is affine, so
    the gradient at the extrapolated point y = w + q(w - x) is
    (1 + q) grad(w) - q grad(x), both already evaluated for the
    certificates, and an iteration costs one ``grad_smooth`` call.

    F is the quadratic x^T H x / 2 - v^T x plus l1_weight * ||x||_1, with
    H = hessian + I/c and v = hessian z - grad(z) + z/c.  Once the iterates'
    sign pattern s has held for three iterations, and s was not tried yet,
    the next iteration solves H_EE x_E = v_E - l1_weight s_E on the support
    E of s (the active-set step of Hintermueller, Ito & Kunisch, 2002).  A
    solution with signs s is certified like an iterate; if its element is
    also zero off E, it is the minimizer of F up to rounding, and when the
    stop rule still refuses it the solver raises ResolutionFloor.
    """
    parts = p.composite
    lip = parts.lipschitz_smooth + 1.0 / c
    step = 1.0 / lip
    root_kappa = math.sqrt(lip / (1.0 / c + p.strong_convexity))
    q = (root_kappa - 1.0) / (root_kappa + 1.0)

    def certified(x, grad_x):
        base = grad_x + (x - z) / c
        element = base + parts.min_norm_h(base, x)
        return element, float(np.linalg.norm(element))

    x = z.copy()
    grad_x = parts.grad_smooth(x)
    element, rn = certified(x, grad_x)
    if stop_rule(x, rn):
        return ProxResult(x, element, rn, 0, False)
    v = parts.hessian @ z - grad_x + z / c
    y, grad_y = x, grad_x
    best = (x, element, rn)
    signs, held, tried, trial = None, 0, set(), None
    for it in range(1, tol.max_inner_iterations + 1):
        if trial is None:
            w = parts.prox_h(y - step * (grad_y + (y - z) / c), step)
        else:
            w = _support_solve(parts, v, c, trial)
            if w is None:
                trial = None
                continue
        grad_w = parts.grad_smooth(w)
        element, rn = certified(w, grad_w)
        if rn < best[2]:
            best = (w, element, rn)
        if stop_rule(w, rn):
            return ProxResult(w, element, rn, it, False)
        if trial is not None:
            if not element[trial == 0.0].any():
                raise ResolutionFloor(
                    f"composite inner solver: residual {best[2]:.3e} at the exact support "
                    "solve", best=ProxResult(best[0], best[1], best[2], it, False))
            trial = None
            continue
        y = w + q * (w - x)
        grad_y = (1.0 + q) * grad_w - q * grad_x
        x, grad_x = w, grad_w
        s = np.sign(w)
        held = held + 1 if np.array_equal(s, signs) else 1
        signs, key = s, s.tobytes()
        if held >= 3 and key not in tried:
            tried.add(key)
            trial = s
    raise InnerBudgetExhausted(
        f"composite inner solver: residual {best[2]:.3e} after {tol.max_inner_iterations} iterations",
        best=ProxResult(best[0], best[1], best[2], tol.max_inner_iterations, False))


def _support_solve(parts, v, c, signs):
    """Minimizer of x^T H x / 2 - v^T x + l1_weight s^T x over the support of s,
    zero elsewhere, or None when its signs are not s."""
    on = np.flatnonzero(signs)
    h_on = parts.hessian[np.ix_(on, on)]
    h_on[np.diag_indices_from(h_on)] += 1.0 / c
    x_on = np.linalg.solve(h_on, v[on] - parts.l1_weight * signs[on])
    if not np.array_equal(np.sign(x_on), signs[on]):
        return None
    x = np.zeros_like(v)
    x[on] = x_on
    return x


def _solve_svm_dual(p: ProblemSpec, z, c, tol, stop_rule) -> ProxResult:
    """Coordinate ascent on the box-constrained dual of the hinge subproblem.

    The subproblem min (1/n) sum max(0, 1 - b_i a_i^T x) + (reg/2)||x||^2
    + ||x-z||^2/(2c) is sigma-strongly convex with sigma = reg + 1/c; each
    dual variable alpha_i lives in [0, 1/n] and the primal is recovered as
    x = w0 + (1/sigma) sum alpha_i b_i a_i with w0 = z/(sigma c).  A sweep
    visits only the coordinates that can move: it skips alpha_i = 0 with a
    negative margin and alpha_i = 1/n with a positive one, since the
    projected dual gradient is zero there.
    """
    parts = p.svm
    n = parts.labels.size
    ba = parts.signed_rows
    q = np.einsum("ij,ij->i", ba, ba)
    sigma = parts.reg + 1.0 / c
    w0 = z / (sigma * c)
    cap = 1.0 / n

    # Warm start: hinge activity pattern at the prox center.
    alpha = np.where(1.0 - ba @ z > 0.0, cap, 0.0)
    alpha[q == 0.0] = cap  # zero rows contribute nothing; keep t_i valid
    x = w0 + (ba.T @ alpha) / sigma

    def certified(x_cur):
        margins = 1.0 - ba @ x_cur
        t = np.where(margins > KINK_BAND, 1.0,
                     np.where(margins < -KINK_BAND, 0.0, np.clip(n * alpha, 0.0, 1.0)))
        element = -(t @ ba) / n + parts.reg * x_cur + (x_cur - z) / c
        return margins, element, float(np.linalg.norm(element))

    margins, element, rn = certified(x)
    if stop_rule(x, rn):
        return ProxResult(x, element, rn, 0, False)
    best = (x.copy(), element, rn)
    for sweep in range(1, tol.max_inner_iterations + 1):
        pinned = ((alpha == 0.0) & (margins < 0.0)) | ((alpha == cap) & (margins > 0.0))
        for i in np.flatnonzero(~pinned & (q > 0.0)):
            margin = 1.0 - float(np.dot(ba[i], x))
            new = min(max(alpha[i] + sigma * margin / q[i], 0.0), cap)
            if new != alpha[i]:
                x = x + ((new - alpha[i]) / sigma) * ba[i]
                alpha[i] = new
        x = w0 + (ba.T @ alpha) / sigma  # refresh against incremental drift
        margins, element, rn = certified(x)
        if rn < best[2]:
            best = (x.copy(), element, rn)
        if stop_rule(x, rn):
            return ProxResult(x, element, rn, sweep, False)
    raise InnerBudgetExhausted(
        f"svm dual inner solver: residual {best[2]:.3e} after {tol.max_inner_iterations} sweeps",
        best=ProxResult(best[0], best[1], best[2], tol.max_inner_iterations, False))


def _solve_1d(p: ProblemSpec, z, c, tol, stop_rule) -> ProxResult:
    """Safeguarded regula falsi on the monotone subdifferential of a 1-d subproblem.

    The subproblem derivative interval at x is [lo, hi] + (x - z)/c; the
    minimizer is the unique point whose interval contains zero (1/c > rho
    makes the subproblem strongly convex).  Breakpoints are tested directly
    because the pointwise residual jumps across a kink minimizer.  Inside
    the bracket the trial point is the secant root of the end elements, with
    the Illinois modification (Dowell & Jarratt, 1971): an end kept twice in
    a row has its element halved.  Every third trial, and whenever the
    secant root is not strictly inside the bracket, the trial is the
    midpoint, so the bracket at least halves every three evaluations.  Once
    it shrinks to adjacent floats short of the stop rule, it raises
    ResolutionFloor.
    """
    z0 = float(z[0])

    def element(x):
        # Positive when the minimizer lies left of x, zero at the minimizer.
        return nearest_zero(*p.interval_1d(x), (x - z0) / c)

    def result(x, e, iters):
        return ProxResult(np.array([x]), np.array([e]), abs(e), iters, False)

    e_z = element(z0)
    if stop_rule(np.array([z0]), abs(e_z)):
        return result(z0, e_z, 0)
    for bp in p.breakpoints_1d:
        if element(bp) == 0.0:
            return result(bp, 0.0, 0)

    # Bracket the minimizer: walk from z in the descent direction, doubling
    # the stride, until the element changes sign.
    span = max(1.0, abs(z0))
    side = -1.0 if e_z > 0.0 else 1.0
    near, far, e_near = z0, z0 + side * span, e_z
    for it in range(tol.max_inner_iterations):
        e_far = element(far)
        if side * e_far > 0.0:
            break
        near, far, e_near = far, far + side * span * 2.0 ** (it + 1), e_far
    else:
        raise InnerBudgetExhausted("1d bracket expansion failed", best=result(z0, e_z, 0))
    # The ends' elements: e_a <= 0 <= e_b, never both zero, which the Illinois
    # rule keeps (it halves one end's element just after setting the other's).
    (a, e_a), (b, e_b) = sorted([(near, e_near), (far, e_far)])

    best, kept = (z0, e_z), None
    for it in range(1, tol.max_inner_iterations + 1):
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent floats
            raise ResolutionFloor(f"1d inner solver: residual {abs(best[1]):.3e} at float "
                                  "resolution", best=result(*best, it - 1))
        x = a - e_a * (b - a) / (e_b - e_a)
        if it % 3 == 0 or not a < x < b:
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
        if abs(e) < abs(best[1]):
            best = (x, e)
        if e == 0.0 or stop_rule(np.array([x]), abs(e)):
            return result(x, e, it)
    raise InnerBudgetExhausted(
        f"1d inner solver: residual {abs(best[1]):.3e} after {tol.max_inner_iterations} iterations",
        best=result(*best, tol.max_inner_iterations))
