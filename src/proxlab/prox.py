"""Proximal mapping with residual certificates.

``prox(p, z, c)`` returns the minimizer of ``f(x) + ||x - z||^2 / (2c)``,
either in closed form or through an inner solver, together with an explicit
element of the subproblem subdifferential ``H(x) = partial f(x) + (x - z)/c``
and its norm.  The certificate norm upper-bounds dist(0, H(x)), which is what
the implementable inexactness rules of the outer loop consume.  The composite
and 1-d solvers certify with the element nearest zero, as the problem's
``min_norm_subgradient`` oracle does (the composite solver calls
``CompositeParts.min_norm_h``, the 1-d solver inlines ``nearest_zero``), so
their bound is tight.  The SVM dual solver takes its kink weights from its
dual variables, so its bound need not be: on a 40-point blob set, a candidate
reads 8.6e-2 where the oracle's element reads 3.8e-2.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import InnerBudgetExhausted, ProxlabError, ResolutionFloor
from .problem import KINK_BAND, ProblemSpec, as_point, vector_norm

# accept(candidate, residual_norm) -> bool; lets the outer loop install
# candidate-dependent acceptance (relative inexactness rules).
StopRule = Callable[[np.ndarray, float], bool]


# Iteration budget of every inner solve, read at each call.
MAX_INNER = 100_000


class ProxResult(NamedTuple):
    """A prox step's outcome: a named tuple, so read-only and cheap to build."""

    point: np.ndarray
    residual_element: np.ndarray  # explicit element of H(point)
    residual_norm: float
    inner_iterations: int


def _array(v) -> np.ndarray:
    """A 1-d solver's float as a 1-element array; an array as it is."""
    return np.array([v]) if isinstance(v, float) else v


def _result(x, e, rn: float, it: int) -> ProxResult:
    return ProxResult(_array(x), _array(e), rn, it)


def validate_step(p: ProblemSpec, c: float) -> None:
    """Refuse a prox step c that is not positive and finite, or with 1/c <= rho."""
    if not 0 < c < math.inf:  # NaN fails too
        raise ValueError(f"prox step must be positive and finite, got {c}")
    if p.weak_convexity > 0 and 1.0 / c <= p.weak_convexity:
        raise ProxlabError(
            f"1/c = {1.0 / c:g} must exceed the weak convexity modulus {p.weak_convexity:g}")


def prox(p: ProblemSpec, z, c: float, target: float = 1e-10,
         stop_rule: StopRule | None = None) -> ProxResult:
    """Compute prox_{c,f}(z), exactly or to a certified residual target.

    With a closed form the result is exact (zero is then an element of H at
    the minimizer).  Otherwise the structure-matched inner solver yields
    certified candidates (point, element of H(point), its norm), the start
    point first, and the first candidate ``stop_rule`` accepts (default:
    residual_norm <= target) is returned; its index in that sequence is its
    ``inner_iterations``.  A candidate with a NaN residual certifies nothing,
    and nothing better follows it: the solve raises InnerBudgetExhausted
    there, as it does when MAX_INNER candidates after the start are refused.
    So does an infinite residual (an infinite element, or a norm that
    overflows) after the start; one at the start, the centre z, which the
    solver yields before any work, lets the solver look on.  When the solver
    runs out of candidates it raises ResolutionFloor.  Both
    carry the best candidate and the iterations spent.  The 1-d solver's
    candidates are floats, made arrays only when returned or shown to
    ``stop_rule``; the array shown is the one returned.
    """
    if not target > 0:
        raise ValueError(f"inner residual target must be positive, got {target}")
    z = as_point(z)
    validate_step(p, c)
    if p.prox_closed_form is not None:
        point = as_point(p.prox_closed_form(z, c))
        return ProxResult(point, np.zeros(point.shape), 0.0, 0)
    if p.composite is not None:
        name, candidates = "composite", _composite(p, z, c)
    elif p.svm is not None:
        name, candidates = "svm dual", _svm_dual(p, z, c)
    elif p.dimension == 1 and p.interval_1d is not None:
        name, candidates = "1d", _regula_falsi(p, z, c)
    else:
        raise ProxlabError(f"no inner solver for problem {p.name!r}")
    for it, (x, e, rn) in enumerate(candidates):
        if it == 0 or rn < best[2]:
            best = x, e, rn
        if rn != rn or (rn == math.inf and it):
            raise InnerBudgetExhausted(
                f"{name} inner solver: {'NaN' if rn != rn else 'infinite'} residual "
                f"after {it} iterations", best=_result(*best, it))
        if stop_rule is not None:
            x = _array(x)
        if rn <= target if stop_rule is None else stop_rule(x, rn):
            return _result(x, e, rn, it)
        if it == MAX_INNER:
            raise InnerBudgetExhausted(
                f"{name} inner solver: residual {best[2]:.3e} after {it} iterations",
                best=_result(*best, it))
    raise ResolutionFloor(f"{name} inner solver: residual {best[2]:.3e} at float resolution",
                          best=_result(*best, it))


def _composite(p: ProblemSpec, z, c):
    """Accelerated proximal gradient on F(x) = g(x) + h(x) + ||x - z||^2/(2c),
    finished by exact solves on the signed support.

    The smooth part of F is L-smooth with L = lipschitz_smooth + 1/c, and F
    is mu-strongly convex with mu = 1/c + m, m being the quadratic weight
    declared as ``strong_convexity``.  The momentum is therefore the
    constant (sqrt(kappa) - 1)/(sqrt(kappa) + 1), kappa = L/mu (Nesterov,
    2004, section 2.2).  Warm-started at z.  ``grad_smooth`` is affine, so
    the gradient at the extrapolated point y = w + q(w - x) is
    (1 + q) grad(w) - q grad(x), both already evaluated for the
    certificates, and a candidate costs one ``grad_smooth`` call.

    F is the quadratic x^T H x / 2 - v^T x plus l1_weight * ||x||_1, with
    H = hessian + I/c and v = hessian z - grad(z) + z/c.  The support solve on
    a sign pattern s solves H_EE x_E = v_E - l1_weight s_E on the support E
    of s (the active-set step of Hintermueller, Ito & Kunisch, 2002).  A
    solution with signs s is the next candidate; if its element is also zero
    off E, it is the minimizer of F up to rounding, and when it is refused the
    candidates end.  A solution whose signs flip on part of E is no candidate:
    that part is dropped from s and the system solved again, while the
    pattern left is nonzero and untried (a singular system drops nothing).
    In PPM the center usually has the minimizer's signs, so the candidate
    after the start is the support solve on sign(z), unless z is zero.  After
    it, once the iterates' sign pattern has held for three iterations, it is
    solved unless it was tried already.
    """
    parts = p.composite
    lip = parts.lipschitz_smooth + 1.0 / c
    step = 1.0 / lip
    root_kappa = math.sqrt(lip / (1.0 / c + p.strong_convexity))
    q = (root_kappa - 1.0) / (root_kappa + 1.0)

    def certified(x, grad_x):
        base = grad_x + (x - z) / c
        element = base + parts.min_norm_h(base, x)
        return x, element, vector_norm(element)

    def finish(s):
        # The support solve on s as a candidate; True once it is the minimizer.
        tried.add(s.tobytes())
        w, flipped = _support_solve(parts, v, c, s)
        while w is None:
            s = np.where(flipped, 0.0, s)  # +0.0: patterns are keyed by their bytes
            key = s.tobytes()
            if not s.any() or key in tried:  # nothing flipped leaves s tried
                return False
            tried.add(key)
            w, flipped = _support_solve(parts, v, c, s)
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
        # np.sign gives no -0.0, so equal bytes are equal patterns.
        s = np.sign(w)
        key = s.tobytes()
        held = held + 1 if key == signs else 1
        signs = key
        if held >= 3 and key not in tried and (yield from finish(s)):
            return


def _support_solve(parts, v, c, signs):
    """(x, flipped): x minimizes x^T H x / 2 - v^T x + l1_weight s^T x over the
    support of s, zero elsewhere, when its signs are s; otherwise x is None and
    flipped masks where they are not (nothing, for a singular system)."""
    on, h_on, l1_signs = parts.support_system(c, signs)
    try:
        x_on = np.linalg.solve(h_on, v[on] - l1_signs)
    except np.linalg.LinAlgError:  # singular: repeated or dependent columns
        return None, False
    x = np.zeros_like(v)
    x[on] = x_on
    x_signs = np.sign(x)  # like s, +0.0 off the support
    if x_signs.tobytes() != signs.tobytes():
        return None, x_signs != signs
    return x, False


def _svm_dual(p: ProblemSpec, z, c):
    """Coordinate ascent on the box-constrained dual of the hinge subproblem,
    finished by exact solves on the free set.

    The subproblem min (1/n) sum max(0, 1 - b_i a_i^T x) + (reg/2)||x||^2
    + ||x-z||^2/(2c) is sigma-strongly convex with sigma = reg + 1/c; each
    dual variable alpha_i lives in [0, 1/n] and the primal is recovered as
    x = w0 + (1/sigma) sum alpha_i b_i a_i with w0 = z/(sigma c).  A sweep
    visits only the coordinates that can move: it skips alpha_i = 0 with a
    negative margin and alpha_i = 1/n with a positive one, since the
    projected dual gradient is zero there.  Each sweep gives one candidate.

    After each sweep's candidate, the rows F with 0 < alpha_i < 1/n are the
    free set.  Holding alpha fixed off F, with x_0 its primal point at
    alpha_F = 0, the margins on F vanish where
    (B_F B_F^T / sigma) alpha_F = 1 - B_F x_0 (the free-set system of Hastie,
    Rosset, Tibshirani & Zhu, 2004).  A solution inside [0, 1/n] is the next
    candidate.  Each free set is solved at most once, and not when |F| > d or
    the system is singular.
    """
    parts = p.svm
    ba, q = parts.signed_rows, parts.squared_norms
    n, d = ba.shape
    sigma = parts.reg + 1.0 / c
    w0 = z / (sigma * c)
    cap = 1.0 / n

    def certified(x, alpha):
        # The candidate at x with kink weights from alpha, and the margins at x.
        margins = 1.0 - ba @ x
        t = np.where(margins > KINK_BAND, 1.0,
                     np.where(margins < -KINK_BAND, 0.0, np.clip(n * alpha, 0.0, 1.0)))
        element = -(t @ ba) / n + parts.reg * x + (x - z) / c
        return (x, element, vector_norm(element)), margins

    def free_set_solve(x, alpha):
        # (primal point, alpha) with alpha's free set re-solved, or None.
        free = (alpha > 0.0) & (alpha < cap)
        key = free.tobytes()
        if not 0 < np.count_nonzero(free) <= d or key in tried:
            return None
        tried.add(key)
        rows = ba[free]
        base = x - (rows.T @ alpha[free]) / sigma
        try:
            alpha_free = np.linalg.solve(rows @ rows.T / sigma, 1.0 - rows @ base)
        except np.linalg.LinAlgError:  # singular: repeated or dependent rows
            return None
        if not np.all((alpha_free >= 0.0) & (alpha_free <= cap)):
            return None
        alpha = alpha.copy()
        alpha[free] = alpha_free
        return w0 + (ba.T @ alpha) / sigma, alpha

    # Warm start: hinge activity pattern at the prox center.
    alpha = np.where(1.0 - ba @ z > 0.0, cap, 0.0)
    alpha[q == 0.0] = cap  # zero rows contribute nothing; keep t_i valid
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
        x = w0 + (ba.T @ alpha) / sigma  # refresh against incremental drift


def _regula_falsi(p: ProblemSpec, z, c):
    """Safeguarded regula falsi on the monotone subdifferential of a 1-d subproblem.

    The subproblem derivative interval at x is [lo, hi] + (x - z)/c; the
    minimizer is the unique point whose interval contains zero (1/c > rho
    makes the subproblem strongly convex).  The bracket walk only finds a
    sign change: its points are not candidates.  A breakpoint whose interval
    contains zero is a candidate, because the pointwise residual jumps
    across a kink minimizer.  Such a breakpoint is the minimizer, so only
    the breakpoints between the walk's last point whose element is nonzero
    with the start's sign and its end are tested, after the walk: the
    bracket, unless the walk met an element of exactly zero, which in
    floating point can hold on neighbouring floats too.  Inside the bracket
    the trial point is the secant root of the end elements, with the
    Illinois modification (Dowell & Jarratt, 1971): an end kept twice in a
    row has its element halved.  Every third trial, and whenever the secant
    root is not strictly inside the bracket, the trial is the midpoint, so
    the bracket at least halves every three evaluations.  The candidates end
    when it shrinks to adjacent floats, or when both ends have an element of
    exactly zero, where the secant root would divide 0 by 0.
    """
    z0 = float(z[0])
    interval = p.interval_1d

    def element(x):
        # Positive when the minimizer lies left of x, zero at the minimizer:
        # problem.nearest_zero(*interval(x), (x - z0) / c), inlined.
        lo, hi = interval(x)
        shift = (x - z0) / c
        lo, hi = lo + shift, hi + shift
        return lo if lo > 0.0 else hi if hi < 0.0 else 0.0 if lo <= 0.0 <= hi else math.nan

    e_z = element(z0)
    yield z0, e_z, abs(e_z)

    # Bracket the minimizer: walk from z in the descent direction, doubling
    # the stride, until the element changes sign.  ``behind`` is the last
    # point whose element is nonzero with the start's sign (none: -side inf).
    side = -1.0 if e_z > 0.0 else 1.0
    stride = side * max(1.0, abs(z0))
    behind = z0 if side * e_z < 0.0 else -side * math.inf
    near, far, e_near = z0, z0 + stride, e_z
    e_far = element(far)
    while not side * e_far > 0.0:
        if math.isinf(far):  # no sign change among the floats
            return
        if side * e_far < 0.0:
            behind = far
        stride *= 2.0
        near, far, e_near = far, far + stride, e_far
        e_far = element(far)
    # The element is monotone, so every point where it is zero lies between
    # behind and far.
    lo, hi = sorted((behind, far))
    for bp in p.breakpoints_1d:
        if lo <= bp <= hi and element(bp) == 0.0:
            yield bp, 0.0, 0.0
    # The ends' elements: e_a <= 0 <= e_b.  Both can be zero: the walk can end
    # past a point of zero element, and a trial can land on another one.
    (a, e_a), (b, e_b) = sorted([(near, e_near), (far, e_far)])

    kept = None
    for trial in itertools.count(1):
        mid = 0.5 * (a + b)
        if not a < mid < b or e_a == e_b:  # adjacent floats, or both elements zero
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
        yield x, e, abs(e)
