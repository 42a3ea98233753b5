"""Problem abstraction consumed by every solver and estimator.

A problem is a bundle of oracles: value, one subdifferential element, the
min-norm element, optionally the nearest minimizer, optionally a closed-form
prox.  Values are extended reals: the value oracle returns ``math.inf``
outside the effective domain (IEEE infinity is the tagged "infinite" value;
finite sentinels are never used).  Three of the
oracles may also come in a batch form on an (N, d) array of rows;
``batch_oracle`` calls it, or maps the scalar oracle over the rows.
``default_rng`` is the package's one seeded generator.

All oracles are pure and problems are immutable after construction (frozen
dataclasses; the ``zoo`` builders' arrays are read-only), so they are safe to
share across threads and concurrent runs.  ``CompositeParts`` keeps one
cache: it memoizes the support systems of the composite solver's exact
solves, for one step size at a time.  An entry is a pure function of its key
and its arrays are read-only, so a problem shared by two runs, even on two
threads, only ever sees the systems it would have built itself.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
import types
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InnerBudgetExhausted, ProxlabError

Vector = np.ndarray

# Margin band inside which a hinge term counts as sitting at its kink.
KINK_BAND = 1e-9
# Elements (rows times dimension) per batch-oracle block, per block of the
# estimator's pass (whose projections, offsets and min-norm elements shrink to
# per-row numbers before the next block) and per block of its pair
# differences: a block's temporaries stay about 256 KB whatever the dimension,
# so the estimator's sample is its only (N, d) array, and a 1-d or 2-d grid
# of up to 2^15 or 2^14 points is one oracle call.
BATCH_ELEMENTS = 2 ** 15
# Cap on the active-set passes over the kink weights of one SVM min-norm
# element; an element at a kink still not optimal after them raises
# InnerBudgetExhausted.
MIN_NORM_PASSES = 1000
# Length up to which ``all_finite`` tests entries one by one in Python, which
# is cheaper there than one np.isfinite call: about 0.05 us an entry against
# 2.5 us at any length (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
SHORT_VECTOR = 32
_FLOAT64 = np.dtype(float)


def default_rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed): the one seeded generator of the package.

    Importing numpy.random runs ``from secrets import randbits``, and
    ``secrets`` imports ``hmac``, which loads OpenSSL: about 3.7 MB and 5 ms of
    a fresh process, for a function that numpy calls once during that import,
    to seed its legacy global state.  So when neither ``secrets`` nor
    numpy.random is loaded yet, the first call imports numpy.random against a
    stand-in ``secrets`` whose ``randbits`` is
    ``random.SystemRandom().getrandbits``, which is what ``secrets.randbits``
    is.  The stand-in is in ``sys.modules`` for the length of that one import
    only, so a later ``import secrets`` loads the real module.  A numpy that
    wants more from ``secrets`` raises ImportError there and gets numpy.random
    imported again, normally, by ``np.random``.  Generators, seeds and streams
    are numpy's own.
    """
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
        try:
            import numpy.random
        except ImportError:
            pass
        finally:
            if sys.modules.get("secrets") is stand_in:
                del sys.modules["secrets"]
    return np.random.default_rng(seed)


def all_finite(v: Vector) -> bool:
    """np.isfinite(v).all() of an array, without numpy's call cost on a short vector."""
    if v.ndim == 1 and v.size <= SHORT_VECTOR:
        return all(map(math.isfinite, v.tolist()))
    return bool(np.isfinite(v).all())


def vector_norm(v: Vector) -> float:
    """float(np.linalg.norm(v)) of a 1-d float vector, which is sqrt(v.dot(v)) bitwise,
    without np.linalg.norm's call cost."""
    return math.sqrt(v.dot(v))


def as_point(x) -> Vector:
    """Coerce scalars / lists to a float64 vector and reject non-finite entries."""
    # A 1-d float64 array is what the coercion returns as it is, at 5x its cost.
    v = x if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64 else \
        np.atleast_1d(np.asarray(x, dtype=float))
    if not all_finite(v):
        raise ValueError("point has non-finite coordinates")
    return v


def nearest_zero(lo: float, hi: float, shift: float) -> float:
    """The signed element of [lo, hi] + shift nearest zero: the 1-d certificate.
    NaN when that element depends on a NaN end, which so certifies nothing."""
    lo, hi = lo + shift, hi + shift
    return lo if lo > 0.0 else hi if hi < 0.0 else 0.0 if lo <= 0.0 <= hi else math.nan


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[n], b[n]) for each row n, summed as np.dot sums one pair
    (for d = 1 it is 0 + a*b, so a -0.0 product is +0.0).

    np.linalg.norm(x) is sqrt(np.dot(x, x)), so np.sqrt(row_dots(a, a)) is
    its norm row by row; np.linalg.norm(a, axis=1) and np.einsum sum in
    another order and can differ in the last digit for d > 1.
    """
    if a.shape[1] == 1:  # the matmul's 0 + a*b, without a BLAS call per row
        return a[:, 0] * b[:, 0] + 0.0
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_matvecs(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ r for each row r, one matrix-vector product per row as ``mat @ r``
    computes it (rows @ mat.T is a matrix product and sums in another order)."""
    return np.matmul(mat, rows[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class CompositeParts:
    """Quadratic-plus-l1 structure f = g + h used by the composite inner solver.

    g is least squares plus a quadratic regularizer: its gradient
    ``grad_smooth`` is affine with constant Hessian ``hessian`` (A^T A + m I),
    which lets the inner solver combine gradients instead of evaluating them
    and solve for the minimizer on a fixed signed support.  h is
    ``l1_weight * ||x||_1``.

    ``support_system(c, signs)`` memoizes that support's linear system per
    sign pattern, for the last step size c only: a PPM run meets the same few
    patterns at every step, and building the block costs about a quarter of
    a solve.  The memo is a cache, not state: each system is the block the
    solver would build, read-only, so parts shared by two runs stay safe.
    """

    grad_smooth: Callable[[Vector], Vector]
    hessian: np.ndarray  # (d, d), symmetric positive semidefinite
    l1_weight: float

    @cached_property
    def lipschitz_smooth(self) -> float:
        """Largest eigenvalue of the Hessian, inflated for step-size safety."""
        return float(np.linalg.eigvalsh(self.hessian)[-1]) * (1.0 + 1e-6)

    @cached_property
    def _support_systems(self) -> dict:
        return {}

    def support_system(self, c: float, signs: Vector) -> tuple:
        """(E, H_EE + I/c, l1_weight * s_E) for the support E of the sign pattern
        s, with H_EE the Hessian's block on E: the system of the support solve.
        The memo keeps one step size's systems only, so a c it does not hold
        empties it first, and a changing step size cannot make it grow."""
        memo = self._support_systems
        systems = memo.get(c)
        if systems is None:
            memo.clear()
            systems = memo[c] = {}
        key = signs.tobytes()
        system = systems.get(key)
        if system is None:
            on = np.flatnonzero(signs)
            h_on = self.hessian[np.ix_(on, on)]
            h_on.flat[::on.size + 1] += 1.0 / c
            system = systems[key] = (on, h_on, self.l1_weight * signs[on])
            for a in system:
                a.flags.writeable = False
        return system

    def prox_h(self, v: Vector, t: float) -> Vector:
        """argmin_x h(x) + ||x - v||^2 / (2 t): soft thresholding at t * l1_weight."""
        return np.sign(v) * np.maximum(np.abs(v) - t * self.l1_weight, 0.0)

    def min_norm_h(self, base: Vector, x: Vector) -> Vector:
        """Element s of partial h(x) minimizing ||base + s||: a box clip off the support."""
        lam = self.l1_weight
        return np.where(x == 0.0, np.minimum(np.maximum(-base, -lam), lam), lam * np.sign(x))


@dataclass(frozen=True)
class SvmParts:
    """Hinge-loss structure (1/n) sum max(0, 1 - b_i a_i^T x) + (reg/2)||x||^2.

    The one array held is ``signed_rows`` (read-only as ``zoo`` builds it), row i
    being b_i a_i: the margins are 1 - signed_rows @ x.  Their squared norms are
    cached, read-only.
    """

    signed_rows: np.ndarray  # (n, d)
    reg: float

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """||b_i a_i||^2 of each signed row."""
        squares = np.einsum("ij,ij->i", self.signed_rows, self.signed_rows)
        squares.flags.writeable = False
        return squares

    def min_norm_element(self, x: Vector, shift=0.0) -> Vector:
        """The element of the objective's subdifferential at x, plus ``shift``,
        nearest zero.

        Hinge terms off their kink contribute their gradient.  The weights
        t in [0, 1]^k of the terms at a kink minimize ||base - sum_j t_j row_j||:
        bounded-variable least squares, solved by the active-set method
        (Lawson & Hanson, 1974; Stark & Parker, 1995).  Each pass frees the
        bound weight whose gradient points furthest into the box and solves
        the free weights by least squares, cutting a solution that leaves the
        box back at the first bound met.  It stops when no bound weight's
        gradient points into the box by more than rounding, which is the
        optimality condition, so the element is exact up to rounding.  At a
        kink, raises InnerBudgetExhausted after MIN_NORM_PASSES passes.
        """
        ba, n = self.signed_rows, len(self.signed_rows)
        margins = 1.0 - ba @ x
        base = -ba[margins > KINK_BAND].sum(axis=0) / n + self.reg * x + shift
        rows = ba[np.abs(margins) <= KINK_BAND] / n
        if not rows.size:  # no kink, as off the solution: the gradient, with no pass
            return base
        norms = np.sqrt(row_dots(rows, rows))
        # Rounding of <r, row_j>: every partial sum of r is within ||base|| + sum_j ||row_j||.
        slack = 16 * np.finfo(float).eps * (vector_norm(base) + norms.sum()) * norms
        t, free, r = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool), base
        for _ in range(MIN_NORM_PASSES):
            pull = rows @ r  # minus the gradient of ||r||^2 / 2 in t
            gain = np.where(free, 0.0, np.where(t == 0.0, pull, -pull)) - slack
            if gain.max() <= 0.0:
                return r
            free[np.argmax(gain)] = True
            while free.any():
                trial = t.copy()
                trial[free] = np.linalg.lstsq(rows[free].T, base - rows[~free].T @ t[~free],
                                              rcond=None)[0]
                if np.all((trial >= 0.0) & (trial <= 1.0)):
                    t = trial
                    break
                # Go toward the trial until a free weight meets its bound, and put
                # it there exactly; the weights on a bound leave the free set.
                step = trial - t
                reach = np.divide(np.where(step < 0.0, t, 1.0 - t), np.abs(step),
                                  out=np.full(t.size, np.inf), where=step != 0.0)
                i = np.argmin(reach)
                t = np.clip(t + reach[i] * step, 0.0, 1.0)
                t[i] = round(t[i])
                free &= (t > 0.0) & (t < 1.0)
            r = base - rows.T @ t
        raise InnerBudgetExhausted(f"SVM min-norm element: not optimal after "
                                   f"{MIN_NORM_PASSES} active-set passes (MIN_NORM_PASSES)")


@dataclass(frozen=True)
class ProblemSpec:
    """Oracle bundle describing one optimization problem.

    ``weak_convexity`` is the modulus rho (0 for convex problems);
    ``strong_convexity`` is the modulus m of an explicit (m/2)||x||^2 term,
    recorded so reference solves know when the minimizer is unique.
    ``min_norm_subgradient(x, shift=0.0)`` is required: it returns the element
    of ``partial f(x) + shift`` nearest zero, and every prox certificate and
    estimated slope is read from it.

    The batch oracles are optional and take an (N, d) array of rows:
    ``values`` gives f per row (N,), ``min_norm_subgradients`` the min-norm
    element at shift 0 per row (N, d), and ``project_solutions`` the nearest
    minimizer per row (N, d).  Each must agree with its scalar oracle row by
    row; ``dataclasses.replace`` of a scalar oracle leaves its batch form as
    it was.
    """

    dimension: int
    value: Callable[[Vector], float]
    subgradient: Callable[[Vector], Vector]
    min_norm_subgradient: Callable[..., Vector]
    weak_convexity: float = 0.0
    strong_convexity: float = 0.0
    smoothness: float | None = None
    f_star: float | None = None
    project_solution: Callable[[Vector], Vector] | None = None
    prox_closed_form: Callable[[Vector, float], Vector] | None = None
    # One-sided derivative limits (lo, hi) for 1-d problems; equal when smooth.
    interval_1d: Callable[[float], tuple[float, float]] | None = None
    breakpoints_1d: tuple[float, ...] = ()
    composite: CompositeParts | None = None
    svm: SvmParts | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""
    values: Callable[[np.ndarray], np.ndarray] | None = None
    min_norm_subgradients: Callable[[np.ndarray], np.ndarray] | None = None
    project_solutions: Callable[[np.ndarray], np.ndarray] | None = None


def _row_oracle(p: ProblemSpec, name: str) -> Callable[[Vector], Any]:
    """The scalar oracle behind the batch oracle ``name``."""
    if name == "values":
        return p.value
    if name == "min_norm_subgradients":
        return p.min_norm_subgradient
    return lambda x: as_point(p.project_solution(x))


def batch_oracle(p: ProblemSpec, name: str, xs: np.ndarray) -> np.ndarray:
    """The batch oracle ``name`` at every row of xs.

    ``name`` is "values", "min_norm_subgradients" or "project_solutions".  The
    result is a fresh writable array with one entry (values) or one row per
    row of xs.  The oracle is called on slices of max(1, BATCH_ELEMENTS // d)
    rows and each is written straight into its rows, so no temporary is larger
    than a block; every batch oracle is row-wise, so the blocks do not change
    a bit of the result.  A problem without the batch form gets its scalar
    oracle mapped over the rows instead (min-norm elements at shift 0, with no
    domain check).
    """
    out = np.empty(len(xs)) if name == "values" else np.empty_like(xs)
    batch = getattr(p, name)
    if batch is None:
        row = _row_oracle(p, name)
        for i in range(len(xs)):
            out[i] = row(xs[i])
        return out
    step = max(1, BATCH_ELEMENTS // xs.shape[1])
    for start in range(0, len(xs), step):
        block = slice(start, start + step)
        out[block] = batch(xs[block])
    return out


def min_norm_subgradient(p: ProblemSpec, x, shift=0.0) -> tuple[Vector, float]:
    """(element, norm): the element of partial f(x) + shift nearest zero, and its norm.

    The norm equals dist(-shift, partial f(x)): the slope at shift 0, the prox
    certificate at shift (x - z)/c.  Raises ProxlabError outside the domain.
    """
    x = as_point(x)
    if p.value(x) == math.inf:
        raise ProxlabError(f"value is +inf at {x}")
    g = np.asarray(p.min_norm_subgradient(x, shift=shift), dtype=float)
    # In one dimension |g| is exact where sqrt(g^2) would underflow to 0.
    return g, abs(float(g[0])) if g.size == 1 else vector_norm(g)


def distances_to_solution(p: ProblemSpec, xs: np.ndarray) -> np.ndarray:
    """dist(x, S) of each row x of xs via the solution oracle: one batch
    projection, then the norm of x - proj_S(x) as one np.dot per row."""
    if p.project_solution is None:
        raise ProxlabError("no solution oracle on this problem")
    offset = batch_oracle(p, "project_solutions", xs)
    np.subtract(xs, offset, out=offset)
    return np.sqrt(row_dots(offset, offset))


class Piecewise1D:
    """A 1-d function defined by pieces with explicit breakpoints.

    Each piece is (value, derivative) valid on the open interval between
    neighbouring breakpoints; at a breakpoint the subdifferential is the
    interval hull of the one-sided derivative limits.  Weak convexity forces
    left limit <= right limit at every breakpoint, so the hull is [lo, hi].

    The pieces are called on a float by ``value`` and ``interval`` and on a
    1-d array of points by ``values`` and ``intervals``, so they must be
    ufunc-safe: numpy expressions of x, not ``math`` functions, which raise
    TypeError on an array.  They must also give the same value both ways, or
    a batch oracle built on them disagrees with its scalar oracle: ``x ** n``
    on a float is libm pow but on an array is numpy's own power and can differ
    in the last digit, so write powers as ``np.float_power(x, n)``.
    """

    def __init__(self, breakpoints, pieces):
        # pieces[i] applies on (breakpoints[i-1], breakpoints[i]); one more
        # piece than breakpoints, ordered left to right.
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.pieces = pieces
        self._breaks = np.array(self.breakpoints)
        self._breaks.flags.writeable = False

    # ``value`` and ``interval`` locate x inline: i is the first breakpoint >= x,
    # x lies in piece i unless it is breakpoint i (x may be +-inf, not NaN).

    def value(self, x: float) -> float:
        bps = self.breakpoints
        i = bisect.bisect_left(bps, x)
        # At a breakpoint the pieces agree by continuity; take the right one.
        return float(self.pieces[i + 1 if i < len(bps) and bps[i] == x else i][0](x))

    def interval(self, x: float) -> tuple[float, float]:
        bps = self.breakpoints
        i = bisect.bisect_left(bps, x)
        lo = float(self.pieces[i][1](x))
        hi = float(self.pieces[i + 1][1](x)) if i < len(bps) and bps[i] == x else lo
        if lo > hi:
            lo, hi = hi, lo
        return lo, hi

    # Batch forms on a 1-d array of points: each piece is called once, on the
    # points it covers.

    def _locate_all(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, at breakpoint i) of every point, located as ``value`` and ``interval`` do."""
        i = np.searchsorted(self._breaks, xs, side="left")
        at_break = np.zeros(xs.shape, dtype=bool)
        inside = i < len(self.breakpoints)
        at_break[inside] = self._breaks[i[inside]] == xs[inside]
        return i, at_break

    def _each_piece(self, which: int, piece: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """pieces[piece[n]][which](xs[n]) for every n, one call per piece."""
        out = np.empty(xs.shape)
        for j, fns in enumerate(self.pieces):
            mask = piece == j
            if mask.any():
                out[mask] = fns[which](xs[mask])
        return out

    def values(self, xs: np.ndarray) -> np.ndarray:
        i, at_break = self._locate_all(xs)
        return self._each_piece(0, i + at_break, xs)

    def intervals(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i, at_break = self._locate_all(xs)
        lo = self._each_piece(1, i, xs)
        hi = lo.copy()
        hi[at_break] = self._each_piece(1, i[at_break] + 1, xs[at_break])
        swap = lo > hi
        return np.where(swap, hi, lo), np.where(swap, lo, hi)


def problem_from_1d(pw: Piecewise1D, **kwargs) -> ProblemSpec:
    """Wrap a Piecewise1D into a ProblemSpec with interval-aware oracles.

    The batch oracles ``values`` and ``min_norm_subgradients`` are built from
    ``pw.values`` and ``pw.intervals``, so the pieces must be ufunc-safe and
    give the same value on a float and on an array (see Piecewise1D).
    """

    def scalar(v) -> float:
        return float(np.asarray(v).reshape(-1)[0])

    def value(x):
        return pw.value(scalar(x))

    def min_norm(x, shift=0.0):
        return np.array([nearest_zero(*pw.interval(scalar(x)), scalar(shift))])

    def min_norms(xs):
        # nearest_zero at shift 0, case by case as it takes them.
        lo, hi = pw.intervals(xs[:, 0])
        zero = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, math.nan)
        return np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, zero))[:, None]

    return ProblemSpec(dimension=1, value=value, subgradient=min_norm,
                       min_norm_subgradient=min_norm, interval_1d=pw.interval,
                       breakpoints_1d=pw.breakpoints,
                       values=lambda xs: pw.values(xs[:, 0]),
                       min_norm_subgradients=min_norms, **kwargs)
