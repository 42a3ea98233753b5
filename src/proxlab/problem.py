"""Problem abstraction consumed by every solver and estimator.

A problem is a bundle of oracles: value, one subdifferential element,
optionally the exact min-norm element, optionally the nearest minimizer,
optionally a closed-form prox.  Values are extended reals: the value oracle
returns ``math.inf`` outside the effective domain (IEEE infinity is the
tagged "infinite" value; finite sentinels are never used).

All oracles are pure and problems are immutable after construction, so they
are safe to share across threads and concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .errors import DomainError, NotAvailable

Vector = np.ndarray

# Margin band inside which a hinge term counts as sitting at its kink.
KINK_BAND = 1e-9


def as_point(x) -> Vector:
    """Coerce scalars / lists to a float64 vector and reject non-finite entries."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(v).all():
        raise ValueError("point has non-finite coordinates")
    return v


def nearest_zero(lo: float, hi: float, shift: float) -> float:
    """The signed element of [lo, hi] + shift nearest zero: the 1-d certificate."""
    return min(max(0.0, lo + shift), hi + shift)


@dataclass(frozen=True)
class CompositeParts:
    """Quadratic-plus-l1 structure f = g + h used by the composite inner solver.

    g is least squares plus a quadratic regularizer: its gradient
    ``grad_smooth`` is affine with constant Hessian ``hessian`` (A^T A + m I),
    which lets the inner solver combine gradients instead of evaluating them
    and solve for the minimizer on a fixed signed support.  h is
    ``l1_weight * ||x||_1``.
    """

    grad_smooth: Callable[[Vector], Vector]
    hessian: np.ndarray  # (d, d), symmetric positive semidefinite
    l1_weight: float

    @cached_property
    def lipschitz_smooth(self) -> float:
        """Largest eigenvalue of the Hessian, inflated for step-size safety."""
        return float(np.linalg.eigvalsh(self.hessian)[-1]) * (1.0 + 1e-6)

    def prox_h(self, v: Vector, t: float) -> Vector:
        """argmin_x h(x) + ||x - v||^2 / (2 t): soft thresholding at t * l1_weight."""
        return np.sign(v) * np.maximum(np.abs(v) - t * self.l1_weight, 0.0)

    def min_norm_h(self, base: Vector, x: Vector) -> Vector:
        """Element s of partial h(x) minimizing ||base + s||: a box clip off the support."""
        lam = self.l1_weight
        return np.where(x == 0.0, np.minimum(np.maximum(-base, -lam), lam), lam * np.sign(x))


@dataclass(frozen=True)
class SvmParts:
    """Hinge-loss structure (1/n) sum max(0, 1 - b_i a_i^T x) + (reg/2)||x||^2."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {-1, +1}
    reg: float

    @cached_property
    def signed_rows(self) -> np.ndarray:
        """Row i is b_i a_i, so the margins are 1 - signed_rows @ x."""
        return self.labels[:, None] * self.features

    def min_norm_element(self, x: Vector, shift=0.0) -> Vector:
        """Element of the objective's subdifferential at x, plus ``shift``, of small norm.

        Hinge terms off their kink contribute their gradient; the weights
        t_i in [0, 1] of the terms at a kink are chosen by a few greedy
        coordinate passes on ||element||.  The norm upper-bounds the distance
        from -shift to the subdifferential.
        """
        ba, n = self.signed_rows, self.labels.size
        margins = 1.0 - ba @ x
        r = -ba[margins > KINK_BAND].sum(axis=0) / n + self.reg * x + shift
        kinks = np.flatnonzero(np.abs(margins) <= KINK_BAND)
        t = np.zeros(kinks.size)
        for _ in range(4):
            for j, i in enumerate(kinks):
                row = ba[i] / n
                sq = float(np.dot(row, row))
                if sq == 0.0:
                    continue
                r_wo = r + t[j] * row  # r = base - sum_j t_j * row_j
                t[j] = min(max(float(np.dot(r_wo, row)) / sq, 0.0), 1.0)
                r = r_wo - t[j] * row
        return r


@dataclass(frozen=True)
class ProblemSpec:
    """Oracle bundle describing one optimization problem.

    ``weak_convexity`` is the modulus rho (0 for convex problems);
    ``strong_convexity`` is the modulus m of an explicit (m/2)||x||^2 term,
    recorded so reference solves know when the minimizer is unique.
    ``min_norm_subgradient(x, shift=0.0)`` returns the element of
    ``partial f(x) + shift`` nearest zero; ``min_norm_exact`` says whether that
    is the true minimum-norm element or only a constructed upper bound.
    """

    dimension: int
    value: Callable[[Vector], float]
    subgradient: Callable[[Vector], Vector]
    min_norm_subgradient: Callable[..., Vector] | None = None
    min_norm_exact: bool = True
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

    def with_reference(self, f_star: float, project=None, **meta) -> "ProblemSpec":
        """Copy of this problem with f_star (and optionally a solution oracle) installed."""
        md = dict(self.metadata)
        md.update(meta)
        return replace(self, f_star=f_star,
                       project_solution=project if project is not None else self.project_solution,
                       metadata=md)


@dataclass(frozen=True)
class SubgradientInfo:
    element: Vector
    norm: float


def min_norm_subgradient(p: ProblemSpec, x, shift=0.0) -> SubgradientInfo:
    """Element of partial f(x) + shift nearest zero, or the best constructed one.

    The norm of the exact element equals dist(-shift, partial f(x)): the slope
    at shift 0, the prox certificate at shift (x - z)/c.  The element is exact
    when p has a min-norm oracle and ``min_norm_exact``.  Raises DomainError
    outside the domain.
    """
    x = as_point(x)
    if p.value(x) == math.inf:
        raise DomainError(f"value is +inf at {x}")
    if p.min_norm_subgradient is None:
        g = np.asarray(p.subgradient(x), dtype=float) + shift
    else:
        g = np.asarray(p.min_norm_subgradient(x, shift=shift), dtype=float)
    # In one dimension |g| is exact where sqrt(g^2) would underflow to 0.
    norm = abs(float(g[0])) if g.size == 1 else float(np.linalg.norm(g))
    return SubgradientInfo(g, norm)


def distance_to_solution(p: ProblemSpec, x) -> float:
    """dist(x, S) via the solution oracle; zero iff x is a minimizer (to 1e-12)."""
    x = as_point(x)
    if p.project_solution is None:
        raise NotAvailable("no solution oracle on this problem")
    return float(np.linalg.norm(x - as_point(p.project_solution(x))))


class Piecewise1D:
    """A 1-d function defined by pieces with explicit breakpoints.

    Each piece is (value, derivative) valid on the open interval between
    neighbouring breakpoints; at a breakpoint the subdifferential is the
    interval hull of the one-sided derivative limits.  Weak convexity forces
    left limit <= right limit at every breakpoint, so the hull is [lo, hi].
    """

    def __init__(self, breakpoints, pieces):
        # pieces[i] applies on (breakpoints[i-1], breakpoints[i]); one more
        # piece than breakpoints, ordered left to right.
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        self.breakpoints = [float(b) for b in breakpoints]
        self.pieces = pieces

    def _locate(self, x: float) -> tuple[int, bool]:
        """(i, True) when x is breakpoint i, else (i, False) with x in piece i."""
        for i, b in enumerate(self.breakpoints):
            if x <= b:
                return i, x == b
        return len(self.breakpoints), False

    def value(self, x: float) -> float:
        i, at_break = self._locate(x)
        # At a breakpoint the pieces agree by continuity; take the right one.
        return float(self.pieces[i + 1 if at_break else i][0](x))

    def interval(self, x: float) -> tuple[float, float]:
        i, at_break = self._locate(x)
        lo = float(self.pieces[i][1](x))
        hi = float(self.pieces[i + 1][1](x)) if at_break else lo
        if lo > hi:
            lo, hi = hi, lo
        return lo, hi


def problem_from_1d(pw: Piecewise1D, **kwargs) -> ProblemSpec:
    """Wrap a Piecewise1D into a ProblemSpec with interval-aware oracles."""

    def scalar(v) -> float:
        return float(np.asarray(v).reshape(-1)[0])

    def value(x):
        return pw.value(scalar(x))

    def interval(x):
        return pw.interval(float(x))

    def min_norm(x, shift=0.0):
        return np.array([nearest_zero(*interval(scalar(x)), scalar(shift))])

    return ProblemSpec(dimension=1, value=value, subgradient=min_norm,
                       min_norm_subgradient=min_norm, interval_1d=interval,
                       breakpoints_1d=tuple(pw.breakpoints), **kwargs)
