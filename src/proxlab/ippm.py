"""Inexact proximal point iteration under the four inexactness rules.

The primed rules bound the certificate residual and are what production runs
use.  The unprimed rules reference the unknown exact prox, so they exist only
in test mode: each step computes a tight reference prox p_k and falls short of
it, back along the step toward x_k, by the largest radius every requested
budget admits.  The step draws nothing, so a test-mode run is a function of its
inputs; in 1-d it moves away from the solution set, in d > 1 it is not yet the
worst admissible step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import ppm
from .errors import ProxlabError
from .ppm import IterationTrace, StepSchedule, iterate
from .problem import ProblemSpec, min_norm_subgradient, vector_norm
from .prox import prox, validate_step

PRIMED = ("A'", "B'")
KINDS = ("A", "B") + PRIMED


@dataclass(frozen=True)
class InexactCriterion:
    """One inexactness rule with its geometric tolerance sequence.

    A / A': absolute budgets eps_k = eps0 * gamma^k (summable);
    B / B': relative budgets delta_k = delta0 * gamma^k.
    """

    kind: str
    eps0: float = 0.1
    delta0: float = 0.5
    gamma: float = 0.7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}; "
                             f"pick one of {', '.join(KINDS)}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1) for summability")
        for name in ("eps0", "delta0"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{name} = {value} is not a nonnegative tolerance scale")

    @property
    def implementable(self) -> bool:
        return self.kind in PRIMED

    @property
    def absolute(self) -> bool:
        return self.kind in ("A", "A'")

    def eps(self, k: int) -> float:
        return self.eps0 * self.gamma ** k

    def delta(self, k: int) -> float:
        return self.delta0 * self.gamma ** k


def run_ippm(p: ProblemSpec, x0, sched: StepSchedule,
             crit: InexactCriterion | Sequence[InexactCriterion],
             max_iter: int = 500, test_mode: bool = False,
             stop_gap: float = 1e-10, stop_residual: float = 1e-10) -> IterationTrace:
    """Inexact proximal point run under one or several criteria.

    Primed criteria drive the inner solver's stopping rule directly.  The
    unprimed ones require ``test_mode`` (they compare against the true prox);
    the step then falls short of a tight reference prox by the largest radius
    every requested budget admits.  Neither draws random numbers.
    """
    crits = (crit,) if isinstance(crit, InexactCriterion) else tuple(crit)
    if not crits:
        raise ValueError("need at least one criterion")
    unprimed = [c for c in crits if not c.implementable]
    if unprimed and not test_mode:
        raise ProxlabError(
            f"criteria {[c.kind for c in unprimed]} reference the exact prox; "
            "enable test_mode")
    if unprimed and any(c.implementable for c in crits):
        raise ValueError("cannot mix primed and unprimed criteria in one run")
    validate_step(p, sched.c)

    def step(k, x, c):
        eps_k = min((cr.eps(k) for cr in crits if cr.absolute), default=None)
        delta_k = min((cr.delta(k) for cr in crits if not cr.absolute), default=None)
        if unprimed:
            x_next, resid, ref_point = _test_mode_step(p, x, c, eps_k, delta_k)
        else:
            x_next, resid = _primed_step(p, x, c, eps_k, delta_k)
            ref_point = None
        return x_next, resid, eps_k, delta_k, ref_point

    return iterate(p, x0, sched.c, max_iter, step, stop_gap, stop_residual)


def _primed_step(p, x, c, eps_k, delta_k):
    """One step satisfying A' and/or B' via the inner solver's stop rule."""
    target = eps_k / c if eps_k is not None else math.inf

    def accept(w, rn):
        if rn > target:
            return False
        if delta_k is not None:
            # Relative rule couples the candidate to its own bound; zero
            # movement is acceptable only with a zero residual.
            return rn <= (delta_k / c) * vector_norm(w - x)
        return True

    result = prox(p, x, c, stop_rule=accept)
    return result.point, result.residual_norm


def _test_mode_step(p, x, c, eps_k, delta_k):
    """Fall short of a tight reference prox p_k, solved to ppm.REFERENCE_TARGET,
    back toward x_k by the largest radius every requested budget admits."""
    p_k = prox(p, x, c, ppm.REFERENCE_TARGET).point
    back = x - p_k
    length = vector_norm(back)
    radius = eps_k if eps_k is not None else math.inf
    if delta_k is not None:
        # On this segment ||x_{k+1} - x_k|| = ||p_k - x_k|| - r, so the B rule
        # r <= delta ||x_{k+1} - x_k|| holds exactly up to this radius.
        radius = min(radius, delta_k * length / (1.0 + delta_k))
    x_next = p_k
    if 0.0 < radius < math.inf and 0.0 < length < math.inf:
        unit = back / length
        for t in range(54):  # recheck the budgets on the rounded point
            x_next = p_k + radius * unit
            gap = vector_norm(x_next - p_k)
            if (eps_k is None or gap <= eps_k) and (
                    delta_k is None or gap <= delta_k * vector_norm(x_next - x)):
                break
            radius *= 1.0 - 2.0 ** (t - 52)  # an ulp first; try 53 lands on p_k
    _, resid = min_norm_subgradient(p, x_next, shift=(x_next - x) / c)
    return x_next, resid, p_k
