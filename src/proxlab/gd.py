"""Gradient descent with the secant/dominance step rule and its contraction factors.

With step t = mu / L^2 the iterates contract by omega_1 = sqrt(1 - mu^2/L^2)
in distance and the cost gaps by omega_2 = (L^3 - 2 mu L beta + mu^2 beta)/L^3,
where mu is the restricted secant constant (a problem's ``mu_r``) and beta
the gradient-dominance constant (``mu_p / 2``) of the smooth objective.  Both
are the step-dependent factors sqrt(1 - 2 t mu + t^2 L^2) and
1 + (-2t + L t^2) beta at that t, which lies in (0, 2/L) since mu <= L.
``checks.verify_gd_rates`` replays both against a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProxlabError
from .ppm import IterationTrace, iterate
from .problem import ProblemSpec

_REL = 1e-12


@dataclass(frozen=True)
class GDParams:
    """Smoothness / growth constants; the step is t = mu / L^2.

    Feasibility of the constants is validated: mu <= L always, and
    beta <= L^3 / (2 mu L - mu^2), otherwise the cost factor would be
    negative while gaps are nonnegative.
    """

    lipschitz: float
    mu: float
    beta: float

    def __post_init__(self):
        if self.lipschitz is None:
            raise ProxlabError("gradient descent needs a smoothness constant L; "
                               "the problem has none")
        if not (self.lipschitz > 0 and self.mu > 0 and self.beta > 0):  # NaN too
            raise ValueError(f"constants must be positive, got L={self.lipschitz:g}, "
                             f"mu={self.mu:g}, beta={self.beta:g}")
        if self.mu > self.lipschitz * (1.0 + _REL):
            raise ValueError(f"mu={self.mu:g} cannot exceed L={self.lipschitz:g}")
        beta_cap = self.lipschitz ** 3 / (2 * self.mu * self.lipschitz - self.mu ** 2)
        if self.beta > beta_cap * (1.0 + _REL):
            raise ValueError(f"beta={self.beta:g} exceeds its cap {beta_cap:g}")
        if self.step_size == 0.0:
            raise ValueError(f"step mu/L^2 = {self.mu:g}/{self.lipschitz:g}^2 underflows to 0")

    @property
    def step_size(self) -> float:
        return self.mu / self.lipschitz ** 2

    @property
    def omega_dist(self) -> float:
        t = self.step_size
        return math.sqrt(max(0.0, 1.0 - 2.0 * t * self.mu + t * t * self.lipschitz ** 2))

    @property
    def omega_cost(self) -> float:
        t = self.step_size
        return 1.0 + (-2.0 * t + self.lipschitz * t * t) * self.beta


def run_gd(p: ProblemSpec, x0, params: GDParams, iters: int = 50) -> IterationTrace:
    """x_{k+1} = x_k - t grad f(x_k); the step column of the trace carries t.

    Stops at ``run_ppm``'s thresholds: a gap or a gradient norm
    ||x_{k+1} - x_k||/t of at most 1e-10, else after ``iters`` steps."""
    if p.smoothness is None:
        raise ProxlabError(f"problem {p.name!r} has no smoothness constant")

    def step(k, x, t):
        return x - t * np.asarray(p.subgradient(x), dtype=float), None, None, None, None

    return iterate(p, x0, params.step_size, iters, step, 1e-10, 1e-10)
