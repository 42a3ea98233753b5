"""Exception types shared across the package."""


class ProxlabError(Exception):
    """Base class for all package errors."""


class DomainError(ProxlabError):
    """Point lies outside the effective domain of the objective."""


class NotAvailable(ProxlabError):
    """An optional oracle (solution set, inner solver, ...) is missing."""


class BadShape(ProxlabError):
    """Inconsistent array dimensions or an infeasible size request."""


class ParseError(ProxlabError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StepTooLarge(ProxlabError):
    """Prox step c violates 1/c > rho for a weakly convex objective."""


class InnerBudgetExhausted(ProxlabError):
    """Inner solver hit its iteration budget before reaching the residual target.

    The best candidate found is attached so callers can inspect it.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class ResolutionFloor(InnerBudgetExhausted):
    """Inner solver reached floating-point resolution short of its residual target."""


class NotSmooth(ProxlabError):
    """Gradient descent requested on a problem without a smoothness constant."""


class NeedsReference(ProxlabError):
    """Operation requires f_star (and usually a solution oracle) to be installed first."""


class CriterionUnverifiable(ProxlabError):
    """Criterion A/B requested outside test mode; they reference the unknown true prox."""


class ConfigError(ProxlabError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
