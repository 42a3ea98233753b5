"""Exception types shared across the package.

A value the package refuses raises ValueError.  Every other failure raises
ProxlabError: a point outside the domain, a missing reference or oracle,
malformed data.  Its two subclasses are the inner-solve outcomes that the
outer loop turns into the ``inner_budget`` and ``resolution`` stop reasons.
"""


class ProxlabError(Exception):
    """A call the package cannot carry out on the problem or data it was given."""


class InnerBudgetExhausted(ProxlabError):
    """Inner solver hit its iteration budget before reaching the residual target.

    The best candidate found is attached so callers can inspect it.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class ResolutionFloor(InnerBudgetExhausted):
    """Inner solver reached floating-point resolution short of its residual target."""
