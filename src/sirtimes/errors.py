"""Exception types raised by sirtimes.

All package-specific failures derive from :class:`SirTimesError` so callers
can catch one base class. Domain violations additionally derive from
``ValueError`` to behave like ordinary argument checks.
"""

__all__ = [
    "SirTimesError",
    "DomainError",
    "DegenerateBound",
    "NeverReached",
    "IntegrationStall",
    "TimeCapExceeded",
    "QuadratureFailure",
    "StencilOutOfDomain",
]


class SirTimesError(Exception):
    """Base class for all sirtimes failures."""


class DomainError(SirTimesError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateBound(DomainError):
    """A printed bound formula degenerates (denominator below resolution).

    Raised instead of guessing a limit value; occurs for the closed-form
    upper bound on the peak time when x sits within rounding of gamma/beta
    and y is tiny.
    """


class NeverReached(SirTimesError):
    """The requested threshold is never attained along the trajectory.

    With no infection present (I0 = 0) and S0 above gamma/beta, S stays
    constant and never falls to gamma/beta; the peak time is undefined.
    The condition is reported through this exception, never as a numeric
    infinity.
    """


class IntegrationStall(SirTimesError):
    """The adaptive step size collapsed below resolution at time ``t_reached``."""

    def __init__(self, t_reached: float, message: str = ""):
        self.t_reached = t_reached
        super().__init__(message or f"step size underflow at t={t_reached!r}")


class TimeCapExceeded(SirTimesError):
    """Integration passed the a-priori upper bound without the event firing.

    The closed-form bounds guarantee the event occurs before the cap, so this
    signals a numerical breakdown rather than a legitimate outcome.
    """

    def __init__(self, cap: float, t_reached: float, message: str = ""):
        self.cap = cap
        self.t_reached = t_reached
        super().__init__(message or f"no event before the guaranteed cap {cap!r}")


class QuadratureFailure(SirTimesError):
    """The integral route's quadrature could not meet its tolerance.

    Raised where the graded Gauss-Kronrod rule still misses the tolerance
    after halving every panel twice, or where the integrand leaves its valid
    region (I <= 0 at a node). Carries the value and error bound the rule
    reached so callers can inspect how far it got.
    """

    def __init__(self, value: float, err_estimate: float, message: str = ""):
        self.value = value
        self.err_estimate = err_estimate
        super().__init__(
            message
            or f"quadrature did not converge: value={value!r} err={err_estimate!r}"
        )


class StencilOutOfDomain(DomainError):
    """A finite-difference stencil would cross the domain boundary."""
