"""Exact integral representations, closed-form bounds, and asymptotics for
the two critical times.

Along the orbit through (x, y) the infected count as a function of the
susceptible level z is g(z) = rho*ln(z) - z + psi(x, y). Writing time as an
integral over z gives

    u(x, y) = integral from a(x, y) to x of dz / (beta * z * g(z))
    v(x, y) = integral from rho to x of the same integrand

where the anchor a(x, y) is the unique root of g(a) = mu in (0, rho]. The
integrand is finite at both endpoints (denominator beta*a*mu at z=a and
beta*x*y at z=x) because g is strictly concave with g > mu between them.

The anchor has a closed form, the Kermack-McKendrick final-size relation in
its Lambert-W form: with c = (psi - mu)/rho + ln(rho),

    ln a = ln(rho) - c - W0(-e^-c)

on the principal branch W0 (Corless, Gonnet, Hare, Jeffrey & Knuth, "On the
Lambert W function", Adv. Comput. Math. 5, 1996; Pakes, "Lambert's W meets
Kermack-McKendrick epidemics", IMA J. Appl. Math. 80, 2015). Its branch
point, W0 = -1, is psi's minimum over the threshold line, at a = rho; psi
within a rounding slack of 1e-9 * max(1, |psi|) at or below that minimum
gives a = rho. :func:`sirtimes.kernels._anchor_log` evaluates it.

For y near mu the anchor underflows toward 0; the left part of the u
integral is therefore evaluated in L = ln z, where the substitution cancels
the 1/z factor and the anchor stays representable.
"""

import math
from dataclasses import dataclass

from . import kernels
from .core import CriticalTimeResult, Method, ModelParams, exact_u_at_x0, psi
from .core import _check_counts, _require_finite, _v_edge
from .errors import DegenerateBound, DomainError, QuadratureFailure

__all__ = [
    "AnchorResult",
    "BoundsU",
    "BoundsV",
    "solve_anchor",
    "u_integral",
    "v_integral",
    "bounds_u",
    "bounds_v",
    "asymptotic_u",
    "asymptotic_v",
]

# quadrature controls; abs/rel tolerance and the subdivision budget
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-12
QUAD_MAX_INTERVALS = 2048

# below this anchor value the left piece of the u integral runs in log space
SPLIT_Z = 1e-8


@dataclass(frozen=True)
class AnchorResult:
    """Root a of g(a) = mu in (0, rho], with its log and defect.

    ``log_a`` is ln(rho) - c - W0(-e^-c), c = (psi - mu)/rho + ln(rho), on
    the principal branch of the Lambert W function (Corless et al. 1996;
    Pakes 2015; the module docstring gives the full references); it is
    rho's log at the branch point W0 = -1, where psi is at its minimum or
    within 1e-9 * max(1, |psi|) below it.
    ``a`` underflows to 0.0 for deep anchors; ``log_a`` is always finite and
    is the faithful representation. ``residual`` is |psi(a, mu) - psi(x, y)|.
    """

    a: float
    log_a: float
    residual: float


def solve_anchor(params: ModelParams, x: float, y: float) -> AnchorResult:
    """Anchor susceptible level for the orbit through (x, y): the unique
    z <= rho at which the infected count equals mu.

    Computed in closed form, as the Kermack-McKendrick final-size relation
    ln a = ln(rho) - c - W0(-e^-c) with c = (psi - mu)/rho + ln(rho) and W0
    the principal branch of the Lambert W function (Corless et al., Adv.
    Comput. Math. 5, 1996; Pakes, IMA J. Appl. Math. 80, 2015). Where
    psi(x, y) is at its minimum over the threshold line (the branch point
    W0 = -1), or within 1e-9 * max(1, |psi|) below it, the anchor is rho.

    Requires x > 0 and y >= mu.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0:
        raise DomainError(f"anchor requires x > 0, got x={x!r}")
    if y < params.mu:
        raise DomainError(f"anchor requires y >= mu, got y={y!r} mu={params.mu!r}")
    rho = params.rho
    if y == params.mu and x <= rho:
        # (x, y) already sits on the level g = mu at or left of the peak
        return AnchorResult(x, math.log(x), 0.0)
    psiv, log_a = _anchor(params, x, y)
    a = math.exp(log_a)
    residual = abs(a + params.mu - rho * log_a - psiv)
    return AnchorResult(a, log_a, residual)


def _anchor(params, x, y):
    """(psi(x, y), ln a) of the orbit through (x, y). Raises DomainError
    where psi lies below its minimum over the threshold line, so that the
    level set g = mu has no root."""
    psiv = psi(params, x, y)
    ok, log_a = kernels._anchor_log(params.rho, params.mu, psiv)
    if not ok:
        raise DomainError("level set does not meet the threshold line; inputs violate y >= mu")
    return psiv, log_a


def _u_pieces(params, x, y, log_a, log_x, ops=kernels._FLOATS):
    """The u integral's pieces from the anchor a to x: in L = ln z on
    [ln a, l_end], the part below SPLIT_Z, and in z on [z_lo, x], the rest.
    Returns (l_end, z_lo, lost). Either piece can be empty; lost marks where
    both are, the anchor rounding to x, while u's lower bound ln(y/mu)/gamma
    (I' >= -gamma*I) exceeds the absolute tolerance a time of 0 would meet."""
    split_l = math.log(SPLIT_Z)
    l_end = ops.pick(log_a < split_l, ops.low(split_l, log_x), log_a)
    z_lo = ops.exp(l_end)
    lower = ops.log(y / params.mu) / params.gamma
    return l_end, z_lo, (l_end <= log_a) & (z_lo >= x) & (lower > QUAD_ABS_TOL)


def _run_quad(kind, lo, hi, beta, rho, psiv):
    status, value, err = kernels._adaptive_gk(
        kind, lo, hi, beta, rho, psiv, QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_MAX_INTERVALS
    )
    if status == kernels.QUAD_BADFUN:
        raise QuadratureFailure(
            value, err, "integrand left its valid region (g <= 0 at a node)"
        )
    if status == kernels.QUAD_NOCONV:
        raise QuadratureFailure(value, err)
    return value, err


def u_integral(params: ModelParams, x: float, y: float) -> CriticalTimeResult:
    """Threshold hitting time by the exact representation integral.

    Raises DomainError unless x and y are finite and nonnegative. u is 0
    (BoundaryZero) for y < mu, and for y == mu with x <= rho. At x = 0 it
    has the closed form ln(y/mu)/gamma (ExactX0). For y == mu with x > rho
    it is the positive continuation, where :func:`hitting_time_u` gives 0:
    the orbit rises above the threshold before it returns to it. Raises
    QuadratureFailure where the quadrature fails, and where psi(x, y) cannot
    tell y from mu, so that the anchor rounds to x, while ln(y/mu)/gamma,
    a lower bound on u, exceeds 1e-12.
    """
    x, y = _check_counts(x, y)
    rho = params.rho
    if y < params.mu or (y == params.mu and x <= rho):
        return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    if x == 0.0:
        return CriticalTimeResult(exact_u_at_x0(params, y), Method.EXACT_X0, 0.0)
    psiv, log_a = _anchor(params, x, y)
    l_end, z_lo, lost = _u_pieces(params, x, y, log_a, math.log(x))
    if lost:
        raise QuadratureFailure(0.0, 0.0, "the anchor rounds to x, where u >= ln(y/mu)/gamma > 0")
    v1, e1 = _run_quad(1, log_a, l_end, params.beta, rho, psiv)
    v2, e2 = _run_quad(0, z_lo, x, params.beta, rho, psiv)
    return CriticalTimeResult(max(v1 + v2, 0.0), Method.INTEGRAL, e1 + e2)


def v_integral(params: ModelParams, x: float, y: float) -> CriticalTimeResult:
    """Peak time by the exact representation integral.

    Raises DomainError unless x and y are finite and nonnegative. The edge
    rules are v's, which :func:`hitting_time_v` shares: 0 (BoundaryZero) for
    x <= rho, and NeverReached for x > rho with y == 0.
    """
    x, y = _check_counts(x, y)
    edge = _v_edge(params, x, y)
    if edge is not None:
        return edge
    rho = params.rho
    value, err = _run_quad(0, rho, x, params.beta, rho, psi(params, x, y))
    return CriticalTimeResult(max(value, 0.0), Method.INTEGRAL, err)


def _quotient(num, den, what):
    """num/den, or DomainError where den, a product of rates and counts,
    underflows to 0 and the formula has no value."""
    if den == 0.0:
        raise DomainError(f"{what}: its denominator underflows to 0")
    return num / den


# The bound and asymptotic formulas below run on floats, and on numpy arrays
# given ops=batch._ARRAYS. A quotient whose denominator can underflow to 0
# comes back as its two parts: the scalar functions raise through _quotient
# there, and the array twins leave such nodes to them.

# the least subnormal, in place of a mass ratio that underflows to 0
_TINY = 5e-324

# bounds_v's tangent-bound denominator at or below this is degenerate
_DEGENERATE_DEN = 1e-12


def _bounds_u_terms(params, x, y, ops=kernels._FLOATS):
    """At x >= 0 and y >= mu: bounds_u's lower bound, and the numerator and
    denominator of its crude upper bound. A mass ratio that underflows to 0
    takes the log of _TINY (-744.4) instead, which the clamp at 0 meets
    too: its true log lies lower still."""
    ratio = ops.high((x + y) / (params.rho + params.mu), _TINY)
    lower = ops.high(0.0, ops.log(ratio) / params.gamma)
    return lower, x + y, params.gamma * params.mu


def _subcritical_u(params, x, y, ops=kernels._FLOATS):
    """bounds_u's subcritical upper bound, defined where beta*x < gamma."""
    return ops.log(y / params.mu) / (params.gamma - params.beta * x)


def _bounds_v_args(params, x, y, ops=kernels._FLOATS):
    """At x > rho and y > 0: ln(x/rho), the tangent bound's denominator and
    log argument, and the chord bound's log argument."""
    rho = params.rho
    dlog = ops.log(x) - math.log(rho)
    upper_den = params.beta * (y + x * (1.0 - rho * dlog / (x - rho)))
    upper_arg = x - rho + y - rho * dlog
    lower_arg = x - rho + y + rho * (rho / x - 1.0)
    return dlog, upper_den, upper_arg, lower_arg


def _bounds_v_terms(params, x, y, dlog, upper_den, upper_arg, lower_arg, ops=kernels._FLOATS):
    """bounds_v's tangent (upper) bound, the numerator and denominator of
    its chord (lower) bound, and the denominator of its crude bound, whose
    numerator is dlog; where upper_den > _DEGENERATE_DEN and both log
    arguments are positive."""
    log = ops.log
    log_y = log(y)
    upper = (dlog - log_y + log(upper_arg)) / upper_den
    lower_num = dlog - log_y + log(lower_arg)
    return upper, lower_num, params.beta * (x - params.rho + y), params.beta * y


def _asymptotic_u(params, x, y, ops=kernels._FLOATS):
    """asymptotic_u's formula, where (x + y)/mu > 0."""
    return ops.log((x + y) / params.mu) / params.gamma


def _asymptotic_v(params, x, y, ops=kernels._FLOATS):
    """The numerator and denominator of asymptotic_v's formula at x >= rho
    and y > 0."""
    rho = params.rho
    return ops.log((x / rho) * ((x - rho) / y + 1.0)), params.beta * (x - rho + y)


@dataclass(frozen=True)
class BoundsU:
    """Closed-form bounds on the threshold hitting time.

    ``subcritical_upper`` exists only when beta*x < gamma (the infection
    decays monotonically); it is None otherwise.
    """

    lower: float
    crude_upper: float
    subcritical_upper: float | None


def bounds_u(params: ModelParams, x: float, y: float) -> BoundsU:
    """Bounds lower <= u <= min(crude_upper, subcritical_upper).

    lower = max(0, ln((x+y)/(rho+mu))/gamma): total mass decays no faster
    than rate gamma, and the clamp covers starting mass already below
    rho + mu. crude_upper = (x+y)/(gamma*mu): while I > mu, mass decreases
    at rate gamma*I > gamma*mu. subcritical_upper = ln(y/mu)/(gamma - beta*x)
    exists for beta*x < gamma only: I then decays at least at rate
    gamma - beta*x because S never grows. Raises DomainError where gamma*mu
    underflows to 0.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x < 0.0 or y < params.mu:
        raise DomainError(f"bounds_u requires x >= 0 and y >= mu, got ({x!r}, {y!r})")
    lower, crude_num, crude_den = _bounds_u_terms(params, x, y)
    crude_upper = _quotient(crude_num, crude_den, "crude upper bound on u")
    subcritical_upper = None
    if params.beta * x < params.gamma:
        subcritical_upper = _subcritical_u(params, x, y)
    return BoundsU(lower, crude_upper, subcritical_upper)


@dataclass(frozen=True)
class BoundsV:
    """Closed-form bounds on the peak time: lower <= v <= min(upper, crude_upper)."""

    lower: float
    upper: float
    crude_upper: float


def bounds_v(params: ModelParams, x: float, y: float) -> BoundsV:
    """Sandwich for the peak time from the chord/tangent squeeze of g.

    Replacing g by its chord (from below) and its tangent at x (from above)
    over [rho, x] makes the time integral elementary in both directions. The
    crude bound integrates 1/(beta*z*y) instead (I >= y until the peak).
    Requires x > rho and y > 0. Raises DegenerateBound when the chord
    denominator falls below resolution (x within rounding of rho with tiny
    y); raises DomainError if a log argument degenerates or a denominator
    underflows to 0.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    rho = params.rho
    if x <= rho:
        raise DomainError(f"bounds_v requires x > rho={rho!r}, got x={x!r}")
    if y <= 0.0:
        raise DomainError(f"bounds_v requires y > 0, got y={y!r}")
    args = _bounds_v_args(params, x, y)
    dlog, upper_den, upper_arg, lower_arg = args
    if upper_den <= _DEGENERATE_DEN:
        raise DegenerateBound(
            f"tangent-bound denominator {upper_den!r} below resolution at "
            f"x={x!r}, y={y!r}"
        )
    if upper_arg <= 0.0:
        raise DomainError(
            f"tangent-bound log argument degenerates ({upper_arg!r}) at "
            f"x={x!r}, y={y!r}"
        )
    if lower_arg <= 0.0:
        raise DomainError(
            f"chord-bound log argument degenerates ({lower_arg!r}) at "
            f"x={x!r}, y={y!r}"
        )
    upper, lower_num, lower_den, crude_den = _bounds_v_terms(params, x, y, *args)
    lower = _quotient(lower_num, lower_den, "chord bound on v")
    crude_upper = _quotient(dlog, crude_den, "crude upper bound on v")
    return BoundsV(lower, upper, crude_upper)


def asymptotic_u(params: ModelParams, x: float, y: float) -> float:
    """Leading-order threshold time for large total mass:
    (1/gamma) * ln((x + y)/mu). Requires x >= 0 and x + y > 0; raises
    DomainError where (x + y)/mu underflows to 0."""
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x < 0.0 or x + y <= 0.0:
        raise DomainError(f"asymptotic_u requires x >= 0, x + y > 0, got ({x!r}, {y!r})")
    if (x + y) / params.mu == 0.0:
        raise DomainError(f"asymptotic_u: (x + y)/mu underflows to 0 at ({x!r}, {y!r})")
    return _asymptotic_u(params, x, y)


def asymptotic_v(params: ModelParams, x: float, y: float) -> float:
    """Leading-order peak time for large mass:

        ln[(x/rho) * ((x - rho)/y + 1)] / (beta * (x - rho + y))

    Requires x >= rho and y > 0 (0 at x = rho). Raises DomainError where
    the denominator underflows to 0.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    rho = params.rho
    if x < rho:
        raise DomainError(f"asymptotic_v requires x >= rho={rho!r}, got x={x!r}")
    if y <= 0.0:
        raise DomainError(f"asymptotic_v requires y > 0, got y={y!r}")
    return _quotient(*_asymptotic_v(params, x, y), "asymptotic_v")
