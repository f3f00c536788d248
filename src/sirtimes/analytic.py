"""Exact integral representations, closed-form bounds, and asymptotics for
the two critical times.

Along the orbit through (x, y), time runs as dt = -dS/(beta*S*I), so in s =
ln(S/x) the times are integrals of 1/(beta*I(s)) over s:

    u(x, y) = integral from s* to 0,  v(x, y) = integral from ln(rho/x) to 0

where s* = ln(a/x) and the anchor a <= rho is where I falls to mu. I is
written relative to a reference point (S0, I0) on the orbit at s0:

    I = I0 - S0*expm1(s - s0) + rho*(s - s0)

which is exact at s0, so that I keeps its digits where it is small against
x + y (psi's form rho*ln S - S + psi loses them). u takes its piece from
the anchor, reference (a, mu), up to ln(rho/x), and the start-relative
piece, reference (x, y), on to 0; v is the start-relative piece alone.
Below S_TAIL = rho*2**-53, e^s is below the rounding of rho and I is linear
in s, so u's far tail from the anchor up to ln(S_TAIL/x) is ln(I/mu)/gamma
in closed form, and the piece above it starts from that reference point.

Each piece is integrated by GK15 panels on a fixed mesh
(:func:`sirtimes.kernels._graded_gk`): the integrand is smooth apart from a
boundary layer at an end where I is small, of width I/|rho - S| there, and
the edges run geometrically from each such end to the midpoint; every panel
is halved, at most twice, where the summed estimate misses the tolerance.
The grid's twin (:mod:`sirtimes.batch`) places the same mesh and halves it
in a driver of its own. Each panel's estimate comes from null rules on its
15 values (Berntsen & Espelid, ACM TOMS 17, 1991), and is sharp enough
that the first pass nearly always meets the tolerance. err_estimate adds
the rounding the route makes: u = 2**-53 of each panel's value and of each
partial sum, the far tail's logs, and the rounding of the limits, ln(rho/x)
for v (:func:`_v_limit_err`) and the anchor offset for u
(:func:`_u_pieces`), each times the integrand at the limit.

The anchor offset s* solves y - mu - x*expm1(s) + rho*s = 0
(:func:`sirtimes.kernels._anchor_offset`), from the closed form of the
Kermack-McKendrick final-size relation through the principal branch W0 of
the Lambert W function (:func:`sirtimes.kernels._deficit_root`), whose
branch point, W0 = -1, is psi's minimum over the threshold line, at a =
rho. :func:`solve_anchor` reports the same s* as ln a = ln x + s*.
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

# quadrature controls: absolute and relative tolerance
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-12

_U = kernels._U


@dataclass(frozen=True)
class AnchorResult:
    """Root a of g(a) = mu in (0, rho], with its log and defect.

    ``log_a`` is ln(x) + s*, s* = ln(a/x) the anchor offset that the
    integral route integrates from (:func:`sirtimes.kernels._anchor_offset`).
    ``a`` is x*e^s* (e^log_a where e^s* is subnormal), and underflows to
    0.0 for deep anchors; ``log_a`` is always finite and is the faithful
    representation. ``residual`` is |psi(a, mu) - psi(x, y)|.
    """

    a: float
    log_a: float
    residual: float


def solve_anchor(params: ModelParams, x: float, y: float) -> AnchorResult:
    """Anchor susceptible level for the orbit through (x, y): the unique
    z <= rho at which the infected count equals mu.

    Solved for the offset s* = ln(a/x), the root of y - mu - x*expm1(s) +
    rho*s = 0 on s <= min(0, ln(rho/x)), in the closed form of the
    Kermack-McKendrick final-size relation through the principal branch of
    the Lambert W function (Corless et al., Adv. Comput. Math. 5, 1996;
    Pakes, IMA J. Appl. Math. 80, 2015): the offset the integral route
    integrates from, so that both report one anchor.

    Requires x > 0 and y >= mu. Raises DomainError where the deficit y - mu
    - (rho - x) + rho*ln(rho/x) overflows.
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
    s_rho = _log_ratio(rho, x)
    _check_deficit(params, x, y, s_rho)
    s = kernels._anchor_offset(rho, params.mu, x, y, s_rho)
    log_a = math.log(x) + s
    # x*e^s is within two roundings of a, but an e^s below the normal range
    # (s < -708.4) keeps too few bits; e^log_a is then off by |log_a| times
    # log_a's relative rounding
    a = x * math.exp(s) if s > -708.0 else math.exp(log_a)
    residual = abs(a + params.mu - rho * log_a - psi(params, x, y))
    return AnchorResult(a, log_a, residual)


def _check_deficit(params, x, y, s_rho):
    """DomainError where the anchor's deficit y - mu - (rho - x) + rho*s_rho
    overflows, which leaves the offset undefined (NaN)."""
    if not math.isfinite(y - params.mu - (params.rho - x) + params.rho * s_rho):
        raise DomainError(
            "the anchor's deficit y - mu - (rho - x) + rho*ln(rho/x) overflows"
            f" at x={x!r}, y={y!r}"
        )


def _log_ratio(rho, x, ops=kernels._FLOATS):
    """ln(rho/x) for x > 0: -log1p((x - rho)/rho) within a factor 2 of rho,
    where v's lower end must keep its relative digits, else a difference of
    logs, which cannot overflow."""
    near = (x < 2.0 * rho) & (x > 0.5 * rho)
    return ops.pick(near, -ops.log1p(ops.pick(near, (x - rho) / rho, 0.0)),
                    math.log(rho) - ops.log(x))


# the far tail ends at ln(S_TAIL/x), this far below the peak's ln(rho/x)
_TAIL_DEPTH = 53.0 * math.log(2.0)


def _top(params, x, y, s_rho, ops=kernels._FLOATS):
    """The integrand 1/(beta*I) at s = min(s_rho, 0), where v starts and u's
    two pieces meet (the peak, or x itself), and I's condition there: its
    terms x*|expm1(s)| + rho*|s| over I, which is how far the terms'
    rounding, rho's own included, grows in I toward that end."""
    s = ops.low(s_rho, 0.0)
    i = kernels._orbit_i(s, params.rho, x, y, ops.expm1)
    return 1.0 / params.beta / i, (x * abs(ops.expm1(s)) + params.rho * abs(s)) / i


def _rho_rounding(params):
    """|rho - gamma/beta|/rho, exactly: 0 where the quotient is a float."""
    (a, b), (c, d), (e, f) = (v.as_integer_ratio() for v in (params.rho, params.beta, params.gamma))
    return abs(a * c * f - e * b * d) / (a * c * f)


def _v_limit_err(params, x, y, s_rho, ops=kernels._FLOATS):
    """The error that v takes from its limit s_rho = ln(rho/x) as
    :func:`_log_ratio` rounds it, rho's own rounding included: the shift
    of the limit times the integrand there. Returns it with I's condition
    at the limit (:func:`_top`)."""
    rho = params.rho
    near = (x < 2.0 * rho) & (x > 0.5 * rho)
    far = abs(math.log(rho)) + abs(ops.log(x)) + abs(s_rho)
    ds = _rho_rounding(params) + _U * ops.pick(near, 2.0 * abs(s_rho), far)
    f, kappa = _top(params, x, y, s_rho, ops)
    return ds * f, kappa


def _u_pieces(params, x, y, s_rho, ops=kernels._FLOATS):
    """u's far tail, and the reference point (s_ref, i_ref) and length
    sig_hi of its piece from the anchor, at x > 0, y >= mu with s_rho =
    ln(rho/x): the piece starts at s0 = min(0, max(s*, ln(S_TAIL/x))) and
    ends at min(s_rho, 0). The tail is 0 where s0 is the anchor, which is
    then the reference (a, mu). Returns (tail, s_ref, i_ref, sig_hi, err,
    kappa), kappa I's condition where the pieces meet (:func:`_top`).

    err is the error that the offset s*, sig_hi and the tail take from
    rounding. A shift of s* moves the orbit that the piece integrates, and u
    by the integrand at the piece's top times the shift; s0's and sig_hi's
    own rounding add theirs, and the tail's logs theirs."""
    rho, mu = params.rho, params.mu
    s_star = kernels._anchor_offset(rho, mu, x, y, s_rho, ops)
    s0 = ops.low(ops.high(s_star, s_rho - _TAIL_DEPTH), 0.0)
    depth = s0 - s_star
    s_ref = x * ops.exp(s0)
    i_ref = mu + (rho * depth + s_ref * ops.expm1(-depth))
    log_i, log_mu = ops.log(i_ref), math.log(mu)
    tail = (log_i - log_mu) / params.gamma
    sig_hi = ops.low(s_rho, 0.0) - s0
    a = x * ops.exp(s_star)
    # the rounding of the offset equation's terms y - mu, x*expm1(s*) and
    # rho*s*, over the slope, or the spread sqrt(2*res/rho) of a double
    # root; plus the least subnormal, so that floats do not divide by 0
    res = _U * ((y - mu) + (x - a) + rho * abs(s_star))
    slope = ops.high(rho - a, ops.sqrt(0.5 * res * rho)) + 5e-324
    ds = res / slope + _U * (abs(sig_hi) + abs(s0))
    f, kappa = _top(params, x, y, s_rho, ops)
    err = ds * f + (depth > 0.0) * (2.0 * _U * (abs(log_i) + abs(log_mu)) / params.gamma)
    return tail, s_ref, i_ref, sig_hi, err, kappa


def _run_quads(params, value, err, kappa, *pieces):
    """*value* plus the quadratures over the pieces (lo, hi, s_ref, i_ref),
    and *err* plus their errors and the rounding of each addition, at most
    u*|value| (u the unit roundoff), and u*kappa times the last piece, for
    the rounding of I's terms on it, kappa their condition at its lower end
    (:func:`_top`). Raises QuadratureFailure, carrying the sums, where a
    piece fails (the status codes rise with the failure's weight)."""
    worst = kernels.QUAD_OK
    for lo, hi, s_ref, i_ref in pieces:
        status, v, e = kernels._graded_gk(
            lo, hi, params.beta, params.rho, s_ref, i_ref, QUAD_ABS_TOL, QUAD_REL_TOL
        )
        value += v
        err, worst = err + e + _U * abs(value), max(worst, status)
    if worst == kernels.QUAD_BADFUN:
        raise QuadratureFailure(value, err, "integrand left its valid region (I <= 0 at a node)")
    if worst == kernels.QUAD_NOCONV:
        raise QuadratureFailure(value, err)
    return value, err + _U * kappa * abs(v)


def u_integral(params: ModelParams, x: float, y: float) -> CriticalTimeResult:
    """Threshold hitting time by the exact representation integral.

    Raises DomainError unless x and y are finite and nonnegative. u is 0
    (BoundaryZero) for y < mu, and for y == mu with x <= rho. At x = 0 it
    has the closed form ln(y/mu)/gamma (ExactX0). For y == mu with x > rho
    it is the positive continuation, where :func:`hitting_time_u` gives 0:
    the orbit rises above the threshold before it returns to it. Raises
    DomainError where the anchor's deficit overflows (see
    :func:`solve_anchor`), and QuadratureFailure where the quadrature fails.
    """
    x, y = _check_counts(x, y)
    rho = params.rho
    if y < params.mu or (y == params.mu and x <= rho):
        return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    if x == 0.0:
        return CriticalTimeResult(exact_u_at_x0(params, y), Method.EXACT_X0, 0.0)
    s_rho = _log_ratio(rho, x)
    _check_deficit(params, x, y, s_rho)
    tail, s_ref, i_ref, sig_hi, err, kappa = _u_pieces(params, x, y, s_rho)
    value, err = _run_quads(params, tail, err, kappa, (0.0, sig_hi, s_ref, i_ref), (s_rho, 0.0, x, y))
    return CriticalTimeResult(max(value, 0.0), Method.INTEGRAL, err)


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
    s_rho = _log_ratio(params.rho, x)
    value, err = _run_quads(params, 0.0, *_v_limit_err(params, x, y, s_rho), (s_rho, 0.0, x, y))
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
