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

For y near mu the anchor underflows toward 0; the left part of the u
integral is therefore evaluated in L = ln z, where the substitution cancels
the 1/z factor and the anchor stays representable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import CriticalTimeResult, Method, ModelParams, _require_finite, psi
from .errors import DegenerateBound, DomainError, QuadratureFailure

__all__ = [
    "AnchorResult",
    "BoundsU",
    "BoundsV",
    "solve_anchor",
    "u_integral",
    "v_integral",
    "u_integral_batch",
    "v_integral_batch",
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

    ``a`` underflows to 0.0 for deep anchors; ``log_a`` is always finite and
    is the faithful representation. ``residual`` is |psi(a, mu) - psi(x, y)|.
    """

    a: float
    log_a: float
    residual: float


def solve_anchor(params: ModelParams, x: float, y: float) -> AnchorResult:
    """Anchor susceptible level for the orbit through (x, y): the unique
    z <= rho at which the infected count equals mu.

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
    psiv = psi(params, x, y)
    ok, log_a = kernels._anchor_log(rho, params.mu, psiv)
    if not ok:
        raise DomainError(
            "level set does not meet the threshold line; inputs violate y >= mu"
        )
    a = math.exp(log_a)
    residual = abs(a + params.mu - rho * log_a - psiv)
    return AnchorResult(a, log_a, residual)


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

    Requires x > 0 and y >= mu. For y = mu the value is 0 when x <= rho and
    the positive smooth continuation when x > rho (the orbit rises above the
    threshold before returning to it).
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0:
        raise DomainError(f"u_integral requires x > 0, got x={x!r}")
    if y < params.mu:
        raise DomainError(f"u_integral requires y >= mu, got y={y!r}")
    rho = params.rho
    if y == params.mu and x <= rho:
        return CriticalTimeResult(0.0, Method.INTEGRAL, 0.0)
    psiv = psi(params, x, y)
    ok, log_a = kernels._anchor_log(rho, params.mu, psiv)
    if not ok:
        raise DomainError("no anchor root; inputs violate y >= mu")
    beta = params.beta
    total = 0.0
    err = 0.0
    split_l = math.log(SPLIT_Z)
    if log_a < split_l:
        # left piece in log space, right piece (if any) in z space
        ls = min(split_l, math.log(x))
        v1, e1 = _run_quad(1, log_a, ls, beta, rho, psiv)
        total += v1
        err += e1
        z_lo = math.exp(ls)
    else:
        z_lo = math.exp(log_a)
    if z_lo < x:
        v2, e2 = _run_quad(0, z_lo, x, beta, rho, psiv)
        total += v2
        err += e2
    return CriticalTimeResult(max(total, 0.0), Method.INTEGRAL, err)


def v_integral(params: ModelParams, x: float, y: float) -> CriticalTimeResult:
    """Peak time by the exact representation integral.

    Requires x >= rho and y > 0; the value is 0 at x = rho.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    rho = params.rho
    if x < rho:
        raise DomainError(f"v_integral requires x >= rho={rho!r}, got x={x!r}")
    if y <= 0.0:
        raise DomainError(f"v_integral requires y > 0, got y={y!r}")
    if x == rho:
        return CriticalTimeResult(0.0, Method.INTEGRAL, 0.0)
    psiv = psi(params, x, y)
    value, err = _run_quad(0, rho, x, params.beta, rho, psiv)
    return CriticalTimeResult(max(value, 0.0), Method.INTEGRAL, err)


def _batch_quad(good, need, kind, lo, hi, beta, rho, psiv, total, err):
    """Add the batched quadrature over [lo, hi] to *total* and *err* at the
    nodes that are still *good* and *need* it; clear *good* where it did not
    converge."""
    k = np.flatnonzero(good & need)
    status, value, e = kernels._adaptive_gk_batch(
        kind, lo[k], hi[k], beta, rho, psiv[k],
        QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_MAX_INTERVALS,
    )
    total[k] += value
    err[k] += e
    good[k] = status == kernels.QUAD_OK


def u_integral_batch(params: ModelParams, xs, ys):
    """:func:`u_integral` at many nodes at once, with numpy.

    Runs the same anchor solve and quadratures with the default tolerances,
    in lock-step over the nodes. Returns (ok, value, err) arrays. A node is
    ok when it lies in the interior of u's domain (x > 0, y >= mu, and not
    y == mu with x <= rho) and its anchor and quadratures succeeded. Any
    other node needs the scalar :func:`u_integral`, which returns the edge
    value or raises the typed error there.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    rho, mu, beta = params.rho, params.mu, params.beta
    ok = (x > 0.0) & (y >= mu) & ~((y == mu) & (x <= rho))
    ok &= np.isfinite(x) & np.isfinite(y)
    value = np.zeros(x.shape)
    err = np.zeros(x.shape)
    idx = np.flatnonzero(ok)
    xi = x[idx]
    # per-node logs and exps through math, as the scalar route takes them
    log_x = kernels._math_each(math.log, xi)
    psiv = xi + y[idx] - rho * log_x
    good, log_a = kernels._anchor_log_batch(rho, mu, psiv)
    split_l = math.log(SPLIT_Z)
    deep = log_a < split_l
    # left piece in log space below the split, the rest in z space
    ls = np.minimum(split_l, log_x)
    z_lo = kernels._math_each(math.exp, np.where(deep, ls, log_a))
    total = np.zeros(idx.size)
    e = np.zeros(idx.size)
    _batch_quad(good, deep, 1, log_a, ls, beta, rho, psiv, total, e)
    _batch_quad(good, z_lo < xi, 0, z_lo, xi, beta, rho, psiv, total, e)
    ok[idx] = good
    value[idx] = np.maximum(total, 0.0)
    err[idx] = e
    return ok, value, err


def v_integral_batch(params: ModelParams, xs, ys):
    """:func:`v_integral` at many nodes at once, with numpy.

    Returns (ok, value, err) arrays. A node is ok when x > rho, y > 0 and
    its quadrature converged; any other node needs the scalar
    :func:`v_integral`.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    rho = params.rho
    ok = (x > rho) & (y > 0.0) & np.isfinite(x) & np.isfinite(y)
    value = np.zeros(x.shape)
    err = np.zeros(x.shape)
    psiv = x + y - rho * kernels._math_each(math.log, np.where(ok, x, 1.0))
    _batch_quad(ok, True, 0, np.full(x.shape, rho), x, params.beta, rho, psiv, value, err)
    np.maximum(value, 0.0, out=value)
    return ok, value, err


def _quotient(num, den, what):
    """num/den, or DomainError where den, a product of rates and counts,
    underflows to 0 and the formula has no value."""
    if den == 0.0:
        raise DomainError(f"{what}: its denominator underflows to 0")
    return num / den


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
    rho = params.rho
    mu = params.mu
    ratio = (x + y) / (rho + mu)
    # a ratio that underflows to 0 has a log below -744: the clamp gives 0
    lower = max(0.0, math.log(ratio) / params.gamma) if ratio > 0.0 else 0.0
    crude_upper = _quotient(x + y, params.gamma * mu, "crude upper bound on u")
    subcritical_upper = None
    if params.beta * x < params.gamma:
        subcritical_upper = math.log(y / mu) / (params.gamma - params.beta * x)
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
    beta = params.beta
    dlog = math.log(x) - math.log(rho)

    upper_den = beta * (y + x * (1.0 - rho * dlog / (x - rho)))
    if upper_den <= 1e-12:
        raise DegenerateBound(
            f"tangent-bound denominator {upper_den!r} below resolution at "
            f"x={x!r}, y={y!r}"
        )
    upper_arg = x - rho + y - rho * dlog
    if upper_arg <= 0.0:
        raise DomainError(
            f"tangent-bound log argument degenerates ({upper_arg!r}) at "
            f"x={x!r}, y={y!r}"
        )
    upper = (dlog - math.log(y) + math.log(upper_arg)) / upper_den

    lower_arg = x - rho + y + rho * (rho / x - 1.0)
    if lower_arg <= 0.0:
        raise DomainError(
            f"chord-bound log argument degenerates ({lower_arg!r}) at "
            f"x={x!r}, y={y!r}"
        )
    lower = _quotient(
        dlog - math.log(y) + math.log(lower_arg), beta * (x - rho + y), "chord bound on v"
    )

    crude_upper = _quotient(dlog, beta * y, "crude upper bound on v")
    return BoundsV(lower, upper, crude_upper)


def asymptotic_u(params: ModelParams, x: float, y: float) -> float:
    """Leading-order threshold time for large total mass:
    (1/gamma) * ln((x + y)/mu). Requires x >= 0 and x + y > 0; raises
    DomainError where (x + y)/mu underflows to 0."""
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x < 0.0 or x + y <= 0.0:
        raise DomainError(f"asymptotic_u requires x >= 0, x + y > 0, got ({x!r}, {y!r})")
    ratio = (x + y) / params.mu
    if ratio == 0.0:
        raise DomainError(f"asymptotic_u: (x + y)/mu underflows to 0 at ({x!r}, {y!r})")
    return math.log(ratio) / params.gamma


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
    return _quotient(
        math.log((x / rho) * ((x - rho) / y + 1.0)),
        params.beta * (x - rho + y),
        "asymptotic_v",
    )
