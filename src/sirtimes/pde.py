"""Independent verification of a critical-time surface against its governing
transport equation.

Both critical times T satisfy, in the initial data (x, y),

    beta*x*y * dT/dx + (gamma - beta*x)*y * dT/dy = 1

on the interior of their domains (u for y > mu, v for x > gamma/beta), with
T = 0 on the inflow boundary. A field that satisfies the equation, the
boundary condition, and the characteristic identity T(S(t), I(t)) = T(x, y) - t
is the critical time; these checks exercise all three without reusing any of
the machinery that produced the field.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import ModelParams, _require_finite
from .errors import DomainError, StencilOutOfDomain
from .ode import IntegratorConfig, hitting_time_u, hitting_time_v, integrate
from .analytic import u_integral, v_integral

__all__ = [
    "ResidualReport",
    "pde_residual",
    "stencil_points",
    "check_boundary_u",
    "check_boundary_v",
    "check_characteristic_identity",
]

# below this magnitude a Richardson error is rounding noise, not signal,
# and no order can honestly be reported
_ORDER_NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference residual of the transport equation at one point.

    ``residual`` is evaluated with central differences at step ``h``;
    ``order_estimate`` comes from a three-level study (h, h/2, h/4) with
    Richardson extrapolation of the limit, and is None when the level
    differences sit below the noise floor.
    """

    point: tuple[float, float]
    h: float
    residual: float
    order_estimate: float | None


# the steps of the three-level study, as fractions of h
_LEVELS = (1.0, 0.5, 0.25)


def _stencil(x, y, h):
    """The central-difference points at step h: east, west, north, south."""
    return ((x + h, y), (x - h, y), (x, y + h), (x, y - h))


def stencil_points(x: float, y: float, h: float) -> list[tuple[float, float]]:
    """The points at which ``pde_residual(field, params, x, y, h)`` evaluates
    *field*, in its order: the stencils at h, h/2 and h/4. A caller can
    evaluate them all at once and hand :func:`pde_residual` a lookup."""
    return [p for k in _LEVELS for p in _stencil(x, y, k * h)]


def _fd_residual(field, params, x, y, h):
    east, west, north, south = (field(a, b) for a, b in _stencil(x, y, h))
    dx = (east - west) / (2.0 * h)
    dy = (north - south) / (2.0 * h)
    return (
        params.beta * x * y * dx
        + (params.gamma - params.beta * x) * y * dy
        - 1.0
    )


def pde_residual(
    field: Callable[[float, float], float],
    params: ModelParams,
    x: float,
    y: float,
    h: float,
    domain_lower: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual of the transport equation for *field* at (x, y).

    ``domain_lower`` gives the open lower bounds (x_lo, y_lo) of the field's
    domain; the default (0, mu) suits a threshold-time field, peak-time
    callers pass (gamma/beta, 0). Stencils that would touch or cross a bound
    raise StencilOutOfDomain rather than silently differencing across the
    kink.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    h = _require_finite("h", h)
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h!r}")
    if domain_lower is None:
        domain_lower = (0.0, params.mu)
    x_lo, y_lo = domain_lower
    if x - h <= x_lo or y - h <= y_lo:
        raise StencilOutOfDomain(
            f"stencil of width {h!r} at ({x!r}, {y!r}) crosses the domain "
            f"boundary (x > {x_lo!r}, y > {y_lo!r})"
        )

    r1, r2, r3 = (_fd_residual(field, params, x, y, k * h) for k in _LEVELS)

    order = None
    d1 = r1 - r2
    d2 = r2 - r3
    if d2 != 0.0 and d1 * d2 > 0.0:
        ratio = abs(d1) / abs(d2)
        if ratio > 1.0:
            p_raw = math.log2(ratio)
            limit = r3 - d2 / (2.0 ** p_raw - 1.0)
            e1 = abs(r1 - limit)
            e2 = abs(r2 - limit)
            if e1 > _ORDER_NOISE_FLOOR and e2 > _ORDER_NOISE_FLOOR:
                order = math.log2(e1 / e2)
    return ResidualReport((x, y), h, r1, order)


def check_boundary_u(params: ModelParams, xs: Sequence[float]) -> float:
    """Max |u| over boundary states (x, mu) with x <= rho, by both methods.

    Both constructions return identically zero there; the maximum is exact.
    """
    worst = 0.0
    for x in xs:
        x = _require_finite("x", x)
        if x > params.rho:
            raise DomainError(
                f"boundary check needs x <= rho={params.rho!r}, got x={x!r}"
            )
        worst = max(worst, abs(hitting_time_u(params, x, params.mu).value))
        worst = max(worst, abs(u_integral(params, x, params.mu).value))
    return worst


def check_boundary_v(params: ModelParams, ys: Sequence[float]) -> float:
    """Max |v| over boundary states (rho, y), by both methods."""
    worst = 0.0
    rho = params.rho
    for y in ys:
        y = _require_finite("y", y)
        if y <= 0.0:
            raise DomainError(f"boundary check needs y > 0, got y={y!r}")
        worst = max(worst, abs(hitting_time_v(params, rho, y).value))
        worst = max(worst, abs(v_integral(params, rho, y).value))
    return worst


def check_characteristic_identity(
    params: ModelParams,
    x: float,
    y: float,
    fractions: Sequence[float],
    which: str = "u",
    config: IntegratorConfig | None = None,
) -> float:
    """Max relative defect of T(S(t), I(t)) = T(x, y) - t along the orbit.

    The time T is recomputed by the representation integral at interior
    points t = f * T(x, y) for each fraction f in [0, 1); the trajectory
    comes from the ODE solver, so the identity couples the two independent
    routes. Returns max_f |T(S,I) - (T - t)| / max(1, T).
    """
    if which not in ("u", "v"):
        raise DomainError(f"which must be 'u' or 'v', got {which!r}")
    rep = u_integral if which == "u" else v_integral
    total = rep(params, x, y).value
    if total <= 0.0:
        raise DomainError(
            f"characteristic check needs an interior point with {which} > 0, "
            f"got ({x!r}, {y!r})"
        )
    traj = integrate(params, x, y, total, config)
    scale = max(1.0, total)
    worst = 0.0
    for f in fractions:
        f = _require_finite("fraction", f)
        if not (0.0 <= f < 1.0):
            raise DomainError(f"fractions must lie in [0, 1), got {f!r}")
        t = f * total
        st = traj.eval(t)
        again = rep(params, st.s, st.i).value
        worst = max(worst, abs(again - (total - t)) / scale)
    return worst
