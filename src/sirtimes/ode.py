"""Adaptive ODE integration of the SIR system with event location.

The hitting-time entry points integrate until a watched component crosses its
level and refine the crossing on the integrator's dense output, so the event
time carries the integrator's accuracy rather than the step size. A crossing
is refined to a fixed relative width of 1e-12. The refinement nearly always
ends on an exact hit of the level (at 2407 of the 2440 crossings of the
README u surface), so ``err_estimate`` is almost always the floor
10*rel_tol*max(1, T).

Closed-form caps bound how long integration may run: the threshold time is
at most (x + y)/(gamma*mu) and the peak time at most ln(x/rho)/(beta*y), so
passing a cap signals numerical breakdown, not a long transient. Where the
rate product of a cap underflows to 0 there is no finite cap, and the route
raises TimeCapExceeded with an infinite cap before it integrates.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .core import CriticalTimeResult, Method, ModelParams, SirState, _require_finite
from .errors import DomainError, IntegrationStall, NeverReached, TimeCapExceeded

__all__ = [
    "IntegratorConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "integrate",
    "hitting_time_u",
    "hitting_time_v",
]

# safety margin on the closed-form caps; the true event time is strictly
# below the cap, the margin only absorbs rounding in the cap itself
_CAP_SLACK = 1.0 + 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for the adaptive integrator.

    rel_tol/abs_tol control the per-step error. Event times are refined to a
    fixed relative width of 1e-12 (``kernels._EV_TOL``); the refinement
    nearly always ends on an exact hit of the level, and ``err_estimate`` is
    then the floor 10*rel_tol*max(1, T).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = float(getattr(self, name))
            if math.isnan(value) or value <= 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)


_DEFAULT_CONFIG = IntegratorConfig()


class EventKind(Enum):
    """Which level crossing an event records."""

    I_REACHES_MU = "i_reaches_mu"
    S_REACHES_RHO = "s_reaches_rho"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    state: SirState
    err_estimate: float = 0.0

    @property
    def t(self) -> float:
        return self.state.t


class Trajectory:
    """A solved path with dense evaluation between accepted steps.

    ``samples`` holds the accepted step endpoints as states, built on first
    access (each is checked when the path is solved); ``eval`` gives
    the continuous interpolant (locally of the integrator's order) at any
    time in [0, t_end]. ``events`` records the first downward crossing of
    I through mu and of S through rho, when they occur in the window.
    """

    def __init__(self, params, initial, ts, states, stages, events):
        self.params = params
        self.initial = initial
        self._ts = ts
        self._states = states
        self._stages = stages
        self.events = tuple(events)
        # every sample must be a valid state: the first that is not raises
        # the DomainError its SirState gives (a NaN fails every comparison)
        inf = math.inf
        for (s, i), t in zip(states.tolist(), ts.tolist()):
            if not (0.0 <= s < inf and 0.0 <= i < inf and -inf < t < inf):
                SirState(s, i, t)

    @functools.cached_property
    def samples(self) -> list[SirState]:
        return [SirState(s, i, t) for (s, i), t in zip(self._states.tolist(), self._ts.tolist())]

    @property
    def t_end(self) -> float:
        return float(self._ts[-1])

    def eval(self, t: float) -> SirState:
        """Interpolated state at time t, 0 <= t <= t_end."""
        t = _require_finite("t", t)
        ts = self._ts
        if t < ts[0] or t > ts[-1]:
            raise DomainError(f"t={t!r} outside the solved window [0, {ts[-1]!r}]")
        if len(ts) == 1:
            # t_end = 0: the window holds the initial state alone
            return self.samples[0]
        j = int(np.searchsorted(ts, t, side="right")) - 1
        if j >= len(ts) - 1:
            j = len(ts) - 2
        if j < 0:
            j = 0
        h = ts[j + 1] - ts[j]
        if h <= 0.0:
            return SirState(self._states[j, 0], self._states[j, 1], t)
        theta = (t - ts[j]) / h
        k = self._stages[j]
        qs = kernels._dense_coeffs(k, 0)
        qi = kernels._dense_coeffs(k, 1)
        s = kernels._dense_eval(self._states[j, 0], h, qs[0], qs[1], qs[2], qs[3], theta)
        i = kernels._dense_eval(self._states[j, 1], h, qi[0], qi[1], qi[2], qi[3], theta)
        return SirState(max(s, 0.0), max(i, 0.0), t)


def _event_err(bracket_width: float, t_event: float, cfg: IntegratorConfig) -> float:
    # the refined bracket can collapse to zero width; the global integration
    # error (roughly the tolerance accumulated over O(10) steps) still applies
    return max(bracket_width, 10.0 * cfg.rel_tol * max(1.0, t_event))


def _check_initial(x: float, y: float) -> tuple[float, float]:
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x < 0.0 or y < 0.0:
        raise DomainError(f"initial counts must be nonnegative, got x={x!r} y={y!r}")
    return x, y


def _run(params, x, y, t_end, stop, cfg):
    """The ODE kernel from (x, y) with *stop* as in :func:`kernels._dp5`."""
    return kernels._dp5(
        params.beta,
        params.gamma,
        x,
        y,
        params.mu,
        params.rho,
        t_end,
        stop,
        cfg.rel_tol,
        cfg.abs_tol,
    )


def integrate(
    params: ModelParams,
    x: float,
    y: float,
    t_end: float,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Solve the SIR system from (x, y) over [0, t_end]."""
    x, y = _check_initial(x, y)
    t_end = _require_finite("t_end", t_end)
    if t_end < 0.0:
        raise DomainError(f"t_end must be >= 0, got {t_end!r}")
    status, t_reached, ev, ts, states, stages = _run(
        params, x, y, t_end, kernels.PATH, config or _DEFAULT_CONFIG
    )
    if status == kernels.ODE_STALL:
        raise IntegrationStall(t_reached)
    events = [
        Event(kind, SirState(max(e[2], 0.0), max(e[3], 0.0), e[1]), float(e[4]))
        for kind, e in (
            (EventKind.I_REACHES_MU, ev[kernels.EV_I]),
            (EventKind.S_REACHES_RHO, ev[kernels.EV_S]),
        )
        if e[0]
    ]
    events.sort(key=lambda e: e.t)
    return Trajectory(params, SirState(x, y, 0.0), ts, states, stages, events)


def _time_cap(params, x, y, row):
    """The closed-form bound on the crossing time *row* from (x, y), with
    its slack: (x + y)/(gamma*mu) for u, ln(x/rho)/(beta*y) for v.

    Raises TimeCapExceeded(inf, 0) where the rate product in the
    denominator underflows to 0: no finite cap exists, and a run without
    one need not end. :func:`_hitting_times` leaves such nodes out with the
    same test."""
    if row == kernels.EV_I:
        num, den = x + y, params.gamma * params.mu
    else:
        num, den = math.log(x) - math.log(params.rho), params.beta * y
    if den == 0.0:
        raise TimeCapExceeded(math.inf, 0.0)
    return num / den * _CAP_SLACK


def _event_value(e, cfg):
    """(value, err_estimate) of a found crossing, from its row *e* of the
    event array."""
    te = float(e[1])
    return max(te, 0.0), _event_err(float(e[4]), te, cfg)


def _hitting_time(params, x, y, row, config):
    """Integrate until the crossing *row* of the ODE kernel, or raise."""
    cfg = config or _DEFAULT_CONFIG
    cap = _time_cap(params, x, y, row)
    status, t_reached, ev, _, _, _ = _run(params, x, y, cap, row, cfg)
    if status == kernels.ODE_STALL:
        raise IntegrationStall(t_reached)
    if status == kernels.ODE_CAP:
        raise TimeCapExceeded(cap, t_reached)
    value, err = _event_value(ev[row], cfg)
    return CriticalTimeResult(value, Method.ODE_EVENT, err)


def _hitting_times(params, xs, ys, row, config):
    """:func:`_hitting_time` at many nodes, stepped together by
    :func:`kernels._dp5_batch`. Returns (ok, value, err_estimate) arrays. A
    node is ok when it lies in the interior that :func:`hitting_time_u` and
    :func:`hitting_time_v` integrate from (finite, with x >= 0 and y > mu for
    u, x > rho and y > 0 for v, and a finite cap) and the kernel found its
    crossing. Any other node needs the scalar entry, which returns the edge
    value or raises the typed error there."""
    cfg = config or _DEFAULT_CONFIG
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    # the last test of each: the cap's rate product does not underflow (an
    # overflow to inf passes it)
    if row == kernels.EV_I:
        inside = (x >= 0.0) & (y > params.mu) & (params.gamma * params.mu > 0.0)
    else:
        with np.errstate(over="ignore"):
            inside = (x > params.rho) & (y > 0.0) & (params.beta * y > 0.0)
    idx = np.flatnonzero(inside & np.isfinite(x) & np.isfinite(y))
    xi = x[idx]
    yi = y[idx]
    caps = [_time_cap(params, a, b, row) for a, b in zip(xi.tolist(), yi.tolist())]
    status, _, ev = kernels._dp5_batch(
        params.beta, params.gamma, xi, yi, params.mu, params.rho,
        np.array(caps, dtype=float), row, cfg.rel_tol, cfg.abs_tol,
    )
    ok = np.zeros(x.size, dtype=bool)
    values = np.zeros(x.size)
    errs = np.zeros(x.size)
    for j, node in enumerate(idx.tolist()):
        if status[j] == kernels.ODE_OK:
            ok[node] = True
            values[node], errs[node] = _event_value(ev[j], cfg)
    return ok, values, errs


def hitting_time_u(
    params: ModelParams,
    x: float,
    y: float,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """First time the infected count falls to mu, located on the ODE path.

    Returns 0 immediately when y <= mu (the threshold is already met).
    """
    x, y = _check_initial(x, y)
    if y <= params.mu:
        return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    return _hitting_time(params, x, y, kernels.EV_I, config)


def hitting_time_v(
    params: ModelParams,
    x: float,
    y: float,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """First time the susceptible count falls to rho = gamma/beta, located on
    the ODE path.

    Returns 0 immediately when x <= rho. Raises NeverReached when x > rho and
    y = 0: S is then constant and never reaches rho.
    """
    x, y = _check_initial(x, y)
    rho = params.rho
    if x <= rho:
        return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    if y == 0.0:
        raise NeverReached(
            f"S is constant at x={x!r} > rho={rho!r} with no infection present"
        )
    return _hitting_time(params, x, y, kernels.EV_S, config)
