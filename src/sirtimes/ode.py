"""Adaptive ODE integration of the SIR system with event location.

The hitting-time entry points integrate until a watched component crosses its
level and refine the crossing on the integrator's dense output, so the event
time carries the integrator's accuracy rather than the step size. A crossing
in the accepted step from t to t + h is refined to a width of
1e-12*max(1, t + h). The refinement nearly always ends on an exact hit of
the level (at 2407 of the 2440 crossings of the README u surface), so
``err_estimate`` is almost always the floor 10*rel_tol*max(1, T).

Closed-form caps bound how long integration may run: the threshold time is
at most (x + y)/(gamma*mu) and the peak time at most ln(x/rho)/(beta*y), so
passing a cap signals numerical breakdown, not a long transient. Where the
rate product of a cap underflows to 0 there is no finite cap, and the route
raises TimeCapExceeded with an infinite cap before it integrates.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum

from . import kernels
from .core import CriticalTimeResult, Method, ModelParams, SirState
from .core import _check_counts, _require_finite, _v_edge
from .errors import DomainError, IntegrationStall, TimeCapExceeded

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

    rel_tol/abs_tol control the per-step error; both must be finite and
    positive. An event in the accepted
    step from t to t + h is refined to a width of 1e-12*max(1, t + h)
    (``kernels._EV_TOL``); the refinement nearly always ends on an exact hit
    of the level, and ``err_estimate`` is then the floor 10*rel_tol*max(1, T).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0.0:
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

    def __init__(self, params, initial, ts, states, sizes, stages, events):
        self.params = params
        self.initial = initial
        self._ts = ts
        self._states = states
        self._sizes = sizes
        self._stages = stages
        self.events = tuple(events)
        # every sample must be a valid state: the first that is not raises
        # the DomainError its SirState gives (a NaN fails every comparison)
        inf = math.inf
        for (s, i), t in zip(states, ts):
            if not (0.0 <= s < inf and 0.0 <= i < inf and -inf < t < inf):
                SirState(s, i, t)

    @functools.cached_property
    def samples(self) -> list[SirState]:
        return [SirState(s, i, t) for (s, i), t in zip(self._states, self._ts)]

    @property
    def t_end(self) -> float:
        return self._ts[-1]

    def eval(self, t: float) -> SirState:
        """Interpolated state at time t, 0 <= t <= t_end."""
        t = _require_finite("t", t)
        ts = self._ts
        if t < ts[0] or t > ts[-1]:
            raise DomainError(f"t={t!r} outside the solved window [0, {ts[-1]!r}]")
        if len(ts) == 1:
            # t_end = 0: the window holds the initial state alone
            return self.samples[0]
        j = bisect.bisect_right(ts, t) - 1
        if j >= len(ts) - 1:
            j = len(ts) - 2
        # the step's own size: ts[j + 1] - ts[j] can differ from it by rounding
        h = self._sizes[j]
        s0, i0 = self._states[j]
        theta = (t - ts[j]) / h
        ks, ki = self._stages[j]
        qs = kernels._dense_coeffs(ks)
        qi = kernels._dense_coeffs(ki)
        s = kernels._dense_eval(s0, h, qs[0], qs[1], qs[2], qs[3], theta)
        i = kernels._dense_eval(i0, h, qi[0], qi[1], qi[2], qi[3], theta)
        return SirState(max(s, 0.0), max(i, 0.0), t)


def _run(params, x, y, t_end, stop, cfg):
    """The ODE kernel from (x, y) with *stop* as in :func:`kernels._dp5`."""
    return kernels._dp5(params.beta, params.gamma, x, y, params.mu, params.rho, t_end, stop,
                        cfg.rel_tol, cfg.abs_tol)


def integrate(
    params: ModelParams,
    x: float,
    y: float,
    t_end: float,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Solve the SIR system from (x, y) over [0, t_end]."""
    x, y = _check_counts(x, y)
    t_end = _require_finite("t_end", t_end)
    if t_end < 0.0:
        raise DomainError(f"t_end must be >= 0, got {t_end!r}")
    status, t_reached, crossings, ts, states, sizes, stages = _run(
        params, x, y, t_end, kernels.PATH, config or _DEFAULT_CONFIG
    )
    if status == kernels.ODE_STALL:
        raise IntegrationStall(t_reached)
    events = [
        Event(kind, SirState(max(e[2], 0.0), max(e[3], 0.0), e[0]), e[1])
        for kind, e in (
            (EventKind.I_REACHES_MU, crossings[kernels.EV_I]),
            (EventKind.S_REACHES_RHO, crossings[kernels.EV_S]),
        )
        if e is not None
    ]
    events.sort(key=lambda e: e.t)
    return Trajectory(params, SirState(x, y, 0.0), ts, states, sizes, stages, events)


def _cap_terms(params, x, y, row, ops=kernels._FLOATS):
    """The numerator and denominator of the closed-form bound on the
    crossing time *row* from (x, y): x + y over gamma*mu for u, ln(x/rho)
    over beta*y for v. Floats, or arrays given ops=batch._ARRAYS."""
    if row == kernels.EV_I:
        return x + y, params.gamma * params.mu
    return ops.log(x) - math.log(params.rho), params.beta * y


def _time_cap(params, x, y, row):
    """The closed-form bound on the crossing time *row* from (x, y), with
    its slack.

    None where the rate product in the denominator underflows to 0: no
    finite cap exists, and a run without one need not end. An overflowing
    numerator gives an infinite cap, which the run still takes."""
    num, den = _cap_terms(params, x, y, row)
    if den == 0.0:
        return None
    return num / den * _CAP_SLACK


def _event_value(t, half_width, cfg, ops=kernels._FLOATS):
    """(value, err_estimate) of a crossing at time t, refined to
    half_width: floats, or arrays given ops=batch._ARRAYS. The bracket can
    collapse to zero width; the global integration error (roughly the
    tolerance accumulated over O(10) steps) still applies."""
    return ops.high(t, 0.0), ops.high(half_width, 10.0 * cfg.rel_tol * ops.high(1.0, t))


def _hitting_time(params, x, y, row, config):
    """Integrate until the crossing *row* of the ODE kernel, or raise."""
    cfg = config or _DEFAULT_CONFIG
    cap = _time_cap(params, x, y, row)
    if cap is None:
        raise TimeCapExceeded(math.inf, 0.0)
    status, t, half_width = _run(params, x, y, cap, row, cfg)
    if status == kernels.ODE_STALL:
        raise IntegrationStall(t)
    if status == kernels.ODE_CAP:
        raise TimeCapExceeded(cap, t)
    value, err = _event_value(t, half_width, cfg)
    return CriticalTimeResult(value, Method.ODE_EVENT, err)


def hitting_time_u(
    params: ModelParams,
    x: float,
    y: float,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """First time the infected count falls to mu, located on the ODE path.

    Raises DomainError unless x and y are finite and nonnegative. Returns 0
    (BoundaryZero) for y <= mu, where the threshold is already met; on
    y == mu with x > rho, :func:`u_integral` gives the positive continuation.
    """
    x, y = _check_counts(x, y)
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

    Raises DomainError unless x and y are finite and nonnegative. Shares
    v's edge rules with :func:`v_integral`: 0 (BoundaryZero) for x <= rho,
    NeverReached for x > rho with y = 0, where S is constant.
    """
    x, y = _check_counts(x, y)
    edge = _v_edge(params, x, y)
    if edge is not None:
        return edge
    return _hitting_time(params, x, y, kernels.EV_S, config)
