"""Core SIR model state: parameters, states, the vector field, and the
conserved level-set function.

The model is the classical mass-action SIR system

    dS/dt = -beta * S * I
    dI/dt = (beta * S - gamma) * I

with recovered mass R implied by conservation and never stored. Throughout
the package x denotes an initial susceptible count S(0) and y an initial
infected count I(0); rho = gamma/beta is the threshold susceptible level at
which the infection wave peaks.
"""

import math
from dataclasses import dataclass
from enum import Enum

from . import kernels
from .errors import DomainError

__all__ = [
    "ModelParams",
    "SirState",
    "Method",
    "CriticalTimeResult",
    "vector_field",
    "psi",
    "exact_u_at_x0",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Infection rate beta, recovery rate gamma, and detection threshold mu.

    All three must be finite and strictly positive, and so must the derived
    threshold level ``rho`` = gamma/beta (it underflows to 0 or overflows
    to inf when the rates lie too far apart).
    """

    beta: float
    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        for name in ("beta", "gamma", "mu"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)
        rho = self.rho
        if rho == 0.0 or rho == math.inf:
            raise DomainError(
                f"gamma/beta must be positive and finite, got {rho!r} from "
                f"beta={self.beta!r} gamma={self.gamma!r}"
            )

    @property
    def rho(self) -> float:
        return self.gamma / self.beta


@dataclass(frozen=True)
class SirState:
    """Susceptible and infected counts at a time point.

    Counts are nonnegative finite reals (the model is a continuum one, so
    fractional counts are meaningful).
    """

    s: float
    i: float
    t: float = 0.0

    def __post_init__(self):
        s = _require_finite("s", self.s)
        i = _require_finite("i", self.i)
        t = _require_finite("t", self.t)
        if s < 0.0 or i < 0.0:
            raise DomainError(f"state counts must be nonnegative, got s={s!r} i={i!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "t", t)


class Method(str, Enum):
    """How a critical-time value was produced."""

    ODE_EVENT = "OdeEvent"
    INTEGRAL = "Integral"
    EXACT_X0 = "ExactX0"
    BOUNDARY_ZERO = "BoundaryZero"


@dataclass(frozen=True)
class CriticalTimeResult:
    """A computed critical time plus provenance and an error estimate."""

    value: float
    method: Method
    err_estimate: float = 0.0

    def __post_init__(self):
        value = float(self.value)
        err = float(self.err_estimate)
        if not (value >= 0.0):
            raise DomainError(f"critical time must be >= 0, got {value!r}")
        if not (err >= 0.0):
            raise DomainError(f"error estimate must be >= 0, got {err!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err_estimate", err)


def vector_field(params: ModelParams, state: SirState) -> tuple[float, float]:
    """Right-hand side (dS/dt, dI/dt) at *state*."""
    return kernels._field(params.beta, params.gamma, state.s, state.i)


def psi(params: ModelParams, x: float, y: float) -> float:
    """Conserved quantity x + y - (gamma/beta) * ln(x) of the flow.

    Constant along trajectories with S > 0; the level set psi = const is the
    orbit through (x, y). Requires x > 0.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0:
        raise DomainError(f"psi requires x > 0, got x={x!r}")
    return x + y - params.rho * math.log(x)


def exact_u_at_x0(params: ModelParams, y: float) -> float:
    """Threshold hitting time with no susceptibles: (1/gamma) * ln(y/mu).

    With x = 0 the infected count decays exactly exponentially,
    I(t) = y * exp(-gamma t), so the time to reach mu is closed-form.
    Requires y >= mu.
    """
    y = _require_finite("y", y)
    if y < params.mu:
        raise DomainError(f"requires y >= mu, got y={y!r} mu={params.mu!r}")
    if y == params.mu:
        return 0.0
    return math.log(y / params.mu) / params.gamma
