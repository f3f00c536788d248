"""Critical times of the SIR epidemic model.

Two quantities of the classical SIR system dS/dt = -beta*S*I,
dI/dt = (beta*S - gamma)*I are computed from initial data (x, y):

* u(x, y): the first time the infected count I falls to a threshold mu,
* v(x, y): the first time the susceptible count S falls to gamma/beta,
  which is the moment the infection wave peaks.

Each is computed by two independent routes (adaptive ODE integration with
event location, and exact representation integrals over the susceptible
level), supplemented by closed-form bounds, large-population asymptotics,
and verification against the transport PDE the surfaces satisfy.
"""

from .core import (
    CriticalTimeResult,
    Method,
    ModelParams,
    SirState,
    exact_u_at_x0,
    psi,
    vector_field,
)
from .errors import (
    DegenerateBound,
    DomainError,
    IntegrationStall,
    NeverReached,
    QuadratureFailure,
    SirTimesError,
    StencilOutOfDomain,
    TimeCapExceeded,
)
from .ode import (
    Event,
    EventKind,
    IntegratorConfig,
    Trajectory,
    hitting_time_u,
    hitting_time_v,
    integrate,
)
from .analytic import (
    AnchorResult,
    BoundsU,
    BoundsV,
    asymptotic_u,
    asymptotic_v,
    bounds_u,
    bounds_v,
    solve_anchor,
    u_integral,
    v_integral,
)

__version__ = "0.1.0"

# the kernels are plain Python; there is no compiled path to enable
JIT_ENABLED = False

__all__ = [
    "__version__",
    "JIT_ENABLED",
    "ModelParams",
    "SirState",
    "Method",
    "CriticalTimeResult",
    "vector_field",
    "psi",
    "exact_u_at_x0",
    "SirTimesError",
    "DomainError",
    "DegenerateBound",
    "NeverReached",
    "IntegrationStall",
    "TimeCapExceeded",
    "QuadratureFailure",
    "StencilOutOfDomain",
    "IntegratorConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "integrate",
    "hitting_time_u",
    "hitting_time_v",
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
    "ResidualReport",
    "pde_residual",
    "check_boundary_u",
    "check_boundary_v",
    "check_characteristic_identity",
    "GridSpec",
    "GridRow",
    "GridResult",
    "CSV_HEADER",
    "run_grid",
    "rows_to_csv",
    "rows_to_json",
    "write_csv",
    "write_json",
]

# The grid and PDE layers (and json, which the grid writers use) load on the
# first read of one of their names (PEP 562), so that a per-node script or a
# one-state CLI run neither compiles nor runs them.
_LAZY = dict.fromkeys(
    ("gridrun", "GridSpec", "GridRow", "GridResult", "CSV_HEADER", "run_grid", "rows_to_csv",
     "rows_to_json", "write_csv", "write_json"),
    "gridrun",
) | dict.fromkeys(
    ("pde", "ResidualReport", "pde_residual", "check_boundary_u", "check_boundary_v",
     "check_characteristic_identity"),
    "pde",
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
