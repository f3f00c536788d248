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
from .pde import (
    ResidualReport,
    check_boundary_u,
    check_boundary_v,
    check_characteristic_identity,
    pde_residual,
)
from .gridrun import (
    CSV_HEADER,
    GridResult,
    GridRow,
    GridSpec,
    rows_to_csv,
    rows_to_json,
    run_grid,
    write_csv,
    write_json,
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
