"""Deterministic grid sweeps over initial conditions, with CSV/JSON output.

Rows come out row-major (y outer, x inner). The integral route evaluates a
grid's interior nodes in one batched numpy pass; the ODE route evaluates
node by node. Floats are written with 17 significant digits, which
round-trips IEEE doubles exactly.
"""

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .analytic import (
    asymptotic_u,
    asymptotic_v,
    bounds_u,
    bounds_v,
    u_integral,
    u_integral_batch,
    v_integral,
    v_integral_batch,
)
from .core import CriticalTimeResult, Method, ModelParams, exact_u_at_x0
from .errors import DomainError, NeverReached, SirTimesError
from .ode import IntegratorConfig, hitting_time_u, hitting_time_v

__all__ = [
    "GridSpec",
    "GridRow",
    "GridResult",
    "CSV_HEADER",
    "eval_u",
    "eval_v",
    "run_grid",
    "write_csv",
    "write_json",
]

CSV_HEADER = "x,y,value,method,err_estimate,lower,upper,asymptotic,status"

STATUS_OK = "ok"
STATUS_NEVER_REACHED = "never_reached"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid of initial conditions.

    ``spacing`` is "linear" or "log"; log spacing requires positive minima.
    Endpoints are included; counts must be integers of at least 2.
    """

    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int
    spacing: str = "linear"

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("grid ranges must satisfy min < max")
        for name in ("nx", "ny"):
            count = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(count))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {count!r}") from None
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grid needs at least 2 points per axis")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and (self.x_min <= 0.0 or self.y_min <= 0.0):
            raise DomainError("log spacing requires positive minima")

    def xs(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.x_min, self.x_max, self.nx)
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.y_min, self.y_max, self.ny)
        return np.linspace(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class GridRow:
    """One evaluated node. Optional fields are None when undefined there."""

    x: float
    y: float
    value: float | None
    method: str
    err_estimate: float | None
    lower: float | None
    upper: float | None
    asymptotic: float | None
    status: str = STATUS_OK


@dataclass(frozen=True)
class GridResult:
    params: ModelParams
    spec: GridSpec
    time_kind: str
    method: str
    rows: tuple[GridRow, ...]

    @property
    def failed(self) -> bool:
        return any(r.status != STATUS_OK for r in self.rows)


def _integral_edge(
    params: ModelParams, time_kind: str, x: float, y: float
) -> CriticalTimeResult | None:
    """The integral route's edge rules, in one place: the result at a node
    whose value is fixed by definition, or None at a node that needs the
    quadrature. Raises NeverReached where the time does not exist.

    u is 0 for y < mu and for y == mu with x <= rho (BoundaryZero), and has
    the closed form at x = 0 (ExactX0). v is 0 for x <= rho (BoundaryZero)
    and never reached for y == 0.
    """
    if time_kind == "u":
        if y < params.mu or (y == params.mu and x <= params.rho):
            return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
        if x == 0.0:
            return CriticalTimeResult(exact_u_at_x0(params, y), Method.EXACT_X0, 0.0)
        return None
    if x <= params.rho:
        return CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    if y == 0.0:
        raise NeverReached(f"S never falls to rho from x={x!r} with y=0")
    return None


def _is_interior(params: ModelParams, time_kind: str, x: float, y: float) -> bool:
    try:
        return _integral_edge(params, time_kind, x, y) is None
    except NeverReached:
        return False


def eval_u(
    params: ModelParams,
    x: float,
    y: float,
    method: str,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """Threshold time at one node by the requested route.

    The integral route sends x = 0 to the closed form and tags nodes that
    are zero by definition as BoundaryZero.
    """
    if method == "ode":
        return hitting_time_u(params, x, y, config)
    if method != "integral":
        raise DomainError(f"method must be 'ode' or 'integral', got {method!r}")
    edge = _integral_edge(params, "u", x, y)
    return edge if edge is not None else u_integral(params, x, y)


def eval_v(
    params: ModelParams,
    x: float,
    y: float,
    method: str,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """Peak time at one node by the requested route."""
    if method == "ode":
        return hitting_time_v(params, x, y, config)
    if method != "integral":
        raise DomainError(f"method must be 'ode' or 'integral', got {method!r}")
    edge = _integral_edge(params, "v", x, y)
    return edge if edge is not None else v_integral(params, x, y)


def _bounds_cells_u(params, x, y):
    try:
        b = bounds_u(params, x, y)
    except DomainError:
        return None, None
    upper = b.crude_upper
    if b.subcritical_upper is not None:
        upper = min(upper, b.subcritical_upper)
    return b.lower, upper


def _bounds_cells_v(params, x, y):
    if x <= params.rho or y <= 0.0:
        return None, None
    try:
        b = bounds_v(params, x, y)
    except DomainError:
        return None, None
    return b.lower, min(b.upper, b.crude_upper)


def _asym_cell(params, time_kind, x, y):
    try:
        if time_kind == "u":
            return asymptotic_u(params, x, y)
        return asymptotic_v(params, x, y)
    except DomainError:
        return None


def _side_cells(params, time_kind, x, y):
    """The (lower, upper, asymptotic) cells of a row."""
    if time_kind == "u":
        lower, upper = _bounds_cells_u(params, x, y) if y >= params.mu else (None, None)
    else:
        lower, upper = _bounds_cells_v(params, x, y)
    return lower, upper, _asym_cell(params, time_kind, x, y)


def build_row(
    params: ModelParams,
    time_kind: str,
    method: str,
    x: float,
    y: float,
    config: IntegratorConfig | None = None,
) -> GridRow:
    """Evaluate one node, never raising: failures land in the status field."""
    lower, upper, asym = _side_cells(params, time_kind, x, y)
    try:
        if time_kind == "u":
            r = eval_u(params, x, y, method, config)
        else:
            r = eval_v(params, x, y, method, config)
        return GridRow(x, y, r.value, r.method.value, r.err_estimate, lower, upper, asym)
    except NeverReached:
        return GridRow(x, y, None, "", None, lower, upper, asym, STATUS_NEVER_REACHED)
    except SirTimesError as exc:
        return GridRow(
            x, y, None, "", None, lower, upper, asym,
            f"{STATUS_ERROR}:{type(exc).__name__}",
        )


def _integral_rows(params, time_kind, nodes):
    """Rows of the integral route. The interior nodes are evaluated at once
    by the batched quadrature; edge nodes, out-of-domain nodes and any node
    the batch could not finish go through :func:`build_row`."""
    interior = [k for k, (x, y) in enumerate(nodes) if _is_interior(params, time_kind, x, y)]
    batch = u_integral_batch if time_kind == "u" else v_integral_batch
    ok, values, errs = batch(
        params, [nodes[k][0] for k in interior], [nodes[k][1] for k in interior]
    )
    rows: list[GridRow | None] = [None] * len(nodes)
    method = Method.INTEGRAL.value
    for k, good, value, err in zip(interior, ok.tolist(), values.tolist(), errs.tolist()):
        if good:
            x, y = nodes[k]
            rows[k] = GridRow(x, y, value, method, err, *_side_cells(params, time_kind, x, y))
    for k, row in enumerate(rows):
        if row is None:
            x, y = nodes[k]
            rows[k] = build_row(params, time_kind, "integral", x, y)
    return rows


def run_grid(
    params: ModelParams,
    spec: GridSpec,
    time_kind: str,
    method: str = "integral",
    config: IntegratorConfig | None = None,
) -> GridResult:
    """Evaluate the grid row-major (y outer, x inner).

    The integral route evaluates every interior node at once with numpy,
    whether or not numba is present, and sends the rest through the
    per-node :func:`build_row`. The ODE route evaluates node by node with
    :func:`build_row`; ``config`` applies to it only.
    """
    if time_kind not in ("u", "v"):
        raise DomainError(f"time_kind must be 'u' or 'v', got {time_kind!r}")
    if method not in ("ode", "integral"):
        raise DomainError(f"method must be 'ode' or 'integral', got {method!r}")
    xs = spec.xs()
    ys = spec.ys()
    nodes = [(float(x), float(y)) for y in ys for x in xs]
    if method == "integral":
        rows = _integral_rows(params, time_kind, nodes)
    else:
        rows = [build_row(params, time_kind, "ode", x, y, config) for x, y in nodes]
    return GridResult(params, spec, time_kind, method, tuple(rows))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    _cell(r.x),
                    _cell(r.y),
                    _cell(r.value),
                    r.method,
                    _cell(r.err_estimate),
                    _cell(r.lower),
                    _cell(r.upper),
                    _cell(r.asymptotic),
                    r.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    payload = [
        {
            "x": r.x,
            "y": r.y,
            "value": r.value,
            "method": r.method,
            "err_estimate": r.err_estimate,
            "lower": r.lower,
            "upper": r.upper,
            "asymptotic": r.asymptotic,
            "status": r.status,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def write_csv(rows, fh) -> None:
    fh.write(rows_to_csv(rows))


def write_json(rows, fh) -> None:
    fh.write(rows_to_json(rows))
