"""Deterministic grid sweeps over initial conditions, with CSV/JSON output.

Rows come out row-major (y outer, x inner). Both routes evaluate a grid's
interior nodes in one batched numpy pass: the integral route by lock-step
quadrature, the ODE route by lock-step Dormand-Prince stepping. Floats are
written with 17 significant digits, which round-trips IEEE doubles exactly.
"""

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import kernels
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
from .core import CriticalTimeResult, Method, ModelParams
from .errors import DomainError, NeverReached, SirTimesError
from .ode import IntegratorConfig, _hitting_times, hitting_time_u, hitting_time_v

__all__ = [
    "GridSpec",
    "GridRow",
    "GridResult",
    "CSV_HEADER",
    "GRID_FIELDS",
    "critical_time",
    "row_records",
    "run_grid",
    "side_cells",
    "table_to_csv",
    "table_to_json",
    "write_csv",
    "write_json",
]

GRID_FIELDS = (
    "x", "y", "value", "method", "err_estimate", "lower", "upper", "asymptotic", "status"
)
CSV_HEADER = ",".join(GRID_FIELDS)

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


def _check_route(time_kind: str, method: str) -> None:
    if time_kind not in ("u", "v"):
        raise DomainError(f"time_kind must be 'u' or 'v', got {time_kind!r}")
    if method not in ("ode", "integral"):
        raise DomainError(f"method must be 'ode' or 'integral', got {method!r}")


def critical_time(
    params: ModelParams,
    kind: str,
    x: float,
    y: float,
    method: str,
    config: IntegratorConfig | None = None,
) -> CriticalTimeResult:
    """u (``kind`` "u") or v (``kind`` "v") at one node by the requested route.

    The ODE route is :func:`hitting_time_u`/:func:`hitting_time_v`, and
    ``config`` applies to it only; the integral route is
    :func:`u_integral`/:func:`v_integral`. Each route function validates the
    counts and applies the edge rules itself.
    """
    _check_route(kind, method)
    if method == "ode":
        hitting_time = hitting_time_u if kind == "u" else hitting_time_v
        return hitting_time(params, x, y, config)
    return (u_integral if kind == "u" else v_integral)(params, x, y)


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


def side_cells(params, time_kind, x, y):
    """The (lower, upper, asymptotic) cells of a row."""
    if time_kind == "u":
        lower, upper = _bounds_cells_u(params, x, y)
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
    lower, upper, asym = side_cells(params, time_kind, x, y)
    try:
        r = critical_time(params, time_kind, x, y, method, config)
        return GridRow(x, y, r.value, r.method.value, r.err_estimate, lower, upper, asym)
    except NeverReached:
        return GridRow(x, y, None, "", None, lower, upper, asym, STATUS_NEVER_REACHED)
    except SirTimesError as exc:
        return GridRow(
            x, y, None, "", None, lower, upper, asym,
            f"{STATUS_ERROR}:{type(exc).__name__}",
        )


def _node_rows(params, time_kind, method, nodes, config=None):
    """The rows at *nodes*, a list of (x, y) float pairs, by *method*'s route.

    Every node goes to the route's batch entry, which evaluates the nodes
    inside its own interior at once: the integral route by the batched
    quadrature, the ODE route by the lock-step Dormand-Prince loop. Every
    node the batch did not take or did not finish goes through
    :func:`build_row`, whose per-node route function validates the counts
    and applies the edge rules. ``config`` applies to the ODE route only.
    """
    xs = [x for x, _ in nodes]
    ys = [y for _, y in nodes]
    if method == "integral":
        batch = u_integral_batch if time_kind == "u" else v_integral_batch
        ok, values, errs = batch(params, xs, ys)
        tag = Method.INTEGRAL.value
    else:
        row = kernels.EV_I if time_kind == "u" else kernels.EV_S
        ok, values, errs = _hitting_times(params, xs, ys, row, config)
        tag = Method.ODE_EVENT.value
    return [
        GridRow(x, y, value, tag, err, *side_cells(params, time_kind, x, y))
        if good
        else build_row(params, time_kind, method, x, y, config)
        for (x, y), good, value, err in zip(nodes, ok.tolist(), values.tolist(), errs.tolist())
    ]


def run_grid(
    params: ModelParams,
    spec: GridSpec,
    time_kind: str,
    method: str = "integral",
    config: IntegratorConfig | None = None,
) -> GridResult:
    """Evaluate the grid row-major (y outer, x inner).

    Both routes evaluate every interior node at once with numpy and send
    the rest through the per-node :func:`build_row`: the integral route by
    the batched quadrature, the ODE route by a lock-step Dormand-Prince
    loop. ``config`` applies to the ODE route only.
    """
    _check_route(time_kind, method)
    xs = spec.xs()
    ys = spec.ys()
    nodes = [(float(x), float(y)) for y in ys for x in xs]
    rows = _node_rows(params, time_kind, method, nodes, config)
    return GridResult(params, spec, time_kind, method, tuple(rows))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def table_to_csv(header, table) -> str:
    """CSV text with the *header* columns and one line per entry of *table*,
    a sequence of cells in header order. A None cell is empty and a number
    has 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, cells)) for cells in table)
    return "\n".join(lines) + "\n"


def _json_scalar(value) -> str:
    """*value* as :func:`json.dumps` writes it, NaN and the infinities
    included."""
    if isinstance(value, float):
        if value - value == 0.0:  # finite: inf - inf and NaN - NaN are NaN
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def table_to_json(payload) -> str:
    """JSON text of *payload*, a list of flat records or an object whose
    values are flat records or None, with string keys: the text of
    ``json.dumps(payload, indent=2)`` and a newline.

    Each record is written through a template for its tuple of keys.
    """
    templates = {}

    def record(rec):
        if rec is None:
            return "null"
        if not rec:
            return "{}"
        keys = tuple(rec)
        template = templates.get(keys)
        if template is None:
            fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            template = templates[keys] = "{\n    " + ",\n    ".join(fields) + "\n  }"
        return template % tuple(map(_json_scalar, rec.values()))

    if isinstance(payload, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {record(rec)}" for k, rec in payload.items()]
    else:
        brackets = "[]"
        items = list(map(record, payload))
    if not items:
        return brackets + "\n"
    # the brackets ride on the end items, so the text is joined only once
    items[0] = f"{brackets[0]}\n  {items[0]}"
    items[-1] = f"{items[-1]}\n{brackets[1]}\n"
    return ",\n  ".join(items)


_row_cells = operator.attrgetter(*GRID_FIELDS)


def row_records(rows) -> list[dict]:
    """The rows as dicts keyed by :data:`GRID_FIELDS`."""
    return [dict(zip(GRID_FIELDS, _row_cells(r))) for r in rows]


def rows_to_csv(rows) -> str:
    return table_to_csv(GRID_FIELDS, map(_row_cells, rows))


def rows_to_json(rows) -> str:
    return table_to_json(row_records(rows))


def write_csv(rows, fh) -> None:
    fh.write(rows_to_csv(rows))


def write_json(rows, fh) -> None:
    fh.write(rows_to_json(rows))
