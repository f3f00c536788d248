"""Deterministic grid sweeps over initial conditions, with CSV/JSON output.

Rows come out row-major (y outer, x inner). Both routes evaluate a grid's
interior nodes in one batched numpy pass: the integral route by lock-step
quadrature, the ODE route by lock-step Dormand-Prince stepping, in
:mod:`sirtimes.batch`, which is imported only when a grid is laid out or
run. Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.
"""

import json
import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .analytic import asymptotic_u, asymptotic_v, bounds_u, bounds_v, u_integral, v_integral
from .core import CriticalTimeResult, ModelParams
from .errors import DomainError, NeverReached, SirTimesError
from .ode import IntegratorConfig, hitting_time_u, hitting_time_v

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

    def xs(self):
        """The x nodes, a numpy array."""
        from .batch import _axis

        return _axis(self.x_min, self.x_max, self.nx, self.spacing)

    def ys(self):
        """The y nodes, a numpy array."""
        from .batch import _axis

        return _axis(self.y_min, self.y_max, self.ny, self.spacing)


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


def _evaluate(params, time_kind, method, x, y, config=None):
    """The (value, method, err_estimate, status) cells of a row at one
    node, never raising: failures land in the status cell."""
    try:
        r = critical_time(params, time_kind, x, y, method, config)
        return r.value, r.method.value, r.err_estimate, STATUS_OK
    except NeverReached:
        return None, "", None, STATUS_NEVER_REACHED
    except SirTimesError as exc:
        return None, "", None, f"{STATUS_ERROR}:{type(exc).__name__}"


def build_row(
    params: ModelParams,
    time_kind: str,
    method: str,
    x: float,
    y: float,
    config: IntegratorConfig | None = None,
) -> GridRow:
    """Evaluate one node, never raising: failures land in the status field."""
    value, tag, err, status = _evaluate(params, time_kind, method, x, y, config)
    return GridRow(x, y, value, tag, err, *side_cells(params, time_kind, x, y), status)


def run_grid(
    params: ModelParams,
    spec: GridSpec,
    time_kind: str,
    method: str = "integral",
    config: IntegratorConfig | None = None,
) -> GridResult:
    """Evaluate the grid row-major (y outer, x inner).

    Both routes evaluate every interior node at once with numpy and send
    the rest through the per-node route functions, as :func:`build_row`
    does: the integral route by the batched quadrature, the ODE route by a
    lock-step Dormand-Prince loop. ``config`` applies to the ODE route only.
    """
    from .batch import _node_rows

    _check_route(time_kind, method)
    xs = spec.xs().tolist()
    nodes = [(x, y) for y in spec.ys().tolist() for x in xs]
    rows = _node_rows(params, time_kind, method, nodes, config)
    return GridResult(params, spec, time_kind, method, tuple(rows))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


# the % conversion of a CSV cell of exactly these types, which writes what
# _cell does; a line with a cell of any other type goes through _cell
_CSV_SPECS = {float: "%.17g", str: "%s", type(None): "%.0s"}


def table_to_csv(header, table) -> str:
    """CSV text with the *header* columns and one line per entry of *table*,
    a sequence of cells in header order. A None cell is empty and a number
    has 17 significant digits.

    Each line is written through a template for its tuple of cell types.
    """
    templates = {}

    def line(cells):
        cells = tuple(cells)
        kinds = tuple(map(type, cells))
        try:
            template = templates[kinds]
        except KeyError:
            specs = [_CSV_SPECS.get(kind) for kind in kinds]
            template = templates[kinds] = None if None in specs else ",".join(specs)
        if template is None:
            return ",".join(map(_cell, cells))
        return template % cells

    lines = [",".join(header)]
    lines.extend(map(line, table))
    return "\n".join(lines) + "\n"


# Records are encoded this many at a time: their cells by the C encoder, in
# one flat list split on _SEP, which an encoded string always escapes, and
# then put into one template for the whole chunk
_JSON_CHUNK = 256
_SEP = "\x1f"
_encode_cells = json.JSONEncoder(separators=(_SEP, ":")).encode


def table_to_json(payload) -> str:
    """JSON text of *payload*, a list of flat records or an object whose
    values are flat records or None, with string keys: the text of
    ``json.dumps(payload, indent=2)`` and a newline.

    Each record is written through a template for its tuple of keys.
    """
    if isinstance(payload, dict):
        brackets = "{}"
        heads = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in payload]
        records = list(payload.values())
    else:
        brackets = "[]"
        records = list(payload)
        heads = [""] * len(records)
    if not records:
        return brackets + "\n"
    templates = {None: "null"}

    def template(rec):
        keys = None if rec is None else tuple(rec)
        text = templates.get(keys)
        if text is None:
            fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            text = templates[keys] = "{\n    " + ",\n    ".join(fields) + "\n  }" if keys else "{}"
        return text

    chunks = []
    for start in range(0, len(records), _JSON_CHUNK):
        end = start + _JSON_CHUNK
        chunk = records[start:end]
        values = [value for rec in chunk if rec for value in rec.values()]
        cells = tuple(_encode_cells(values)[1:-1].split(_SEP)) if values else ()
        layout = ",\n  ".join(map(str.__add__, heads[start:end], map(template, chunk)))
        chunks.append(layout % cells)
    # the brackets ride on the end chunks, so the text is joined only once
    chunks[0] = f"{brackets[0]}\n  {chunks[0]}"
    chunks[-1] = f"{chunks[-1]}\n{brackets[1]}\n"
    return ",\n  ".join(chunks)


_row_cells = operator.attrgetter(*GRID_FIELDS)


def row_records(rows) -> list[dict]:
    """The rows as dicts keyed by :data:`GRID_FIELDS`."""
    # a GridRow's __init__ sets every field into its __dict__, in the order
    # of GRID_FIELDS, and the frozen row sets nothing after
    return [vars(r).copy() for r in rows]


def rows_to_csv(rows) -> str:
    return table_to_csv(GRID_FIELDS, map(_row_cells, rows))


def rows_to_json(rows) -> str:
    return table_to_json(row_records(rows))


def write_csv(rows, fh) -> None:
    fh.write(rows_to_csv(rows))


def write_json(rows, fh) -> None:
    fh.write(rows_to_json(rows))
