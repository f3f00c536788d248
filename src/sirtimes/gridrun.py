"""Deterministic grid sweeps over initial conditions, with CSV/JSON output.

Rows come out row-major (y outer, x inner). Both routes evaluate a grid's
interior nodes in one batched numpy pass: the integral route by lock-step
quadrature, the ODE route by lock-step Dormand-Prince stepping, in
:mod:`sirtimes.batch`, which is imported only when a grid is laid out or
run. Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.

The writers turn a table into text a chunk of lines or records at a time,
each run of lines with one tuple of cell types (CSV) or each chunk of
records (JSON) through one template and one ``%``. :func:`rows_to_csv` and
:func:`rows_to_json` write the same text as :func:`table_to_csv` and
:func:`table_to_json` of the rows' cells, through the same templates, but
with each row's x and y text put before its template: that text is written
once per cell object and then reused. run_grid's rows share one float
object per grid line, so a grid formats its nx + ny axis values once each.
The text is kept by object, not by value, since equal values can be written
differently (0.0 and -0.0).
"""

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
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


# Lines and records are written this many at a time, which bounds the
# writers' temporaries
_CHUNK = 256

# the % conversion of a CSV cell of exactly these types, which writes what
# _cell does
_CSV_SPECS = {float: "%.17g", str: "%s", type(None): "%.0s"}


def _cell_types(cells):
    return tuple(map(type, cells))


def _csv_template(kinds):
    """(template, convert) of a CSV line whose cells have the types *kinds*:
    convert is None, or _cell where a cell has a type outside _CSV_SPECS,
    and then every cell of the line goes through it and %s."""
    specs = [_CSV_SPECS.get(kind) for kind in kinds]
    if None in specs:
        return ",".join(["%s"] * len(kinds)), _cell
    return ",".join(specs), None


def _csv_lines(kinds, cells, leads, templates):
    """Some lines of a CSV table, joined by newlines.

    *kinds* holds each line's tuple of cell types, *cells* every cell of the
    lines in one flat iterable, and *leads* the text that starts each line,
    with any % doubled. Each run of lines with one tuple of cell types is
    written through one template and one %; *templates* keeps the
    templates by tuple of types.
    """
    cells, leads = iter(cells), iter(leads)
    parts = []
    for kind, run in groupby(kinds):
        count = len(list(run))
        try:
            template, convert = templates[kind]
        except KeyError:
            template, convert = templates[kind] = _csv_template(kind)
        values = islice(cells, count * len(kind))
        if convert is not None:
            values = map(convert, values)
        layout = "\n".join(map(str.__add__, islice(leads, count), repeat(template, count)))
        parts.append(layout % tuple(values))
    return "\n".join(parts)


def table_to_csv(header, table) -> str:
    """CSV text with the *header* columns and one line per entry of *table*,
    a sequence of cells in header order. A None cell is empty and a number
    has 17 significant digits.

    Each run of lines with one tuple of cell types is written through one
    template for it.
    """
    table = iter(table)
    templates = {}
    parts = [",".join(header)]
    while chunk := list(map(tuple, islice(table, _CHUNK))):
        kinds = map(_cell_types, chunk)
        parts.append(_csv_lines(kinds, chain.from_iterable(chunk), repeat(""), templates))
    return "\n".join(parts) + "\n"


# Records are encoded by the C encoder, their cells in one flat list split
# on _SEP, which an encoded string always escapes
_SEP = "\x1f"
_encode_cells = json.JSONEncoder(separators=(_SEP, ":")).encode


def _json_key(key):
    return encode_basestring_ascii(key).replace("%", "%%") + ": "


def _json_records(leads, templates, values):
    """Some records of a JSON array or object, joined: each record's lead
    and then its template, whose %s cells take the JSON text of *values*, a
    list of every record's cells in order."""
    layout = ",\n  ".join(map(str.__add__, leads, templates))
    cells = tuple(_encode_cells(values)[1:-1].split(_SEP)) if values else ()
    return layout % cells


def _json_text(brackets, chunks):
    """The JSON text of an array or object (*brackets* "[]" or "{}") from
    its records, in non-empty chunks of text."""
    if not chunks:
        return brackets + "\n"
    # the brackets ride on the end chunks, so the text is joined only once
    chunks[0] = f"{brackets[0]}\n  {chunks[0]}"
    chunks[-1] = f"{chunks[-1]}\n{brackets[1]}\n"
    return ",\n  ".join(chunks)


def table_to_json(payload) -> str:
    """JSON text of *payload*, a list of flat records or an object whose
    values are flat records or None, with string keys: the text of
    ``json.dumps(payload, indent=2)`` and a newline.

    Each record is written through a template for its tuple of keys.
    """
    if isinstance(payload, dict):
        brackets = "{}"
        heads = list(map(_json_key, payload))
        records = list(payload.values())
    else:
        brackets = "[]"
        records = list(payload)
        heads = [""] * len(records)
    templates = {None: "null"}

    def template(rec):
        keys = None if rec is None else tuple(rec)
        text = templates.get(keys)
        if text is None:
            fields = ",\n    ".join(_json_key(k) + "%s" for k in keys)
            text = templates[keys] = "{\n    " + fields + "\n  }" if keys else "{}"
        return text

    chunks = []
    for start in range(0, len(records), _CHUNK):
        chunk = records[start : start + _CHUNK]
        values = [value for rec in chunk if rec for value in rec.values()]
        chunks.append(_json_records(heads[start : start + _CHUNK], map(template, chunk), values))
    return _json_text(brackets, chunks)


_row_x = operator.attrgetter("x")
_row_y = operator.attrgetter("y")
_row_rest = operator.attrgetter(*GRID_FIELDS[2:])


def row_records(rows) -> list[dict]:
    """The rows as dicts keyed by :data:`GRID_FIELDS`."""
    # a GridRow's __dict__ holds every field, in the order of GRID_FIELDS,
    # and the frozen row sets nothing after
    return [vars(r).copy() for r in rows]


def _axis_texts(write):
    """A function from some cells to the list of their texts, write(cell),
    that writes each cell object once over all its calls.

    The texts are kept by id(), and every cell written is held, so that an
    id names that one object: 0.0 and -0.0, or 1 and 1.0, which are equal
    but written differently, each get their own text.
    """
    known, held = {}, []

    def texts(cells):
        out = []
        for cell in cells:
            text = known.get(id(cell))
            if text is None:
                text = known[id(cell)] = write(cell)
                held.append(cell)
            out.append(text)
        return out

    return texts


def _csv_axis(value):
    return _cell(value).replace("%", "%%") + ","


def rows_to_csv(rows) -> str:
    """CSV text of the rows: ``table_to_csv`` of their cells, with the
    :data:`GRID_FIELDS` header."""
    rows = tuple(rows)
    axis = _axis_texts(_csv_axis)
    templates = {}
    width = len(GRID_FIELDS) - 2
    parts = [CSV_HEADER]
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        leads = map(str.__add__, axis(map(_row_x, chunk)), axis(map(_row_y, chunk)))
        cells = tuple(chain.from_iterable(map(_row_rest, chunk)))
        # the cells' types, one line's worth at a time
        kinds = zip(*[map(type, cells)] * width)
        parts.append(_csv_lines(kinds, cells, leads, templates))
    return "\n".join(parts) + "\n"


def _json_cell(value):
    return _encode_cells([value])[1:-1].replace("%", "%%")


# the template of a row's record after its x and y cells
_JSON_REST = ",\n    ".join(_json_key(k) + "%s" for k in GRID_FIELDS[2:]) + "\n  }"


def _json_x_lead(x):
    return "{\n    " + _json_key("x") + _json_cell(x) + ",\n    " + _json_key("y")


def _json_y_lead(y):
    return _json_cell(y) + ",\n    " + _JSON_REST


def rows_to_json(rows) -> str:
    """JSON text of the rows: ``table_to_json(row_records(rows))``."""
    rows = tuple(rows)
    x_axis, y_axis = _axis_texts(_json_x_lead), _axis_texts(_json_y_lead)
    chunks = []
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        values = list(chain.from_iterable(map(_row_rest, chunk)))
        # a record is its x lead, then its y lead and the rest's template
        chunks.append(_json_records(x_axis(map(_row_x, chunk)), y_axis(map(_row_y, chunk)), values))
    return _json_text("[]", chunks)


def write_csv(rows, fh) -> None:
    fh.write(rows_to_csv(rows))


def write_json(rows, fh) -> None:
    fh.write(rows_to_json(rows))
