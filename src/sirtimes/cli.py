"""Command-line interface.

Subcommands: compute (one state), grid (a swept surface), bounds
(closed-form sandwich at a state), asymptotics (large-mass ratio table),
verify (the self-check battery).

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 numerical failure, 4 threshold never reached, 5 grid row failure.
"""

import argparse
import contextlib
import json
import math
import sys

from .analytic import asymptotic_u, asymptotic_v, bounds_u, bounds_v
from .core import ModelParams, _check_counts
from .errors import (
    DomainError,
    IntegrationStall,
    NeverReached,
    QuadratureFailure,
    SirTimesError,
    TimeCapExceeded,
)
from .gridrun import (
    GRID_FIELDS,
    GridRow,
    GridSpec,
    critical_time,
    row_records,
    run_grid,
    side_cells,
    table_to_csv,
    table_to_json,
    write_csv,
    write_json,
)
from .ode import IntegratorConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NEVER_REACHED = 4
EXIT_GRID_ROW_FAILED = 5

_FORMATS = ("csv", "json")


def _add_common(sub):
    sub.add_argument("--beta", type=float, default=None, help="infection rate")
    sub.add_argument("--gamma", type=float, default=None, help="recovery rate")
    sub.add_argument("--mu", type=float, default=None, help="detection threshold (default 1)")
    sub.add_argument("--config", default=None, help="JSON or key=value settings file")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format (default csv)"
    )


def _add_tolerances(sub):
    # only the subcommands that can run the ODE route take its tolerances
    sub.add_argument("--rel-tol", type=float, default=None, help="ODE relative tolerance")
    sub.add_argument("--abs-tol", type=float, default=None, help="ODE absolute tolerance")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sirtimes",
        description=(
            "Critical times of the SIR model: the first time the infected "
            "count falls to the threshold mu (u) and the first time the "
            "susceptible count falls to gamma/beta (v)."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("compute", help="both critical times at one initial state")
    _add_common(sp)
    _add_tolerances(sp)
    sp.add_argument("--x", required=True, type=float, help="initial susceptible count")
    sp.add_argument("--y", required=True, type=float, help="initial infected count")
    sp.add_argument("--time", choices=("u", "v", "both"), default="both")
    sp.add_argument("--method", choices=("ode", "integral", "both"), default="both")
    sp.set_defaults(func=cmd_compute)

    sp = subs.add_parser("grid", help="sweep a rectangle of initial states")
    _add_common(sp)
    _add_tolerances(sp)
    sp.add_argument("--x", required=True, help="x range as min:max:count")
    sp.add_argument("--y", required=True, help="y range as min:max:count")
    sp.add_argument("--time", choices=("u", "v"), required=True)
    sp.add_argument("--method", choices=("ode", "integral"), default="integral")
    sp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sp.set_defaults(func=cmd_grid)

    sp = subs.add_parser("bounds", help="closed-form bounds at one initial state")
    _add_common(sp)
    sp.add_argument("--x", required=True, type=float)
    sp.add_argument("--y", required=True, type=float)
    sp.add_argument("--time", choices=("u", "v", "both"), default="both")
    sp.set_defaults(func=cmd_bounds)

    sp = subs.add_parser(
        "asymptotics", help="exact vs leading-order values along a ray of growing mass"
    )
    _add_common(sp)
    sp.add_argument("--time", choices=("u", "v"), required=True)
    sp.add_argument(
        "--ray",
        required=True,
        help="ray through state space: 'x=y', 'x=<const>', or 'y=<const>'",
    )
    sp.add_argument(
        "--r",
        required=True,
        help="total masses x+y: 'min:max:count' (log-spaced) or comma list",
    )
    sp.set_defaults(func=cmd_asymptotics)

    # the battery pins its own parameter sets and tolerances and prints a
    # report, so it takes none of the common flags
    sp = subs.add_parser("verify", help="run the cross-verification battery")
    sp.add_argument("--quick", action="store_true", help="reduced grids and samples")
    sp.set_defaults(func=cmd_verify)

    return parser


def _load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"config file {path!r} is not valid UTF-8: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise DomainError(f"config file {path!r} must hold an object")
        return {str(k): v for k, v in data.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_FLOAT_KEYS = ("beta", "gamma", "mu", "rel_tol", "abs_tol")
_STR_KEYS = ("out", "format")


def _settings(args):
    """Merge CLI > config file > defaults into one settings dict."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_config_file(args.config)
        unknown = set(cfg) - set(_FLOAT_KEYS) - set(_STR_KEYS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key in _FLOAT_KEYS:
        cli = getattr(args, key, None)
        if cli is not None:
            merged[key] = float(cli)
        elif key in cfg:
            try:
                if isinstance(cfg[key], bool):  # float(True) would read 1
                    raise TypeError
                merged[key] = float(cfg[key])
            except (TypeError, ValueError):
                raise DomainError(f"config key {key!r} must be a number, got {cfg[key]!r}")
        else:
            merged[key] = None
    for key in _STR_KEYS:
        cli = getattr(args, key, None)
        merged[key] = cli if cli is not None else cfg.get(key)
    if merged["out"] is not None and not isinstance(merged["out"], str):
        raise DomainError(f"config key 'out' must be a file name, got {merged['out']!r}")
    if merged["format"] is not None and merged["format"] not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {merged['format']!r}")
    return merged


def _params_from(settings):
    if settings["beta"] is None or settings["gamma"] is None:
        raise DomainError("beta and gamma are required (flags or config file)")
    return ModelParams(
        beta=settings["beta"],
        gamma=settings["gamma"],
        mu=settings["mu"] if settings["mu"] is not None else 1.0,
    )


def _integrator_from(settings):
    kwargs = {}
    if settings["rel_tol"] is not None:
        kwargs["rel_tol"] = settings["rel_tol"]
    if settings["abs_tol"] is not None:
        kwargs["abs_tol"] = settings["abs_tol"]
    return IntegratorConfig(**kwargs)


def _parse_range(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be min:max:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"range must be min:max:count with numeric parts, got {text!r}")
    return lo, hi, n


def _emit_table(settings, header, records, text_lines=None, key=None):
    """Write records (dicts) to --out, or to stdout, in the chosen format
    (default csv). With neither --out nor a format, print the text lines
    instead where there are any.

    CSV has the *header* columns; a missing cell is empty. JSON is the
    list of records or, with *key*, an object from each record's *key* cell
    to the rest of the record (null when nothing else is there).
    """
    if not settings["out"] and settings["format"] is None and text_lines is not None:
        for line in text_lines:
            print(line)
        return
    if settings["format"] == "json":
        payload = records
        if key is not None:
            payload = {
                rec[key]: {k: v for k, v in rec.items() if k != key} or None
                for rec in records
            }
        text = table_to_json(payload)
    else:
        text = table_to_csv(header, ([rec.get(k) for k in header] for rec in records))
    _write_text(settings, text)


def _out_file(settings):
    """The --out file opened for writing, or stdout, left open on exit."""
    if settings["out"]:
        return open(settings["out"], "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_text(settings, text):
    """Write *text* to --out, or to stdout."""
    with _out_file(settings) as fh:
        fh.write(text)


def cmd_compute(args):
    settings = _settings(args)
    params = _params_from(settings)
    icfg = _integrator_from(settings)
    kinds = ("u", "v") if args.time == "both" else (args.time,)
    methods = ("ode", "integral") if args.method == "both" else (args.method,)
    rows = []
    lines = []
    for kind in kinds:
        lines.append(
            f"{kind} at (x, y) = ({args.x:g}, {args.y:g})   "
            f"[beta={params.beta:g} gamma={params.gamma:g} mu={params.mu:g}]"
        )
        values = {}
        for method in methods:
            res = critical_time(params, kind, args.x, args.y, method, icfg)
            values[method] = res.value
            cells = side_cells(params, kind, args.x, args.y)
            rows.append(
                GridRow(args.x, args.y, res.value, res.method.value, res.err_estimate, *cells)
            )
            lines.append(
                f"  {res.method.value:<12} {res.value:.17g}   "
                f"err {res.err_estimate:.3g}"
            )
        if len(values) == 2:
            disc = abs(values["ode"] - values["integral"]) / max(
                1.0, values["integral"]
            )
            lines.append(f"  relative discrepancy: {disc:.3e}")
    _emit_table(settings, GRID_FIELDS, row_records(rows), lines)
    return EXIT_OK


def cmd_grid(args):
    settings = _settings(args)
    params = _params_from(settings)
    icfg = _integrator_from(settings)
    x_lo, x_hi, nx = _parse_range(args.x)
    y_lo, y_hi, ny = _parse_range(args.y)
    spec = GridSpec(x_lo, x_hi, nx, y_lo, y_hi, ny, args.spacing)
    result = run_grid(params, spec, args.time, args.method, icfg)
    write = write_json if settings["format"] == "json" else write_csv
    with _out_file(settings) as fh:
        write(result.rows, fh)
    if result.failed:
        bad = sum(1 for r in result.rows if r.status != "ok")
        print(f"{bad} grid nodes failed; see the status column", file=sys.stderr)
        return EXIT_GRID_ROW_FAILED
    return EXIT_OK


def cmd_bounds(args):
    x, y = _check_counts(args.x, args.y)
    settings = _settings(args)
    params = _params_from(settings)
    kinds = ("u", "v") if args.time == "both" else (args.time,)
    lines = [
        f"bounds at (x, y) = ({x:g}, {y:g})   "
        f"[beta={params.beta:g} gamma={params.gamma:g} mu={params.mu:g}]"
    ]
    records = []
    for kind in kinds:
        if kind == "u":
            if y < params.mu:
                lines.append("  u: not defined (y < mu)")
                records.append({"time": "u"})
                continue
            b = bounds_u(params, x, y)
            sub = (
                "none (beta*x >= gamma)"
                if b.subcritical_upper is None
                else f"{b.subcritical_upper:.17g}"
            )
            lines.append(
                f"  u: lower {b.lower:.17g}   crude_upper {b.crude_upper:.17g}   "
                f"subcritical_upper {sub}"
            )
            records.append({
                "time": "u",
                "lower": b.lower,
                "crude_upper": b.crude_upper,
                "subcritical_upper": b.subcritical_upper,
            })
        else:
            if x <= params.rho:
                lines.append(f"  v: 0 at or below x = gamma/beta = {params.rho:g}")
                records.append({"time": "v"})
                continue
            b = bounds_v(params, x, y)
            lines.append(
                f"  v: lower {b.lower:.17g}   upper {b.upper:.17g}   "
                f"crude_upper {b.crude_upper:.17g}"
            )
            records.append({
                "time": "v",
                "lower": b.lower,
                "upper": b.upper,
                "crude_upper": b.crude_upper,
            })
    header = ("time", "lower", "upper", "crude_upper", "subcritical_upper")
    _emit_table(settings, header, records, lines, key="time")
    return EXIT_OK


def _parse_rs(text):
    if ":" in text:
        lo, hi, n = _parse_range(text)
        if lo <= 0.0 or hi <= lo or n < 2:
            raise DomainError(f"mass range must be positive and increasing, got {text!r}")
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return [lo * ratio**j for j in range(n)]
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"could not parse masses {text!r}")


def _ray_state(ray, r):
    ray = ray.strip().replace(" ", "")
    if ray == "x=y":
        return r / 2.0, r / 2.0
    if ray.startswith("x="):
        x = float(ray[2:])
        return x, r - x
    if ray.startswith("y="):
        y = float(ray[2:])
        return r - y, y
    raise DomainError(f"ray must be 'x=y', 'x=<const>', or 'y=<const>', got {ray!r}")


def cmd_asymptotics(args):
    settings = _settings(args)
    params = _params_from(settings)
    try:
        rs = _parse_rs(args.r)
        states = [_ray_state(args.ray, r) for r in rs]
    except ValueError as exc:
        raise DomainError(str(exc))
    lines = [f"{'x+y':>12} {'exact':>24} {'asymptotic':>24} {'ratio':>20}"]
    records = []
    for r, (x, y) in zip(rs, states):
        exact = critical_time(params, args.time, x, y, "integral").value
        asym = (asymptotic_u if args.time == "u" else asymptotic_v)(params, x, y)
        ratio = exact / asym if asym != 0.0 else math.nan
        records.append({"r": r, "x": x, "y": y, "exact": exact, "asymptotic": asym, "ratio": ratio})
        lines.append(f"{r:>12g} {exact:>24.17g} {asym:>24.17g} {ratio:>20.12f}")
    _emit_table(settings, ("r", "x", "y", "exact", "asymptotic", "ratio"), records, lines)
    return EXIT_OK


def cmd_verify(args):
    from .checks import run_all

    outcomes = run_all(quick=args.quick)
    failed = 0
    for oc in outcomes:
        tag = "PASS" if oc.passed else "FAIL"
        print(f"{tag}  {oc.name:<24} {oc.detail}")
        if not oc.passed:
            failed += 1
    total = len(outcomes)
    print(f"{total - failed}/{total} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return int(code) if isinstance(code, int) else EXIT_BAD_CONFIG
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NeverReached as exc:
        print(f"never reached: {exc}", file=sys.stderr)
        return EXIT_NEVER_REACHED
    except (IntegrationStall, TimeCapExceeded, QuadratureFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SirTimesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
