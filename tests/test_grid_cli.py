"""Grid sweeps and the command-line interface: determinism across runs,
status handling, exit codes, config-file merging, and exact output bytes."""

import dataclasses
import hashlib
import json
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import sirtimes
from sirtimes import (
    CSV_HEADER,
    GridRow,
    GridSpec,
    Method,
    ModelParams,
    gridrun,
    hitting_time_u,
    hitting_time_v,
    rows_to_csv,
    rows_to_json,
    run_grid,
    u_integral,
    v_integral,
)
from sirtimes.checks import ALL_CHECKS
from sirtimes.cli import main
from sirtimes.errors import DomainError, NeverReached
from sirtimes.gridrun import GRID_FIELDS, critical_time, row_records, table_to_csv, table_to_json

P23 = ("--beta", "2", "--gamma", "3")


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0, 5, 0.0, 1.0, 5)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 1, 0.0, 1.0, 5)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 5, 0.0, 1.0, 5, spacing="cubic")
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 5, 0.5, 1.0, 5, spacing="log")
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 2.5, 0.0, 1.0, 2)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 2, 0.0, 1.0, "3")


def test_gridspec_axes():
    spec = GridSpec(0.0, 6.0, 4, 1.0, 5.0, 3)
    assert list(spec.xs()) == [0.0, 2.0, 4.0, 6.0]
    assert list(spec.ys()) == [1.0, 3.0, 5.0]
    logspec = GridSpec(1.0, 100.0, 3, 1.0, 4.0, 3, spacing="log")
    assert list(logspec.xs()) == pytest.approx([1.0, 10.0, 100.0])


def test_grid_row_major_order(p23):
    spec = GridSpec(1.0, 3.0, 3, 2.0, 3.0, 2)
    res = run_grid(p23, spec, "u", "integral")
    coords = [(r.x, r.y) for r in res.rows]
    assert coords == [
        (1.0, 2.0), (2.0, 2.0), (3.0, 2.0),
        (1.0, 3.0), (2.0, 3.0), (3.0, 3.0),
    ]


def test_grid_deterministic_across_runs(p23):
    spec = GridSpec(0.1, 6.0, 13, 1.01, 5.0, 9)
    for method in ("integral", "ode"):
        base = rows_to_csv(run_grid(p23, spec, "u", method).rows)
        again = rows_to_csv(run_grid(p23, spec, "u", method).rows)
        assert base == again


def test_grid_methods_agree(p23):
    spec = GridSpec(2.0, 5.0, 4, 1.5, 4.0, 4)
    by_int = run_grid(p23, spec, "v", "integral")
    by_ode = run_grid(p23, spec, "v", "ode")
    for a, b in zip(by_int.rows, by_ode.rows):
        assert a.value == pytest.approx(b.value, rel=1e-6, abs=1e-9)


def test_grid_boundary_tags(p23):
    spec = GridSpec(0.0, 1.5, 2, 0.5, 1.0, 2)
    res = run_grid(p23, spec, "u", "integral")
    assert not res.failed
    for r in res.rows:
        assert r.value == 0.0
        assert r.method == "BoundaryZero"


def test_grid_exact_x0_tag(p23):
    spec = GridSpec(0.0, 2.0, 2, 2.0, 3.0, 2)
    res = run_grid(p23, spec, "u", "integral")
    methods = {(r.x, r.method) for r in res.rows}
    assert (0.0, "ExactX0") in methods
    assert (2.0, "Integral") in methods
    x0 = [r for r in res.rows if r.x == 0.0 and r.y == 2.0][0]
    assert x0.value == pytest.approx(math.log(2.0) / 3.0, rel=1e-12, abs=0)


def test_critical_time_dispatch(p23):
    assert critical_time(p23, "u", 4.0, 2.0, "ode") == hitting_time_u(p23, 4.0, 2.0)
    assert critical_time(p23, "v", 4.0, 2.0, "ode") == hitting_time_v(p23, 4.0, 2.0)
    assert critical_time(p23, "u", 4.0, 2.0, "integral") == u_integral(p23, 4.0, 2.0)
    assert critical_time(p23, "v", 4.0, 2.0, "integral") == v_integral(p23, 4.0, 2.0)
    # the integral route's edge rules
    assert critical_time(p23, "u", 4.0, 0.5, "integral").method is Method.BOUNDARY_ZERO
    assert critical_time(p23, "u", 0.0, 2.0, "integral").method is Method.EXACT_X0
    assert critical_time(p23, "v", 1.0, 2.0, "integral").method is Method.BOUNDARY_ZERO
    with pytest.raises(NeverReached):
        critical_time(p23, "v", 4.0, 0.0, "integral")
    with pytest.raises(DomainError):
        critical_time(p23, "w", 4.0, 2.0, "integral")
    with pytest.raises(DomainError):
        critical_time(p23, "u", 4.0, 2.0, "euler")


def test_grid_never_reached_rows(p23):
    spec = GridSpec(2.0, 3.0, 2, 0.0, 1.0, 2)
    res = run_grid(p23, spec, "v", "integral")
    assert res.failed
    bad = [r for r in res.rows if r.status == "never_reached"]
    assert len(bad) == 2
    assert all(r.y == 0.0 and r.value is None for r in bad)


def test_row_records_follow_grid_fields(p23):
    rows = run_grid(p23, GridSpec(-1.0, 4.0, 6, 0.5, 3.0, 3), "u", "integral").rows
    assert row_records(rows) == [
        {field: getattr(r, field) for field in GRID_FIELDS} for r in rows
    ]
    assert all(tuple(rec) == GRID_FIELDS for rec in row_records(rows))


def test_grid_csv_round_trip(p23):
    spec = GridSpec(2.0, 5.0, 3, 1.5, 4.0, 2)
    res = run_grid(p23, spec, "u", "integral")
    text = rows_to_csv(res.rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.rows)
    for line, row in zip(lines[1:], res.rows):
        cells = line.split(",")
        assert float(cells[0]) == row.x
        assert float(cells[2]) == row.value  # 17 digits round-trip exactly
        assert cells[3] == row.method
        assert cells[8] == "ok"


def test_cli_compute_both_routes(capsys):
    code = main(["compute", *P23, "--x", "4", "--y", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OdeEvent" in out and "Integral" in out
    assert "relative discrepancy" in out


def test_cli_compute_exact_x0(capsys):
    y = repr(math.e**3)
    code = main(["compute", *P23, "--x", "0", "--y", y, "--time", "u", "--method", "ode"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OdeEvent" in out


def test_cli_missing_params(capsys):
    assert main(["compute", "--x", "4", "--y", "2"]) == 2


def test_cli_bad_range(capsys):
    code = main(["grid", *P23, "--x", "1:2", "--y", "1:5:3", "--time", "u"])
    assert code == 2


def test_cli_never_reached(capsys):
    code = main(["compute", *P23, "--x", "5", "--y", "0", "--time", "v",
                 "--method", "integral"])
    assert code == 4


@pytest.mark.parametrize("method", ["ode", "integral"])
def test_cli_compute_invalid_count_exits_2(capsys, method):
    # both routes validate the counts before any edge rule
    code = main(["compute", *P23, "--x", "1", "--y", "nan", "--time", "v",
                 "--method", method])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ode", "integral"])
@pytest.mark.parametrize("kind", ["u", "v"])
def test_cli_grid_negative_counts_are_domain_errors(tmp_path, capsys, kind, method):
    out = tmp_path / "g.csv"
    code = main(["grid", *P23, "--x=-2:-1:2", "--y", "0.5:2:2", "--time", kind,
                 "--method", method, "--out", str(out)])
    assert code == 5
    rows = out.read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["error:DomainError"] * 4


def test_cli_grid_row_failures(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = main(["grid", *P23, "--x", "2:3:2", "--y", "0:1:2", "--time", "v",
                 "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert "failed" in err
    assert "never_reached" in out.read_text()


TINY_RATES = ("--beta", "1e-200", "--gamma", "1e-200", "--mu", "1e-160")


def test_cli_compute_underflowed_rate_products_exit_numeric(capsys):
    # gamma*mu underflows to 0: no finite time cap, a typed error, exit 3
    code = main(["compute", *TINY_RATES, "--x", "2", "--y", "1e-150"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ode", "integral"])
@pytest.mark.parametrize("kind", ["u", "v"])
def test_cli_grid_underflowed_rate_products_write_rows(tmp_path, capsys, kind, method):
    out = tmp_path / "g.csv"
    code = main(["grid", *TINY_RATES, "--x", "1:3:2", "--y", "1e-150:1e-149:2",
                 "--time", kind, "--method", method, "--out", str(out)])
    assert code in (0, 5)
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def _cli_child(*argv):
    """`python -m sirtimes.cli` in a child process with the default warning
    filters, importing the package this process tests."""
    src = os.path.dirname(os.path.dirname(sirtimes.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "sirtimes.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_cli_grid_overflowing_field_prints_no_warnings():
    # beta*S*I overflows at every node; the rows say IntegrationStall and
    # stderr holds the failed-row note alone
    cp = _cli_child("grid", *P23, "--x", "1e299:1e300:2", "--y", "2:1e300:2",
                    "--time", "u", "--method", "ode")
    assert cp.returncode == 5
    assert "Warning" not in cp.stderr
    assert cp.stderr == "4 grid nodes failed; see the status column\n"


@pytest.mark.parametrize("argv", [
    ("bounds", "--x", "5", "--y", "1"),
    ("asymptotics", "--time", "u", "--ray", "x=y", "--r", "10"),
])
@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
def test_cli_tolerances_only_where_the_ode_route_runs(capsys, argv, flag):
    # bounds and asymptotics never run the ODE route, so they refuse its
    # tolerances instead of ignoring them
    assert main([argv[0], *P23, *argv[1:], flag, "1e-6"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
def test_cli_non_finite_tolerances_are_bad_settings(capsys, flag, value):
    # not a numerical failure of the run that an infinite tolerance starts
    assert main(["compute", *P23, "--x", "4", "--y", "2", f"{flag}={value}"]) == 2
    assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err


def test_cli_grid_csv_to_file(tmp_path):
    out = tmp_path / "u.csv"
    code = main(["grid", *P23, "--x", "1:5:3", "--y", "2:4:2", "--time", "u",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6


def test_cli_grid_json(tmp_path):
    out = tmp_path / "u.json"
    code = main(["grid", *P23, "--x", "1:5:3", "--y", "2:4:2", "--time", "u",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    assert {"x", "y", "value", "method", "status"} <= set(rows[0])


def test_cli_grid_stdout(capsys):
    code = main(["grid", *P23, "--x", "2:4:2", "--y", "2:3:2", "--time", "u"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(CSV_HEADER)


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# parameter block\nbeta = 2\ngamma = 3\n")
    y = repr(math.e**3)
    code = main(["compute", "--config", str(cfg), "--gamma", "4", "--x", "0",
                 "--y", y, "--time", "u", "--method", "integral"])
    out = capsys.readouterr().out
    assert code == 0
    # CLI gamma=4 overrides the file: u(0, e^3) = 3/4
    assert "0.75" in out


def test_cli_config_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"beta": 2, "gamma": 3}\n')
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 0


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"beta": 2, "gamma": 3, "zeta": 1}\n')
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 2


def test_cli_config_bad_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{broken\n")
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 2


def test_cli_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"beta=2\ngamma=\xff3\n")
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 2
    assert f"error: config file {str(cfg)!r} is not valid UTF-8" in capsys.readouterr().err


def test_cli_tolerances_reach_the_ode_route(tmp_path, p23):
    def compute(name, *extra):
        out = tmp_path / name
        argv = ["compute", *P23, "--x", "4", "--y", "2", "--time", "u", "--method", "ode",
                "--format", "json", "--out", str(out), *extra]
        assert main(argv) == 0
        return out.read_bytes()

    flags = compute("flags.json", "--rel-tol", "1e-6", "--abs-tol", "1e-9")
    [row] = json.loads(flags)
    want = hitting_time_u(p23, 4.0, 2.0, sirtimes.IntegratorConfig(1e-6, 1e-9))
    assert (row["value"], row["err_estimate"]) == (want.value, want.err_estimate)
    [default] = json.loads(compute("default.json"))
    assert row["value"] != default["value"]
    assert row["err_estimate"] != default["err_estimate"]
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("rel_tol=1e-6\nabs_tol=1e-9\n")
    assert compute("config.json", "--config", str(cfg)) == flags


def test_cli_config_bad_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\n")
    out = tmp_path / "b.out"
    code = main(["bounds", *P23, "--x", "4", "--y", "2", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 2
    assert "format" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_bool_is_not_a_number(tmp_path, capsys):
    # JSON true is a Python bool, which float() would read as 1
    cfg = tmp_path / "run.json"
    cfg.write_text('{"beta": true, "gamma": 3}\n')
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 2
    assert "'beta'" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["9999", '["rows.csv"]'])
def test_cli_config_out_not_a_name(tmp_path, capsys, out):
    # an integer "out" must not be taken for a file descriptor; 9999 is one
    # no test has open, so a regression fails here without writing anywhere
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"beta": 2, "gamma": 3, "out": {out}}}\n')
    code = main(["compute", "--config", str(cfg), "--x", "4", "--y", "2"])
    assert code == 2
    assert "'out'" in capsys.readouterr().err


def test_cli_bounds_text(capsys):
    code = main(["bounds", *P23, "--x", "5", "--y", "1", "--time", "v"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower" in out and "crude_upper" in out


def test_cli_bounds_u_below_threshold_text(capsys):
    code = main(["bounds", *P23, "--x", "4", "--y", "0.5", "--time", "both"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == "  u: not defined (y < mu)"
    assert lines[2].startswith("  v: lower 0.39964921213306176")


@pytest.mark.parametrize("argv", [
    ("compute", "--x", "4", "--y", "2", "--time", "v", "--method", "integral"),
    ("bounds", "--x", "5", "--y", "2"),
    ("asymptotics", "--time", "u", "--ray", "x=y", "--r", "10:100:2"),
], ids=lambda argv: argv[0])
def test_cli_format_from_the_config_file_writes_the_table(tmp_path, capsys, argv):
    # a format from the config file, as from the flag, replaces the text
    # report on stdout with the table; with neither, the report stays
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    assert main([*argv, *P23, "--format", "json"]) == 0
    table = capsys.readouterr().out
    assert main([*argv, *P23, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == table
    assert isinstance(json.loads(table), (list, dict))
    assert main([*argv, *P23]) == 0
    assert capsys.readouterr().out != table


@pytest.mark.parametrize("argv", [
    ("--x", "-5", "--y", "2", "--time", "v"),
    ("--x", "1", "--y", "nan", "--time", "v"),
    ("--x", "1", "--y", "-3", "--time", "u"),
], ids=" ".join)
def test_cli_bounds_rejects_invalid_counts(capsys, argv):
    # the counts are checked as compute checks them, before any edge rule
    assert main(["bounds", *P23, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_bounds_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = main(["bounds", *P23, "--x", "5", "--y", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time,lower,upper,crude_upper,subcritical_upper"
    assert len(lines) == 3


# exact --out bytes of bounds and asymptotics (beta=2, gamma=3), CSV then JSON
TABLE_OUTPUTS = [
    (
        ['bounds', '--x', '5', '--y', '2'],
        (
            'time,lower,upper,crude_upper,subcritical_upper\n'
            'u,0.34320647239371938,,2.3333333333333335,\n'
            'v,0.18215724726764904,0.20560210239187868,0.30099320108148397,\n'
        ),
        (
            '{\n'
            '  "u": {\n'
            '    "lower": 0.3432064723937194,\n'
            '    "crude_upper": 2.3333333333333335,\n'
            '    "subcritical_upper": null\n'
            '  },\n'
            '  "v": {\n'
            '    "lower": 0.18215724726764904,\n'
            '    "upper": 0.20560210239187868,\n'
            '    "crude_upper": 0.300993201081484\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['bounds', '--x', '1', '--y', '2'],
        (
            'time,lower,upper,crude_upper,subcritical_upper\n'
            'u,0.060773852264651533,,1,0.69314718055994529\n'
            'v,,,,\n'
        ),
        (
            '{\n'
            '  "u": {\n'
            '    "lower": 0.06077385226465153,\n'
            '    "crude_upper": 1.0,\n'
            '    "subcritical_upper": 0.6931471805599453\n'
            '  },\n'
            '  "v": null\n'
            '}\n'
        ),
    ),
    (
        # y < mu: u is not defined, an empty row and a null record
        ['bounds', '--x', '4', '--y', '0.5', '--time', 'both'],
        (
            'time,lower,upper,crude_upper,subcritical_upper\n'
            'u,,,,\n'
            'v,0.39964921213306176,0.48891455487225538,0.98082925301172619,\n'
        ),
        (
            '{\n'
            '  "u": null,\n'
            '  "v": {\n'
            '    "lower": 0.39964921213306176,\n'
            '    "upper": 0.4889145548722554,\n'
            '    "crude_upper": 0.9808292530117262\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['asymptotics', '--time', 'u', '--ray', 'x=y', '--r', '10:100:2'],
        (
            'r,x,y,exact,asymptotic,ratio\n'
            '10,5,5,0.81870492465022948,0.76752836433134863,1.0666770932478367\n'
            '100,50,50,1.5386223126117184,1.5350567286626973,1.002322770150734\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "r": 10.0,\n'
            '    "x": 5.0,\n'
            '    "y": 5.0,\n'
            '    "exact": 0.8187049246502295,\n'
            '    "asymptotic": 0.7675283643313486,\n'
            '    "ratio": 1.0666770932478367\n'
            '  },\n'
            '  {\n'
            '    "r": 100.0,\n'
            '    "x": 50.0,\n'
            '    "y": 50.0,\n'
            '    "exact": 1.5386223126117184,\n'
            '    "asymptotic": 1.5350567286626973,\n'
            '    "ratio": 1.002322770150734\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        ['asymptotics', '--time', 'v', '--ray', 'y=1', '--r', '20'],
        (
            'r,x,y,exact,asymptotic,ratio\n'
            '20,19,1,0.15167546209971533,0.14747958386871771,1.0284505700445472\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "r": 20.0,\n'
            '    "x": 19.0,\n'
            '    "y": 1.0,\n'
            '    "exact": 0.15167546209971533,\n'
            '    "asymptotic": 0.1474795838687177,\n'
            '    "ratio": 1.0284505700445472\n'
            '  }\n'
            ']\n'
        ),
    ),
]


# every scalar a record can hold, with the cases the writer must spell as
# the json module does: -0.0, NaN, the infinities, a float subclass, escapes
JSON_CELLS = {
    "none": None, "yes": True, "no": False, "int": -7, "big": 2**70, "zero": -0.0,
    "nan": math.nan, "inf": math.inf, "ninf": -math.inf, "np": np.float64(0.1),
    "tiny": 5e-324, "quote": 'a "b"', "slash": "c\\d/", "text": "ü€\u2028\n\t",
    'key "%s" ü': 1.5,
}


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        [{}],
        [JSON_CELLS],
        [JSON_CELLS, {"x": 1.0, "y": None}, {}, {"y": 2.0, "x": 3.0}, JSON_CELLS],
        {"u": None},
        {"u": {"lower": 0.5, "upper": None}, "v": None, "é \"k\"": {}},
        # more records than the writer encodes at once, with empty ones and
        # None across the seams
        [JSON_CELLS, {}, None, {"x": 1.0}, {"x": "\x1f"}] * 120,
    ],
)
def test_table_to_json_is_json_dumps(payload):
    assert table_to_json(payload) == json.dumps(payload, indent=2) + "\n"


class _Float(float):
    pass


# text with the characters the writers must pass through or escape: the
# encoder's own separator, % of the templates, quotes, non-ASCII, U+2028
_TEXT = st.lists(
    st.sampled_from(
        ["a", "k", " ", "\x1f", "%", "%s", "%%", '"', "\\", "ü", "€", "\u2028", "\n", ","]
    ),
    max_size=4,
).map("".join)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
)
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _FLOATS,
    _FLOATS.map(_Float),
    _FLOATS.map(np.float64),
    _TEXT,
)
# few keys, so that key sets repeat and their templates are reused
_KEYS = st.sampled_from(["x", "y", "value", "", "%s", "k\x1f", "é \"q\""])
_RECORDS = st.one_of(st.none(), st.dictionaries(_KEYS, _CELLS, max_size=5))


@given(st.one_of(st.lists(_RECORDS, max_size=12), st.dictionaries(_TEXT, _RECORDS, max_size=6)))
def test_table_to_json_is_json_dumps_property(payload):
    assert table_to_json(payload) == json.dumps(payload, indent=2) + "\n"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


@given(
    st.lists(_TEXT, min_size=1, max_size=4),
    st.lists(st.lists(_CELLS, max_size=6), max_size=12),
)
def test_table_to_csv_matches_the_cell_rule(header, table):
    lines = [",".join(header)] + [",".join(map(_csv_cell, cells)) for cells in table]
    assert table_to_csv(header, table) == "\n".join(lines) + "\n"


_row_cells = operator.attrgetter(*GRID_FIELDS)
# axis cells: equal values written differently (0.0 and -0.0; 1 and True),
# the non-finite and subnormal floats, and any other cell
_AXIS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1, True]), _CELLS
)


@given(
    st.lists(_AXIS, max_size=4),
    st.lists(_AXIS, max_size=3),
    st.lists(st.tuples(*[_CELLS] * 7), min_size=12, max_size=12),
)
@example([0.0, -0.0, 1.0, 0.0], [-0.0, np.float64(-0.0), 0.0], [(None,) * 7] * 12)
# axis text that the templates must take as it is
@example(["%", "%s", 2.0], ["a%%", "%.17g"], [(1.5, "Integral", 0.0, None, None, None, "ok")] * 12)
def test_grid_writers_match_the_generic_rule(xs, ys, rest):
    # row-major, as run_grid lays rows out: the rows of a column share its x
    # object and those of a line its y object
    rows = [GridRow(x, y, *cells) for (x, y), cells in zip([(x, y) for y in ys for x in xs], rest)]
    lines = [CSV_HEADER] + [",".join(map(_csv_cell, cells)) for cells in map(_row_cells, rows)]
    assert rows_to_csv(rows) == "\n".join(lines) + "\n"
    assert rows_to_json(rows) == json.dumps(row_records(rows), indent=2) + "\n"


def test_grid_writers_write_each_axis_object_once(p23, monkeypatch):
    # 30 x 20 rows span three chunks of the writers
    rows = run_grid(p23, GridSpec(0.0, 6.0, 30, 1.0, 5.0, 20), "u", "integral").rows
    texts = (rows_to_csv(rows), rows_to_json(rows))
    calls = {}
    for name in ("_csv_axis", "_json_x_lead", "_json_y_lead"):
        def counted(value, write=getattr(gridrun, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return write(value)
        monkeypatch.setattr(gridrun, name, counted)
    assert (rows_to_csv(rows), rows_to_json(rows)) == texts
    assert calls == {"_csv_axis": 30 + 20, "_json_x_lead": 30, "_json_y_lead": 20}


class _MadeRow:
    """A row whose x and y cells are new objects at each access."""

    def __init__(self, row):
        self._row = row

    x = property(lambda self: self._row.x + 0.0)
    y = property(lambda self: self._row.y + 0.0)

    def __getattr__(self, name):
        return getattr(self._row, name)


def test_rows_to_csv_of_rows_that_make_their_cells_anew(p23):
    # each x and y dies once written, and a later cell may take its id
    rows = run_grid(p23, GridSpec(0.0, 6.0, 30, 1.0, 5.0, 20), "u", "integral").rows
    assert rows_to_csv(list(map(_MadeRow, rows))) == rows_to_csv(rows)


@pytest.mark.parametrize("method", ["integral", "ode"])
def test_run_grid_rows_behave_like_built_rows(p23, method):
    rows = run_grid(p23, GridSpec(-1.0, 4.0, 6, 0.5, 3.0, 3), "u", method).rows
    assert {row.status for row in rows} >= {"ok", "error:DomainError"}
    for row in rows:
        built = GridRow(*_row_cells(row))
        assert row == built and hash(row) == hash(built) and repr(row) == repr(built)
        assert list(vars(row)) == list(GRID_FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.value = 1.0
        assert dataclasses.replace(row, value=2.0) == dataclasses.replace(built, value=2.0)
        assert dataclasses.replace(row, value=2.0).value == 2.0


# SHA-256 of rows_to_csv and rows_to_json on the two README surfaces, by
# route, of the rows with their value and err_estimate cells set to those of
# surface_values.json
SURFACE_DIGESTS = {
    ("u", "integral"): (
        "4246f279e480721d854f7d74dc05441783d535254323b582d27ecc962b87bf15",
        "178227972d334ee1d9906e8afb7200552442216e2e07f427a57d25b9cfaebbcc",
    ),
    ("u", "ode"): (
        "5c54390ef5fb2746e8c465b507edf2a60b22471b5624c6ba95f0ca41141b507a",
        "c4cfc615592f07969c92814b5d5ed5b3d91ede43a112bf94106ff4d5caf8e355",
    ),
    ("v", "integral"): (
        "928ff060f972c9d77fcb87e436afbab85f3658a552dc07b994f413118084e5fe",
        "8a4fdf986e98003081807a07ec56490a9f61d70cc178669e2ac474a19b332684",
    ),
    ("v", "ode"): (
        "22f22b285c3dab407c828679591fc45335dc67486dfb267fd960258c0088bed0",
        "b1fc355f825a13def9b9383f475f55b0a150585dcf769e33900aaa47dc429c17",
    ),
}
README_SURFACES = {
    "u": (ModelParams(2.0, 3.0, 1.0), GridSpec(0.0, 6.0, 61, 1.0, 5.0, 41)),
    "v": (ModelParams(3.0, 3.0), GridSpec(1.0, 20.0, 77, 0.5, 5.0, 19)),
}


# the value and err_estimate cells on the README surfaces by route, written
# by make_surface_values.py. The integral route's follow numpy's SIMD log and
# exp, whose last bits differ between CPU levels and numpy builds: across the
# AVX-512, AVX2 and baseline levels of numpy 2.4 on one x86-64 host, values
# moved by at most 3.6e-16 and err_estimate by at most 9.6e-5, relative. Its
# values are the graded rule's, within 2 ulps of the 40-digit oracle at its
# 68 surface states (test_oracle.py). The ODE route's are the per-node
# route's, which the lock-step loop matches to rounding: it takes its step
# sizes' powers with numpy, whose SIMD power differs from libm's pow by 1 ulp
# at about 5% of arguments on AVX-512 CPUs
with open(os.path.join(os.path.dirname(__file__), "surface_values.json")) as f:
    SURFACE_VALUES = json.load(f)
SURFACE_VALUE_REL = 1e-13
SURFACE_ERR_REL = 1e-3


def _held_to_reference(rows, reference):
    """The rows, each value and err_estimate checked against the reference
    within its tolerance and then replaced by it."""
    assert len(rows) == len(reference["value"])
    held = []
    for row, value, err in zip(rows, reference["value"], reference["err_estimate"]):
        assert abs(row.value - value) <= SURFACE_VALUE_REL * abs(value), row
        assert abs(row.err_estimate - err) <= SURFACE_ERR_REL * abs(err), row
        held.append(dataclasses.replace(row, value=value, err_estimate=err))
    return held


@pytest.mark.parametrize("kind, method", list(SURFACE_DIGESTS))
def test_reference_surface_bytes(kind, method):
    rows = run_grid(*README_SURFACES[kind], kind, method).rows
    rows = _held_to_reference(rows, SURFACE_VALUES[kind][method])
    texts = (rows_to_csv(rows), rows_to_json(rows))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == SURFACE_DIGESTS[kind, method]


@pytest.mark.parametrize(
    "argv, csv_text, json_text", TABLE_OUTPUTS, ids=[" ".join(c[0]) for c in TABLE_OUTPUTS]
)
def test_cli_table_out_bytes(tmp_path, capsys, argv, csv_text, json_text):
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        out = tmp_path / f"table.{fmt}"
        assert main([*argv, *P23, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
    # an explicit format without --out writes the table to stdout, in place
    # of the text report
    capsys.readouterr()
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        assert main([*argv, *P23, "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


# grid rows of compute and grid with --out, written by the row writers before
# they were merged with the table writer; exit 5 marks a grid with failed rows
ROW_OUTPUTS = [
    (
        ['compute', '--x', '4', '--y', '2'],
        0,
        (
            'x,y,value,method,err_estimate,lower,upper,asymptotic,status\n'
            '4,2,0.73451078208705278,OdeEvent,1.0000000000000001e-09,0.29182291245129993,2,0.59725315640935162,ok\n'
            '4,2,0.73451078210394483,Integral,6.4337502373678266e-16,0.29182291245129993,2,0.59725315640935162,ok\n'
            '4,2,0.18306071694057977,OdeEvent,1.0000000000000001e-09,0.17312717978295,0.19141940994788387,0.19908438546978388,ok\n'
            '4,2,0.183060716901431,Integral,1.4768883864328453e-16,0.17312717978295,0.19141940994788387,0.19908438546978388,ok\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "x": 4.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.7345107820870528,\n'
            '    "method": "OdeEvent",\n'
            '    "err_estimate": 1e-09,\n'
            '    "lower": 0.29182291245129993,\n'
            '    "upper": 2.0,\n'
            '    "asymptotic": 0.5972531564093516,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 4.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.7345107821039448,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 6.433750237367827e-16,\n'
            '    "lower": 0.29182291245129993,\n'
            '    "upper": 2.0,\n'
            '    "asymptotic": 0.5972531564093516,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 4.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.18306071694057977,\n'
            '    "method": "OdeEvent",\n'
            '    "err_estimate": 1e-09,\n'
            '    "lower": 0.17312717978295,\n'
            '    "upper": 0.19141940994788387,\n'
            '    "asymptotic": 0.19908438546978388,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 4.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.183060716901431,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 1.4768883864328453e-16,\n'
            '    "lower": 0.17312717978295,\n'
            '    "upper": 0.19141940994788387,\n'
            '    "asymptotic": 0.19908438546978388,\n'
            '    "status": "ok"\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        ['compute', '--x', '1', '--y', '0.5', '--method', 'integral'],
        0,
        (
            'x,y,value,method,err_estimate,lower,upper,asymptotic,status\n'
            '1,0.5,0,BoundaryZero,0,,,0.1351550360360548,ok\n'
            '1,0.5,0,BoundaryZero,0,,,,ok\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 0.5,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": 0.1351550360360548,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 0.5,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": null,\n'
            '    "status": "ok"\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        ['grid', '--x', '0:2:3', '--y', '0.5:2:2', '--time', 'u'],
        0,
        (
            'x,y,value,method,err_estimate,lower,upper,asymptotic,status\n'
            '0,0.5,0,BoundaryZero,0,,,-0.23104906018664842,ok\n'
            '1,0.5,0,BoundaryZero,0,,,0.1351550360360548,ok\n'
            '2,0.5,0,BoundaryZero,0,,,0.30543024395805168,ok\n'
            '0,2,0.23104906018664842,ExactX0,0,0,0.23104906018664842,0.23104906018664842,ok\n'
            '1,2,0.37120243109885231,Integral,3.3001312705322492e-16,0.060773852264651533,0.69314718055994529,0.36620409622270328,ok\n'
            '2,2,0.53450808088678115,Integral,4.7810730292600923e-16,0.15666787641524521,1.3333333333333333,0.46209812037329684,ok\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "x": 0.0,\n'
            '    "y": 0.5,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": -0.23104906018664842,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 0.5,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": 0.1351550360360548,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 2.0,\n'
            '    "y": 0.5,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": 0.3054302439580517,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 0.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.23104906018664842,\n'
            '    "method": "ExactX0",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": 0.0,\n'
            '    "upper": 0.23104906018664842,\n'
            '    "asymptotic": 0.23104906018664842,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.3712024310988523,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 3.300131270532249e-16,\n'
            '    "lower": 0.06077385226465153,\n'
            '    "upper": 0.6931471805599453,\n'
            '    "asymptotic": 0.3662040962227033,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 2.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.5345080808867811,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 4.781073029260092e-16,\n'
            '    "lower": 0.1566678764152452,\n'
            '    "upper": 1.3333333333333333,\n'
            '    "asymptotic": 0.46209812037329684,\n'
            '    "status": "ok"\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        ['grid', '--x', '1:3:3', '--y', '0:1:2', '--time', 'v', '--method', 'ode'],
        5,
        (
            'x,y,value,method,err_estimate,lower,upper,asymptotic,status\n'
            '1,0,0,BoundaryZero,0,,,,ok\n'
            '2,0,,,,,,,never_reached\n'
            '3,0,,,,,,,never_reached\n'
            '1,1,0,BoundaryZero,0,,,,ok\n'
            '2,1,0.13754032322645732,OdeEvent,1.0000000000000001e-09,0.1351550360360548,0.13890970209485085,0.23104906018664842,ok\n'
            '3,1,0.2663962687559876,OdeEvent,1.0000000000000001e-09,0.25055259369907362,0.27902687528202236,0.32188758248682003,ok\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 0.0,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": null,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 2.0,\n'
            '    "y": 0.0,\n'
            '    "value": null,\n'
            '    "method": "",\n'
            '    "err_estimate": null,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": null,\n'
            '    "status": "never_reached"\n'
            '  },\n'
            '  {\n'
            '    "x": 3.0,\n'
            '    "y": 0.0,\n'
            '    "value": null,\n'
            '    "method": "",\n'
            '    "err_estimate": null,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": null,\n'
            '    "status": "never_reached"\n'
            '  },\n'
            '  {\n'
            '    "x": 1.0,\n'
            '    "y": 1.0,\n'
            '    "value": 0.0,\n'
            '    "method": "BoundaryZero",\n'
            '    "err_estimate": 0.0,\n'
            '    "lower": null,\n'
            '    "upper": null,\n'
            '    "asymptotic": null,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 2.0,\n'
            '    "y": 1.0,\n'
            '    "value": 0.13754032322645732,\n'
            '    "method": "OdeEvent",\n'
            '    "err_estimate": 1e-09,\n'
            '    "lower": 0.1351550360360548,\n'
            '    "upper": 0.13890970209485085,\n'
            '    "asymptotic": 0.23104906018664842,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 3.0,\n'
            '    "y": 1.0,\n'
            '    "value": 0.2663962687559876,\n'
            '    "method": "OdeEvent",\n'
            '    "err_estimate": 1e-09,\n'
            '    "lower": 0.2505525936990736,\n'
            '    "upper": 0.27902687528202236,\n'
            '    "asymptotic": 0.32188758248682003,\n'
            '    "status": "ok"\n'
            '  }\n'
            ']\n'
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, code, csv_text, json_text", ROW_OUTPUTS, ids=[" ".join(c[0]) for c in ROW_OUTPUTS]
)
def test_cli_row_out_bytes(tmp_path, capsys, argv, code, csv_text, json_text):
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        out = tmp_path / f"rows.{fmt}"
        assert main([*argv, *P23, "--format", fmt, "--out", str(out)]) == code
        assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        assert main([*argv, *P23, "--format", fmt]) == code
        assert capsys.readouterr().out == expected


def test_cli_asymptotics_ray(capsys):
    code = main(["asymptotics", *P23, "--time", "u", "--ray", "x=0",
                 "--r", "10,100"])
    out = capsys.readouterr().out
    assert code == 0
    # along x = 0 the leading-order formula is exact
    assert "1.000000000000" in out


def test_cli_asymptotics_u_below_threshold(capsys):
    # y < mu: u is 0 by the edge rules, as on a grid
    code = main(["asymptotics", *P23, "--time", "u", "--ray", "y=0.5", "--r", "10"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:2] == ["10", "0"]


def test_cli_asymptotics_v_never_reached(capsys):
    # y = 0 with x > rho: S never falls to rho
    code = main(["asymptotics", *P23, "--time", "v", "--ray", "y=0", "--r", "10"])
    assert code == 4
    assert "never reached" in capsys.readouterr().err


def test_cli_grid_process_matches_rows_to_csv(p23):
    # `python -m sirtimes.cli grid` in a child process: the module entry
    # point, its exit code and stdout give the in-process CSV bytes
    spec = GridSpec(0.5, 5.0, 7, 0.5, 4.0, 5)
    here = rows_to_csv(run_grid(p23, spec, "u", "integral").rows)
    cp = _cli_child("grid", *P23, "--x", "0.5:5:7", "--y", "0.5:4:5", "--time", "u",
                    "--method", "integral")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == here


def test_cli_verify_quick(capsys):
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    n = len(ALL_CHECKS)
    assert code == 0
    assert f"{n}/{n} checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("flags", [
    ("--out", "report.txt"),
    ("--beta", "2", "--gamma", "3"),
    ("--format", "json"),
    ("--config", "settings.txt"),
])
def test_cli_verify_takes_no_common_flags(tmp_path, monkeypatch, capsys, flags):
    # the battery pins its own parameters and prints its report, so a
    # common flag would be silently ignored; it is refused before any check
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--quick", *flags]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
