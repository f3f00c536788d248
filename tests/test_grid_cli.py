"""Grid sweeps and the command-line interface: determinism across runs,
status handling, exit codes, config-file merging, and exact output bytes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sirtimes
from sirtimes import (
    CSV_HEADER,
    GridSpec,
    Method,
    ModelParams,
    hitting_time_u,
    hitting_time_v,
    rows_to_csv,
    run_grid,
    u_integral,
    v_integral,
)
from sirtimes.checks import ALL_CHECKS
from sirtimes.cli import main
from sirtimes.errors import DomainError, NeverReached
from sirtimes.gridrun import critical_time, table_to_json

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
    assert x0.value == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)


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
        ['asymptotics', '--time', 'u', '--ray', 'x=y', '--r', '10:100:2'],
        (
            'r,x,y,exact,asymptotic,ratio\n'
            '10,5,5,0.81870492465022959,0.76752836433134863,1.0666770932478367\n'
            '100,50,50,1.5386223126117204,1.5350567286626973,1.0023227701507353\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "r": 10.0,\n'
            '    "x": 5.0,\n'
            '    "y": 5.0,\n'
            '    "exact": 0.8187049246502296,\n'
            '    "asymptotic": 0.7675283643313486,\n'
            '    "ratio": 1.0666770932478367\n'
            '  },\n'
            '  {\n'
            '    "r": 100.0,\n'
            '    "x": 50.0,\n'
            '    "y": 50.0,\n'
            '    "exact": 1.5386223126117204,\n'
            '    "asymptotic": 1.5350567286626973,\n'
            '    "ratio": 1.0023227701507353\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        ['asymptotics', '--time', 'v', '--ray', 'y=1', '--r', '20'],
        (
            'r,x,y,exact,asymptotic,ratio\n'
            '20,19,1,0.15167546209971527,0.14747958386871771,1.0284505700445468\n'
        ),
        (
            '[\n'
            '  {\n'
            '    "r": 20.0,\n'
            '    "x": 19.0,\n'
            '    "y": 1.0,\n'
            '    "exact": 0.15167546209971527,\n'
            '    "asymptotic": 0.1474795838687177,\n'
            '    "ratio": 1.0284505700445468\n'
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
    ],
)
def test_table_to_json_is_json_dumps(payload):
    assert table_to_json(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv, csv_text, json_text", TABLE_OUTPUTS)
def test_cli_table_out_bytes(tmp_path, argv, csv_text, json_text):
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        out = tmp_path / f"table.{fmt}"
        assert main([*argv, *P23, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()


# grid rows of compute and grid with --out, written by the row writers before
# they were merged with the table writer; exit 5 marks a grid with failed rows
ROW_OUTPUTS = [
    (
        ['compute', '--x', '4', '--y', '2'],
        0,
        (
            'x,y,value,method,err_estimate,lower,upper,asymptotic,status\n'
            '4,2,0.73451078208705278,OdeEvent,1.0000000000000001e-09,0.29182291245129993,2,0.59725315640935162,ok\n'
            '4,2,0.73451078210394494,Integral,2.672049740171651e-13,0.29182291245129993,2,0.59725315640935162,ok\n'
            '4,2,0.18306071694057977,OdeEvent,1.0000000000000001e-09,0.17312717978295,0.19141940994788387,0.19908438546978388,ok\n'
            '4,2,0.18306071690143094,Integral,3.6649591750399018e-14,0.17312717978295,0.19141940994788387,0.19908438546978388,ok\n'
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
            '    "value": 0.7345107821039449,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 2.672049740171651e-13,\n'
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
            '    "value": 0.18306071690143094,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 3.664959175039902e-14,\n'
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
            '1,2,0.37120243109885248,Integral,1.1952261410261939e-13,0.060773852264651533,0.69314718055994529,0.36620409622270328,ok\n'
            '2,2,0.53450808088678126,Integral,1.8895991111959494e-14,0.15666787641524521,1.3333333333333333,0.46209812037329684,ok\n'
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
            '    "value": 0.3712024310988525,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 1.195226141026194e-13,\n'
            '    "lower": 0.06077385226465153,\n'
            '    "upper": 0.6931471805599453,\n'
            '    "asymptotic": 0.3662040962227033,\n'
            '    "status": "ok"\n'
            '  },\n'
            '  {\n'
            '    "x": 2.0,\n'
            '    "y": 2.0,\n'
            '    "value": 0.5345080808867813,\n'
            '    "method": "Integral",\n'
            '    "err_estimate": 1.8895991111959494e-14,\n'
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
    if argv[0] == "grid":
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
