"""numpy stays out of the per-node path: importing the package, every
per-node entry point and the one-state subcommands run without loading it,
and only a grid loads the array module. Each case runs in a fresh
interpreter, since this one has numpy loaded already."""

import os
import subprocess
import sys

from sirtimes import GridSpec, ModelParams, rows_to_csv, run_grid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SPEC = GridSpec(0.0, 6.0, 7, 1.0, 5.0, 5)

# Each step, then the assertion that numpy is still not loaded after it.
PER_NODE = f"""
import sys


def no_numpy(after):
    assert "numpy" not in sys.modules, f"numpy loaded by {{after}}"


import sirtimes
from sirtimes import *
from sirtimes.gridrun import build_row, critical_time
from sirtimes.cli import main

no_numpy("import sirtimes")
p = ModelParams(2.0, 3.0, 1.0)
for fn in (hitting_time_u, hitting_time_v, u_integral, v_integral, bounds_u, bounds_v,
           asymptotic_u, asymptotic_v, solve_anchor, psi):
    fn(p, 4.0, 2.0)
    no_numpy(fn.__name__)
exact_u_at_x0(p, 2.0)
vector_field(p, SirState(4.0, 2.0))
traj = integrate(p, 4.0, 2.0, 3.0)
traj.eval(1.3)
traj.samples
no_numpy("integrate")
pde_residual(lambda x, y: u_integral(p, x, y).value, p, 4.0, 2.0, 1e-3)
check_boundary_u(p, [0.5, 1.0])
check_boundary_v(p, [0.5, 1.0])
check_characteristic_identity(p, 4.0, 2.0, [0.0, 0.5])
no_numpy("the PDE checks")
for method in ("ode", "integral"):
    critical_time(p, "u", 4.0, 2.0, method)
rows = [build_row(p, "v", "ode", 4.0, 2.0), build_row(p, "u", "integral", 0.0, 0.5)]
rows_to_csv(rows)
rows_to_json(rows)
{SPEC!r}
no_numpy("one-node rows and the emitters")
for argv in (
    ["compute", "--beta", "2", "--gamma", "3", "--x", "4", "--y", "2"],
    ["bounds", "--beta", "2", "--gamma", "3", "--x", "4", "--y", "2"],
    ["asymptotics", "--beta", "2", "--gamma", "3", "--time", "u", "--ray", "x=y",
     "--r", "10:1000:3"],
    ["asymptotics", "--beta", "2", "--gamma", "3", "--time", "v", "--ray", "y=1",
     "--r", "10,100", "--format", "json"],
):
    assert main(argv) == 0
    no_numpy(" ".join(argv))
"""

GRID_ROWS = f"""
import sys
from sirtimes import GridSpec, ModelParams, rows_to_csv, run_grid

assert "numpy" not in sys.modules
p = ModelParams(2.0, 3.0, 1.0)
for kind in ("u", "v"):
    for method in ("integral", "ode"):
        sys.stdout.write(rows_to_csv(run_grid(p, {SPEC!r}, kind, method).rows))
assert "numpy" in sys.modules
"""


def _child(code):
    """The standard output of *code* run in a fresh interpreter with the
    package's sources on its path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_per_node_api_and_one_state_subcommands_leave_numpy_unloaded():
    _child(PER_NODE)


def test_a_grid_loads_numpy_and_gives_the_same_rows():
    p = ModelParams(2.0, 3.0, 1.0)
    want = "".join(
        rows_to_csv(run_grid(p, SPEC, kind, method).rows)
        for kind in ("u", "v")
        for method in ("integral", "ode")
    )
    assert _child(GRID_ROWS) == want
