"""Checked-in reference values of u and v on both README reference surfaces
and at the boundary cases, held to 1e-12 relative.

``golden_values.json`` holds about 200 (x, y, u, v) nodes. They were written
by the scalar per-node integral route before the grid runner was batched:

    PYTHONPATH=src python tests/test_golden.py

The cases are subgrids of the two README surfaces and a grid of deep
anchors (below ``SPLIT_Z``, so the log-space left piece runs). Together they
cover x = 0, x = rho, and y = mu on both sides of rho. A stored u or v is
the ``run_grid`` value at that node; None marks a row with no value.

Each value is checked twice: through ``run_grid`` (the batched grid path)
and through ``u_integral``/``v_integral`` (the scalar per-node path) wherever
those are defined. Regenerating the file moves the reference; do it only
on purpose.
"""

import json
import math
import os

import pytest

from sirtimes import GridSpec, ModelParams, run_grid, solve_anchor, u_integral, v_integral
from sirtimes.analytic import SPLIT_Z

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_values.json")
REL_TOL = 1e-12

# (name, (beta, gamma, mu), (x_min, x_max, nx, y_min, y_max, ny))
CASES = [
    # every fifth x and y node of the README u surface (0:6:61, 1:5:41)
    ("u_surface", (2.0, 3.0, 1.0), (0.0, 6.0, 13, 1.0, 5.0, 9)),
    # a subgrid of the README v surface (1:20:77, 0.5:5:19)
    ("v_surface", (3.0, 3.0, 1.0), (1.0, 20.0, 11, 0.5, 5.0, 7)),
    # anchors from about e^-10 (y = mu) down to about e^-42
    ("deep_anchor", (2.0, 3.0, 1.0), (20.0, 60.0, 3, 1.0, 10.0, 3)),
]


def _case_grid(case):
    _, (beta, gamma, mu), grid = case
    return ModelParams(beta, gamma, mu), GridSpec(*grid)


def _generate():
    cases = []
    for case in CASES:
        params, spec = _case_grid(case)
        u_rows = run_grid(params, spec, "u", "integral", threads=1).rows
        v_rows = run_grid(params, spec, "v", "integral", threads=1).rows
        nodes = [[ru.x, ru.y, ru.value, rv.value] for ru, rv in zip(u_rows, v_rows)]
        cases.append({"name": case[0], "params": case[1], "grid": case[2], "nodes": nodes})
    return {"rel_tol": REL_TOL, "cases": cases}


def _load():
    with open(GOLDEN_PATH) as fh:
        return {c["name"]: c for c in json.load(fh)["cases"]}


def _close(value, ref):
    if ref is None or value is None:
        return value is ref
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= REL_TOL * abs(ref)


@pytest.fixture(scope="module")
def golden():
    return _load()


def test_golden_file_matches_cases(golden):
    assert [c[0] for c in CASES] == list(golden)
    total = 0
    for name, params, grid in CASES:
        assert tuple(golden[name]["params"]) == params
        assert tuple(golden[name]["grid"]) == grid
        total += len(golden[name]["nodes"])
    assert 180 <= total <= 240


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("kind", ["u", "v"])
def test_golden_through_run_grid(golden, case, kind):
    params, spec = _case_grid(case)
    col = 2 if kind == "u" else 3
    rows = run_grid(params, spec, kind, "integral").rows
    nodes = golden[case[0]]["nodes"]
    assert len(rows) == len(nodes)
    bad = [
        (r.x, r.y, r.value, node[col])
        for r, node in zip(rows, nodes)
        if (r.x, r.y) != (node[0], node[1]) or not _close(r.value, node[col])
    ]
    assert not bad


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_through_scalar_integrals(golden, case):
    params, _ = _case_grid(case)
    mu, rho = params.mu, params.rho
    checked = 0
    bad = []
    for x, y, u, v in golden[case[0]]["nodes"]:
        if x > 0.0 and y >= mu:
            got = u_integral(params, x, y).value
            checked += 1
            if not _close(got, u):
                bad.append(("u", x, y, got, u))
        if x >= rho and y > 0.0:
            got = v_integral(params, x, y).value
            checked += 1
            if not _close(got, v):
                bad.append(("v", x, y, got, v))
    assert checked > 0
    assert not bad


def test_golden_covers_boundary_cases(golden):
    u_nodes = golden["u_surface"]["nodes"]
    rho, mu = 1.5, 1.0
    assert any(x == 0.0 for x, *_ in u_nodes)
    assert any(x == rho for x, *_ in u_nodes)
    assert any(y == mu and x < rho for x, y, *_ in u_nodes)
    assert any(y == mu and x > rho and u > 0.0 for x, y, u, _ in u_nodes)
    assert any(x == 1.0 for x, *_ in golden["v_surface"]["nodes"])  # rho of that surface
    deep = golden["deep_anchor"]["nodes"]
    params = ModelParams(2.0, 3.0, 1.0)
    assert any(solve_anchor(params, x, y).log_a < math.log(SPLIT_Z) for x, y, *_ in deep)


def _dump(data):
    # one node per line, so a diff of the file shows which nodes moved
    lines = ["{", f' "rel_tol": {json.dumps(data["rel_tol"])},', ' "cases": [']
    for k, case in enumerate(data["cases"]):
        lines.append(f'  {{"name": {json.dumps(case["name"])}, "params": {json.dumps(case["params"])},')
        lines.append(f'   "grid": {json.dumps(case["grid"])}, "nodes": [')
        nodes = case["nodes"]
        lines += [f"    {json.dumps(n)}" + ("," if j + 1 < len(nodes) else "") for j, n in enumerate(nodes)]
        lines.append("  ]}" + ("," if k + 1 < len(data["cases"]) else ""))
    lines += [" ]", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(_dump(_generate()))
