"""Write ``surface_values.json``: the value and err_estimate cells of the
rows on the two README surfaces, by route, for ``tests/test_grid_cli.py``.

On the integral route these two cells follow numpy's SIMD log and exp, and
on the ODE route numpy's SIMD power, which takes the lock-step loop's step
sizes; all three differ between CPU levels and numpy builds in the last
bits. The test holds the cells to this file within a tolerance and every
other cell of the rows exactly. The integral cells are taken from
``run_grid``; the ODE cells from the per-node route (``build_row``), which
takes its powers through libm's pow and whose bits do not depend on the
CPU. Rerun it, for the routes named or for both, when a change is meant to
move them; the other route's cells are kept:

    PYTHONPATH=src python tests/make_surface_values.py [integral] [ode]
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from test_grid_cli import README_SURFACES  # noqa: E402

from sirtimes import run_grid  # noqa: E402
from sirtimes.gridrun import build_row  # noqa: E402

PATH = os.path.join(HERE, "surface_values.json")
ROUTES = ("integral", "ode")


def _rows(kind, method):
    params, spec = README_SURFACES[kind]
    if method == "integral":
        return run_grid(params, spec, kind, method).rows
    xs = spec.xs().tolist()
    return [build_row(params, kind, method, x, y) for y in spec.ys().tolist() for x in xs]


def main(routes):
    with open(PATH) as f:
        table = json.load(f)
    for kind in README_SURFACES:
        for method in routes:
            rows = _rows(kind, method)
            table.setdefault(kind, {})[method] = {
                "value": [r.value for r in rows],
                "err_estimate": [r.err_estimate for r in rows],
            }
    with open(PATH, "w") as f:
        json.dump(table, f)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ROUTES)
