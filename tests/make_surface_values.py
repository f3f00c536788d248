"""Write ``surface_values.json``: the value and err_estimate cells of the
integral route's rows on the two README surfaces, for
``tests/test_grid_cli.py``.

These two cells follow numpy's SIMD log and exp, which differ between CPU
levels and numpy builds in the last bits; the test holds them to this file
within a tolerance and every other cell of the rows exactly. Rerun it when
a change is meant to move them:

    PYTHONPATH=src python tests/make_surface_values.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from test_grid_cli import README_SURFACES  # noqa: E402

from sirtimes import run_grid  # noqa: E402

PATH = os.path.join(HERE, "surface_values.json")


def main():
    table = {}
    for kind, (params, spec) in README_SURFACES.items():
        rows = run_grid(params, spec, kind, "integral").rows
        table[kind] = {
            "value": [r.value for r in rows],
            "err_estimate": [r.err_estimate for r in rows],
        }
    with open(PATH, "w") as f:
        json.dump(table, f)
        f.write("\n")


if __name__ == "__main__":
    main()
