#!/usr/bin/env python3
"""Write reference.json: the integral route's value at every node of the two
reference surfaces.

Run from the repository root, on the commit whose values are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sirtimes import run_grid  # noqa: E402

from surfaces import REFERENCE_PATH, SURFACES  # noqa: E402


def main() -> None:
    values = {}
    for kind, (params, spec) in SURFACES.items():
        rows = run_grid(params, spec, kind, "integral").rows
        bad = [r for r in rows if r.status != "ok"]
        if bad:
            raise SystemExit(f"{kind} surface has {len(bad)} rows not ok")
        values[kind] = [r.value for r in rows]
    payload = {
        "route": "integral",
        "order": "row-major, y outer, x inner, as run_grid returns rows",
        "value": values,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
