"""The two reference surfaces of the README and the stored integral-route
values they are checked against.

``reference.json`` holds the integral route's values at every node, written
by ``make_reference.py`` at the commit that added this benchmark. A grid result is correct when
every row has status ``ok`` and its value lies within ``TOL`` of the stored
value, relative to that value (a stored 0 must be met exactly).
"""

import json
import os

from sirtimes import GridSpec, ModelParams

# checks.CROSS_METHOD_TOL is the precedent; here it is relative to the value
# itself, so small times are held to the same relative accuracy as large ones
TOL = 1e-6

SURFACES = {
    "u": (ModelParams(beta=2.0, gamma=3.0, mu=1.0), GridSpec(0.0, 6.0, 61, 1.0, 5.0, 41)),
    "v": (ModelParams(beta=3.0, gamma=3.0), GridSpec(1.0, 20.0, 77, 0.5, 5.0, 19)),
}

# for the benchmark's self-test only
TINY_SURFACES = {
    "u": (SURFACES["u"][0], GridSpec(0.0, 6.0, 4, 1.0, 5.0, 3)),
    "v": (SURFACES["v"][0], GridSpec(1.0, 20.0, 4, 0.5, 5.0, 3)),
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict[str, list[float]]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["value"]


def agrees(value: float, ref: float) -> bool:
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= TOL * abs(ref)


def edge_split(kind: str, x: float, y: float, value: float) -> bool:
    """True at a node where the two routes' documented edge rules differ.

    On the row y == mu with x > rho, ``u_integral`` returns the positive
    continuation (the orbit rises above mu and falls back), while
    ``hitting_time_u`` returns 0 for every y <= mu. An ODE-route value of 0
    there follows its own rule and is not a numerical error.
    """
    params = SURFACES[kind][0]
    return kind == "u" and y == params.mu and x > params.rho and value == 0.0
