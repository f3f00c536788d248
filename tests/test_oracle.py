"""The integral route against 40-digit values of u and v.

``oracle_values.json``, written by ``make_oracle_values.py`` with mpmath,
holds about 140 states: a sample of the two README surfaces, the ray x = y
for N = 1e2 to 1e15, mu down to 1e-6, x within 1e-3 of rho, nodes where
psi's anchor rounds to x, and a few wide states. With each it holds the
error of the integral route that wrote it, or null where that route raised.
The per-node route and the grid's batch must finish at every state, with no
error above the recorded one, or above the route's own tolerance where the
recording route raised. Errors at the rounding level, within 4 units
of 2**-52 relative, and below a thousandth of QUAD_ABS_TOL absolute, the
tolerance that the route holds a time to, do not count as a rise: the
second covers v at N = 1e10 to 1e12 (about 1e-11 there), where a single
GK15 panel meets the absolute tolerance and the error reads 1e-10 to 1e-5
relative in either integrand form (accuracy relative to the time itself is
a later step).
err_estimate is not held to the error here.
"""

import json
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sirtimes import ModelParams, u_integral, v_integral
from sirtimes.analytic import QUAD_ABS_TOL, QUAD_REL_TOL
from sirtimes.batch import u_integral_batch, v_integral_batch

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")) as f:
    ORACLE = json.load(f)

ROUNDING = 4 * 2.0**-52


def _allowed(state, exact):
    """The recorded error with its floors, or the route's own tolerance
    where the recording route raised."""
    recorded = state["route_error"]
    if recorded is None:
        return max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(exact))
    return max(abs(recorded), ROUNDING * abs(exact), 1e-3 * QUAD_ABS_TOL)


def _error(value, exact):
    return abs(float(Fraction(value) - exact))


def test_oracle_covers_its_states():
    labels = {s["label"] for s in ORACLE}
    assert labels == {"surface", "ray", "small-mu", "near-rho", "anchor-at-x", "wide"}
    assert len(ORACLE) >= 100
    ray = [s["x"] + s["y"] for s in ORACLE if s["label"] == "ray" and s["kind"] == "u"]
    assert max(ray) == 1e15
    # the recording route raised at the four anchor-at-x nodes and on the
    # ray x = y from N = 1e10
    failed = [s for s in ORACLE if s["route_error"] is None]
    assert {s["label"] for s in failed} >= {"anchor-at-x", "ray"}


@pytest.mark.parametrize("route", ["scalar", "batch"])
def test_integral_route_against_the_oracle(route):
    risen = []
    for s in ORACLE:
        params = ModelParams(*s["params"])
        exact = Fraction(Decimal(s["time"]))
        if route == "scalar":
            value = (u_integral if s["kind"] == "u" else v_integral)(params, s["x"], s["y"]).value
        else:
            batch = u_integral_batch if s["kind"] == "u" else v_integral_batch
            ok, values, _ = batch(params, np.array([s["x"]]), np.array([s["y"]]))
            assert ok[0], s
            value = float(values[0])
        if _error(value, exact) > _allowed(s, exact):
            risen.append((s, value))
    assert not risen


def test_the_anchor_at_x_nodes_return_their_values():
    nodes = [s for s in ORACLE if s["label"] == "anchor-at-x"]
    assert len(nodes) == 4
    for s in nodes:
        exact = Fraction(Decimal(s["time"]))
        value = u_integral(ModelParams(*s["params"]), s["x"], s["y"]).value
        assert _error(value, exact) <= 1e-14 * float(exact)
