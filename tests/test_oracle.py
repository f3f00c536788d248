"""The integral route against 40-digit values of u and v.

``oracle_values.json``, written by ``make_oracle_values.py`` with mpmath,
holds about 140 states: a sample of the two README surfaces, the ray x = y
for N = 1e2 to 1e15, mu down to 1e-6, x within 1e-3 of rho, nodes where
the anchor lies within rounding of x, and a few wide states. With each it
holds the error of the integral route that wrote it, which finished at
every state. The per-node route and the grid's batch must finish at every
state, with no error above the recorded one; errors at the rounding level,
within 4 units of 2**-52 relative, do not count as a rise. Every
err_estimate must be at least the error, on both routes, and sharp: at
most 100 times the error or an ulp of the time, whichever is larger, and
within 10 times it in the median of each label.
The per-node route evaluates 2067 GK15 panels over the states, about 15
each, where each piece's first pass meets the tolerance; halving every
panel twice wherever a loose estimate missed it took 4249. The integral
values that ``surface_values.json`` holds for the README surfaces lie
within 2 ulps of the oracle at its surface states.
"""

import functools
import json
import math
import os
import statistics
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sirtimes import ModelParams, kernels, u_integral, v_integral
from sirtimes.batch import u_integral_batch, v_integral_batch

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")) as f:
    ORACLE = json.load(f)

ROUNDING = 4 * 2.0**-52


def _allowed(state, exact):
    """The recorded error with its rounding floor."""
    return max(abs(state["route_error"]), ROUNDING * abs(exact))


def _error(value, exact):
    return abs(float(Fraction(value) - exact))


@functools.cache
def _route(route):
    """(state, exact time, value, err_estimate) at every state, by the
    per-node route or the grid's batch."""
    out = []
    for s in ORACLE:
        params = ModelParams(*s["params"])
        exact = Fraction(Decimal(s["time"]))
        if route == "scalar":
            result = (u_integral if s["kind"] == "u" else v_integral)(params, s["x"], s["y"])
            value, estimate = result.value, result.err_estimate
        else:
            batch = u_integral_batch if s["kind"] == "u" else v_integral_batch
            ok, values, errs = batch(params, np.array([s["x"]]), np.array([s["y"]]))
            assert ok[0], s
            value, estimate = float(values[0]), float(errs[0])
        out.append((s, exact, value, estimate))
    return out


def test_oracle_covers_its_states():
    labels = {s["label"] for s in ORACLE}
    assert labels == {"surface", "ray", "small-mu", "near-rho", "anchor-at-x", "wide"}
    assert len(ORACLE) >= 100
    ray = [s["x"] + s["y"] for s in ORACLE if s["label"] == "ray" and s["kind"] == "u"]
    assert max(ray) == 1e15
    # the recording route finished at every state
    assert not [s for s in ORACLE if s["route_error"] is None]


@pytest.mark.parametrize("route", ["scalar", "batch"])
def test_integral_route_against_the_oracle(route):
    risen = []
    missed = []
    for s, exact, value, estimate in _route(route):
        error = _error(value, exact)
        if error > _allowed(s, exact):
            risen.append((s, value))
        if error > estimate:
            missed.append((s, value, estimate))
    assert not risen
    assert not missed


@pytest.mark.parametrize("route", ["scalar", "batch"])
def test_err_estimate_is_sharp(route):
    # the estimate over the error, or over an ulp of the time where the
    # error is smaller: at most 100 at every state, and at most 10 in the
    # median of each label
    ratios = {}
    for s, exact, value, estimate in _route(route):
        ratio = estimate / max(_error(value, exact), math.ulp(float(exact)))
        assert ratio <= 100.0, (s, value, estimate)
        ratios.setdefault(s["label"], []).append(ratio)
    assert len(ratios) == 6
    for label, values in ratios.items():
        assert statistics.median(values) <= 10.0, label


def test_first_passes_meet_the_tolerance(monkeypatch):
    # the GK15 panels that the per-node route evaluates over every state
    panels = 0
    real = kernels._gk15

    def counting(*args):
        nonlocal panels
        panels += 1
        return real(*args)

    monkeypatch.setattr(kernels, "_gk15", counting)
    for s in ORACLE:
        (u_integral if s["kind"] == "u" else v_integral)(ModelParams(*s["params"]), s["x"], s["y"])
    assert panels == 2067


def test_the_anchor_at_x_nodes_return_their_values():
    nodes = [s for s in ORACLE if s["label"] == "anchor-at-x"]
    assert len(nodes) == 4
    for s in nodes:
        exact = Fraction(Decimal(s["time"]))
        value = u_integral(ModelParams(*s["params"]), s["x"], s["y"]).value
        assert _error(value, exact) <= 1e-14 * float(exact)


def test_held_surface_values_against_the_oracle():
    # 1.79 ulps at worst, from the graded rule
    from test_grid_cli import README_SURFACES, SURFACE_VALUES

    checked = 0
    for kind, (_, spec) in README_SURFACES.items():
        xs = spec.xs().tolist()
        cell = {(x, y): j * len(xs) + i for j, y in enumerate(spec.ys().tolist())
                for i, x in enumerate(xs)}
        held = SURFACE_VALUES[kind]["integral"]["value"]
        for s in ORACLE:
            if s["label"] == "surface" and s["kind"] == kind:
                exact = Fraction(Decimal(s["time"]))
                value = held[cell[s["x"], s["y"]]]
                assert _error(value, exact) <= 2.0 * math.ulp(float(exact)), s
                checked += 1
    assert checked == 68
