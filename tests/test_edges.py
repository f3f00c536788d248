"""The edge rules of both routes over one panel of nodes: invalid counts,
the edges of each time's domain, and the first nodes inside it."""

import math

import pytest

from sirtimes import (
    Method,
    ModelParams,
    hitting_time_u,
    hitting_time_v,
    kernels,
    u_integral,
    v_integral,
)
from sirtimes.batch import _hitting_times, u_integral_batch, v_integral_batch
from sirtimes.errors import SirTimesError
from sirtimes.gridrun import critical_time

P = ModelParams(2.0, 3.0, 1.0)
RHO, MU = P.rho, P.mu
ABOVE_RHO = math.nextafter(RHO, math.inf)
XS = (-1.0, -0.0, 0.0, 1.0, RHO, ABOVE_RHO, 4.0, math.nan, math.inf)
YS = (-1.0, 0.0, MU / 2, MU, math.nextafter(MU, math.inf), 2.0, math.nan, math.inf)
NODES = [(x, y) for y in YS for x in XS]

ROUTES = {
    "u": (u_integral, hitting_time_u, u_integral_batch, kernels.EV_I),
    "v": (v_integral, hitting_time_v, v_integral_batch, kernels.EV_S),
}
KERNEL_METHODS = (Method.INTEGRAL, Method.ODE_EVENT)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of its typed error."""
    try:
        return fn(*args)
    except SirTimesError as exc:
        return type(exc), str(exc)


def _kind(outcome):
    """The outcome's error type, or its Method with the two routes' kernel
    tags read as one."""
    if isinstance(outcome, tuple):
        return outcome[0]
    return "kernel" if outcome.method in KERNEL_METHODS else outcome.method


@pytest.mark.parametrize("kind", ["u", "v"])
def test_both_routes_share_the_edge_rules(kind):
    integral, hitting_time, batch, row = ROUTES[kind]
    # lists, not dicts: -0.0 and 0.0 would share a key
    got = [_outcome(integral, P, x, y) for x, y in NODES]
    ode = [_outcome(hitting_time, P, x, y) for x, y in NODES]
    for (x, y), a, b in zip(NODES, got, ode):
        # the integral route through critical_time is the route function
        assert _outcome(critical_time, P, kind, x, y, "integral") == a, (x, y)
        if kind == "u" and y == MU and RHO < x < math.inf:
            # the one documented split: the integral's positive continuation
            # against the ODE route's threshold already met
            assert a.method is Method.INTEGRAL and a.value > 0.0, (x, y)
            assert b.method is Method.BOUNDARY_ZERO, (x, y)
        elif kind == "u" and x == 0.0 and MU < y < math.inf:
            # the closed form meets the integration; relative to max(1, u),
            # as the cross-route checks measure it
            assert a.method is Method.EXACT_X0 and b.method is Method.ODE_EVENT
            assert abs(a.value - b.value) <= 1e-9 * max(1.0, a.value), (x, y)
        else:
            assert _kind(a) == _kind(b), (x, y, a, b)
    # each batch entry takes exactly the nodes its per-node entry computes
    xs = [x for x, _ in NODES]
    ys = [y for _, y in NODES]
    for ok, per_node in (
        (batch(P, xs, ys)[0], got),
        (_hitting_times(P, xs, ys, row, None)[0], ode),
    ):
        assert ok.tolist() == [_kind(out) == "kernel" for out in per_node]


# Times below 1e-15. The first step is clipped to the time cap, so the stall
# floor must scale with a cap below 1 for these runs to take a step at all.
@pytest.mark.parametrize("y", [y for y in YS if 0.0 < y < math.inf])
def test_ode_route_reaches_v_one_ulp_above_rho(y):
    r = hitting_time_v(P, ABOVE_RHO, y)
    assert r.method is Method.ODE_EVENT
    assert abs(r.value - v_integral(P, ABOVE_RHO, y).value) <= 1e-9


@pytest.mark.parametrize("kind", ["u", "v"])
def test_ode_route_reaches_times_at_fast_rates(kind):
    # u is about 1.6e-20 and v 3.1e-21 here
    fast = ModelParams(1e20, 1e20, 1.0)
    integral, hitting_time, _, _ = ROUTES[kind]
    r = hitting_time(fast, 2.0, 2.0)
    assert r.method is Method.ODE_EVENT
    assert abs(r.value - integral(fast, 2.0, 2.0).value) <= 1e-9
