"""The verify battery: its shared reference surfaces are each built once per
process and route, the checks that sample states evaluate them in one batch
per route with the same outcome as the scalar per-state loop, and a node or
state that failed counts against a check instead of being skipped."""

import math

import numpy as np
import pytest

from sirtimes import (
    batch,
    checks,
    gridrun,
    hitting_time_u,
    hitting_time_v,
    kernels,
    pde_residual,
    u_integral,
    v_integral,
)
from sirtimes.errors import DomainError, TimeCapExceeded
from sirtimes.pde import stencil_points

# first node of the quick threshold grid
X0, Y0 = 0.1, 1.01


@pytest.fixture
def fresh_surfaces():
    checks._surface.cache_clear()
    yield
    checks._surface.cache_clear()


def test_run_all_builds_each_surface_once(monkeypatch, fresh_surfaces):
    calls = []
    real = checks.run_grid

    def counting(params, spec, time_kind, method="integral", config=None):
        calls.append((time_kind, method))
        return real(params, spec, time_kind, method, config)

    monkeypatch.setattr(checks, "run_grid", counting)
    outcomes = checks.run_all(quick=True)
    assert all(oc.passed for oc in outcomes)
    assert len(calls) == 4
    assert set(calls) == {(k, m) for k in ("u", "v") for m in ("ode", "integral")}


def test_sandwich_counts_a_missing_bound(monkeypatch, fresh_surfaces):
    real = gridrun.bounds_u
    real_batch = batch._side_cells_batch

    def flaky(params, x, y):
        if (x, y) == (X0, Y0):
            raise DomainError("injected")
        return real(params, x, y)

    def batch_gives_up(params, kind, xs, ys):
        # the batch leaves the node to the per-node bounds, which then fail
        inside, *cells = real_batch(params, kind, xs, ys)
        inside[[(x, y) == (X0, Y0) for x, y in zip(xs, ys)]] = False
        return inside, *cells

    monkeypatch.setattr(gridrun, "bounds_u", flaky)
    monkeypatch.setattr(batch, "_side_cells_batch", batch_gives_up)
    oc = checks.check_bounds_sandwich_u(quick=True)
    assert not oc.passed
    assert oc.metrics["violations"] == 1
    assert oc.metrics["worst"] == float("inf")


def test_cross_method_counts_a_failed_row(monkeypatch, fresh_surfaces):
    real = gridrun.hitting_time_u
    real_batch = batch._hitting_times

    def flaky(params, x, y, config=None):
        if (x, y) == (X0, Y0):
            raise TimeCapExceeded(1.0, 0.5)
        return real(params, x, y, config)

    def batch_gives_up(params, xs, ys, row, config):
        # the batch leaves the node to the per-node route, which then fails
        ok, values, errs = real_batch(params, xs, ys, row, config)
        ok[[(x, y) == (X0, Y0) for x, y in zip(xs, ys)]] = False
        return ok, values, errs

    monkeypatch.setattr(gridrun, "hitting_time_u", flaky)
    monkeypatch.setattr(batch, "_hitting_times", batch_gives_up)
    oc = checks.check_cross_method_u(quick=True)
    assert not oc.passed
    assert oc.metrics["worst"] == float("inf")
    assert oc.metrics["nodes"] == 117


# --- the checks that sample states --------------------------------------------
# Each is recomputed here the way it was before it was batched: one scalar
# call per state, in the battery's order.


def _scalar_ordering(quick):
    n = 40 if quick else 200
    params = checks.U_PARAMS
    rng = np.random.default_rng(11)
    worst = -math.inf
    for _ in range(n):
        x = float(rng.uniform(0.0, 6.0))
        y = float(rng.uniform(params.mu, 5.0))
        u = hitting_time_u(params, x, y).value
        v = hitting_time_v(params, x, y).value
        worst = max(worst, v - u)
    tol = checks.ORDERING_TOL
    detail = f"max (v - u) = {worst:.3e} over {n} random states (tol {tol:g})"
    return worst <= tol, detail, {"worst": worst}


def _scalar_pde_order(kind, quick):
    if kind == "u":
        params, points, integral = checks.U_PARAMS, checks.PDE_POINTS_U, u_integral
        lower = (0.0, params.mu)
    else:
        params, points, integral = checks.V_PARAMS, checks.PDE_POINTS_V, v_integral
        lower = (params.rho, 0.0)
    fld = lambda a, b: integral(params, a, b).value
    orders = []
    worst = 0.0
    for x, y in points[::4] if quick else points:
        orders.append(pde_residual(fld, params, x, y, 1e-3, domain_lower=lower).order_estimate)
        small = pde_residual(fld, params, x, y, 2.5e-4, domain_lower=lower)
        worst = max(worst, abs(small.residual))
    lo, hi = checks.ORDER_RANGE
    tol = checks.RESIDUAL_SMALL_H_TOL
    passed = all(o is not None and lo <= o <= hi for o in orders) and worst <= tol
    shown = ", ".join("None" if o is None else f"{o:.2f}" for o in orders)
    detail = (
        f"orders [{shown}] (range {checks.ORDER_RANGE}), max |residual| at "
        f"h=2.5e-4 {worst:.3e} (tol {tol:g})"
    )
    return passed, detail, {"orders": orders, "worst_resid": worst}


def _vanishing_points(quick):
    points = [(float(x), 0.5) for x in np.geomspace(1e4, 1e6, 10)]
    points += [(float(r) / 2.0, float(r) / 2.0) for r in np.geomspace(1e4, 1e6, 5)]
    points += [(1e4, float(y)) for y in np.geomspace(0.5, 1e4, 5)]
    return points[::4] if quick else points


def _scalar_vanishing(quick):
    points = _vanishing_points(quick)
    worst = 0.0
    for x, y in points:
        worst = max(worst, v_integral(checks.V_PARAMS, x, y).value)
    tol = checks.VANISHING_V_TOL
    detail = (
        f"max v {worst:.3e} over {len(points)} states with x + y >= 1e4, "
        f"y >= 0.5 (tol {tol:g})"
    )
    return worst <= tol, detail, {"worst": worst}


SAMPLED = {
    "ordering_v_le_u": (checks.check_ordering_v_le_u, _scalar_ordering),
    "pde_order_u": (checks.check_pde_order_u, lambda q: _scalar_pde_order("u", q)),
    "pde_order_v": (checks.check_pde_order_v, lambda q: _scalar_pde_order("v", q)),
    "vanishing_v": (checks.check_vanishing_v, _scalar_vanishing),
}


def _hexed(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("name", list(SAMPLED))
def test_sampled_check_equals_the_scalar_loop(name, quick):
    check, scalar = SAMPLED[name]
    oc = check(quick=quick)
    passed, detail, metrics = scalar(quick)
    assert oc.name == name
    assert (oc.passed, oc.detail) == (passed, detail)
    assert {k: _hexed(v) for k, v in oc.metrics.items()} == {
        k: _hexed(v) for k, v in metrics.items()
    }


def _count_calls(monkeypatch, name):
    """The calls of the kernel *name* on floats, from its own module and
    from the array module's twins: a call on arrays (its last argument
    batch._ARRAYS) is not counted."""
    calls = []
    real = getattr(kernels, name)

    def counted(*args):
        if args[-1] is not batch._ARRAYS:
            calls.append(args)
        return real(*args)

    for module in (kernels, batch):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sampled_checks_make_few_scalar_calls(monkeypatch):
    # a fallback to one call per state would pass the equality test above
    dp5 = _count_calls(monkeypatch, "_dp5")
    checks.check_ordering_v_le_u()
    assert len(dp5) == 0
    gk = _count_calls(monkeypatch, "_graded_gk")
    for check in (checks.check_pde_order_u, checks.check_pde_order_v, checks.check_vanishing_v):
        gk.clear()
        check()
        assert len(gk) < 10, check.__name__


@pytest.fixture
def broken(monkeypatch, fresh_surfaces):
    """A set of states at which the grid evaluator fails on every route and
    kind: the batches leave them to the per-node route, which raises."""
    states = set()

    def batch_gives_up(real):
        def wrapped(params, xs, ys, *rest):
            ok, values, errs = real(params, xs, ys, *rest)
            ok[[(x, y) in states for x, y in zip(xs, ys)]] = False
            return ok, values, errs
        return wrapped

    def node_fails(real):
        def wrapped(params, x, y, *rest):
            if (x, y) in states:
                raise TimeCapExceeded(1.0, 0.5)
            return real(params, x, y, *rest)
        return wrapped

    for name in ("u_integral_batch", "v_integral_batch", "_hitting_times"):
        monkeypatch.setattr(batch, name, batch_gives_up(getattr(batch, name)))
    for name in ("u_integral", "v_integral", "hitting_time_u", "hitting_time_v"):
        monkeypatch.setattr(gridrun, name, node_fails(getattr(gridrun, name)))
    return states


def _first_states():
    """A state each sampled check evaluates, and its state count in quick
    mode."""
    rng = np.random.default_rng(11)
    ordering = (float(rng.uniform(0.0, 6.0)), float(rng.uniform(checks.U_PARAMS.mu, 5.0)))
    return {
        "ordering_v_le_u": (ordering, 40),
        "pde_order_u": (stencil_points(*checks.PDE_POINTS_U[0], 1e-3)[0], 36),
        # a state of the h = 1e-3 study's h/4 level, which the h = 2.5e-4
        # residual reads too
        "pde_order_v": (stencil_points(*checks.PDE_POINTS_V[0], 1e-3)[8], 36),
        "vanishing_v": (_vanishing_points(True)[0], 5),
    }


@pytest.mark.parametrize("name", list(SAMPLED))
def test_sampled_check_counts_a_failed_state(broken, name):
    state, n = _first_states()[name]
    broken.add(state)
    oc = SAMPLED[name][0](quick=True)
    assert not oc.passed
    assert oc.detail.endswith(f"; 1 of {n} states failed")


def test_run_all_reports_the_checks_with_failed_states(broken):
    broken.update(state for state, _ in _first_states().values())
    outcomes = checks.run_all(quick=True)
    assert len(outcomes) == len(checks.ALL_CHECKS) == 20
    assert [oc.name for oc in outcomes if not oc.passed] == [
        "pde_order_u", "pde_order_v", "ordering_v_le_u", "vanishing_v"
    ]
