"""The verify battery's shared reference surfaces: each is built once per
process and route, and a node that failed counts against a check instead of
being skipped."""

import pytest

from sirtimes import checks, gridrun
from sirtimes.errors import DomainError, TimeCapExceeded

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

    def flaky(params, x, y):
        if (x, y) == (X0, Y0):
            raise DomainError("injected")
        return real(params, x, y)

    monkeypatch.setattr(gridrun, "bounds_u", flaky)
    oc = checks.check_bounds_sandwich_u(quick=True)
    assert not oc.passed
    assert oc.metrics["violations"] == 1
    assert oc.metrics["worst"] == float("inf")


def test_cross_method_counts_a_failed_row(monkeypatch, fresh_surfaces):
    real = gridrun.hitting_time_u
    real_batch = gridrun._hitting_times

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
    monkeypatch.setattr(gridrun, "_hitting_times", batch_gives_up)
    oc = checks.check_cross_method_u(quick=True)
    assert not oc.passed
    assert oc.metrics["worst"] == float("inf")
    assert oc.metrics["nodes"] == 117
