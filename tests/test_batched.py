"""The batched grid routes against the scalar ones they twin.

The numpy kernels run the scalar algorithms in lock-step over many nodes;
``run_grid`` sends interior nodes through them and every other node through
the per-node ``build_row``, on the integral route and on the ODE route.
These tests hold both layers to the scalar reference: the kernels directly,
and whole grid rows cell by cell on small grids that reach every branch of
the edge rules. The ODE batch is held to the scalar loop bit for bit.
"""

import math

import numpy as np
import pytest

from sirtimes import GridSpec, IntegratorConfig, ModelParams, kernels, ode, run_grid
from sirtimes.analytic import SPLIT_Z, solve_anchor, u_integral_batch, v_integral_batch
from sirtimes.gridrun import GRID_FIELDS, build_row

VALUE_REL = 1e-13
ERR_REL = 0.01


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


@pytest.mark.parametrize("rho, mu", [(1.5, 1.0), (1.0, 1e-6), (0.3, 1e-3)])
def test_anchor_batch_equals_scalar_bitwise(rho, mu):
    rng = np.random.default_rng(7)
    x = 10.0 ** rng.uniform(-3, 3, 400)
    y = mu * 10.0 ** rng.uniform(0, 6, 400)
    psiv = x + y - rho * np.log(x)
    # psi at and just above its minimum over y = mu, and below it (no root)
    psi_min = rho + mu - rho * math.log(rho)
    psiv = np.concatenate((psiv, [psi_min, psi_min * (1 + 1e-12), psi_min - 1.0]))
    ok, logs = kernels._anchor_log_batch(rho, mu, psiv)
    for p, got_ok, got in zip(psiv.tolist(), ok.tolist(), logs.tolist()):
        want_ok, want = kernels._anchor_log(rho, mu, p)
        assert got_ok == want_ok
        if want_ok:
            assert got == want


def test_z_space_integrand_equals_scalar_where_it_loses_digits():
    # g = rho*ln z - z + psi of order mu = 1e-6 against terms of order 1:
    # a last-bit difference in ln z would show in f
    rng = np.random.default_rng(3)
    rho, mu = 1.5, 1e-6
    z = np.exp(rng.uniform(-15.0, 3.0, 100_000))
    psiv = z - rho * np.log(z) + mu * rng.uniform(1.0, 10.0, z.size)
    f, ok = kernels._quad_f_batch(0, z, 2.0, rho, psiv)
    for zk, pk, fk, okk in zip(z.tolist(), psiv.tolist(), f.tolist(), ok.tolist()):
        assert (fk, okk) == kernels._quad_f(0, zk, 2.0, rho, pk)


@pytest.mark.parametrize(
    "kind, lo, hi, psiv, max_iv",
    [
        (0, 0.5, 1.0, 2.0, 256),  # converges
        (1, math.log(0.5), 0.0, 2.0, 256),  # converges, log space
        (0, 1.0, 1.0, 2.0, 64),  # empty interval
        (0, 0.1, 0.3, 0.2, 64),  # integrand leaves its region
        (0, 0.5, 1.0, 1.0 - 1e-4, 64),  # bad at a split, after bisecting
        (0, 0.5, 1.0, 2.0, 1),  # budget exhausted at once
        (0, 1e-9, 1.0, 2.0 + 1e-9, 3),  # budget exhausted while bisecting
    ],
)
def test_adaptive_batch_matches_scalar(kind, lo, hi, psiv, max_iv):
    want = kernels._adaptive_gk(kind, lo, hi, 1.0, 0.0, psiv, 1e-13, 1e-13, max_iv)
    status, value, err = kernels._adaptive_gk_batch(
        kind, np.array([lo, lo]), np.array([hi, hi]), 1.0, 0.0,
        np.array([psiv, psiv]), 1e-13, 1e-13, max_iv,
    )
    for k in range(2):
        assert status[k] == want[0]
        assert _rel(value[k], want[1]) <= VALUE_REL
        assert _rel(err[k], want[2]) <= ERR_REL


def test_adaptive_batch_mixed_rows_end_independently():
    # rows that end in different rounds and with different statuses
    lo = np.array([0.5, 0.1, 1e-6, 1.0, 0.5])
    hi = np.array([1.0, 0.3, 1.0, 1.0, 1.9])
    psiv = np.array([2.0, 0.2, 2.0, 2.0, 2.0])
    status, value, err = kernels._adaptive_gk_batch(
        0, lo, hi, 1.0, 0.0, psiv, 1e-13, 1e-13, 256
    )
    for k in range(lo.size):
        want = kernels._adaptive_gk(0, lo[k], hi[k], 1.0, 0.0, psiv[k], 1e-13, 1e-13, 256)
        assert status[k] == want[0]
        assert _rel(value[k], want[1]) <= VALUE_REL


def test_gk15_batch_in_chunks_equals_one_pass(monkeypatch):
    # a pass over more intervals than _GK_CHUNK is split; every cell must be
    # what one pass over all of them gives
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 1.0, 50)
    b = a + rng.uniform(0.0, 1.0, 50)
    psiv = rng.uniform(0.5, 3.0, 50)  # some intervals leave the integrand's region
    whole = kernels._gk15_batch(0, a, b, 2.0, 1.5, psiv)
    assert not whole[2].all() and whole[2].any()
    monkeypatch.setattr(kernels, "_GK_CHUNK", 7)
    for one, chunked in zip(whole, kernels._gk15_batch(0, a, b, 2.0, 1.5, psiv)):
        np.testing.assert_array_equal(chunked, one)


def test_batch_entries_flag_nodes_outside_their_interior(p23):
    xs = [-1.0, 0.0, 1.0, 2.0, 3.0]
    ys = [2.0, 2.0, 1.0, 1.0, 0.5]
    ok, _, _ = u_integral_batch(p23, xs, ys)
    # x <= 0, the y == mu edge left of rho, y < mu
    assert ok.tolist() == [False, False, False, True, False]
    ok, _, _ = v_integral_batch(p23, [1.0, 1.5, 3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 0.0, -1.0])
    assert ok.tolist() == [False, False, True, False, False]
    # the ODE batch: x < 0, y == mu, y < mu, then an interior node
    xs, ys = [-1.0, 2.0, 2.0, 2.0], [2.0, 1.0, 0.5, 2.0]
    ok, values, _ = ode._hitting_times(p23, xs, ys, kernels.EV_I, None)
    assert ok.tolist() == [False, False, False, True]
    assert values[3] == ode.hitting_time_u(p23, 2.0, 2.0).value
    # x == rho, y == 0, y < 0, then an interior node
    xs, ys = [1.5, 3.0, 3.0, 3.0], [1.0, 0.0, -1.0, 1.0]
    ok, values, _ = ode._hitting_times(p23, xs, ys, kernels.EV_S, None)
    assert ok.tolist() == [False, False, False, True]
    assert values[3] == ode.hitting_time_v(p23, 3.0, 1.0).value


def _assert_rows_match_build_row(params, spec, kind):
    rows = run_grid(params, spec, kind, "integral").rows
    assert len(rows) == spec.nx * spec.ny
    for row in rows:
        want = build_row(params, kind, "integral", row.x, row.y)
        assert (row.x, row.y) == (want.x, want.y)
        assert row.status == want.status
        assert row.method == want.method
        assert row.lower == want.lower
        assert row.upper == want.upper
        assert row.asymptotic == want.asymptotic
        if want.value is None:
            assert row.value is None and row.err_estimate is None
            continue
        assert _rel(row.value, want.value) <= VALUE_REL
        assert _rel(row.err_estimate, want.err_estimate) <= ERR_REL
    return rows


def test_grid_u_every_edge_branch(p23):
    # x from -1 to 6 by 1, y from 0.5 to 5 by 0.5: negative x, x = 0, y < mu,
    # and the y = mu row on both sides of rho = 1.5
    spec = GridSpec(-1.0, 6.0, 8, 0.5, 5.0, 10)
    rows = _assert_rows_match_build_row(p23, spec, "u")
    statuses = {r.status for r in rows}
    methods = {r.method for r in rows}
    assert "error:DomainError" in statuses
    assert {"BoundaryZero", "ExactX0", "Integral"} <= methods
    on_mu = [r for r in rows if r.y == 1.0]
    assert any(r.x < 1.5 and r.method == "BoundaryZero" for r in on_mu)
    assert any(r.x > 1.5 and r.method == "Integral" and r.value > 0.0 for r in on_mu)


def test_grid_u_log_space_left_piece(p23):
    spec = GridSpec(20.0, 60.0, 5, 1.0, 10.0, 4)
    rows = _assert_rows_match_build_row(p23, spec, "u")
    deep = [r for r in rows if solve_anchor(p23, r.x, r.y).log_a < math.log(SPLIT_Z)]
    assert deep and all(r.method == "Integral" for r in deep)


def test_grid_v_every_edge_branch(p23):
    # y = 0 (never reached), y < 0 (domain error), x <= rho (boundary zero)
    spec = GridSpec(-1.0, 6.0, 8, -1.0, 3.0, 5)
    rows = _assert_rows_match_build_row(p23, spec, "v")
    statuses = {r.status for r in rows}
    assert {"ok", "never_reached", "error:DomainError"} <= statuses
    assert any(r.x <= 1.5 and r.method == "BoundaryZero" for r in rows)
    assert any(r.y == 0.0 and r.status == "never_reached" for r in rows)


def test_grid_small_mu():
    # near-threshold orbits with a tiny mu: the integrand loses digits near
    # the anchor, where the batch must still follow the scalar route
    params = ModelParams(2.0, 3.0, 1e-6)
    spec = GridSpec(0.5, 50.0, 4, 1e-6, 1e-3, 4, spacing="log")
    for kind in ("u", "v"):
        rows = _assert_rows_match_build_row(params, spec, kind)
        assert all(r.status == "ok" for r in rows)


def test_grid_quadrature_failure_falls_back():
    # at x = 18.91... the u quadrature exhausts its budget for this tiny mu;
    # the batch gives the node up and the scalar route raises the typed error
    params = ModelParams(2.0, 3.0, 1e-6)
    spec = GridSpec(18.91483218006351, 50.0, 2, 1e-7, 1e-6, 2, spacing="log")
    rows = _assert_rows_match_build_row(params, spec, "u")
    assert [r.status for r in rows] == ["ok", "ok", "error:QuadratureFailure", "ok"]


def test_grid_rows_the_batch_gives_up_go_through_build_row(p23, monkeypatch):
    real = kernels._adaptive_gk_batch

    def first_fails(*args):
        # the first integral of each call reports no convergence, with a
        # value that would show if the row were built from it
        status, value, err = real(*args)
        status[:1] = kernels.QUAD_NOCONV
        value[:1] = 1e300
        return status, value, err

    monkeypatch.setattr(kernels, "_adaptive_gk_batch", first_fails)
    spec = GridSpec(2.0, 5.0, 4, 1.5, 4.0, 3)
    for kind in ("u", "v"):
        rows = _assert_rows_match_build_row(p23, spec, kind)
        assert all(r.status == "ok" for r in rows)


# --- the ODE route ----------------------------------------------------------

def _hex(value):
    return value if value is None or isinstance(value, str) else float.hex(value)


def _ode_states(params, stop, n, seed):
    """n log-uniform states strictly above the watched level, with caps."""
    rng = np.random.default_rng(seed)
    if stop == kernels.EV_I:
        x = params.rho * 10.0 ** rng.uniform(-2, 2, n)
        y = params.mu * 10.0 ** rng.uniform(1e-3, 3, n)
    else:
        x = params.rho * 10.0 ** rng.uniform(1e-3, 2, n)
        y = params.mu * 10.0 ** rng.uniform(-2, 2, n)
    caps = np.array([ode._time_cap(params, a, b, stop) for a, b in zip(x.tolist(), y.tolist())])
    return x, y, caps


def _assert_dp5_batch_is_scalar(params, x, y, caps, stop, cfg=ode._DEFAULT_CONFIG):
    args = (params.mu, params.rho)
    tol = (cfg.rel_tol, cfg.abs_tol)
    status, t, ev = kernels._dp5_batch(params.beta, params.gamma, x, y, *args, caps, stop, *tol)
    wants = [
        kernels._dp5(params.beta, params.gamma, a, b, *args, c, stop, *tol)
        for a, b, c in zip(x.tolist(), y.tolist(), caps.tolist())
    ]
    for j, want in enumerate(wants):
        assert status[j] == want[0]
        assert float.hex(t[j]) == float.hex(want[1])
        assert list(map(float.hex, ev[j])) == list(map(float.hex, want[2][stop]))
    return status


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
@pytest.mark.parametrize("params", [ModelParams(2.0, 3.0, 1.0), ModelParams(1.0, 0.5, 1e-3)])
def test_dp5_batch_equals_scalar_bitwise(params, stop):
    x, y, caps = _ode_states(params, stop, 150, seed=11)
    # every third node capped well before its crossing
    caps[::3] *= 0.05
    status = _assert_dp5_batch_is_scalar(params, x, y, caps, stop)
    assert {kernels.ODE_OK, kernels.ODE_CAP} <= set(status.tolist())


def test_dp5_batch_zero_error_norm_grows_the_step_tenfold(p23):
    # with abs_tol = 1e300 the scaled defects square to 0, every error norm
    # is exactly 0 and each accepted step grows by the factor cap of 10
    x, y, caps = _ode_states(p23, kernels.EV_I, 40, seed=2)
    cfg = IntegratorConfig(abs_tol=1e300)
    status = _assert_dp5_batch_is_scalar(p23, x, y, caps, kernels.EV_I, cfg)
    assert (status == kernels.ODE_OK).all()


def test_dp5_batch_nan_error_norms_shrink_the_step(p23):
    # from a NaN state every error norm is NaN: Python's max(0.2, nan) is 0.2,
    # so the step shrinks until the node stalls; np.maximum would spread the
    # NaN into h, and the stall test would never end the run
    x = np.append(np.full(20, 3.0), np.full(20, math.nan))
    y = np.append(np.linspace(1.5, 4.0, 20), np.full(20, 2.0))
    caps = np.full(40, 10.0)
    status = _assert_dp5_batch_is_scalar(p23, x, y, caps, kernels.EV_I)
    assert status.tolist() == [kernels.ODE_OK] * 20 + [kernels.ODE_STALL] * 20


def test_dp5_batch_hands_a_long_path_to_the_scalar_loop(p23, monkeypatch):
    # 40 short paths and one far longer: the long one is still running when
    # the batch hands over, and resumes mid-path in the scalar loop
    x = np.append(np.full(40, 3.0), 3000.0)
    y = np.append(np.linspace(1.5, 4.0, 40), 2.0)
    caps = np.array([ode._time_cap(p23, a, b, kernels.EV_I) for a, b in zip(x, y)])
    calls = []
    real = kernels._dp5

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_dp5", recording)
    status, t, _ = kernels._dp5_batch(
        p23.beta, p23.gamma, x, y, p23.mu, p23.rho, caps, kernels.EV_I, 1e-10, 1e-12
    )
    # each resumed run starts where the batch left it: at t0 > 0, with h0 > 0
    assert 0 < len(calls) < kernels._DP5_HANDOFF
    assert all(args[10] > 0.0 and args[11] > 0.0 for args in calls)
    assert caps[-1] in [args[6] for args in calls]
    monkeypatch.setattr(kernels, "_dp5", real)
    _assert_dp5_batch_is_scalar(p23, x, y, caps, kernels.EV_I)
    assert (status == kernels.ODE_OK).all()


def _assert_ode_rows_are_build_row(params, spec, kind, config=None):
    rows = run_grid(params, spec, kind, "ode", config).rows
    assert len(rows) == spec.nx * spec.ny
    for row in rows:
        want = build_row(params, kind, "ode", row.x, row.y, config)
        for field in GRID_FIELDS:
            assert _hex(getattr(row, field)) == _hex(getattr(want, field)), (row, field)
    return rows


def test_ode_grid_u_every_edge_branch(p23):
    # negative x, x = 0, y < mu, and the y = mu row on both sides of rho
    spec = GridSpec(-1.0, 6.0, 8, 0.5, 5.0, 10)
    rows = _assert_ode_rows_are_build_row(p23, spec, "u")
    assert "error:DomainError" in {r.status for r in rows}
    assert any(r.x == 0.0 and r.y > 1.0 and r.method == "OdeEvent" for r in rows)
    on_mu = [r for r in rows if r.y == 1.0]
    assert {r.method for r in on_mu if r.x >= 0.0} == {"BoundaryZero"}
    assert any(r.x < 1.5 for r in on_mu) and any(r.x > 1.5 for r in on_mu)
    assert any(r.y < 1.0 and r.method == "BoundaryZero" for r in rows)


def test_ode_grid_v_every_edge_branch(p23):
    # y = 0 (never reached), y < 0 (domain error), x <= rho (boundary zero)
    spec = GridSpec(-1.0, 6.0, 15, -1.0, 3.0, 9)
    rows = _assert_ode_rows_are_build_row(p23, spec, "v")
    statuses = {r.status for r in rows}
    assert {"ok", "never_reached", "error:DomainError"} <= statuses
    assert any(r.x == 1.5 and r.y > 0.0 and r.method == "BoundaryZero" for r in rows)
    assert any(r.y == 0.0 and r.x > 1.5 and r.status == "never_reached" for r in rows)
    assert sum(r.method == "OdeEvent" for r in rows) >= 2 * kernels._DP5_HANDOFF


def test_ode_grid_small_mu():
    params = ModelParams(2.0, 3.0, 1e-3)
    spec = GridSpec(0.5, 50.0, 6, 1e-3, 10.0, 6, spacing="log")
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(params, spec, kind)
        assert all(r.status == "ok" for r in rows)


def test_ode_grid_stall_rows_are_typed_errors(p23):
    config = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    spec = GridSpec(0.0, 6.0, 7, 1.0, 5.0, 5)
    rows = _assert_ode_rows_are_build_row(p23, spec, "u", config)
    stalled = [r for r in rows if r.status == "error:IntegrationStall"]
    assert len(stalled) == 7 * 4
    assert all(r.value is None and r.method == "" for r in stalled)


def test_ode_grid_honours_the_integrator_config(p23):
    config = IntegratorConfig(rel_tol=1e-8)
    spec = GridSpec(0.0, 6.0, 7, 1.0, 5.0, 5)
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(p23, spec, kind, config)
        default = run_grid(p23, spec, kind, "ode").rows
        assert any(r.err_estimate != d.err_estimate for r, d in zip(rows, default))


def test_ode_grid_overflow_rows_are_typed_errors(p23):
    # beta*S*I overflows at every node; the grid must not abort on it
    spec = GridSpec(1e299, 1e300, 2, 2.0, 1e300, 2)
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(p23, spec, kind)
        assert {r.status for r in rows} == {"error:IntegrationStall"}


def test_ode_grid_steps_in_the_batch(monkeypatch):
    # a fallback to per-node evaluation would pass every equality test above
    calls = {"_dp5": 0, "_locate": 0}

    def counting(name):
        real = getattr(kernels, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(kernels, name, counted)

    counting("_dp5")
    counting("_locate")
    readme_u = GridSpec(0.0, 6.0, 61, 1.0, 5.0, 41)
    rows = run_grid(ModelParams(2.0, 3.0, 1.0), readme_u, "u", "ode").rows
    assert sum(r.method == "OdeEvent" for r in rows) == 61 * 40
    assert calls["_dp5"] < kernels._DP5_HANDOFF
    assert calls["_locate"] < kernels._DP5_HANDOFF


# --- crossing refinement ----------------------------------------------------

def _crossings(monkeypatch, params, stop, n, seed):
    """The arguments of every scalar _locate call made while the scalar loop
    runs from n log-uniform states, as columns: (k, t, s, i, h, comp,
    level, g0, g1)."""
    calls = []
    real = kernels._locate

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_locate", recording)
    x, y, caps = _ode_states(params, stop, n, seed)
    tol = (1e-10, 1e-12)
    for a, b, c in zip(x.tolist(), y.tolist(), caps.tolist()):
        kernels._dp5(params.beta, params.gamma, a, b, params.mu, params.rho, c, stop, *tol)
    monkeypatch.setattr(kernels, "_locate", real)
    k = np.stack([c[0] for c in calls], axis=-1)
    t, s, i, h, _, level, g0, g1 = (np.array([c[j] for c in calls]) for j in range(1, 9))
    return k, t, s, i, h, stop, level[0], g0, g1


def _assert_locate_batch_is_scalar(k, t, s, i, h, comp, level, g0, g1):
    got = kernels._locate_batch(k, t, s, i, h, comp, level, g0, g1)
    for j in range(t.size):
        ev = np.zeros((2, 5))
        kernels._locate(k[:, :, j].tolist(), float(t[j]), float(s[j]), float(i[j]), float(h[j]),
                        comp, level, float(g0[j]), float(g1[j]), ev)
        assert list(map(float.hex, got[j])) == list(map(float.hex, ev[comp])), j
    return got


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
def test_locate_batch_equals_scalar_bitwise(monkeypatch, stop):
    for params, seed in ((ModelParams(2.0, 3.0, 1.0), 5), (ModelParams(1.0, 0.5, 1e-3), 6)):
        crossings = _crossings(monkeypatch, params, stop, 200, seed)
        assert crossings[1].size == 200
        _assert_locate_batch_is_scalar(*crossings)


def test_locate_batch_every_exit(monkeypatch, p23):
    k, t, s, i, h, comp, level, g0, g1 = _crossings(monkeypatch, p23, kernels.EV_I, 60, 8)
    # a loose tolerance: every bracket narrows to it, a nonzero half-width
    monkeypatch.setattr(kernels, "_EV_TOL", 1e-6)
    ev = _assert_locate_batch_is_scalar(k, t, s, i, h, comp, level, g0, g1)
    assert (ev[:, 4] > 0.0).all()
    # a bracket of 1e-300 is never reached; near the root the dense output
    # moves by less than a unit in the last place of the level per step in
    # theta, so every loop ends on an exact hit fc == 0 inside the step
    monkeypatch.setattr(kernels, "_EV_TOL", 1e-300)
    ev = _assert_locate_batch_is_scalar(k, t, s, i, h, comp, level, g0, g1)
    assert (ev[:, 4] == 0.0).all() and (ev[:, 1] < t + h).all()
    # g1 == 0 at every third crossing, in one batch with the others: the
    # crossing is the step's end
    monkeypatch.undo()
    g1[::3] = 0.0
    ev = _assert_locate_batch_is_scalar(k, t, s, i, h, comp, level, g0, g1)
    assert (ev[::3, 1] == t[::3] + h[::3]).all() and (ev[::3, 4] == 0.0).all()
    assert (ev[1::3, 1] < t[1::3] + h[1::3]).all()


def test_locate_batch_runs_into_the_iteration_cap(monkeypatch):
    # a constant field: I falls from 500.5 + j/4 at a rate of 1000 + j, so
    # near I = 0.5 the dense output is a sum of two terms of about 500 and
    # every value it takes is a multiple of 2**-44; none equals the level
    # 0.5 + 2**-53, no exact hit ends the loop, and with a tolerance of
    # 1e-300 every crossing runs the 200 iterations
    n = 20
    k = np.empty((7, 2, n))
    k[:] = -1000.0 - np.arange(n)
    s = np.full(n, 3.0)
    i = 500.5 + 0.25 * np.arange(n)
    t = np.zeros(n)
    h = np.ones(n)
    level = 0.5 + 2.0**-53
    g1 = np.array([
        kernels._dense_eval(i[j], 1.0, *kernels._dense_coeffs(k[:, :, j], 1), 1.0)
        for j in range(n)
    ]) - level
    monkeypatch.setattr(kernels, "_EV_TOL", 1e-300)
    ev = _assert_locate_batch_is_scalar(k, t, s, i, h, kernels.EV_I, level, i - level, g1)
    assert (ev[:, 4] > 0.0).all()
