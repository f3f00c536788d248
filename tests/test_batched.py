"""The batched grid routes against the scalar ones they twin.

The numpy kernels run the scalar algorithms in lock-step over many nodes;
``run_grid`` sends interior nodes through them and every other node through
the per-node ``build_row``, on the integral route and on the ODE route.
These tests hold both layers to the scalar reference: the kernels directly,
and whole grid rows cell by cell on small grids that reach every branch of
the edge rules. The DP5 loop, one loop for floats and arrays, is held on
both kinds and in both modes to a reference copy of the loop as it was
written for floats alone: bit for bit on arrays when they take their step
sizes' powers through Python's pow, as floats do, and to rounding with the
numpy power they take by default.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirtimes import (
    GridSpec,
    IntegratorConfig,
    ModelParams,
    analytic,
    batch,
    kernels,
    ode,
    run_grid,
)
from sirtimes.analytic import solve_anchor, u_integral
from sirtimes.batch import _side_cells_batch, u_integral_batch, v_integral_batch
from sirtimes.gridrun import GRID_FIELDS, build_row, side_cells

VALUE_REL = 1e-13
ERR_REL = 0.01


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def _assert_anchor_batch_is_scalar(rho, mu, x, y):
    """The anchor offset on arrays equals the float one bit for bit, and
    lies at or left of both x and the peak. Returns the float offsets."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    s_rho = analytic._log_ratio(rho, x, batch._ARRAYS)
    arrays = kernels._anchor_offset(rho, mu, x, y, s_rho, batch._ARRAYS)
    floats = []
    for xi, yi, got in zip(x.tolist(), y.tolist(), arrays.tolist()):
        want = kernels._anchor_offset(rho, mu, xi, yi, analytic._log_ratio(rho, xi))
        assert got == want
        assert math.isfinite(want) and want <= min(0.0, analytic._log_ratio(rho, xi))
        floats.append(want)
    return floats


@pytest.mark.parametrize("rho, mu", [(1.5, 1.0), (1.0, 1e-6), (0.3, 1e-3)])
def test_anchor_batch_equals_scalar_bitwise(rho, mu):
    rng = np.random.default_rng(7)
    x = 10.0 ** rng.uniform(-3, 3, 400)
    y = mu * 10.0 ** rng.uniform(0, 6, 400)
    # on the threshold line, left and right of the peak and at it
    x = np.concatenate((x, [0.5 * rho, rho, 2.0 * rho]))
    y = np.concatenate((y, [mu, mu, mu]))
    _assert_anchor_batch_is_scalar(rho, mu, x, y)


@pytest.mark.parametrize("rho, mu", [(1.5, 1.0), (1.0, 1e-6), (0.3, 1e-3), (2.5, 1e-3)])
def test_anchor_next_to_the_branch_point(rho, mu):
    # the deficit 1 to 64 ulps above 0, where W0(-e^-c) is about -1 and e^t
    # - 1 may round to 0: y above mu at x = rho, x above rho at y = mu, and
    # x below rho with y above mu
    k = np.arange(1.0, 65.0)
    x = np.concatenate((np.full(64, rho), rho * (1.0 + k * 2.0**-52), rho * (1.0 - k * 2.0**-53)))
    y = np.concatenate((mu * (1.0 + k * 2.0**-52), np.full(64, mu), mu * (1.0 + k * 2.0**-52)))
    offsets = _assert_anchor_batch_is_scalar(rho, mu, x, y)
    params = ModelParams(1.0, rho, mu)
    for xi, yi, s in zip(x.tolist(), y.tolist(), offsets):
        log_a = solve_anchor(params, xi, yi).log_a
        assert log_a == math.log(xi) + s
        assert log_a <= math.log(rho) + 2.0**-52 * abs(math.log(rho))


def test_anchor_near_the_float_range():
    # at rho = 1e303 the deficit's terms, rho - x and rho*ln(rho/x), come
    # within a few decades of the float range
    rho, mu = 1e303, 1.0
    d = np.array([1e-6, 1e-2, 1.0, 3.0, 1e2])
    x = np.concatenate((np.full(5, rho), np.full(5, 2.0 * rho)))
    y = mu + rho * np.tile(d, 2)
    _assert_anchor_batch_is_scalar(rho, mu, x, y)
    # counts near the float range on the integral route, where the far
    # tail, ln(I/mu)/gamma, carries u: the grid route raises no
    # RuntimeWarning and gives the scalar route's values
    params = ModelParams(1.0, 1.0)
    xs, ys = [1.0, 5.0], [1e301, 1e302]
    ok, values, _ = u_integral_batch(params, xs, ys)
    assert ok.all()
    for x, y, got in zip(xs, ys, values.tolist()):
        want = u_integral(params, x, y).value
        assert _rel(got, want) <= VALUE_REL
        assert want == pytest.approx(math.log(y), rel=1e-15, abs=0)


def test_integrand_batch_matches_scalar():
    # GK15 panels from a reference point (S0, I0) next to the anchor, I0 =
    # mu of 1e-6 against S0 of order 1, toward rho: with math's expm1 the
    # batch gives the scalar values bit for bit; numpy's differs from math's in the last
    # bit at about a tenth of the points, and no cancellation may magnify
    # it beyond a few units in the last place of the panel's value
    rng = np.random.default_rng(3)
    rho, mu = 1.5, 1e-6
    s_ref = np.exp(rng.uniform(-15.0, 0.0, 5_000))
    hi = np.log(rho / s_ref) * rng.uniform(0.0, 1.0, s_ref.size)
    lo = hi * rng.uniform(0.0, 1.0, s_ref.size)
    i_ref = np.full(s_ref.size, mu)
    simd = batch._gk15_batch(lo, hi, 2.0, rho, s_ref, i_ref, np.expm1)
    exact = batch._gk15_batch(lo, hi, 2.0, rho, s_ref, i_ref, batch._ARRAYS.expm1)
    assert simd[2].all()
    for k, want in enumerate(map(kernels._gk15, lo.tolist(), hi.tolist(), [2.0] * lo.size,
                                 [rho] * lo.size, s_ref.tolist(), i_ref.tolist())):
        assert (exact[0][k], exact[1][k], exact[2][k]) == want
        assert _rel(simd[0][k], want[0]) <= 2e-15


# beta = 1 and rho = -1: with S0 = 0 the integrand is 1/(I0 - sig), and
# with S0 = 1 it is 1/(I0 - expm1(sig) - sig)
RHO_NEG = -1.0


def _assert_rows_equal_the_scalar_rule(lo, hi, s_ref, i_ref):
    """batch._batch_quad over the rows [lo[k], hi[k]] at beta = 1, rho =
    RHO_NEG, with math's expm1, against kernels._graded_gk row by row."""
    good = np.ones(lo.size, dtype=bool)
    value = np.zeros(lo.size)
    err = np.zeros(lo.size)
    batch._batch_quad(good, lo, hi, 1.0, RHO_NEG, s_ref, i_ref, value, err, batch._ARRAYS.expm1)
    for k in range(lo.size):
        status, v, e = kernels._graded_gk(
            lo[k], hi[k], 1.0, RHO_NEG, s_ref[k], i_ref[k], batch.QUAD_ABS_TOL, batch.QUAD_REL_TOL
        )
        assert good[k] == (status == kernels.QUAD_OK)
        if status != kernels.QUAD_BADFUN:
            # the scalar rule's mesh and its panels' sums in order, bit for bit
            assert (value[k], err[k]) == (v, e)


# the graded rule (kernels._graded_gk) and its batch on *copies* equal rows,
# whose panels the batch holds flat, side by side
@pytest.mark.parametrize(
    "s_ref, lo, hi, i_ref, copies",
    [
        (0, 0.5, 1.0, 2.0, 256),  # converges on two panels
        (1, math.log(0.5), 0.0, 2.0, 256),  # the same, with the expm1 term
        (0, 1.0, 1.0, 2.0, 64),  # empty interval
        (0, 0.1, 0.3, 0.2, 64),  # integrand leaves its region at a node
        (0, 0.5, 1.0, 1.0 - 1e-4, 64),  # I < 0 at hi, not at a node: no grading
        (0, 0.5, 1.0, 2.0, 1),  # converges, one row
        (0, 1e-9, 1.0, 2.0 + 1e-9, 3),  # converges
        # I = 1e-9 at hi: 28 graded edges, but I there cancels to 1e-9 from
        # I0 = 1 + 1e-9, and no estimate converges
        (0, 0.5, 1.0, 1.0 + 1e-9, 1),
        (0, 0.5, 1.0, 1.0 + 1e-9, 3),
        (0, 0.5, 1.0, 1.0, 2),  # I = 0 at hi: no grading from that end
        (0, 0.5, 1.0, 1.0 + 1e-4, 2),  # I = 1e-4 at hi: converges on 12 graded edges
    ],
)
def test_adaptive_batch_matches_scalar(s_ref, lo, hi, i_ref, copies):
    _assert_rows_equal_the_scalar_rule(
        np.full(copies, lo), np.full(copies, hi),
        np.full(copies, s_ref, dtype=float), np.full(copies, i_ref),
    )


def test_adaptive_batch_mixed_rows_end_independently(monkeypatch):
    # at 1e-13 the rows end on different passes and with different statuses:
    # on the first (two panels; I <= 0 at a node; the empty row), after one
    # halving (a graded end), and after two without converging
    for name in ("QUAD_ABS_TOL", "QUAD_REL_TOL"):
        monkeypatch.setattr(batch, name, 1e-13)
    lo = np.array([0.5, 0.1, 1e-6, 1.0, 0.5, 0.5])
    hi = np.array([1.0, 0.3, 1.0, 1.0, 1.9999, 1.0])
    i_ref = np.array([2.0, 0.2, 2.0, 2.0, 2.0, 1.0 + 1e-9])
    _assert_rows_equal_the_scalar_rule(lo, hi, np.zeros(lo.size), i_ref)


def test_gk15_batch_in_chunks_equals_one_pass(monkeypatch):
    # a pass over more intervals than _GK_CHUNK is split; every cell must be
    # what one pass over all of them gives
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 1.0, 50)
    b = a + rng.uniform(0.0, 1.0, 50)
    s_ref = np.ones(50)
    i_ref = rng.uniform(0.5, 3.0, 50)  # some intervals leave the integrand's region
    whole = batch._gk15_batch(a, b, 2.0, 1.5, s_ref, i_ref)
    assert not whole[2].all() and whole[2].any()
    monkeypatch.setattr(batch, "_GK_CHUNK", 7)
    for one, chunked in zip(whole, batch._gk15_batch(a, b, 2.0, 1.5, s_ref, i_ref)):
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
    ok, values, _ = batch._hitting_times(p23, xs, ys, kernels.EV_I, None)
    assert ok.tolist() == [False, False, False, True]
    assert values[3] == ode.hitting_time_u(p23, 2.0, 2.0).value
    # x == rho, y == 0, y < 0, then an interior node
    xs, ys = [1.5, 3.0, 3.0, 3.0], [1.0, 0.0, -1.0, 1.0]
    ok, values, _ = batch._hitting_times(p23, xs, ys, kernels.EV_S, None)
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
    # anchors below rho*2**-53, where the far tail carries the left piece
    tail = math.log(p23.rho * 2.0**-53)
    deep = [r for r in rows if solve_anchor(p23, r.x, r.y).log_a < tail]
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


def test_grid_quadrature_failure_falls_back(monkeypatch):
    # at a tolerance of 1e-30 the u quadrature fails at the two y = mu nodes
    # (the two y < mu nodes are 0 without one); the batch gives these nodes
    # up and the scalar route raises the typed error
    for module in (analytic, batch):
        monkeypatch.setattr(module, "QUAD_ABS_TOL", 1e-30)
        monkeypatch.setattr(module, "QUAD_REL_TOL", 1e-30)
    params = ModelParams(2.0, 3.0, 1e-6)
    spec = GridSpec(18.91483218006351, 50.0, 2, 1e-7, 1e-6, 2, spacing="log")
    rows = _assert_rows_match_build_row(params, spec, "u")
    assert [r.status for r in rows] == ["ok", "ok"] + ["error:QuadratureFailure"] * 2


def test_grid_rows_the_batch_gives_up_go_through_build_row(p23, monkeypatch):
    real = batch._batch_quad

    def first_fails(good, lo, hi, beta, rho, s_ref, i_ref, total, err, expm1):
        # the first integral of each call reports no convergence, with a
        # value that would show if the row were built from it
        first = np.flatnonzero(good)[:1]
        real(good, lo, hi, beta, rho, s_ref, i_ref, total, err, expm1)
        good[first] = False
        total[first] = 1e300

    monkeypatch.setattr(batch, "_batch_quad", first_fails)
    spec = GridSpec(2.0, 5.0, 4, 1.5, 4.0, 3)
    for kind in ("u", "v"):
        rows = _assert_rows_match_build_row(p23, spec, kind)
        assert all(r.status == "ok" for r in rows)


@st.composite
def _side_cell_panels(draw):
    """Rates over +-150 decades and nodes on and next to the edges of the
    bound and asymptotic formulas' domains, or log-uniform over all
    magnitudes."""
    beta, gamma, mu = (10.0 ** draw(st.floats(-150.0, 150.0)) for _ in range(3))
    params = ModelParams(beta, gamma, mu)
    rho = params.rho
    edges = [-1.0, -0.0, 0.0, 5e-324, 1.0, math.nan, math.inf, 1e308]
    for level in (rho, mu):
        edges += [level, math.nextafter(level, 0.0), math.nextafter(level, math.inf)]
    edges.append(math.nextafter(math.nextafter(rho, math.inf), math.inf))
    count = st.one_of(st.sampled_from(edges), st.floats(-320.0, 308.0).map(lambda e: 10.0**e))
    nodes = draw(st.lists(st.tuples(count, count), min_size=1, max_size=20))
    return params, nodes


@given(_side_cell_panels(), st.sampled_from(["u", "v"]))
def test_side_cells_batch_equals_side_cells(panel, kind):
    params, nodes = panel
    xs = [x for x, _ in nodes]
    ys = [y for _, y in nodes]
    inside, *cells = _side_cells_batch(params, kind, xs, ys)
    for j, (x, y) in enumerate(nodes):
        want = side_cells(params, kind, x, y)
        if inside[j]:
            # bit for bit
            assert [float.hex(c[j]) for c in cells] == list(map(float.hex, want)), (x, y)
        else:
            # a scalar function raises here, so the node takes side_cells
            assert None in want, (x, y)


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


def _with_state(crossing, k, s, i, h):
    t, hw, theta = crossing
    qs = kernels._dense_coeffs([row[0] for row in k])
    qi = kernels._dense_coeffs([row[1] for row in k])
    return t, hw, kernels._dense_eval(s, h, *qs, theta), kernels._dense_eval(i, h, *qi, theta)


def _attempt_reference(beta, gamma, s, i, h, k1s, k1i, rtol, atol):
    """One DP5 attempt on floats as it was written before the loop took the
    stages as one tuple per component and the error norm in line: the seven
    stages as (S, I) pairs, and the 5(4) norm. Returns (s1, i1, err, k)."""
    K = kernels
    a = s + h * (K._A21 * k1s)
    b = i + h * (K._A21 * k1i)
    k2s, k2i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (K._A31 * k1s + K._A32 * k2s)
    b = i + h * (K._A31 * k1i + K._A32 * k2i)
    k3s, k3i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (K._A41 * k1s + K._A42 * k2s + K._A43 * k3s)
    b = i + h * (K._A41 * k1i + K._A42 * k2i + K._A43 * k3i)
    k4s, k4i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (K._A51 * k1s + K._A52 * k2s + K._A53 * k3s + K._A54 * k4s)
    b = i + h * (K._A51 * k1i + K._A52 * k2i + K._A53 * k3i + K._A54 * k4i)
    k5s, k5i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (K._A61 * k1s + K._A62 * k2s + K._A63 * k3s + K._A64 * k4s + K._A65 * k5s)
    b = i + h * (K._A61 * k1i + K._A62 * k2i + K._A63 * k3i + K._A64 * k4i + K._A65 * k5i)
    k6s, k6i = -beta * a * b, (beta * a - gamma) * b
    s1 = s + h * (K._B1 * k1s + K._B3 * k3s + K._B4 * k4s + K._B5 * k5s + K._B6 * k6s)
    i1 = i + h * (K._B1 * k1i + K._B3 * k3i + K._B4 * k4i + K._B5 * k5i + K._B6 * k6i)
    k7s, k7i = -beta * s1 * i1, (beta * s1 - gamma) * i1
    es = h * (K._E1 * k1s + K._E3 * k3s + K._E4 * k4s + K._E5 * k5s + K._E6 * k6s + K._E7 * k7s)
    ei = h * (K._E1 * k1i + K._E3 * k3i + K._E4 * k4i + K._E5 * k5i + K._E6 * k6i + K._E7 * k7i)
    k = ((k1s, k1i), (k2s, k2i), (k3s, k3i), (k4s, k4i), (k5s, k5i), (k6s, k6i), (k7s, k7i))
    ss = atol + rtol * max(abs(s), abs(s1))
    si = atol + rtol * max(abs(i), abs(i1))
    rs = min(abs(es / ss), 1e150)
    ri = min(abs(ei / si), 1e150)
    return s1, i1, math.sqrt(0.5 * (rs * rs + ri * ri)), k


def _dp5_reference(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol):
    """The DP5 step loop as it was written for floats alone, before floats
    and arrays shared one: its accept/reject rule, stall and cap tests, step
    factors and crossing watch, on its own attempt and the shared first step
    and refinement. Returns (status, t_reached, (ev_s, ev_i), ts, ys, hs,
    ks), the crossings as _locate gives them in stop mode and as (t,
    half-width, S, I) in path mode, and each step's stages in the path
    mode's layout, (S stages, I stages)."""
    high, low = kernels._high, kernels._low
    path = stop == kernels.PATH
    ts = [0.0]
    ys = [(s0, i0)]
    hs = []
    ks = []
    ev_s = ev_i = None
    status = kernels.ODE_OK

    t = 0.0
    s = s0
    i = i0
    k1s, k1i = kernels._field(beta, gamma, s, i)
    gi_prev = i - mu
    gs_prev = s - rho
    h = kernels._initial_step(beta, gamma, s, i, t_end, rtol, atol)
    floor = low(1.0, t_end)
    while True:
        if t >= t_end:
            if not path:
                status = kernels.ODE_CAP
            break
        if h < 1e-15 * high(floor, abs(t)):
            status = kernels.ODE_STALL
            break
        last = path and t + h >= t_end
        if last:
            h = t_end - t
        s1, i1, err, k = _attempt_reference(beta, gamma, s, i, h, k1s, k1i, rtol, atol)
        if not (err <= 1.0):
            h *= high(0.2, 0.9 * err ** -0.2)
            continue

        gi_new = i1 - mu
        gs_new = s1 - rho
        if stop != kernels.EV_S and ev_i is None and gi_prev > 0.0 and gi_new <= 0.0:
            ev_i = kernels._locate([row[1] for row in k], t, i, h, mu, gi_prev, gi_new)
            if path:
                ev_i = _with_state(ev_i, k, s, i, h)
        if stop != kernels.EV_I and ev_s is None and gs_prev > 0.0 and gs_new <= 0.0:
            ev_s = kernels._locate([row[0] for row in k], t, s, h, rho, gs_prev, gs_new)
            if path:
                ev_s = _with_state(ev_s, k, s, i, h)
        if not path and (ev_i is not None or ev_s is not None):
            t = (ev_s, ev_i)[stop][0]
            break

        t = t_end if last else t + h
        if path:
            ks.append(tuple(zip(*k)))
            hs.append(h)
            ts.append(t)
            ys.append((s1, i1))
        s = s1
        i = i1
        gi_prev = gi_new
        gs_prev = gs_new
        k1s, k1i = k[6]
        if err == 0.0:
            factor = 10.0
        else:
            factor = low(10.0, high(0.9, 0.9 * err ** -0.2))
        h *= factor

    return status, t, (ev_s, ev_i), ts, ys, hs, ks


def _reference_runs(params, x, y, caps, stop, cfg):
    """(status, t, half_width) of the reference loop from each state, as
    _dp5's stop mode returns them: the crossing's time and half-width, or
    where the run ended and 0."""
    wants = []
    for a, b, c in zip(x.tolist(), y.tolist(), caps.tolist()):
        status, t, crossings, *_ = _dp5_reference(
            params.beta, params.gamma, a, b, params.mu, params.rho, c, stop,
            cfg.rel_tol, cfg.abs_tol,
        )
        wants.append((status, *crossings[stop][:2]) if status == kernels.ODE_OK else (status, t, 0.0))
    return wants


def _assert_dp5_is_reference(params, x, y, caps, stop, cfg=ode._DEFAULT_CONFIG):
    """_dp5_batch from the states (on arrays from _LOCKSTEP_MIN of them),
    and _dp5 on floats from each, against the reference loop: status,
    time and half-width bit for bit. Returns the statuses."""
    args = (params.beta, params.gamma, x, y, params.mu, params.rho, caps, stop,
            cfg.rel_tol, cfg.abs_tol)
    arrays = zip(*(col.tolist() for col in batch._dp5_batch(*args)))
    floats = (
        kernels._dp5(params.beta, params.gamma, a, b, params.mu, params.rho, c, stop,
                     cfg.rel_tol, cfg.abs_tol)
        for a, b, c in zip(x.tolist(), y.tolist(), caps.tolist())
    )
    wants = _reference_runs(params, x, y, caps, stop, cfg)
    for j, (got, on_floats, want) in enumerate(zip(arrays, floats, wants)):
        want = (want[0], *map(float.hex, want[1:]))
        assert (got[0], *map(float.hex, got[1:])) == want, j
        assert (on_floats[0], *map(float.hex, on_floats[1:])) == want, j
    return np.array([w[0] for w in wants])


def _assert_dp5_batch_near_scalar(params, x, y, caps, stop):
    # numpy's power moves a step size by an ulp, and the path by rounding;
    # a refinement that ends on a bracket rather than an exact hit moves its
    # time by up to its half-width (2e-13 of t at a half-width of 1e-12 seen)
    cfg = ode._DEFAULT_CONFIG
    status, t, hw = batch._dp5_batch(params.beta, params.gamma, x, y, params.mu, params.rho,
                                     caps, stop, cfg.rel_tol, cfg.abs_tol)
    for j, want in enumerate(_reference_runs(params, x, y, caps, stop, cfg)):
        assert status[j] == want[0], j
        if status[j] == kernels.ODE_OK:
            t_want, hw_want = want[1:]
            assert abs(t[j] - t_want) <= hw[j] + hw_want + 1e-13 * max(1.0, t_want), j
    return status


@pytest.fixture
def python_pow(monkeypatch):
    """The DP5 loop on arrays with the powers it takes on floats: Python's,
    per element, instead of numpy's, whose SIMD form differs in the last
    bit. Its arguments are positive (err + 5e-324) or NaN, so the builtin
    takes every one."""
    pows = batch._ARRAYS._replace(pow=partial(batch._math_each, pow))
    monkeypatch.setattr(batch, "_ARRAYS", pows)


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
@pytest.mark.parametrize("params", [ModelParams(2.0, 3.0, 1.0), ModelParams(1.0, 0.5, 1e-3)])
def test_dp5_batch_equals_scalar_bitwise(python_pow, params, stop):
    x, y, caps = _ode_states(params, stop, 150, seed=11)
    # every third node capped well before its crossing
    caps[::3] *= 0.05
    status = _assert_dp5_is_reference(params, x, y, caps, stop)
    assert {kernels.ODE_OK, kernels.ODE_CAP} <= set(status.tolist())
    # a batch too small for the lock-step loop, stepped node by node
    n = batch._LOCKSTEP_MIN - 1
    status = _assert_dp5_is_reference(params, x[:n], y[:n], caps[:n], stop)
    assert {kernels.ODE_OK, kernels.ODE_CAP} <= set(status.tolist())


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
@pytest.mark.parametrize("params", [ModelParams(2.0, 3.0, 1.0), ModelParams(1.0, 0.5, 1e-3)])
def test_dp5_batch_matches_scalar_with_numpy_power(params, stop):
    x, y, caps = _ode_states(params, stop, 150, seed=11)
    caps[::3] *= 0.05
    status = _assert_dp5_batch_near_scalar(params, x, y, caps, stop)
    assert {kernels.ODE_OK, kernels.ODE_CAP} <= set(status.tolist())


@st.composite
def _nonstiff_panels(draw):
    """Rates log-uniform over +-2 decades, mu up to 2 decades below rho, and
    1 to 8 states above the watched level with x/rho and y/mu over 2
    decades each, so that no state is stiff (x + y <= 200 rho)."""
    beta, gamma = (10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(2))
    rho = gamma / beta
    params = ModelParams(beta, gamma, rho * 10.0 ** draw(st.floats(-2.0, 0.0)))
    stop = draw(st.sampled_from([kernels.EV_I, kernels.EV_S]))
    if stop == kernels.EV_I:
        ratios = st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 2.0))
    else:
        ratios = st.tuples(st.floats(1e-3, 2.0), st.floats(-2.0, 2.0))
    states = draw(st.lists(ratios, min_size=1, max_size=8))
    x = params.rho * 10.0 ** np.array([a for a, _ in states])
    y = params.mu * 10.0 ** np.array([b for _, b in states])
    caps = np.array([ode._time_cap(params, a, b, stop) for a, b in zip(x.tolist(), y.tolist())])
    return params, x, y, caps, stop


@settings(max_examples=20, deadline=None)
@given(_nonstiff_panels())
def test_dp5_batch_with_numpy_power_property(panel):
    # the lock-step loop at every batch size, with its default powers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_LOCKSTEP_MIN", 1)
        status = _assert_dp5_batch_near_scalar(*panel)
    assert (status == kernels.ODE_OK).all()


def test_dp5_batch_zero_error_norm_grows_the_step_tenfold(python_pow, p23):
    # with abs_tol = 1e300 the scaled defects square to 0, every error norm
    # is exactly 0 and each accepted step grows by the factor cap of 10
    x, y, caps = _ode_states(p23, kernels.EV_I, batch._LOCKSTEP_MIN, seed=2)
    cfg = IntegratorConfig(abs_tol=1e300)
    status = _assert_dp5_is_reference(p23, x, y, caps, kernels.EV_I, cfg)
    assert (status == kernels.ODE_OK).all()


def test_dp5_batch_nan_error_norms_shrink_the_step(python_pow, p23):
    # from a NaN state every error norm is NaN: Python's max(0.2, nan) is 0.2,
    # so the step shrinks until the node stalls; np.maximum would spread the
    # NaN into h, and the stall test would never end the run
    n = batch._LOCKSTEP_MIN // 2
    x = np.append(np.full(n, 3.0), np.full(n, math.nan))
    y = np.append(np.linspace(1.5, 4.0, n), np.full(n, 2.0))
    caps = np.full(2 * n, 10.0)
    status = _assert_dp5_is_reference(p23, x, y, caps, kernels.EV_I)
    assert status.tolist() == [kernels.ODE_OK] * n + [kernels.ODE_STALL] * n


def test_dp5_batch_steps_a_long_path_alone(python_pow, p23):
    # short paths and one far longer: the long one steps on alone in the
    # lock-step loop after the others have crossed
    n = batch._LOCKSTEP_MIN
    x = np.append(np.full(n, 3.0), 3000.0)
    y = np.append(np.linspace(1.5, 4.0, n), 2.0)
    caps = np.array([ode._time_cap(p23, a, b, kernels.EV_I) for a, b in zip(x, y)])
    status = _assert_dp5_is_reference(p23, x, y, caps, kernels.EV_I)
    assert (status == kernels.ODE_OK).all()


def test_dp5_batch_stalls_like_the_reference(python_pow, p23):
    # tolerances of 1e-300 shrink every step below the stall floor
    x, y, caps = _ode_states(p23, kernels.EV_I, batch._LOCKSTEP_MIN, seed=3)
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    status = _assert_dp5_is_reference(p23, x, y, caps, kernels.EV_I, cfg)
    assert (status == kernels.ODE_STALL).all()


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
def test_dp5_batch_records_every_ending_at_its_place(python_pow, p23, stop):
    # crossings, caps and stalls (from NaN states) in one lock-step run
    x, y, caps = _ode_states(p23, stop, batch._LOCKSTEP_MIN + 10, seed=4)
    caps[::3] *= 0.05
    y[1::3] = math.nan
    status = _assert_dp5_is_reference(p23, x, y, caps, stop)
    assert set(status.tolist()) == {kernels.ODE_OK, kernels.ODE_CAP, kernels.ODE_STALL}


def _nest_bits(value):
    """Every float in a nest of tuples and lists as its hex text; None and
    ints stay."""
    if isinstance(value, (tuple, list)):
        return tuple(map(_nest_bits, value))
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("x, y, t_end, tol, events", [
    (4.0, 2.0, 2.0, (1e-10, 1e-12), 2),
    (4.0, 2.0, 0.2, (1e-10, 1e-12), 1),  # the peak only
    (1.0, 2.0, 5.0, (1e-10, 1e-12), 1),  # S starts below rho
    (4.0, 2.0, 0.0, (1e-10, 1e-12), 0),  # the initial state alone
    (3000.0, 2.0, 0.01, (1e-10, 1e-12), 1),  # stiff in I
    (4.0, 2.0, 2.0, (1e-300, 1e-300), 0),  # a stall
])
def test_dp5_path_mode_is_the_reference(p23, x, y, t_end, tol, events):
    # every accepted step, its stages, both crossings and how the run ended
    args = (p23.beta, p23.gamma, x, y, p23.mu, p23.rho, t_end, kernels.PATH, *tol)
    got = kernels._dp5(*args)
    assert _nest_bits(got) == _nest_bits(_dp5_reference(*args))
    assert sum(e is not None for e in got[2]) == events


def _assert_ode_rows_are_build_row(params, spec, kind, config=None):
    """The ODE grid's rows against build_row's: every cell exact but value
    and err_estimate, which follow numpy's power in the lock-step loop and
    are held to VALUE_REL. Returns the rows."""
    rows = run_grid(params, spec, kind, "ode", config).rows
    assert len(rows) == spec.nx * spec.ny
    for row in rows:
        want = build_row(params, kind, "ode", row.x, row.y, config)
        for field in GRID_FIELDS:
            got, ref = getattr(row, field), getattr(want, field)
            if field in ("value", "err_estimate") and ref is not None:
                assert abs(got - ref) <= VALUE_REL * abs(ref), (row, field)
            else:
                assert _hex(got) == _hex(ref), (row, field)
    return rows


def _events(rows):
    """The number of rows valued by the ODE event route; a grid with at
    least _LOCKSTEP_MIN of them steps them in the lock-step loop."""
    return sum(r.method == "OdeEvent" for r in rows)


def test_ode_grid_u_every_edge_branch(p23):
    # negative x, x = 0, y < mu, and the y = mu row on both sides of rho
    spec = GridSpec(-1.0, 6.0, 15, 0.5, 5.0, 10)
    rows = _assert_ode_rows_are_build_row(p23, spec, "u")
    assert _events(rows) >= batch._LOCKSTEP_MIN
    assert "error:DomainError" in {r.status for r in rows}
    assert any(r.x == 0.0 and r.y > 1.0 and r.method == "OdeEvent" for r in rows)
    on_mu = [r for r in rows if r.y == 1.0]
    assert {r.method for r in on_mu if r.x >= 0.0} == {"BoundaryZero"}
    assert any(r.x < 1.5 for r in on_mu) and any(r.x > 1.5 for r in on_mu)
    assert any(r.y < 1.0 and r.method == "BoundaryZero" for r in rows)


def test_ode_grid_v_every_edge_branch(p23):
    # y = 0 (never reached), y < 0 (domain error), x <= rho (boundary zero)
    spec = GridSpec(-1.0, 6.0, 15, -1.0, 3.0, 17)
    rows = _assert_ode_rows_are_build_row(p23, spec, "v")
    statuses = {r.status for r in rows}
    assert {"ok", "never_reached", "error:DomainError"} <= statuses
    assert any(r.x == 1.5 and r.y > 0.0 and r.method == "BoundaryZero" for r in rows)
    assert any(r.y == 0.0 and r.x > 1.5 and r.status == "never_reached" for r in rows)
    assert _events(rows) >= batch._LOCKSTEP_MIN


def test_ode_grid_small_mu():
    params = ModelParams(2.0, 3.0, 1e-3)
    spec = GridSpec(0.5, 50.0, 12, 1e-3, 10.0, 10, spacing="log")
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(params, spec, kind)
        assert all(r.status == "ok" for r in rows)
        assert _events(rows) >= batch._LOCKSTEP_MIN


def test_ode_grid_stall_rows_are_typed_errors(p23):
    config = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    spec = GridSpec(0.0, 6.0, 13, 1.0, 5.0, 9)
    rows = _assert_ode_rows_are_build_row(p23, spec, "u", config)
    stalled = [r for r in rows if r.status == "error:IntegrationStall"]
    assert len(stalled) == 13 * 8 >= batch._LOCKSTEP_MIN
    assert all(r.value is None and r.method == "" for r in stalled)


def test_ode_grid_honours_the_integrator_config(p23):
    config = IntegratorConfig(rel_tol=1e-8)
    spec = GridSpec(0.0, 6.0, 13, 1.0, 5.0, 9)
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(p23, spec, kind, config)
        assert _events(rows) >= batch._LOCKSTEP_MIN
        default = run_grid(p23, spec, kind, "ode").rows
        assert any(r.err_estimate != d.err_estimate for r, d in zip(rows, default))


def test_ode_grid_overflow_rows_are_typed_errors(p23):
    # beta*S*I overflows at every node; the grid must not abort on it
    spec = GridSpec(1e299, 1e300, 2, 2.0, 1e300, 2)
    for kind in ("u", "v"):
        rows = _assert_ode_rows_are_build_row(p23, spec, kind)
        assert {r.status for r in rows} == {"error:IntegrationStall"}


def test_ode_grid_rows_without_a_finite_cap():
    # gamma*mu underflows to 0, so no u node has a finite cap, and beta*y
    # does at y = 1e-150 only, so some v nodes have one and some not: the
    # batch masks the others out, and the per-node route raises there
    params = ModelParams(1e-200, 1e-200, 1e-160)
    spec = GridSpec(2.0, 5.0, 4, 1e-150, 1e-100, 2, spacing="log")
    rows = _assert_ode_rows_are_build_row(params, spec, "u")
    assert {r.status for r in rows} == {"error:TimeCapExceeded"}
    rows = _assert_ode_rows_are_build_row(params, spec, "v")
    assert [r.status for r in rows] == ["error:TimeCapExceeded"] * 4 + ["ok"] * 4


def test_ode_grid_steps_in_the_batch(monkeypatch):
    # a fallback to per-node evaluation would pass every equality test above
    calls = 0
    real = kernels._dp5

    def counted(*args):
        # the loop's runs on floats; the lock-step run is one call on arrays
        nonlocal calls
        calls += args[-1] is not batch._ARRAYS
        return real(*args)

    # the loop, called from its own module or from the array one
    for module in (kernels, batch):
        monkeypatch.setattr(module, "_dp5", counted)
    readme_u = GridSpec(0.0, 6.0, 61, 1.0, 5.0, 41)
    result = run_grid(ModelParams(2.0, 3.0, 1.0), readme_u, "u", "ode")
    assert sum(r.method == "OdeEvent" for r in result.rows) == 61 * 40
    assert calls == 0


# --- crossing refinement ----------------------------------------------------

def _crossings(monkeypatch, params, stop, n, seed):
    """The arguments of every scalar _locate call made while the DP5 loop
    runs on floats from n log-uniform states, as columns: (kc, t, y0, h,
    level, g0, g1), kc the watched component's stages."""
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
    t, y0, h, level, g0, g1 = (np.array([c[j] for c in calls]) for j in range(1, 7))
    return k, t, y0, h, level[0], g0, g1


def _assert_locate_on_arrays_is_scalar(k, t, y0, h, level, g0, g1):
    """The (t, half_width, theta) arrays of _locate on arrays, each entry
    checked against the scalar _locate's tuple."""
    with np.errstate(all="ignore"):
        t_ev, hw, theta = kernels._locate(k, t, y0, h, level, g0, g1, batch._ARRAYS)
    for j in range(t.size):
        want = kernels._locate(k[:, j].tolist(), float(t[j]), float(y0[j]), float(h[j]),
                               level, float(g0[j]), float(g1[j]))
        got = (t_ev[j], hw[j], theta[j])
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want], j
    return t_ev, hw, theta


def _set_ev_tol(monkeypatch, tol):
    """The refinement width of _locate, on floats and on arrays."""
    monkeypatch.setattr(kernels, "_EV_TOL", tol)


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
def test_locate_batch_equals_scalar_bitwise(monkeypatch, stop):
    for params, seed in ((ModelParams(2.0, 3.0, 1.0), 5), (ModelParams(1.0, 0.5, 1e-3), 6)):
        crossings = _crossings(monkeypatch, params, stop, 200, seed)
        assert crossings[1].size == 200
        _assert_locate_on_arrays_is_scalar(*crossings)


def test_locate_batch_every_exit(monkeypatch, p23):
    k, t, y0, h, level, g0, g1 = _crossings(monkeypatch, p23, kernels.EV_I, 60, 8)
    # a loose tolerance: every bracket narrows to it, a nonzero half-width
    _set_ev_tol(monkeypatch, 1e-6)
    _, hw, _ = _assert_locate_on_arrays_is_scalar(k, t, y0, h, level, g0, g1)
    assert (hw > 0.0).all()
    # a bracket of 1e-300 is never reached; near the root the dense output
    # moves by less than a unit in the last place of the level per step in
    # theta, so every loop ends on an exact hit fc == 0 inside the step
    _set_ev_tol(monkeypatch, 1e-300)
    t_ev, hw, _ = _assert_locate_on_arrays_is_scalar(k, t, y0, h, level, g0, g1)
    assert (hw == 0.0).all() and (t_ev < t + h).all()
    # g1 == 0 at every third crossing, in one batch with the others: the
    # crossing is the step's end
    monkeypatch.undo()
    g1[::3] = 0.0
    t_ev, hw, _ = _assert_locate_on_arrays_is_scalar(k, t, y0, h, level, g0, g1)
    assert (t_ev[::3] == t[::3] + h[::3]).all() and (hw[::3] == 0.0).all()
    assert (t_ev[1::3] < t[1::3] + h[1::3]).all()


def test_locate_batch_runs_into_the_iteration_cap(monkeypatch):
    # a constant field: I falls from 500.5 + j/4 at a rate of 1000 + j, so
    # near I = 0.5 the dense output is a sum of two terms of about 500 and
    # every value it takes is a multiple of 2**-44; none equals the level
    # 0.5 + 2**-53, no exact hit ends the loop, and with a tolerance of
    # 1e-300 every crossing runs the 200 iterations
    n = 20
    k = np.empty((7, n))
    k[:] = -1000.0 - np.arange(n)
    i = 500.5 + 0.25 * np.arange(n)
    t = np.zeros(n)
    h = np.ones(n)
    level = 0.5 + 2.0**-53
    g1 = np.array([
        kernels._dense_eval(i[j], 1.0, *kernels._dense_coeffs(k[:, j]), 1.0)
        for j in range(n)
    ]) - level
    _set_ev_tol(monkeypatch, 1e-300)
    _, hw, _ = _assert_locate_on_arrays_is_scalar(k, t, i, h, level, i - level, g1)
    assert (hw > 0.0).all()


@pytest.mark.parametrize("stop", [kernels.EV_I, kernels.EV_S])
def test_locate_width_follows_the_end_of_the_step(monkeypatch, p23, stop):
    # crossings of the scalar loop, each moved into a long step from t = h:
    # stages over 2**13 and the step times 2**13 leave the dense output as
    # it was, bit for bit. With a loose width, the bracket closes within
    # _EV_TOL * max(1, t + h) = 2h*_EV_TOL, for most crossings wider than
    # the _EV_TOL * max(1, t - h) = _EV_TOL it would close within if the
    # width followed the step's start
    k, _, y0, h, level, g0, g1 = _crossings(monkeypatch, p23, stop, 60, 8)
    k = k / 2.0**13
    h = h * 2.0**13
    t = h.copy()
    tol = 1e-4
    _set_ev_tol(monkeypatch, tol)
    want = []
    narrower = 0
    for j, (tj, hj, yj, a, b) in enumerate(zip(*(v.tolist() for v in (t, h, y0, g0, g1)))):
        args = (yj, hj, *kernels._dense_coeffs(k[:, j].tolist()), level, a, b)
        theta, hw = kernels._refine_crossing(*args, tol * (tj + hj) / hj)
        want.append([float.hex(v) for v in (tj + theta * hj, hw * hj, theta)])
        narrower += kernels._refine_crossing(*args, tol / hj) != (theta, hw)
    assert narrower > t.size // 2
    got = _assert_locate_on_arrays_is_scalar(k, t, y0, h, level, g0, g1)
    assert [[float.hex(v) for v in col] for col in zip(*got)] == want
