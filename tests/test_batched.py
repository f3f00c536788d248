"""The batched integral route against the scalar one it twins.

The numpy kernels run the scalar algorithms in lock-step over many nodes;
``run_grid(..., "integral")`` sends interior nodes through them and every
other node through the per-node ``build_row``. These tests hold both layers
to the scalar reference: the kernels directly, and whole grid rows cell by
cell on small grids that reach every branch of the edge rules.
"""

import math

import numpy as np
import pytest

from sirtimes import GridSpec, ModelParams, kernels, run_grid
from sirtimes.analytic import SPLIT_Z, solve_anchor, u_integral_batch, v_integral_batch
from sirtimes.gridrun import build_row

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
