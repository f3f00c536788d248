"""Integral representations, anchor solve, closed-form bounds, and
asymptotics against 50-digit reference values."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sirtimes import (
    AnchorResult,
    CriticalTimeResult,
    GridSpec,
    ModelParams,
    Method,
    analytic,
    asymptotic_u,
    asymptotic_v,
    bounds_u,
    bounds_v,
    exact_u_at_x0,
    hitting_time_u,
    hitting_time_v,
    kernels,
    psi,
    run_grid,
    solve_anchor,
    u_integral,
    v_integral,
)
from sirtimes.errors import (
    DegenerateBound,
    DomainError,
    NeverReached,
    QuadratureFailure,
    SirTimesError,
    TimeCapExceeded,
)
from sirtimes.cli import main

# reference values computed at 50-digit precision on the exact
# representations; beta=2, gamma=3, mu=1 unless stated otherwise
ANCHOR_A_15_2 = 0.360213093517656917482
ANCHOR_LOG_15_2 = -1.02105949621339767303
ANCHOR_A_4_2 = 0.158611409674216078658
U_4_2 = 0.734510782103944799068
U_05_3 = 0.428182151487486267435
U_6_5 = 0.850164113789778692662
U_4_1 = 0.755786717110478489973  # smooth continuation at y = mu, x > rho
U_500_500 = 2.30293262710112622218
U_5E5_5E5 = 4.60517053256263819274
V_5_1 = 0.294054681441335939366
V_2_3 = 0.0472217959990156890805
V_20_05 = 0.168263326987801771758
# beta=3, gamma=3, mu=1
V33_101_5 = 0.000663350995317392457099
V33_1E6_1 = 9.21036812672686089958e-6


def test_anchor_frozen(p23):
    r = solve_anchor(p23, 1.5, 2.0)
    assert r.a == pytest.approx(ANCHOR_A_15_2, rel=1e-13)
    assert r.log_a == pytest.approx(ANCHOR_LOG_15_2, rel=1e-13)
    assert r.residual <= 1e-12
    assert solve_anchor(p23, 4.0, 2.0).a == pytest.approx(ANCHOR_A_4_2, rel=1e-13)


def test_anchor_on_threshold_left_of_peak(p23):
    r = solve_anchor(p23, 1.2, 1.0)
    assert r == AnchorResult(1.2, math.log(1.2), 0.0)


def test_anchor_deep_underflow(p23):
    r = solve_anchor(p23, 1000.0, 1000.0)
    assert r.a == 0.0
    assert r.log_a == pytest.approx(-1325.75891138768452961, rel=1e-13)
    # the defect is evaluated in log space, so underflow does not poison it
    assert r.residual <= 1e-12 * psi(p23, 1000.0, 1000.0)


def test_anchor_domain(p23):
    with pytest.raises(DomainError):
        solve_anchor(p23, 0.0, 2.0)
    with pytest.raises(DomainError):
        solve_anchor(p23, 2.0, 0.5)


def test_u_integral_frozen(p23):
    for x, y, want in (
        (4.0, 2.0, U_4_2),
        (0.5, 3.0, U_05_3),
        (6.0, 5.0, U_6_5),
        (4.0, 1.0, U_4_1),
    ):
        r = u_integral(p23, x, y)
        assert r.method is Method.INTEGRAL
        assert r.value == pytest.approx(want, rel=1e-13)
        assert abs(r.value - want) <= r.err_estimate + 1e-15 * max(1.0, want)


def test_u_integral_large_mass(p23):
    # the anchor sits at log_a ~ -1.3e3 and -1.3e6 here; the log-space split
    # carries the integral
    assert u_integral(p23, 500.0, 500.0).value == pytest.approx(U_500_500, rel=1e-11)
    assert u_integral(p23, 5e5, 5e5).value == pytest.approx(U_5E5_5E5, rel=1e-11)


def test_u_integral_boundary_zero(p23):
    r = u_integral(p23, 1.0, 1.0)
    assert r.value == 0.0
    assert r.method is Method.BOUNDARY_ZERO


def test_u_integral_domain(p23):
    # the edges of u's domain have their values: the closed form at x = 0,
    # and 0 below the threshold; only invalid counts raise
    r = u_integral(p23, 0.0, 2.0)
    assert r.method is Method.EXACT_X0
    assert r.value == exact_u_at_x0(p23, 2.0)
    assert u_integral(p23, 4.0, 0.5) == CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    with pytest.raises(DomainError):
        u_integral(p23, -1.0, 2.0)
    with pytest.raises(DomainError):
        u_integral(p23, 4.0, math.nan)


# nodes where y and mu lie below the rounding unit of psi(x, y), so that
# the anchor lies within rounding of x: its offset from x is s* = -(y -
# mu)/(rho - x) to far within rounding, and from there I = mu + (rho -
# x)*sig, so that u = ln(y/mu)/(beta*(rho - x)) (76.8 to 460.5 here), as the
# oracle file holds too
TINY_MU = ModelParams(2.0, 3.0, 1e-300)
LOST_NODES = [(1.0, 1e-200), (1.0, 1e-100), (1e-300, 1e-200), (1e-300, 1e-100)]


def _u_next_to_x(x, y):
    return math.log(y / TINY_MU.mu) / (TINY_MU.beta * (TINY_MU.rho - x))


@pytest.mark.parametrize("x, y", LOST_NODES)
def test_u_integral_where_the_anchor_rounds_to_x(x, y):
    # solve_anchor reports the offset the route integrates from: ln a =
    # -2e-200 and -2e-100 at x = 1
    rho, mu = TINY_MU.rho, TINY_MU.mu
    s = kernels._anchor_offset(rho, mu, x, y, analytic._log_ratio(rho, x))
    assert s == pytest.approx(-(y - mu) / (rho - x), rel=1e-13, abs=0.0)
    assert solve_anchor(TINY_MU, x, y).log_a == math.log(x) + s
    r = u_integral(TINY_MU, x, y)
    assert r.method is Method.INTEGRAL
    assert r.value == pytest.approx(_u_next_to_x(x, y), rel=1e-13)


def test_grid_rows_where_the_anchor_rounds_to_x(capsys):
    # the batch takes these nodes, with the per-node route's values
    spec = GridSpec(1e-300, 1.0, 2, 1e-200, 1e-100, 2, spacing="log")
    rows = run_grid(TINY_MU, spec, "u", "integral").rows
    assert sorted((r.x, r.y) for r in rows) == sorted(LOST_NODES)
    assert all(r.status == "ok" for r in rows)
    for r in rows:
        assert r.value == pytest.approx(u_integral(TINY_MU, r.x, r.y).value, rel=1e-13)
        assert r.value == pytest.approx(_u_next_to_x(r.x, r.y), rel=1e-13)
        assert r.lower <= r.value <= r.upper + r.err_estimate
    argv = ["compute", "--beta", "2", "--gamma", "3", "--mu", "1e-300",
            "--x", "1", "--y", "1e-200", "--time", "u", "--method", "integral"]
    assert main(argv) == 0
    assert "230.258509299" in capsys.readouterr().out


def test_v_integral_frozen(p23, p33):
    for params, x, y, want in (
        (p23, 5.0, 1.0, V_5_1),
        (p23, 2.0, 3.0, V_2_3),
        (p23, 20.0, 0.5, V_20_05),
        (p33, 1.01, 5.0, V33_101_5),
    ):
        r = v_integral(params, x, y)
        assert r.method is Method.INTEGRAL
        assert r.value == pytest.approx(want, rel=1e-12)
        assert abs(r.value - want) <= r.err_estimate + 1e-15 * max(1.0, want)


def test_v_integral_large_mass(p33):
    assert v_integral(p33, 1e6, 1.0).value == pytest.approx(V33_1E6_1, rel=1e-11)


def test_v_integral_boundary_zero(p23):
    assert v_integral(p23, 1.5, 7.0).value == 0.0


def test_v_integral_domain(p23):
    # v is 0 at or below rho and never reached above it with no infection;
    # only invalid counts raise DomainError
    assert v_integral(p23, 1.0, 2.0) == CriticalTimeResult(0.0, Method.BOUNDARY_ZERO, 0.0)
    with pytest.raises(NeverReached):
        v_integral(p23, 5.0, 0.0)
    with pytest.raises(DomainError):
        v_integral(p23, -1.0, 2.0)
    with pytest.raises(DomainError):
        v_integral(p23, 5.0, math.inf)


def test_quadrature_budget_failure(p23, monkeypatch):
    monkeypatch.setattr(analytic, "QUAD_ABS_TOL", 1e-30)
    monkeypatch.setattr(analytic, "QUAD_REL_TOL", 1e-30)
    with pytest.raises(QuadratureFailure) as exc:
        u_integral(p23, 4.0, 2.0)
    # the failure still carries the best estimate so far
    assert exc.value.value == pytest.approx(U_4_2, rel=2e-2)
    assert exc.value.err_estimate > 0.0


def test_bounds_u_no_susceptibles(p23):
    y = math.e**3
    b = bounds_u(p23, 0.0, y)
    assert b.lower == pytest.approx(math.log(y / 2.5) / 3.0, rel=1e-15)
    assert b.crude_upper == pytest.approx(y / 3.0, rel=1e-15)
    # with x = 0 the subcritical rate bound is exact
    assert b.subcritical_upper == pytest.approx(exact_u_at_x0(p23, y), rel=1e-15)
    assert b.lower <= 1.0 <= b.subcritical_upper + 1e-15


def test_bounds_u_supercritical(p23):
    b = bounds_u(p23, 3.0, 2.0)
    assert b.subcritical_upper is None
    assert b.crude_upper == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert b.lower == pytest.approx(math.log(2.0) / 3.0, rel=1e-15)


def test_bounds_u_lower_clamped(p23):
    assert bounds_u(p23, 1.5, 1.0).lower == 0.0
    assert bounds_u(p23, 0.5, 1.0).lower == 0.0


def test_bounds_u_domain(p23):
    with pytest.raises(DomainError):
        bounds_u(p23, -0.1, 2.0)
    with pytest.raises(DomainError):
        bounds_u(p23, 2.0, 0.5)


def test_bounds_v_sandwich_frozen(p23):
    for x, y, v in ((5.0, 1.0, V_5_1), (20.0, 0.5, V_20_05), (2.0, 3.0, V_2_3)):
        b = bounds_v(p23, x, y)
        assert b.lower <= v <= min(b.upper, b.crude_upper)


def test_bounds_v_collapse_toward_peak(p23):
    # just right of x = rho every bound is already tiny; lower and upper
    # agree to within rounding here, so only the common scale is asserted
    b = bounds_v(p23, 1.5 + 1.5e-6, 2.0)
    assert 0.0 <= b.lower < 1e-5
    assert 0.0 <= b.upper < 1e-5
    assert 0.0 <= b.crude_upper < 1e-5
    assert b.lower == pytest.approx(b.upper, rel=1e-6)


def test_bounds_v_degenerate(p23):
    x = math.nextafter(1.5, math.inf)
    with pytest.raises(DegenerateBound) as exc:
        bounds_v(p23, x, 1e-300)
    assert isinstance(exc.value, DomainError)


def test_bounds_v_log_argument_degenerates(p23):
    x = math.nextafter(math.nextafter(1.5, math.inf), math.inf)
    with pytest.raises(DomainError) as exc:
        bounds_v(p23, x, 1e-300)
    assert not isinstance(exc.value, DegenerateBound)


def test_bounds_v_domain(p23):
    with pytest.raises(DomainError):
        bounds_v(p23, 1.5, 2.0)
    with pytest.raises(DomainError):
        bounds_v(p23, 5.0, 0.0)


def test_asymptotic_u_formula(p23):
    assert asymptotic_u(p23, 3.0, 2.0) == pytest.approx(math.log(5.0) / 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        asymptotic_u(p23, -1.0, 2.0)
    with pytest.raises(DomainError):
        asymptotic_u(p23, 0.0, 0.0)


def test_asymptotic_u_approaches_exact(p23):
    dev3 = abs(u_integral(p23, 500.0, 500.0).value / asymptotic_u(p23, 500.0, 500.0) - 1.0)
    dev6 = abs(u_integral(p23, 5e5, 5e5).value / asymptotic_u(p23, 5e5, 5e5) - 1.0)
    assert dev6 < dev3 < 1e-3
    assert dev6 < 1e-6


def test_asymptotic_v_formula(p33):
    assert asymptotic_v(p33, 1.0, 3.0) == 0.0
    got = asymptotic_v(p33, 4.0, 2.0)
    want = math.log(4.0 * (3.0 / 2.0 + 1.0)) / (3.0 * (4.0 - 1.0 + 2.0))
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        asymptotic_v(p33, 0.5, 1.0)
    with pytest.raises(DomainError):
        asymptotic_v(p33, 4.0, 0.0)


def test_asymptotic_v_approaches_exact(p33):
    ratio = V33_1E6_1 / asymptotic_v(p33, 1e6, 1.0)
    assert abs(ratio - 1.0) < 1e-5


@settings(deadline=None, max_examples=60)
@given(x=st.floats(1e-3, 50.0), y=st.floats(1.0, 20.0))
def test_anchor_properties(x, y):
    p = ModelParams(beta=2.0, gamma=3.0, mu=1.0)
    r = solve_anchor(p, x, y)
    assert r.residual <= 1e-9 * max(1.0, psi(p, x, y))
    assert r.log_a <= math.log(p.rho) + 1e-12
    assert r.a <= min(x, p.rho) * (1.0 + 1e-12)


@settings(deadline=None, max_examples=60)
@given(x=st.floats(1.6, 30.0), y=st.floats(0.1, 10.0))
def test_bounds_v_sandwich_property(x, y):
    p = ModelParams(beta=2.0, gamma=3.0, mu=1.0)
    v = v_integral(p, x, y).value
    b = bounds_v(p, x, y)
    assert b.lower <= v + 1e-9
    assert v <= min(b.upper, b.crude_upper) + 1e-9


PER_NODE = (
    hitting_time_u, hitting_time_v, u_integral, v_integral,
    bounds_u, bounds_v, asymptotic_u, asymptotic_v,
)
EXTREME_COUNTS = (0.0, 1e-300, 1e-150, 2.0, 1e150, 1e300)


@pytest.mark.parametrize("params", [
    ModelParams(1e-200, 1e-200, 1e-160), ModelParams(1e200, 1e200, 1e160),
], ids=["tiny-rates", "huge-rates"])
def test_every_per_node_function_ends_typed_at_extreme_rates(params):
    # rate products such as gamma*mu and beta*y underflow or overflow here;
    # each call gives a value or a typed error, never a raw ZeroDivisionError
    # or ValueError
    for x in EXTREME_COUNTS:
        for y in EXTREME_COUNTS:
            for fn in PER_NODE:
                try:
                    fn(params, x, y)
                except SirTimesError:
                    pass


def test_underflowed_rate_products_raise_typed_errors():
    p = ModelParams(1e-200, 1e-200, 1e-160)  # gamma*mu = 0.0
    with pytest.raises(TimeCapExceeded) as exc:
        hitting_time_u(p, 2.0, 1e-150)
    assert (exc.value.cap, exc.value.t_reached) == (math.inf, 0.0)
    with pytest.raises(TimeCapExceeded):
        hitting_time_v(p, 2.0, 1e-150)  # beta*y = 0.0
    with pytest.raises(DomainError, match="underflows"):
        bounds_u(p, 2.0, 1e-150)
    with pytest.raises(DomainError, match="underflows"):
        bounds_v(ModelParams(1e-10, 1e-10), 1e3, 1e-320)  # beta*y = 0.0
    with pytest.raises(DomainError, match="underflows"):
        # beta*(x - rho + y) = 1e-308 * 2**-52 rounds to 0.0
        asymptotic_v(ModelParams(1e-308, 1e-308), 1.0 + 2.0**-52, 1e-300)
    # (x + y)/(rho + mu) underflows to 0: ln of it lies below -744, and the
    # clamp of the lower bound gives 0
    assert bounds_u(ModelParams(1e-100, 1.0, 1e-300), 0.0, 1e-300).lower == 0.0
    big = ModelParams(1e-100, 1e-100, 1e-100)
    assert bounds_u(big, 2.0, 1.0).crude_upper == 3.0 / (1e-100 * 1e-100)
    # (x + y)/mu underflows to 0: ln of it has no value, so no asymptote
    with pytest.raises(DomainError, match="underflows"):
        asymptotic_u(ModelParams(1.0, 1.0, 1e300), 1e-300, 0.0)
