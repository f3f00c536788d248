"""Direct checks of the numerical kernels: Gauss-Kronrod quadrature against
a closed-form integral, the log-space anchor solve against 50-digit roots,
and the dense-output polynomial endpoints."""

import math

import pytest

from sirtimes import kernels

# int_{1/2}^{1} dz / (z*(2 - z)) = ln(3)/2, matching the z-space integrand
# with beta=1, rho=0, psi=2
LN3_OVER_2 = 0.54930614433405484570

# anchor roots of e^L + mu - rho*L = psi at rho=1.5, mu=1, 50-digit values
PSI_4_2 = 3.92055845832016407175
LOG_A_4_2 = -1.84129803243063199539
A_4_2 = 0.158611409674216078658
PSI_100_100 = 200.0 - 1.5 * math.log(100.0)
LOG_A_100_100 = -128.061496480678575299
PSI_1000_1000 = 2000.0 - 1.5 * math.log(1000.0)
LOG_A_1000_1000 = -1325.75891138768452961

# minimum of psi over the level y = mu sits at z = rho
PSI_MIN = 1.5 + 1.0 - 1.5 * math.log(1.5)


def test_quad_closed_form_z_space():
    status, value, err = kernels._adaptive_gk(
        0, 0.5, 1.0, 1.0, 0.0, 2.0, 1e-13, 1e-13, 256
    )
    assert status == kernels.QUAD_OK
    assert value == pytest.approx(LN3_OVER_2, abs=1e-13)
    assert abs(value - LN3_OVER_2) <= err + 1e-15


def test_quad_closed_form_log_space():
    # same integral after z = e^L
    status, value, err = kernels._adaptive_gk(
        1, math.log(0.5), 0.0, 1.0, 0.0, 2.0, 1e-13, 1e-13, 256
    )
    assert status == kernels.QUAD_OK
    assert value == pytest.approx(LN3_OVER_2, abs=1e-13)


def test_quad_empty_interval():
    status, value, err = kernels._adaptive_gk(
        0, 1.0, 1.0, 1.0, 0.0, 2.0, 1e-12, 1e-12, 64
    )
    assert (status, value, err) == (kernels.QUAD_OK, 0.0, 0.0)


def test_quad_bad_function():
    # g = 0.2 - z changes sign inside [0.1, 0.3]
    status, value, err = kernels._adaptive_gk(
        0, 0.1, 0.3, 1.0, 0.0, 0.2, 1e-12, 1e-12, 64
    )
    assert status == kernels.QUAD_BADFUN


def test_quad_out_of_budget():
    status, value, err = kernels._adaptive_gk(
        0, 0.5, 1.0, 1.0, 0.0, 2.0, 1e-30, 1e-30, 2
    )
    assert status == kernels.QUAD_NOCONV
    assert value == pytest.approx(LN3_OVER_2, rel=1e-10)
    assert err > 0.0


def test_integrand_values():
    v, ok = kernels._quad_f(0, 1.0, 2.0, 1.5, 2.0)
    assert ok and v == pytest.approx(0.5, rel=1e-15)
    _, ok = kernels._quad_f(0, 0.0, 1.0, 0.0, 2.0)
    assert not ok
    _, ok = kernels._quad_f(0, 3.0, 1.0, 0.0, 2.0)  # g = 2 - 3 < 0
    assert not ok
    v, ok = kernels._quad_f(1, 0.0, 1.0, 0.0, 2.0)  # L = 0: 1/(2 - 1)
    assert ok and v == pytest.approx(1.0, rel=1e-15)


def test_anchor_interior_root():
    ok, log_a = kernels._anchor_log(1.5, 1.0, PSI_4_2)
    assert ok
    assert log_a == pytest.approx(LOG_A_4_2, rel=1e-13)
    assert math.exp(log_a) == pytest.approx(A_4_2, rel=1e-13)


def test_anchor_deep_root():
    ok, log_a = kernels._anchor_log(1.5, 1.0, PSI_100_100)
    assert ok
    assert log_a == pytest.approx(LOG_A_100_100, rel=1e-13)
    # the e^L term still contributes; the root is not just the linear part
    assert abs(log_a - (-PSI_100_100 / 1.5)) > 0.5


def test_anchor_underflows_but_log_stays_finite():
    ok, log_a = kernels._anchor_log(1.5, 1.0, PSI_1000_1000)
    assert ok
    assert log_a == pytest.approx(LOG_A_1000_1000, rel=1e-13)
    assert math.exp(log_a) == 0.0


def test_anchor_at_level_minimum():
    ok, log_a = kernels._anchor_log(1.5, 1.0, PSI_MIN)
    assert ok
    assert log_a == math.log(1.5)
    # within rounding slack below the minimum: still the boundary root
    ok, log_a = kernels._anchor_log(1.5, 1.0, PSI_MIN - 1e-12)
    assert ok
    assert log_a == math.log(1.5)


def test_anchor_no_root():
    ok, _ = kernels._anchor_log(1.5, 1.0, 1.5)
    assert not ok


def test_dense_output_endpoints():
    beta, gamma, s, i, h = 2.0, 3.0, 4.0, 2.0, 0.002
    k1s, k1i = kernels._field(beta, gamma, s, i)
    s1, i1, err, k = kernels._try_step(beta, gamma, s, i, h, k1s, k1i, 1e-10, 1e-12)
    assert err <= 1.0
    qs = kernels._dense_coeffs(k, 0)
    qi = kernels._dense_coeffs(k, 1)
    assert kernels._dense_eval(s, h, *qs, 0.0) == s
    assert kernels._dense_eval(i, h, *qi, 0.0) == i
    assert kernels._dense_eval(s, h, *qs, 1.0) == pytest.approx(s1, rel=1e-12)
    assert kernels._dense_eval(i, h, *qi, 1.0) == pytest.approx(i1, rel=1e-12)


def test_initial_step_finite():
    h = kernels._initial_step(2.0, 3.0, 4.0, 2.0, 10.0, 1e-10, 1e-12)
    assert 0.0 < h <= 10.0 and math.isfinite(h)
    # tolerances far beyond float range must not poison the heuristic
    h = kernels._initial_step(2.0, 3.0, 4.0, 2.0, 10.0, 1e-300, 1e-300)
    assert 0.0 < h <= 10.0 and math.isfinite(h)


def test_hit_time_cap_status():
    # the event sits near t = 0.73; a cap of 0.1 must trip the status code
    status, t_reached = kernels._dp5(
        2.0, 3.0, 4.0, 2.0, 1.0, 1.5, 0.1, kernels.EV_I, 1e-10, 1e-12
    )[:2]
    assert status == kernels.ODE_CAP
    assert t_reached >= 0.1
