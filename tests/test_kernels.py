"""Direct checks of the numerical kernels: Gauss-Kronrod quadrature on its
graded mesh against a closed-form integral, with its work bounded, the
anchor offset in closed form against 50-digit roots (a few inline, and the
table in ``anchor_oracle.json`` that ``make_anchor_oracle.py`` writes) and
by property, and the dense-output polynomial endpoints."""

import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirtimes import ModelParams, analytic, batch, kernels, psi, solve_anchor

# int_{1/2}^{1} dz / (z*(2 - z)) = ln(3)/2: the integrand in sig = ln(z/S0)
# with beta=1, rho=0 and I = 2 - z, from the reference point (S0, I0) =
# (1, 1) or (1/2, 3/2)
LN3_OVER_2 = 0.54930614433405484570

# anchors a, and their logs, of the orbits through (4, 2), (100, 100) and
# (1000, 1000) at rho=1.5, mu=1, 50-digit values
LOG_A_4_2 = -1.84129803243063199539
A_4_2 = 0.158611409674216078658
LOG_A_100_100 = -128.061496480678575299
LOG_A_1000_1000 = -1325.75891138768452961
# anchors of the orbits through (7e12, 1) and (7.3e12, 1) at rho=1e10, mu=1,
# 50-digit values
A_7E12_1 = 6.90177358063183959969e-292
A_73E11_1 = 6.73520890545914312421e-305


def test_quad_closed_form_log_space():
    # from the reference point at z = 1, over sig = ln z in [ln(1/2), 0]
    status, value, err = kernels._graded_gk(math.log(0.5), 0.0, 1.0, 0.0, 1.0, 1.0, 1e-13, 1e-13)
    assert status == kernels.QUAD_OK
    assert value == pytest.approx(LN3_OVER_2, abs=1e-13)
    assert abs(value - LN3_OVER_2) <= err + 1e-15


def test_quad_closed_form_from_the_other_end():
    # the same integral from the reference point at z = 1/2, over sig =
    # ln(2z) in [0, ln 2]
    status, value, err = kernels._graded_gk(0.0, math.log(2.0), 1.0, 0.0, 0.5, 1.5, 1e-13, 1e-13)
    assert status == kernels.QUAD_OK
    assert value == pytest.approx(LN3_OVER_2, abs=1e-13)
    assert abs(value - LN3_OVER_2) <= err + 1e-15


def test_quad_empty_interval():
    status, value, err = kernels._graded_gk(1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 1e-12, 1e-12)
    assert (status, value, err) == (kernels.QUAD_OK, 0.0, 0.0)


def test_quad_bad_function():
    # I = 0.2 - sig changes sign inside [0.1, 0.3]
    status, value, err = kernels._graded_gk(0.1, 0.3, 1.0, -1.0, 0.0, 0.2, 1e-12, 1e-12)
    assert status == kernels.QUAD_BADFUN


def test_quad_out_of_budget():
    # no estimate meets 1e-30: the rule gives up after its two halvings
    status, value, err = kernels._graded_gk(math.log(0.5), 0.0, 1.0, 0.0, 1.0, 1.0, 1e-30, 1e-30)
    assert status == kernels.QUAD_NOCONV
    assert value == pytest.approx(LN3_OVER_2, rel=1e-10)
    assert err > 0.0


def test_integrand_values():
    # I = i_ref - s_ref*expm1(sig) + rho*sig, exact at sig = 0
    assert kernels._orbit_i(0.0, 1.5, 3.0, 1.0) == 1.0
    assert kernels._orbit_i(math.log(2.0), 0.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-15, abs=0)
    # a panel over the constant 1/(beta*I) = 1/2, of length 0.5
    value, err, ok = kernels._gk15(0.0, 0.5, 2.0, 0.0, 0.0, 1.0)
    assert ok and value == pytest.approx(0.25, rel=1e-15, abs=0)
    # I = 1 - sig reaches 0 inside [0.5, 1.5], and 2 - expm1(sig) beyond ln 3
    assert kernels._gk15(0.5, 1.5, 1.0, -1.0, 0.0, 1.0) == (0.0, 0.0, False)
    assert kernels._gk15(1.0, 2.0, 1.0, 0.0, 1.0, 2.0) == (0.0, 0.0, False)


# pieces (lo, hi, rho, s_ref, i_ref) of the integrand 1/I, I = i_ref -
# s_ref*expm1(sig) + rho*sig, with the graded edges that _layers counts from
# each end: (n_lo, n_hi)
LAYER_CASES = [
    # next to an anchor, I = 1e-6 at lo over a slope of 1, up to the peak S =
    # rho at hi: 1e-6*2**j < ln(3)/2 for j up to 19, and no grading at the peak
    ((0.0, math.log(3.0), 1.5, 0.5, 1e-6), (20, 0)),
    # I < 0 at hi, and a layer at lo wider than half the piece
    ((0.1, 0.3, -1.0, 0.0, 0.2), (0, 0)),
    # I = 0 at hi, and a layer at lo wider than half the piece
    ((0.5, 1.0, -1.0, 0.0, 1.0), (0, 0)),
    # I is NaN at both ends
    ((0.0, 1.0, -1.0, 0.0, math.nan), (0, 0)),
    # I/slope underflows to 0 at lo; I < 0 at hi
    ((0.0, 1e-300, -1e10, 0.0, 5e-324), (0, 0)),
    # the narrowest layer, 2**-1074 at lo: 2**(j-1074) < 2**-1 for j < 1073
    ((0.0, 1.0, -1.0, 0.0, 5e-324), (1073, 0)),
]


@pytest.mark.parametrize("piece, counts", LAYER_CASES)
def test_layers_grade_only_positive_finite_widths(piece, counts):
    lo, hi, rho, s_ref, i_ref = piece
    half, w_lo, n_lo, w_hi, n_hi = kernels._layers(*piece)
    assert (n_lo, n_hi) == counts
    # the last graded edge lies below half the length, the next one does not
    for w, n in ((w_lo, n_lo), (w_hi, n_hi)):
        if n:
            assert math.ldexp(w, n - 1) < half <= math.ldexp(w, n)
    # the same mesh on arrays, with math's exp and expm1 per element
    with np.errstate(all="ignore"):
        arrays = kernels._layers(*(np.array([v]) for v in piece), batch._ARRAYS)
    np.testing.assert_array_equal(np.concatenate(arrays), [half, w_lo, n_lo, w_hi, n_hi])


@pytest.mark.parametrize("piece, counts", LAYER_CASES)
def test_graded_quadrature_work_is_bounded(monkeypatch, piece, counts):
    # with a tolerance no estimate meets, a piece takes its first panels and
    # two halvings of them, 7 times the first count of panels, and no more
    calls = []
    real = kernels._gk15

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_gk15", counted)
    lo, hi, rho, s_ref, i_ref = piece
    status, _, _ = kernels._graded_gk(lo, hi, 1.0, rho, s_ref, i_ref, 1e-30, 1e-30)
    assert status in (kernels.QUAD_NOCONV, kernels.QUAD_BADFUN)
    assert 0 < len(calls) <= 7 * (sum(counts) + 2)


def _offset(rho, mu, x, y, ops=kernels._FLOATS):
    """The anchor offset s* = ln(a/x), as the integral route solves it."""
    return kernels._anchor_offset(rho, mu, x, y, analytic._log_ratio(rho, x, ops), ops)


def _log_a(rho, mu, x, y):
    """solve_anchor's log_a, held to ln x plus the offset bit for bit."""
    log_a = solve_anchor(ModelParams(1.0, rho, mu), x, y).log_a
    assert log_a == math.log(x) + _offset(rho, mu, x, y)
    return log_a


def test_anchor_interior_root():
    log_a = _log_a(1.5, 1.0, 4.0, 2.0)
    assert log_a == pytest.approx(LOG_A_4_2, rel=1e-13, abs=0)
    assert 4.0 * math.exp(_offset(1.5, 1.0, 4.0, 2.0)) == pytest.approx(A_4_2, rel=1e-13, abs=0)


def test_anchor_deep_root():
    log_a = _log_a(1.5, 1.0, 100.0, 100.0)
    assert log_a == pytest.approx(LOG_A_100_100, rel=1e-13)
    # the e^L term still contributes; the root is not just the linear part
    assert abs(log_a - (-psi(ModelParams(1.0, 1.5), 100.0, 100.0) / 1.5)) > 0.5


def test_anchor_underflows_but_log_stays_finite():
    log_a = _log_a(1.5, 1.0, 1000.0, 1000.0)
    assert log_a == pytest.approx(LOG_A_1000_1000, rel=1e-13)
    assert solve_anchor(ModelParams(1.0, 1.5), 1000.0, 1000.0).a == 0.0
    # normal anchors far left of x: x*e^s* is a to rounding where e^s* is
    # normal (s* = -700 at x = 7e12), but where it is subnormal (s* = -730
    # at 7.3e12) it would be 1.8e-7 off, and e^log_a is a to 3e-14
    params = ModelParams(1.0, 1e10)
    for x, a, rel in ((7.0e12, A_7E12_1, 1e-15), (7.3e12, A_73E11_1, 1e-13)):
        assert solve_anchor(params, x, 1.0).a == pytest.approx(a, rel=rel, abs=0.0)


def test_anchor_at_level_minimum():
    # at the peak on the threshold line, and one ulp right of it, the
    # anchor is the peak to rounding: s* = 0 and -2.96e-16
    for x in (1.5, math.nextafter(1.5, math.inf)):
        s = _offset(1.5, 1.0, x, 1.0)
        assert s <= 0.0 and abs(s) <= 2.0**-52
        assert _log_a(1.5, 1.0, x, 1.0) == math.log(1.5)


ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchor_oracle.json")

# worst error of log_a, in ulps of the anchor's 50-digit log, over the
# oracle states of each kind. Next to the branch point the offset's error
# is the deficit's rounding over the flat slope rho - a, and log_a = ln x +
# s* also carries ln x's rounding where it cancels against s* (a near 1:
# the 5.99 there, and 3.64 at rho = 10, x = 20).
ANCHOR_WORST_ULP = {
    "branch": 6.0,  # y = 1.15 at x = rho = 1.5, mu = 1: ln a = -0.078
    "interior": 1.3,
    "deep": 0.73,
    "underflow": 1.6,
    "scale": 3.7,
    "anchor-at-x": 0.21,
}


def _ulp_error(value, exact):
    """|value - exact| in ulps of exact, without rounding either."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def _oracle_table():
    with open(ORACLE_PATH) as f:
        return json.load(f)


def test_anchor_against_the_oracle():
    table = _oracle_table()
    assert len(table) >= 100
    assert {s["kind"] for s in table} == set(ANCHOR_WORST_ULP)
    for s in table:
        log_a = _log_a(s["rho"], s["mu"], s["x"], s["y"])
        assert _ulp_error(log_a, Fraction(Decimal(s["log_a"]))) <= ANCHOR_WORST_ULP[s["kind"]], s


def test_anchor_oracle_holds_the_generator_states():
    # the file is regenerated whenever the generator's states change
    pytest.importorskip("mpmath")
    import make_anchor_oracle

    held = [(s["kind"], s["rho"], s["mu"], s["x"], s["y"]) for s in _oracle_table()]
    assert held == make_anchor_oracle.states()


# worst error of the offset, in ulps, over the 140 states below (2.40
# measured): the rounding of the deficit's terms and of one Newton step
OFFSET_UNDERFLOW_ULP = 2.5


@pytest.mark.parametrize("rho, mu", [(1.5, 1.0), (0.02, 3e-3), (1e-3, 1e3), (1e3, 1e-3)])
def test_anchor_where_e_to_the_minus_c_underflows(rho, mu):
    # deficits d above 744: W0(-e^-c), c = 1 + d, lies below 1e-323, and
    # the root is s* = (mu - y - x)/rho to far within an ulp
    x = rho * np.repeat(np.geomspace(1e-3, 1e3, 7), 5)
    y = mu + rho * np.tile(np.geomspace(760.0, 1e7, 5), 7)
    arrays = _offset(rho, mu, x, y, batch._ARRAYS)
    for xi, yi, got in zip(x.tolist(), y.tolist(), arrays.tolist()):
        s_rho = analytic._log_ratio(rho, xi)
        assert (yi - mu - (rho - xi) + rho * s_rho) / rho > 744.0
        want = _offset(rho, mu, xi, yi)
        assert got == want
        exact = (Fraction(mu) - Fraction(yi) - Fraction(xi)) / Fraction(rho)
        assert _ulp_error(want, exact) <= OFFSET_UNDERFLOW_ULP


# the offset's residual, in units of 2**-52 of the sum of its terms'
# magnitudes: 0.99 at worst over 400,000 log-uniform states of the
# property test's domain, 15% of them at y = mu
OFFSET_RESIDUAL_ULPS = 2.0

# decades of the property test's inputs: rho, mu, x/rho and (y - mu)/mu
_DECADES = st.floats(-6.0, 6.0)


@settings(deadline=None, max_examples=200)
@given(rho=_DECADES, mu=_DECADES, x=_DECADES,
       y=st.one_of(st.none(), _DECADES))
def test_anchor_offset_property(rho, mu, x, y):
    rho, mu = 10.0**rho, 10.0**mu
    x = rho * 10.0**x
    y = mu if y is None else mu + mu * 10.0**y
    s = _offset(rho, mu, x, y)
    assert _offset(rho, mu, np.array([x]), np.array([y]), batch._ARRAYS).tolist() == [s]
    assert s <= min(0.0, analytic._log_ratio(rho, x))
    terms = (y, mu, x * math.expm1(s), rho * s)
    residual = y - mu - terms[2] + terms[3]
    assert abs(residual) <= OFFSET_RESIDUAL_ULPS * 2.0**-52 * sum(map(abs, terms))
    _log_a(rho, mu, x, y)


# quartics 1 + theta*(q0 + theta*(q1 + theta*(q2 + theta*q3))) with one
# root in (0, 1), refined to a bracket of 1e-3: the Illinois halving of the
# retained end's value decides which bracket the loop ends on. theta moves
# by 1e-4 or more where it halves by 0.25 instead: at the first four where
# the right end's value does, at the last two where the left end's does
ILLINOIS_BRACKETS = [
    ((-3.7, -3.8, -0.3, -1.5), 0.21958501439000067, 0.00043081528888914977),
    ((-2.1, -3.8, -1.4, -2.9), 0.29337803391668615, 1.8712210878096824e-05),
    ((0.9, 1.9, -3.1, -1.3), 0.9318331601127886, 2.8139576719210524e-05),
    ((-0.7, -3.1, 1.8, -2.1), 0.49128220326890915, 0.000372807501447886),
    ((1.4, -3.2, -2.1, 2.7), 0.8488614785602293, 0.00016165914568594397),
    ((-3.2, 1.6, 2.0, -2.2), 0.43258225346375234, 3.1110835889969213e-06),
]


def test_illinois_refinement_pins_its_brackets():
    qs = np.array([q for q, _, _ in ILLINOIS_BRACKETS]).T
    g1 = kernels._dense_eval(1.0, 1.0, *qs, 1.0)
    ones = np.ones(g1.size)
    arrays = kernels._refine_crossing(ones, 1.0, *qs, 0.0, ones, g1, 1e-3, batch._ARRAYS)
    for k, (q, theta, half_width) in enumerate(ILLINOIS_BRACKETS):
        got = kernels._refine_crossing(1.0, 1.0, *q, 0.0, 1.0, g1[k], 1e-3)
        assert got == (arrays[0][k], arrays[1][k])
        assert got[0] == pytest.approx(theta, rel=1e-12, abs=0)
        assert got[1] == pytest.approx(half_width, rel=1e-9, abs=0)


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
