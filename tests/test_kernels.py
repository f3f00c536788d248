"""Direct checks of the numerical kernels: Gauss-Kronrod quadrature on its
graded mesh against a closed-form integral, with its work bounded, the
closed-form anchor in log space against 50-digit roots (a few inline, and
the table in ``anchor_oracle.json`` that ``make_anchor_oracle.py`` writes),
and the dense-output polynomial endpoints."""

import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sirtimes import batch, kernels

# int_{1/2}^{1} dz / (z*(2 - z)) = ln(3)/2: the integrand in sig = ln(z/S0)
# with beta=1, rho=0 and I = 2 - z, from the reference point (S0, I0) =
# (1, 1) or (1/2, 3/2)
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
    assert kernels._orbit_i(math.log(2.0), 0.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-15)
    # a panel over the constant 1/(beta*I) = 1/2, of length 0.5
    value, err, ok = kernels._gk15(0.0, 0.5, 2.0, 0.0, 0.0, 1.0)
    assert ok and value == pytest.approx(0.25, rel=1e-15)
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


ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchor_oracle.json")

# worst error, in ulps of the root, of the sign-bracket-and-bisection solver
# that the closed form replaced, over the oracle states of each kind. Near
# the branch point the root's error is psi's rounding over |e^L - rho|, so
# it reads in millions of ulps there for any double-precision solver.
BISECTION_WORST_ULP = {
    "branch": 16408727.6,  # d = 1e-14 at rho = 1.5, mu = 1
    "interior": 39.97,
    "deep": 0.667,
    "underflow": 1.352,
    "scale": 32793.8,  # mu = 1e3 against rho = 1e-3
}


def _ulp_error(value, exact):
    """|value - exact| in ulps of exact, without rounding either."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def test_anchor_against_the_oracle():
    with open(ORACLE_PATH) as f:
        table = json.load(f)
    assert len(table) >= 80
    assert {s["kind"] for s in table} == set(BISECTION_WORST_ULP)
    worst = max(BISECTION_WORST_ULP.values())
    for s in table:
        ok, log_a = kernels._anchor_log(s["rho"], s["mu"], s["psi"])
        assert ok
        err = _ulp_error(log_a, Fraction(Decimal(s["log_a"])))
        assert err <= worst, s
        assert err <= BISECTION_WORST_ULP[s["kind"]], s
        if s["kind"] in ("interior", "scale"):
            # well-conditioned roots land within an ulp (0.88 measured)
            assert err <= 1.0, s


@pytest.mark.parametrize("rho, mu", [(1.5, 1.0), (0.02, 3e-3), (1e-3, 1e3), (1e3, 1e-3)])
def test_anchor_where_e_to_the_minus_c_underflows(rho, mu):
    # c = (psi - mu)/rho + ln(rho) > 745: W0(-e^-c) lies below 1e-323, so
    # the root is ln(rho) - c = (mu - psi)/rho to far within an ulp
    psiv = mu + rho * (np.geomspace(760.0, 1e7, 40) - math.log(rho))
    ok, logs = kernels._anchor_log(rho, mu, psiv, batch._ARRAYS)
    for p, got_ok, got in zip(psiv.tolist(), ok.tolist(), logs.tolist()):
        assert (p - mu) / rho + math.log(rho) > 745.0
        want_ok, want = kernels._anchor_log(rho, mu, p)
        assert got_ok and want_ok and got == want
        assert _ulp_error(want, (Fraction(mu) - Fraction(p)) / Fraction(rho)) <= 1.0


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
        assert got[0] == pytest.approx(theta, rel=1e-12)
        assert got[1] == pytest.approx(half_width, rel=1e-9)


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
