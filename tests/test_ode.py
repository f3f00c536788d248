"""Adaptive integration and event location: exact special cases, conservation
along solved paths, event accuracy, and agreement with the integral route."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sirtimes import (
    EventKind,
    IntegratorConfig,
    ModelParams,
    Method,
    SirState,
    hitting_time_u,
    hitting_time_v,
    integrate,
    psi,
    u_integral,
    v_integral,
)
from sirtimes import kernels, ode
from sirtimes.errors import DomainError, IntegrationStall, NeverReached

# 50-digit reference values for beta=2, gamma=3, mu=1
U_4_2 = 0.734510782103944799068
V_5_1 = 0.294054681441335939366


def test_pure_decay_matches_exponential(p23):
    traj = integrate(p23, 0.0, 5.0, 1.0)
    for j in range(51):
        t = j / 50.0
        st_t = traj.eval(t)
        assert st_t.s == 0.0
        assert st_t.i == pytest.approx(5.0 * math.exp(-3.0 * t), rel=1e-8)


def test_psi_conserved_along_path(p23):
    traj = integrate(p23, 4.0, 1.0, 2.0)
    p0 = psi(p23, 4.0, 1.0)
    for j in range(51):
        st_t = traj.eval(2.0 * j / 50.0)
        assert psi(p23, st_t.s, st_t.i) == pytest.approx(p0, rel=1e-8)


def test_mass_monotone_and_positive(p23):
    traj = integrate(p23, 3.0, 2.0, 10.0)
    prev = math.inf
    for j in range(201):
        st_t = traj.eval(10.0 * j / 200.0)
        assert st_t.s >= 0.0 and st_t.i >= 0.0
        m = st_t.s + st_t.i
        assert m <= prev + 1e-10
        prev = m


def test_samples_cover_window_exactly(p23):
    traj = integrate(p23, 3.0, 2.0, 1.0)
    ts = [s.t for s in traj.samples]
    assert ts[0] == 0.0
    assert ts[-1] == 1.0
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert traj.t_end == 1.0
    for s in traj.samples:
        at = traj.eval(s.t)
        assert at.s == pytest.approx(s.s, rel=1e-12, abs=1e-12)
        assert at.i == pytest.approx(s.i, rel=1e-12, abs=1e-12)


def test_eval_outside_window(p23):
    traj = integrate(p23, 3.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        traj.eval(-0.01)
    with pytest.raises(DomainError):
        traj.eval(1.01)


def test_zero_window_is_initial_state_only(p23):
    traj = integrate(p23, 4.0, 2.0, 0.0)
    assert [(s.s, s.i, s.t) for s in traj.samples] == [(4.0, 2.0, 0.0)]
    assert traj.events == ()
    assert traj.t_end == 0.0
    assert traj.eval(0.0) == traj.samples[0]


def test_events_recorded_in_order(p23):
    traj = integrate(p23, 4.0, 2.0, 2.0)
    kinds = [e.kind for e in traj.events]
    assert kinds == [EventKind.S_REACHES_RHO, EventKind.I_REACHES_MU]
    v_ev, u_ev = traj.events
    assert v_ev.t < u_ev.t
    slack = 1e-9 * 6.0
    assert abs(v_ev.state.s - p23.rho) <= slack
    assert abs(u_ev.state.i - p23.mu) <= slack
    assert u_ev.t == pytest.approx(hitting_time_u(p23, 4.0, 2.0).value, rel=1e-9)
    assert v_ev.t == pytest.approx(hitting_time_v(p23, 4.0, 2.0).value, rel=1e-9)


def test_peak_tops_start_and_decline_is_monotone(p23):
    # between the peak and the threshold crossing I never increases
    traj = integrate(p23, 4.0, 2.0, U_4_2 * 1.001)
    v_ev, u_ev = traj.events
    assert traj.eval(v_ev.t).i >= 2.0
    prev = math.inf
    for j in range(51):
        t = v_ev.t + (u_ev.t - v_ev.t) * j / 50.0
        i_t = traj.eval(t).i
        assert i_t <= prev + 1e-9
        prev = i_t


def test_hit_u_already_below(p23):
    r = hitting_time_u(p23, 1.2, 1.0)
    assert r.value == 0.0
    assert r.method is Method.BOUNDARY_ZERO
    assert hitting_time_u(p23, 3.0, 0.5).value == 0.0


def test_hit_u_no_susceptibles(p23):
    r = hitting_time_u(p23, 0.0, math.e**3)
    assert r.value == pytest.approx(1.0, rel=1e-9)
    assert r.method is Method.ODE_EVENT


def test_hit_u_other_params():
    p = ModelParams(beta=1.0, gamma=0.5, mu=2.0)
    r = hitting_time_u(p, 0.0, 8.0)
    assert r.value == pytest.approx(2.0 * math.log(4.0), rel=1e-9)


def test_hit_u_frozen_and_cross_method(p23):
    r = hitting_time_u(p23, 4.0, 2.0)
    assert r.value == pytest.approx(U_4_2, rel=1e-8)
    assert r.value == pytest.approx(u_integral(p23, 4.0, 2.0).value, rel=1e-6)
    assert r.err_estimate > 0.0
    assert abs(r.value - U_4_2) <= r.err_estimate


def test_hit_v_boundary_zero(p33, p23):
    r = hitting_time_v(p33, 1.0, 2.0)
    assert r.value == 0.0
    assert r.method is Method.BOUNDARY_ZERO
    assert hitting_time_v(p23, 0.5, 0.1).value == 0.0


def test_hit_v_frozen_and_cross_method(p23):
    r = hitting_time_v(p23, 5.0, 1.0)
    assert r.value == pytest.approx(V_5_1, rel=1e-8)
    assert r.value == pytest.approx(v_integral(p23, 5.0, 1.0).value, rel=1e-6)
    assert abs(r.value - V_5_1) <= r.err_estimate


def test_hit_v_never_reached(p23):
    with pytest.raises(NeverReached):
        hitting_time_v(p23, 5.0, 0.0)


def test_event_time_continuity(p23):
    # the event time responds smoothly to the initial data: halving the
    # perturbation roughly halves the response
    base = hitting_time_u(p23, 4.0, 2.0).value
    deltas = [1e-3, 5e-4, 2.5e-4]
    diffs = [abs(hitting_time_u(p23, 4.0, 2.0 + d).value - base) for d in deltas]
    assert diffs[0] / diffs[1] == pytest.approx(2.0, abs=0.5)
    assert diffs[1] / diffs[2] == pytest.approx(2.0, abs=0.5)


def test_invalid_initial_state(p23):
    with pytest.raises(DomainError):
        hitting_time_u(p23, -1.0, 2.0)
    with pytest.raises(DomainError):
        hitting_time_v(p23, math.nan, 2.0)
    with pytest.raises(DomainError):
        integrate(p23, 4.0, 2.0, -1.0)


def test_integrator_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(abs_tol=-1e-12)
    for name in ("rel_tol", "abs_tol"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                IntegratorConfig(**{name: bad})


def test_stall_on_impossible_tolerances(p23):
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    with pytest.raises(IntegrationStall) as exc:
        hitting_time_u(p23, 4.0, 2.0, cfg)
    assert exc.value.t_reached >= 0.0
    with pytest.raises(IntegrationStall) as exc:
        integrate(p23, 4.0, 2.0, 1.0, cfg)
    assert 0.0 <= exc.value.t_reached < 1.0


@pytest.mark.parametrize("hitting_time", [hitting_time_u, hitting_time_v])
def test_stall_when_the_field_overflows(p23, hitting_time):
    # beta*S*I overflows at S = I = 1e300, so the initial-step estimate has
    # no finite scale; the run must still end with a typed error
    with pytest.raises(IntegrationStall) as exc:
        hitting_time(p23, 1e300, 1e300)
    assert exc.value.t_reached == 0.0


def _replaced(state, comp, value):
    """The (S, I) pair *state* with component *comp* set to *value*."""
    return tuple(value if c == comp else v for c, v in enumerate(state))


# (item of the kernel's result, index, value): an infected count, as (step,
# component) of the states, then a time
@pytest.mark.parametrize("item, index, bad", [
    (4, (3, 1), -1e-3), (4, (3, 1), math.nan), (4, (3, 1), math.inf), (3, 3, math.inf),
])
def test_a_bad_sample_still_raises_at_integrate(p23, monkeypatch, item, index, bad):
    # the samples are built lazily, but a bad accepted state is still
    # refused when the path is solved, with the message its SirState gives
    real = kernels._dp5

    def corrupt(*args):
        out = real(*args)
        if item == 4:
            step, comp = index
            out[4][step] = _replaced(out[4][step], comp, bad)
        else:
            out[item][index] = bad
        # a later bad state must not be the one reported
        out[4][5] = _replaced(out[4][5], 0, -1.0)
        return out

    monkeypatch.setattr(kernels, "_dp5", corrupt)
    _, _, _, ts, states, *_ = ode._run(p23, 4.0, 2.0, 2.0, kernels.PATH, ode._DEFAULT_CONFIG)
    with pytest.raises(DomainError) as want:
        SirState(*states[3], ts[3])
    with pytest.raises(DomainError) as got:
        integrate(p23, 4.0, 2.0, 2.0)
    assert str(got.value) == str(want.value)


def test_eval_takes_each_step_at_its_recorded_size(p23):
    # ts[j + 1] is t + h rounded, so ts[j + 1] - ts[j] can differ from the
    # step's h; the dense output between samples is the step's own, with h
    _, _, _, ts, states, hs, ks = ode._run(p23, 4.0, 2.0, 2.0, kernels.PATH, ode._DEFAULT_CONFIG)
    traj = integrate(p23, 4.0, 2.0, 2.0)
    steps = [j for j, h in enumerate(hs) if ts[j + 1] - ts[j] != h]
    assert len(steps) >= 5
    for j in steps:
        h = hs[j]
        for t in (ts[j] + 0.3 * h, ts[j] + 0.7 * h):
            theta = (t - ts[j]) / h
            want = [
                max(kernels._dense_eval(y0, h, *kernels._dense_coeffs(ks[j][c]), theta), 0.0)
                for c, y0 in enumerate(states[j])
            ]
            got = traj.eval(t)
            assert [got.s.hex(), got.i.hex()] == [v.hex() for v in want], (j, t)


def test_path_and_stop_mode_locate_the_same_crossings():
    # integrate's steps are the hitting times' steps up to each crossing,
    # and its events are refined from the same step, so their times are the
    # hitting times bit for bit (rates over 10**+-1, mu 10**-2..10**-0.3 of
    # rho, x above rho and y above mu). They start alike wherever the first
    # step is not clipped to the hitting time's cap; where it is (v, at a
    # few states), the paths differ and the times agree to the tolerance
    rng = random.Random(27)
    cfg = ode._DEFAULT_CONFIG
    same = 0
    for _ in range(300):
        beta, gamma = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        rho = gamma / beta
        p = ModelParams(beta, gamma, rho * 10.0 ** rng.uniform(-2, -0.3))
        x, y = rho * 10.0 ** rng.uniform(1e-3, 1), p.mu * 10.0 ** rng.uniform(1e-3, 2)
        t_end = max(1.0, 1.5 * hitting_time_u(p, x, y).value)
        events = {e.kind: e.t for e in integrate(p, x, y, t_end).events}
        for kind, row, fn in ((EventKind.I_REACHES_MU, kernels.EV_I, hitting_time_u),
                              (EventKind.S_REACHES_RHO, kernels.EV_S, hitting_time_v)):
            t = fn(p, x, y).value
            first = (kernels._initial_step(beta, gamma, x, y, bound, cfg.rel_tol, cfg.abs_tol)
                     for bound in (ode._time_cap(p, x, y, row), t_end))
            if next(first) == next(first):
                assert events[kind].hex() == t.hex(), (p, x, y, kind)
                same += 1
            else:
                assert events[kind] == pytest.approx(t, rel=1e-9, abs=0), (p, x, y, kind)
    assert same >= 590


def test_samples_are_built_on_first_access(p23):
    traj = integrate(p23, 4.0, 2.0, 2.0)
    assert "samples" not in vars(traj)
    first = traj.samples
    assert "samples" in vars(traj) and traj.samples is first


@settings(deadline=None, max_examples=60)
@given(x=st.floats(0.0, 8.0), y=st.floats(1.0, 6.0, exclude_min=True))
def test_ordering_and_cap_properties(x, y):
    p = ModelParams(beta=2.0, gamma=3.0, mu=1.0)
    u = hitting_time_u(p, x, y).value
    v = hitting_time_v(p, x, y).value
    assert 0.0 <= v <= u + 1e-9
    assert u <= (x + y) / (p.gamma * p.mu) * (1.0 + 1e-6)


def test_threshold_start_above_peak_level(p23):
    # starting exactly at I = mu with x > rho: the first-hit definition gives
    # u = 0 (already at the threshold) while the peak is still ahead, so the
    # v <= u ordering applies only to y > mu; the smooth continuation that
    # the integral route computes does dominate v
    u0 = hitting_time_u(p23, 4.0, 1.0)
    v0 = hitting_time_v(p23, 4.0, 1.0)
    assert u0.value == 0.0 and u0.method is Method.BOUNDARY_ZERO
    assert v0.value > 0.0
    assert u_integral(p23, 4.0, 1.0).value > v0.value
