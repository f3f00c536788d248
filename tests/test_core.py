"""Model primitives: parameters, states, vector field, conserved quantity,
and the closed form at x = 0."""

import math

import pytest
from hypothesis import given, strategies as st

from sirtimes import (
    CriticalTimeResult,
    Method,
    ModelParams,
    SirState,
    exact_u_at_x0,
    psi,
    vector_field,
)
from sirtimes.errors import DomainError

# psi(4, 1) at beta=2, gamma=3, computed at 50-digit precision
PSI_4_1 = 2.92055845832016407175


def test_vector_field_no_susceptibles(p23):
    ds, di = vector_field(p23, SirState(0.0, 5.0))
    assert ds == 0.0
    assert di == -15.0


def test_vector_field_at_threshold_level(p23):
    # at s = rho the infected count is momentarily stationary
    ds, di = vector_field(p23, SirState(1.5, 4.0))
    assert ds == -12.0
    assert di == 0.0


def test_vector_field_supercritical(p23):
    ds, di = vector_field(p23, SirState(3.0, 1.0))
    assert ds == -6.0
    assert di == 3.0


@given(s=st.floats(0.0, 10.0), i=st.floats(0.0, 10.0))
def test_vector_field_mass_balance(s, i):
    # total mass decays at exactly gamma * i: ds + di = -gamma * i
    p = ModelParams(beta=2.0, gamma=3.0, mu=1.0)
    ds, di = vector_field(p, SirState(s, i))
    assert abs(ds + di + p.gamma * i) <= 1e-12 * max(1.0, p.beta * s * i)


def test_psi_simple(p23):
    assert psi(p23, 1.0, 2.0) == 3.0


def test_psi_at_e():
    p = ModelParams(beta=1.0, gamma=1.0)
    assert psi(p, math.e, 0.0) == pytest.approx(math.e - 1.0, rel=1e-15, abs=0)


def test_psi_frozen(p23):
    assert psi(p23, 4.0, 1.0) == pytest.approx(PSI_4_1, rel=1e-15, abs=0)


def test_psi_requires_positive_x(p23):
    with pytest.raises(DomainError):
        psi(p23, 0.0, 1.0)
    with pytest.raises(DomainError):
        psi(p23, -1.0, 1.0)
    with pytest.raises(DomainError):
        psi(p23, math.nan, 1.0)


def test_exact_x0_at_e_cubed(p23):
    assert exact_u_at_x0(p23, math.e**3) == pytest.approx(1.0, rel=1e-15, abs=0)


def test_exact_x0_at_threshold(p23):
    assert exact_u_at_x0(p23, 1.0) == 0.0


def test_exact_x0_other_params():
    p = ModelParams(beta=1.0, gamma=0.5, mu=2.0)
    assert exact_u_at_x0(p, 8.0) == pytest.approx(2.0 * math.log(4.0), rel=1e-15, abs=0)


def test_exact_x0_below_threshold(p23):
    with pytest.raises(DomainError):
        exact_u_at_x0(p23, 0.5)


def test_params_validation():
    assert ModelParams(2.0, 3.0).mu == 1.0
    assert ModelParams(2.0, 3.0).rho == 1.5
    for bad in (
        dict(beta=0.0, gamma=3.0),
        dict(beta=-2.0, gamma=3.0),
        dict(beta=2.0, gamma=math.inf),
        dict(beta=2.0, gamma=3.0, mu=math.nan),
        dict(beta=2.0, gamma=3.0, mu=0.0),
    ):
        with pytest.raises(DomainError):
            ModelParams(**bad)


@pytest.mark.parametrize("beta, gamma", [(1e200, 1e-200), (1e-200, 1e200)])
def test_params_refuse_a_threshold_level_out_of_range(beta, gamma):
    # gamma/beta underflows to 0 or overflows to inf: every formula that
    # divides by rho or takes its log would fail further down
    with pytest.raises(DomainError, match="gamma/beta"):
        ModelParams(beta, gamma)


def test_state_validation():
    st0 = SirState(3, 2)
    assert isinstance(st0.s, float) and st0.s == 3.0
    assert st0.t == 0.0
    with pytest.raises(DomainError):
        SirState(-1.0, 2.0)
    with pytest.raises(DomainError):
        SirState(1.0, math.nan)


def test_result_validation():
    r = CriticalTimeResult(1.5, Method.INTEGRAL, 1e-12)
    assert isinstance(r.value, float)
    assert r.method is Method.INTEGRAL
    with pytest.raises(DomainError):
        CriticalTimeResult(-0.1, Method.INTEGRAL)
    with pytest.raises(DomainError):
        CriticalTimeResult(math.nan, Method.INTEGRAL)
    with pytest.raises(DomainError):
        CriticalTimeResult(1.0, Method.INTEGRAL, -1e-3)


def test_method_tags():
    assert Method.ODE_EVENT.value == "OdeEvent"
    assert Method.INTEGRAL.value == "Integral"
    assert Method.EXACT_X0.value == "ExactX0"
    assert Method.BOUNDARY_ZERO.value == "BoundaryZero"
