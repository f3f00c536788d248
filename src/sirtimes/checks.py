"""Cross-verification checks: every claim the package makes about its own
numbers, runnable as one battery.

Each check pins its tolerance and its parameter set, computes a worst-case
metric, and reports pass/fail with the metric in the detail string. The
battery runs on the two reference configurations used throughout the
package: the threshold surface set (beta=2, gamma=3, mu=1) and the peak
surface set (beta=3, gamma=3).

The cross-method and bounds-sandwich checks read the reference surfaces
from :func:`run_grid`, each built once per process and route: the
cross-method checks compare the ODE values with the integral values node by
node, and the sandwich checks compare each integral value with the row's
bound cells. A node that failed, or lacks a bound, counts as a violation.

The checks that sample states (v <= u, the equation residuals, and the
vanishing peak time) evaluate all their states through the same batched
evaluator, one call per kind and route: the ordering check its u and v
states on the ODE route, the residual checks the stencil points of their
h = 1e-3 study on the integral route. Their values equal the scalar
per-state calls'. A state whose row failed makes its check fail, with the
count in the detail.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import asymptotic_u, asymptotic_v, solve_anchor, u_integral, v_integral
from .core import ModelParams, exact_u_at_x0, psi
from .gridrun import GridSpec, _node_rows, run_grid
from .ode import hitting_time_u, integrate
from .pde import (
    _fd_residual,
    check_boundary_u,
    check_boundary_v,
    check_characteristic_identity,
    pde_residual,
    stencil_points,
)

__all__ = ["CheckOutcome", "run_all", "ALL_CHECKS"]

U_PARAMS = ModelParams(beta=2.0, gamma=3.0, mu=1.0)
V_PARAMS = ModelParams(beta=3.0, gamma=3.0, mu=1.0)

U_GRID = GridSpec(0.1, 6.0, 61, 1.01, 5.0, 41)
V_GRID = GridSpec(1.01, 20.0, 77, 0.5, 5.0, 19)
U_GRID_QUICK = GridSpec(0.1, 6.0, 13, 1.01, 5.0, 9)
V_GRID_QUICK = GridSpec(1.01, 20.0, 16, 0.5, 5.0, 5)

CROSS_METHOD_TOL = 1e-6
CROSS_METHOD_BUDGET_S = 60.0
BOUND_SLACK = 1e-9
ORDERING_TOL = 1e-9
PSI_DRIFT_TOL = 1e-8
ORDER_RANGE = (1.7, 2.3)
RESIDUAL_SMALL_H_TOL = 1e-5
CHARACTERISTIC_TOL = 1e-6
EXACT_X0_TOL = 1e-9
ASYM_RATIO_BAND = (0.9, 1.1)
VANISHING_V_TOL = 0.05

# interior points chosen where the leading truncation term is well above the
# rounding floor, so the convergence order is observable (it vanishes along a
# curve where the third derivatives cancel)
PDE_POINTS_U = [
    (0.8, 1.5),
    (2.0, 1.5),
    (4.5, 1.5),
    (0.8, 2.0),
    (2.5, 2.0),
    (5.0, 2.0),
    (2.0, 2.75),
    (3.5, 2.75),
    (5.0, 4.0),
]
PDE_POINTS_V = [(xx, yy) for xx in (3.0, 8.0, 14.0) for yy in (1.0, 2.5, 4.0)]


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def _outcome(name, passed, detail, **metrics):
    return CheckOutcome(name, bool(passed), detail, metrics)


def _values(params, kind, method, states):
    """The values of *kind* at *states*, a list of (x, y) pairs, by
    *method*'s route in one :func:`_node_rows` call: None at a state whose
    row is not ok."""
    return [r.value for r in _node_rows(params, kind, method, states)]


def _failed_note(failed, n):
    """The detail's note on states that failed, empty when none did."""
    return f"; {failed} of {n} states failed" if failed else ""


def _sample_trajectories(params, n_ic, n_times, seed, horizon=3.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_ic):
        x = float(rng.uniform(0.2, 6.0))
        y = float(rng.uniform(0.5, 5.0))
        traj = integrate(params, x, y, horizon)
        times = np.linspace(0.0, horizon, n_times)
        states = [traj.eval(float(t)) for t in times]
        out.append((x, y, states))
    return out


def check_psi_conservation(quick=False):
    """Relative drift of the conserved level-set value along solved paths."""
    n_ic = 5 if quick else 20
    worst = 0.0
    for x, y, states in _sample_trajectories(U_PARAMS, n_ic, 50, seed=7):
        p0 = psi(U_PARAMS, x, y)
        scale = max(1.0, abs(p0))
        for st in states:
            if st.s <= 0.0:
                continue
            worst = max(worst, abs(psi(U_PARAMS, st.s, st.i) - p0) / scale)
    return _outcome(
        "psi_conservation",
        worst <= PSI_DRIFT_TOL,
        f"max relative drift {worst:.3e} (tol {PSI_DRIFT_TOL:g}) over "
        f"{n_ic} paths x 50 times",
        worst=worst,
    )


def check_mass_and_positivity(quick=False):
    """Total mass S+I never increases and both counts stay positive."""
    n_ic = 5 if quick else 20
    worst_rise = 0.0
    min_count = math.inf
    for x, y, states in _sample_trajectories(U_PARAMS, n_ic, 50, seed=8):
        mass0 = x + y
        prev = math.inf
        for st in states:
            m = st.s + st.i
            worst_rise = max(worst_rise, (m - prev) / max(1.0, mass0))
            prev = m
            min_count = min(min_count, st.s, st.i)
    ok = worst_rise <= 1e-10 and min_count > 0.0
    return _outcome(
        "mass_and_positivity",
        ok,
        f"max mass rise {worst_rise:.3e} (tol 1e-10), min count {min_count:.3e}",
        worst_rise=worst_rise,
        min_count=min_count,
    )


def check_boundary_u_zero(quick=False):
    """u vanishes identically on the inflow boundary y = mu, x <= rho."""
    xs = np.linspace(0.0, U_PARAMS.rho, 10)
    worst = check_boundary_u(U_PARAMS, [float(v) for v in xs])
    return _outcome(
        "boundary_u_zero",
        worst == 0.0,
        f"max |u| on the boundary {worst!r} (must be exactly 0), 10 points, "
        "both methods",
        worst=worst,
    )


def check_boundary_v_zero(quick=False):
    """v vanishes identically on the inflow boundary x = rho."""
    ys = [0.1, 1.0, 10.0, 1e6]
    worst = check_boundary_v(V_PARAMS, ys)
    return _outcome(
        "boundary_v_zero",
        worst == 0.0,
        f"max |v| on the boundary {worst!r} (must be exactly 0), "
        f"y in {ys}, both methods",
        worst=worst,
    )


@functools.cache
def _surface(kind, method, quick):
    """The reference surface of *kind* on *method*'s route, built by
    :func:`run_grid`: an array with one row per node holding the value and
    the lower and upper bound cells (NaN where the node failed or the cell
    is empty), and the seconds the build took."""
    if kind == "u":
        params, grid = U_PARAMS, (U_GRID_QUICK if quick else U_GRID)
    else:
        params, grid = V_PARAMS, (V_GRID_QUICK if quick else V_GRID)
    t0 = time.perf_counter()
    rows = run_grid(params, grid, kind, method).rows
    elapsed = time.perf_counter() - t0
    # only these cells are kept, so the surfaces stay small for the process
    return np.array([(r.value, r.lower, r.upper) for r in rows], dtype=float), elapsed


def _worst(gaps):
    """Largest gap as a float, a NaN gap (a failed node) counting as inf."""
    return float(np.where(np.isnan(gaps), math.inf, gaps).max())


def _cross_method(kind, quick):
    # integral first: the ODE rows then reuse memory the batch freed, which
    # keeps the battery's peak memory lower
    by_int, int_s = _surface(kind, "integral", quick)
    by_ode, ode_s = _surface(kind, "ode", quick)
    elapsed = ode_s + int_s
    a, b = by_ode[:, 0], by_int[:, 0]
    worst = _worst(np.abs(a - b) / np.maximum(1.0, b))
    n = len(by_int)
    ok = worst <= CROSS_METHOD_TOL and (quick or elapsed <= CROSS_METHOD_BUDGET_S)
    detail = (
        f"max discrepancy {worst:.3e} (tol {CROSS_METHOD_TOL:g}) over {n} nodes, "
        f"surfaces built in {elapsed:.2f}s "
        f"(budget {CROSS_METHOD_BUDGET_S:.0f}s)"
    )
    return _outcome(
        f"cross_method_{kind}", ok, detail, worst=worst, elapsed=elapsed, nodes=n
    )


def check_cross_method_u(quick=False):
    """ODE event route and integral route agree on the threshold surface."""
    return _cross_method("u", quick)


def check_cross_method_v(quick=False):
    """ODE event route and integral route agree on the peak-time surface."""
    return _cross_method("v", quick)


def _pde_order(params, points, which, quick):
    lower = (0.0, params.mu) if which == "u" else (params.rho, 0.0)
    pts = points[::4] if quick else points
    # the h/4 level of the h = 1e-3 study is the stencil of the h = 2.5e-4
    # residual, so each point's 12 states serve both
    states = [p for x, y in pts for p in stencil_points(x, y, 1e-3)]
    values = _values(params, which, "integral", states)
    failed = values.count(None)
    # a failed state reads as NaN, which leaves no order to report
    field = {p: math.nan if v is None else v for p, v in zip(states, values)}
    fld = lambda a, b: field[a, b]
    orders = []
    worst_resid = 0.0
    for x, y in pts:
        rep = pde_residual(fld, params, x, y, 1e-3, domain_lower=lower)
        orders.append(rep.order_estimate)
        worst_resid = max(worst_resid, abs(_fd_residual(fld, params, x, y, 2.5e-4)))
    order_ok = all(
        o is not None and ORDER_RANGE[0] <= o <= ORDER_RANGE[1] for o in orders
    )
    ok = order_ok and worst_resid <= RESIDUAL_SMALL_H_TOL and not failed
    shown = ", ".join("None" if o is None else f"{o:.2f}" for o in orders)
    detail = (
        f"orders [{shown}] (range {ORDER_RANGE}), max |residual| at h=2.5e-4 "
        f"{worst_resid:.3e} (tol {RESIDUAL_SMALL_H_TOL:g})"
        + _failed_note(failed, len(states))
    )
    return ok, detail, orders, worst_resid


def check_pde_order_u(quick=False):
    """Central-difference residual of the u transport equation shrinks at
    second order across h in {1e-3, 5e-4, 2.5e-4}."""
    ok, detail, orders, worst = _pde_order(U_PARAMS, PDE_POINTS_U, "u", quick)
    return _outcome("pde_order_u", ok, detail, orders=orders, worst_resid=worst)


def check_pde_order_v(quick=False):
    """Same residual study for the peak-time surface."""
    ok, detail, orders, worst = _pde_order(V_PARAMS, PDE_POINTS_V, "v", quick)
    return _outcome("pde_order_v", ok, detail, orders=orders, worst_resid=worst)


def _bounds_sandwich(kind, quick):
    value, lower, upper = _surface(kind, "integral", quick)[0].T
    gaps = np.maximum(lower - value, value - upper)
    violations = int(np.count_nonzero(~(gaps <= BOUND_SLACK)))
    worst = _worst(gaps)
    return _outcome(
        f"bounds_sandwich_{kind}",
        violations == 0,
        f"{violations} violations, worst overshoot {worst:.3e} "
        f"(slack {BOUND_SLACK:g})",
        violations=violations,
        worst=worst,
    )


def check_bounds_sandwich_u(quick=False):
    """Closed-form bounds sandwich the computed u across the reference grid:
    the lower bound below, the least of the crude and subcritical upper
    bounds above."""
    return _bounds_sandwich("u", quick)


def check_bounds_sandwich_v(quick=False):
    """Chord/tangent and crude bounds sandwich the computed v."""
    return _bounds_sandwich("v", quick)


def check_ordering_v_le_u(quick=False):
    """The peak precedes the threshold crossing: v <= u wherever y >= mu."""
    n = 40 if quick else 200
    rng = np.random.default_rng(11)
    states = []
    for _ in range(n):
        x = float(rng.uniform(0.0, 6.0))
        y = float(rng.uniform(U_PARAMS.mu, 5.0))
        states.append((x, y))
    us = _values(U_PARAMS, "u", "ode", states)
    vs = _values(U_PARAMS, "v", "ode", states)
    gaps = [v - u for u, v in zip(us, vs) if u is not None and v is not None]
    failed = n - len(gaps)
    worst = max([-math.inf, *gaps])
    return _outcome(
        "ordering_v_le_u",
        worst <= ORDERING_TOL and not failed,
        f"max (v - u) = {worst:.3e} over {n} random states (tol {ORDERING_TOL:g})"
        + _failed_note(failed, n),
        worst=worst,
    )


def _characteristic(kind, params, seed, x_range, y_range, quick):
    """The time *kind* decreases at unit rate along orbits solved from
    states drawn uniformly from *x_range* x *y_range*."""
    n = 3 if quick else 10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        x = float(rng.uniform(*x_range))
        y = float(rng.uniform(*y_range))
        worst = max(
            worst,
            check_characteristic_identity(params, x, y, (0.25, 0.5, 0.75), kind),
        )
    return _outcome(
        f"characteristic_{kind}",
        worst <= CHARACTERISTIC_TOL,
        f"max relative defect {worst:.3e} over {n} orbits at fractions "
        f"(0.25, 0.5, 0.75) (tol {CHARACTERISTIC_TOL:g})",
        worst=worst,
    )


def check_characteristic_u(quick=False):
    """u decreases at unit rate along solved orbits (u route)."""
    return _characteristic("u", U_PARAMS, 13, (0.5, 6.0), (1.2, 5.0), quick)


def check_characteristic_v(quick=False):
    """Same identity for the peak time."""
    return _characteristic("v", V_PARAMS, 17, (1.5, 20.0), (0.5, 5.0), quick)


def check_exact_x0(quick=False):
    """With no susceptibles the ODE route reproduces the closed form."""
    worst = 0.0
    for y in (2.0, 10.0, 1e3):
        y *= U_PARAMS.mu
        got = hitting_time_u(U_PARAMS, 0.0, y).value
        want = exact_u_at_x0(U_PARAMS, y)
        worst = max(worst, abs(got - want) / max(1.0, want))
    return _outcome(
        "exact_x0",
        worst <= EXACT_X0_TOL,
        f"max relative error {worst:.3e} vs ln(y/mu)/gamma at "
        f"y/mu in (2, 10, 1e3) (tol {EXACT_X0_TOL:g})",
        worst=worst,
    )


def check_asymptotic_u(quick=False):
    """u approaches (1/gamma) ln((x+y)/mu) along x = y = r/2 as r grows."""
    rs = (1e3, 1e6) if quick else (1e3, 1e4, 1e5, 1e6)
    devs = []
    for r in rs:
        val = u_integral(U_PARAMS, r / 2.0, r / 2.0).value
        ratio = val / asymptotic_u(U_PARAMS, r / 2.0, r / 2.0)
        devs.append(abs(ratio - 1.0))
    in_band = devs[-1] <= max(1.0 - ASYM_RATIO_BAND[0], ASYM_RATIO_BAND[1] - 1.0)
    closer = devs[-1] < devs[0]
    shrinking = all(devs[j + 1] < devs[j] for j in range(len(devs) - 1))
    ok = in_band and closer and shrinking
    shown = ", ".join(f"{d:.2e}" for d in devs)
    return _outcome(
        "asymptotic_u",
        ok,
        f"|ratio-1| along r in {rs}: [{shown}]; within band at r=1e6 and "
        "strictly shrinking",
        devs=devs,
    )


def check_asymptotic_v(quick=False):
    """beta*(x - rho + y)*v / ln[(x/rho)((x-rho)/y + 1)] is near 1 for large x."""
    x, y = 1e6, 1.0
    val = v_integral(V_PARAMS, x, y).value
    ratio = val / asymptotic_v(V_PARAMS, x, y)
    ok = ASYM_RATIO_BAND[0] <= ratio <= ASYM_RATIO_BAND[1]
    return _outcome(
        "asymptotic_v",
        ok,
        f"ratio {ratio:.8f} at (x, y) = (1e6, 1) (band {ASYM_RATIO_BAND}), "
        "integral route",
        ratio=ratio,
    )


def check_vanishing_v(quick=False):
    """The peak time is tiny whenever the total mass is huge and y >= 0.5."""
    points = []
    for x in np.geomspace(1e4, 1e6, 10):
        points.append((float(x), 0.5))
    for r in np.geomspace(1e4, 1e6, 5):
        points.append((float(r) / 2.0, float(r) / 2.0))
    for y in np.geomspace(0.5, 1e4, 5):
        points.append((1e4, float(y)))
    if quick:
        points = points[::4]
    values = _values(V_PARAMS, "v", "integral", points)
    failed = values.count(None)
    worst = max([0.0, *(v for v in values if v is not None)])
    return _outcome(
        "vanishing_v",
        worst <= VANISHING_V_TOL and not failed,
        f"max v {worst:.3e} over {len(points)} states with x + y >= 1e4, "
        f"y >= 0.5 (tol {VANISHING_V_TOL:g})" + _failed_note(failed, len(points)),
        worst=worst,
    )


def check_log_slope_bounds(quick=False):
    """(ln x - ln rho)/(x - rho) lies between 1/x and beta/gamma for x > rho.

    The slack per point tracks the rounding noise of the printed formula:
    the numerator cancels to eps * |ln rho| absolute, which dominates as x
    approaches rho.
    """
    eps = 2.220446049250313e-16
    worst = -math.inf
    for params in (U_PARAMS, V_PARAMS):
        rho = params.rho
        for f in np.geomspace(1e-9, 99.0, 40):
            x = rho * (1.0 + float(f))
            dlog = math.log(x) - math.log(rho)
            slope = dlog / (x - rho)
            tol = 8.0 * eps * (1.0 + abs(math.log(rho))) / abs(dlog)
            worst = max(
                worst,
                (1.0 / x) / slope - 1.0 - tol,
                slope / (params.beta / params.gamma) - 1.0 - tol,
            )
    return _outcome(
        "log_slope_bounds",
        worst <= 0.0,
        f"max relative violation beyond rounding noise {worst:.3e} over "
        "80 states in two parameter sets",
        worst=worst,
    )


def check_anchor_quality(quick=False):
    """Anchor root residual stays at rounding level and a <= min(x, rho)."""
    worst_resid = 0.0
    worst_pos = 0.0
    xs = np.geomspace(1e-3, 50.0, 12)
    for y in (U_PARAMS.mu, 1.5, 5.0, 100.0):
        for x in xs:
            x = float(x)
            res = solve_anchor(U_PARAMS, x, y)
            psiv = psi(U_PARAMS, x, y)
            scale = max(1.0, abs(psiv))
            worst_resid = max(worst_resid, res.residual / scale)
            worst_pos = max(
                worst_pos,
                res.a - U_PARAMS.rho * (1.0 + 1e-12),
                res.a - x * (1.0 + 1e-12) if x <= U_PARAMS.rho else -1.0,
            )
    ok = worst_resid <= 1e-12 and worst_pos <= 0.0
    return _outcome(
        "anchor_quality",
        ok,
        f"max scaled residual {worst_resid:.3e} (tol 1e-12), "
        f"max position violation {worst_pos:.3e}",
        worst_resid=worst_resid,
    )


def check_integrand_positivity(quick=False):
    """Along the orbit the infected count stays above mu strictly between the
    anchor and x, and equals mu / y at the endpoints."""
    worst = 0.0
    for x, y in ((4.0, 2.0), (0.5, 3.0), (6.0, 5.0)):
        res = solve_anchor(U_PARAMS, x, y)
        psiv = psi(U_PARAMS, x, y)
        rho = U_PARAMS.rho
        scale = max(1.0, abs(psiv))
        la, lx = res.log_a, math.log(x)
        span = lx - la
        for f in np.linspace(1e-3, 1.0 - 1e-3, 40):
            z = math.exp(la + float(f) * span)
            g = rho * math.log(z) - z + psiv
            worst = max(worst, U_PARAMS.mu - g - 1e-12 * scale)
        g_a = rho * la - math.exp(la) + psiv
        g_x = rho * lx - x + psiv
        worst = max(
            worst,
            abs(g_a - U_PARAMS.mu) - 1e-9 * scale,
            abs(g_x - y) - 1e-9 * scale,
        )
    return _outcome(
        "integrand_positivity",
        worst <= 0.0,
        f"max violation {worst:.3e} over interior nodes and endpoint identities",
        worst=worst,
    )


ALL_CHECKS = [
    check_psi_conservation,
    check_mass_and_positivity,
    check_boundary_u_zero,
    check_boundary_v_zero,
    check_cross_method_u,
    check_cross_method_v,
    check_pde_order_u,
    check_pde_order_v,
    check_bounds_sandwich_u,
    check_bounds_sandwich_v,
    check_ordering_v_le_u,
    check_characteristic_u,
    check_characteristic_v,
    check_exact_x0,
    check_asymptotic_u,
    check_asymptotic_v,
    check_vanishing_v,
    check_log_slope_bounds,
    check_anchor_quality,
    check_integrand_positivity,
]


def run_all(quick=False):
    return [fn(quick=quick) for fn in ALL_CHECKS]
