"""Scalar numerical kernels: Dormand-Prince 5(4) stepping with quartic dense
output and event refinement, adaptive Gauss-Kronrod 7/15 quadrature for the
time integrals, and the log-space anchor root solve.

All ODE work goes through one stepping loop, :func:`_dp5`. It watches the
first downward crossings of I through mu (u) and of S through rho (v), and
:func:`_locate` refines either one on the dense output. The caller picks a
mode: stop at one crossing, with a time cap (the hitting times), or run to
a fixed end and keep every step (trajectories).

The scalar kernels are plain Python on floats; wrappers in
:mod:`sirtimes.ode` and :mod:`sirtimes.analytic` validate inputs and turn
status codes into exceptions. Kernels return status tuples instead of
raising. At the end of the module, numpy twins run the same algorithms over
whole grids at once: twins of the quadrature and anchor kernels;
:func:`_dp5_batch`, the stop mode of :func:`_dp5` stepped in lock-step with
a step size per node; and :func:`_locate_batch`, which refines all of its
crossings in one lock-step pass.

A kernel and its twin share the formulas: :func:`_field`, :func:`_stages`,
:func:`_dense_coeffs` and :func:`_gk15_rule` run unchanged on floats or on
arrays, with the same operations in the same order. The twins differ only
in control flow, where each element takes its own branch.
"""

import math

import numpy as np

# status codes for the ODE kernel
ODE_OK = 0
ODE_STALL = 1
ODE_CAP = 2

# the ODE kernel's watched crossings, as rows of its event array and as its
# stop argument; PATH asks for the whole path instead of stopping
EV_S = 0  # S falls through rho: the peak time v
EV_I = 1  # I falls through mu: the threshold time u
PATH = -1

# status codes for the quadrature kernel
QUAD_OK = 0
QUAD_NOCONV = 1
QUAD_BADFUN = 2

_EPS = 2.220446049250313e-16

# relative width to which _locate and _locate_batch refine a crossing time:
# the bracket closes within _EV_TOL * max(1, t) of it, or on an exact hit
_EV_TOL = 1e-12

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31 = 3.0 / 40.0
_A32 = 9.0 / 40.0
_A41 = 44.0 / 45.0
_A42 = -56.0 / 15.0
_A43 = 32.0 / 9.0
_A51 = 19372.0 / 6561.0
_A52 = -25360.0 / 2187.0
_A53 = 64448.0 / 6561.0
_A54 = -212.0 / 729.0
_A61 = 9017.0 / 3168.0
_A62 = -355.0 / 33.0
_A63 = 46732.0 / 5247.0
_A64 = 49.0 / 176.0
_A65 = -5103.0 / 18656.0
_B1 = 35.0 / 384.0
_B3 = 500.0 / 1113.0
_B4 = 125.0 / 192.0
_B5 = -2187.0 / 6784.0
_B6 = 11.0 / 84.0
# error weights: 5th-order solution minus the embedded 4th-order one
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0

# quartic dense-output weights; y(t+theta*h) = y + h*theta*sum_j theta^j Q_j
# with Q_j = sum_i k_i * P[i, j]
_DENSE_P = (
    (
        1.0,
        -8048581381.0 / 2820520608.0,
        8663915743.0 / 2820520608.0,
        -12715105075.0 / 11282082432.0,
    ),
    (0.0, 0.0, 0.0, 0.0),
    (
        0.0,
        131558114200.0 / 32700410799.0,
        -68118460800.0 / 10900136933.0,
        87487479700.0 / 32700410799.0,
    ),
    (
        0.0,
        -1754552775.0 / 470086768.0,
        14199869525.0 / 1410260304.0,
        -10690763975.0 / 1880347072.0,
    ),
    (
        0.0,
        127303824393.0 / 49829197408.0,
        -318862633887.0 / 49829197408.0,
        701980252875.0 / 199316789632.0,
    ),
    (
        0.0,
        -282668133.0 / 205662961.0,
        2019193451.0 / 616988883.0,
        -1453857185.0 / 822651844.0,
    ),
    (
        0.0,
        40617522.0 / 29380423.0,
        -110615467.0 / 29380423.0,
        69997945.0 / 29380423.0,
    ),
)

# Gauss-Kronrod 7/15 nodes and weights (positive half; last node is 0)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_C = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_C = 0.417959183673469387755102040816327


def _field(beta, gamma, s, i):
    """The SIR field (dS/dt, dI/dt) at (s, i): floats, or arrays."""
    return -beta * s * i, (beta * s - gamma) * i


def _initial_step(beta, gamma, s, i, t_bound, rtol, atol):
    # standard heuristic: match the scale of the first derivative, then
    # sanity-check with an Euler probe
    fs, fi = _field(beta, gamma, s, i)
    ss = atol + rtol * abs(s)
    si = atol + rtol * abs(i)
    # plain products instead of ** so overflow saturates to inf on every path
    r0s = s / ss
    r0i = i / si
    r1s = fs / ss
    r1i = fi / si
    d0 = math.sqrt(0.5 * (r0s * r0s + r0i * r0i))
    d1 = math.sqrt(0.5 * (r1s * r1s + r1i * r1i))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    f1s, f1i = _field(beta, gamma, s + h0 * fs, i + h0 * fi)
    r2s = (f1s - fs) / ss
    r2i = (f1i - fi) / si
    # h0 is 0 when the field overflows (d1 = inf); the fallback below then
    # takes over, and the run stalls with a typed error
    d2 = math.sqrt(0.5 * (r2s * r2s + r2i * r2i)) / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, t_bound)
    if not (h > 0.0 and math.isfinite(h)):
        # extreme tolerances can overflow the scale estimates
        h = min(1e-6, t_bound)
    return h


def _stages(beta, gamma, s, i, h, k1s, k1i):
    """One Dormand-Prince 5(4) attempt of size h from (s, i), where the field
    is (k1s, k1i): floats, or arrays with a step per element. Returns (s1,
    i1, es, ei, k): the 5th-order state, each component's error estimate,
    and the seven stages as (S, I) pairs, the last being the field at (s1,
    i1)."""
    k2s, k2i = _field(beta, gamma, s + h * (_A21 * k1s), i + h * (_A21 * k1i))
    k3s, k3i = _field(
        beta, gamma,
        s + h * (_A31 * k1s + _A32 * k2s),
        i + h * (_A31 * k1i + _A32 * k2i),
    )
    k4s, k4i = _field(
        beta, gamma,
        s + h * (_A41 * k1s + _A42 * k2s + _A43 * k3s),
        i + h * (_A41 * k1i + _A42 * k2i + _A43 * k3i),
    )
    k5s, k5i = _field(
        beta, gamma,
        s + h * (_A51 * k1s + _A52 * k2s + _A53 * k3s + _A54 * k4s),
        i + h * (_A51 * k1i + _A52 * k2i + _A53 * k3i + _A54 * k4i),
    )
    k6s, k6i = _field(
        beta, gamma,
        s + h * (_A61 * k1s + _A62 * k2s + _A63 * k3s + _A64 * k4s + _A65 * k5s),
        i + h * (_A61 * k1i + _A62 * k2i + _A63 * k3i + _A64 * k4i + _A65 * k5i),
    )
    s1 = s + h * (_B1 * k1s + _B3 * k3s + _B4 * k4s + _B5 * k5s + _B6 * k6s)
    i1 = i + h * (_B1 * k1i + _B3 * k3i + _B4 * k4i + _B5 * k5i + _B6 * k6i)
    k7s, k7i = _field(beta, gamma, s1, i1)
    es = h * (_E1 * k1s + _E3 * k3s + _E4 * k4s + _E5 * k5s + _E6 * k6s + _E7 * k7s)
    ei = h * (_E1 * k1i + _E3 * k3i + _E4 * k4i + _E5 * k5i + _E6 * k6i + _E7 * k7i)
    k = ((k1s, k1i), (k2s, k2i), (k3s, k3i), (k4s, k4i), (k5s, k5i), (k6s, k6i), (k7s, k7i))
    return s1, i1, es, ei, k


def _try_step(beta, gamma, s, i, h, k1s, k1i, rtol, atol):
    """One 5(4) attempt from (s, i), where the field is (k1s, k1i). Returns
    (s_new, i_new, err_norm, stages), the stages as in :func:`_stages`."""
    s1, i1, es, ei, k = _stages(beta, gamma, s, i, h, k1s, k1i)
    ss = atol + rtol * max(abs(s), abs(s1))
    si = atol + rtol * max(abs(i), abs(i1))
    # clamp the scaled defects so squaring cannot overflow; anything this
    # large is an unconditional rejection regardless of the exact norm
    rs = min(abs(es / ss), 1e150)
    ri = min(abs(ei / si), 1e150)
    err = math.sqrt(0.5 * (rs * rs + ri * ri))
    return s1, i1, err, k


def _dense_coeffs(k, comp):
    """Q_0..Q_3 of component *comp* from the stages k, read as k[row][comp]:
    floats, or arrays with a step per element. Row 1's weights are all 0;
    it is summed all the same, since 0 * inf is NaN and an infinite second
    stage must show."""
    q0 = q1 = q2 = q3 = 0.0
    for row, (p0, p1, p2, p3) in enumerate(_DENSE_P):
        v = k[row][comp]
        q0 = q0 + v * p0
        q1 = q1 + v * p1
        q2 = q2 + v * p2
        q3 = q3 + v * p3
    return q0, q1, q2, q3


def _dense_eval(y0, h, q0, q1, q2, q3, theta):
    return y0 + h * theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))


def _refine_crossing(y0, h, q0, q1, q2, q3, level, g0, g1, tol_theta):
    """Locate the root of dense(theta) - level on [0, 1].

    g0 = value at 0 (> 0), g1 = value at 1 (<= 0). Illinois-accelerated false
    position with a guaranteed bracket. Returns (theta, half_width)."""
    if g1 == 0.0:
        return 1.0, 0.0
    ta = 0.0
    fa = g0
    tb = 1.0
    fb = g1
    side = 0
    for _ in range(200):
        if tb - ta <= tol_theta:
            break
        denom = fa - fb
        if denom > 0.0:
            tc = (fa * tb - fb * ta) / denom
            if tc <= ta or tc >= tb:
                tc = 0.5 * (ta + tb)
        else:
            tc = 0.5 * (ta + tb)
        fc = _dense_eval(y0, h, q0, q1, q2, q3, tc) - level
        if fc > 0.0:
            ta = tc
            fa = fc
            if side == 1:
                fb *= 0.5
            side = 1
        elif fc < 0.0:
            tb = tc
            fb = fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            return tc, 0.0
    return 0.5 * (ta + tb), 0.5 * (tb - ta)


def _locate(k, t, s, i, h, comp, level, g0, g1, ev):
    """Refine the downward crossing of component *comp* through *level*
    inside the accepted step of size h from (t, s, i), whose stages are in
    k; g0 > 0 and g1 <= 0 are the watched component minus the level at the
    step's ends. Stores (1, t, S, I, time half-width) in row *comp* of ev."""
    qs = _dense_coeffs(k, 0)
    qi = _dense_coeffs(k, 1)
    y0, q = (i, qi) if comp == EV_I else (s, qs)
    tol_t = _EV_TOL * max(1.0, t + h)
    theta, hw = _refine_crossing(y0, h, *q, level, g0, g1, tol_t / h)
    ev[comp, 0] = 1.0
    ev[comp, 1] = t + theta * h
    ev[comp, 2] = _dense_eval(s, h, *qs, theta)
    ev[comp, 3] = _dense_eval(i, h, *qi, theta)
    ev[comp, 4] = hw * h


def _dp5(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol, t0=0.0, h0=0.0):
    """Integrate from (s0, i0) at t = t0, watching the first downward
    crossing of I through mu (row EV_I of the event array) and of S through
    rho (row EV_S). The first trial step is h0, or the one
    :func:`_initial_step` picks when h0 is 0; a nonzero (t0, h0) resumes a
    run that :func:`_dp5_batch` started.

    stop = PATH runs to t_end, clips the last step to it, and keeps every
    accepted step and its stages so callers can evaluate the dense
    interpolant anywhere; t_end <= 0 returns the initial state alone.
    stop = EV_I or EV_S watches that crossing only and returns at it; the
    caller guarantees the component starts strictly above its level. t_end
    is then a cap that ends the run with ODE_CAP, and steps are not clipped.

    Returns (status, t_reached, ev, ts, ys, ks). A row of the 2x5 array ev
    is (found, t, S, I, err) of its crossing; t_reached is the event time
    when stop mode finds its event, else where the run ended. ts, ys and ks
    are the accepted step times, states and stages (the initial state alone
    in stop mode)."""
    path = stop == PATH
    ts = [t0]
    ys = [(s0, i0)]
    ks = []
    ev = np.zeros((2, 5))
    i_found = False
    s_found = False
    status = ODE_OK

    t = t0
    s = s0
    i = i0
    k1s, k1i = _field(beta, gamma, s, i)
    gi_prev = i - mu
    gs_prev = s - rho
    h = h0
    if h == 0.0:
        h = _initial_step(beta, gamma, s, i, t_end - t0, rtol, atol)
    while True:
        if t >= t_end:
            if not path:
                status = ODE_CAP
            break
        if h < 1e-15 * max(1.0, abs(t)):
            status = ODE_STALL
            break
        last = path and t + h >= t_end
        if last:
            h = t_end - t
        s1, i1, err, k = _try_step(beta, gamma, s, i, h, k1s, k1i, rtol, atol)
        if not (err <= 1.0):
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        gi_new = i1 - mu
        gs_new = s1 - rho
        if stop != EV_S and not i_found and gi_prev > 0.0 and gi_new <= 0.0:
            _locate(k, t, s, i, h, EV_I, mu, gi_prev, gi_new, ev)
            i_found = True
        if stop != EV_I and not s_found and gs_prev > 0.0 and gs_new <= 0.0:
            _locate(k, t, s, i, h, EV_S, rho, gs_prev, gs_new, ev)
            s_found = True
        if not path and (i_found or s_found):
            t = ev[stop, 1]
            break

        t = t_end if last else t + h
        if path:
            ks.append(k)
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
            factor = min(10.0, max(0.9, 0.9 * err ** -0.2))
        h *= factor

    return (status, t, ev, np.array(ts, dtype=float), np.array(ys, dtype=float),
            np.array(ks).reshape(-1, 7, 2))


def _quad_f(kind, z, beta, rho, psiv):
    """Integrand of the time representations. kind 0: variable is the
    susceptible level z, f = 1/(beta*z*(rho*ln z - z + psi)). kind 1: variable
    is L = ln z, f = 1/(beta*(rho*L - e^L + psi)) (the 1/z cancels against the
    Jacobian). Returns (value, ok); a denominator that underflows to 0 gives
    an infinite value, as numpy's division does in :func:`_quad_f_batch`."""
    if kind == 0:
        if z <= 0.0:
            return 0.0, False
        g = rho * math.log(z) - z + psiv
        if g <= 0.0:
            return 0.0, False
        den = beta * z * g
    else:
        g = rho * z - math.exp(z) + psiv
        if g <= 0.0:
            return 0.0, False
        den = beta * g
    return (1.0 / den if den else math.inf), True


def _gk15_rule(fv, hl):
    """The Gauss-Kronrod 7/15 sums over a panel of half-length hl, from the
    integrand values fv: fv[2j] and fv[2j+1] at the centre -/+ hl*_XGK[j],
    fv[14] at the centre; floats, or arrays with a panel per element.
    Returns (value, err, resabs, resasc) before QUADPACK's error finish: the
    Kronrod value, |Kronrod - Gauss|, and the integrals of |f| and of
    |f - mean| by the Kronrod rule."""
    fc = fv[14]
    resk = _WGK_C * fc
    resg = _WG_C * fc
    resabs = _WGK_C * abs(fc)
    for j in range(7):
        f1 = fv[2 * j]
        f2 = fv[2 * j + 1]
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_C * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[2 * j] - reskh) + abs(fv[2 * j + 1] - reskh))
    return resk * hl, abs((resk - resg) * hl), resabs * abs(hl), resasc * abs(hl)


def _gk15(kind, a, b, beta, rho, psiv):
    """Gauss-Kronrod 7/15 rule on [a, b] with a QUADPACK-style error
    estimate. Returns (value, err, ok)."""
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    fv = [0.0] * 15
    fv[14], ok = _quad_f(kind, c, beta, rho, psiv)
    for j in range(7):
        dx = hl * _XGK[j]
        fv[2 * j], o1 = _quad_f(kind, c - dx, beta, rho, psiv)
        fv[2 * j + 1], o2 = _quad_f(kind, c + dx, beta, rho, psiv)
        ok = ok and o1 and o2
    value, err, resabs, resasc = _gk15_rule(fv, hl)
    if resasc != 0.0 and err != 0.0:
        # min(1, r**1.5), NaN giving 1, without the OverflowError a float
        # power raises where r is huge
        r = 200.0 * err / resasc
        err = resasc * (r ** 1.5 if r < 1.0 else 1.0)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err, ok


def _adaptive_gk(kind, lo, hi, beta, rho, psiv, atol, rtol, max_iv):
    """Globally adaptive quadrature: repeatedly bisect the interval with the
    largest error estimate. Returns (status, value, err)."""
    if hi <= lo:
        return QUAD_OK, 0.0, 0.0
    v, e, ok = _gk15(kind, lo, hi, beta, rho, psiv)
    if not ok:
        return QUAD_BADFUN, 0.0, 0.0
    al = [lo]
    bl = [hi]
    vl = [v]
    el = [e]
    while True:
        total = 0.0
        errtot = 0.0
        worst = 0
        eworst = -1.0
        for j in range(len(vl)):
            total += vl[j]
            errtot += el[j]
            if el[j] > eworst:
                eworst = el[j]
                worst = j
        if errtot <= max(atol, rtol * abs(total)):
            return QUAD_OK, total, errtot
        if len(vl) >= max_iv:
            return QUAD_NOCONV, total, errtot
        a0 = al[worst]
        b0 = bl[worst]
        m = 0.5 * (a0 + b0)
        if m <= a0 or m >= b0:
            # interval already at floating-point resolution
            return QUAD_NOCONV, total, errtot
        v1, e1, ok1 = _gk15(kind, a0, m, beta, rho, psiv)
        v2, e2, ok2 = _gk15(kind, m, b0, beta, rho, psiv)
        if not (ok1 and ok2):
            return QUAD_BADFUN, total, errtot
        bl[worst] = m
        vl[worst] = v1
        el[worst] = e1
        al.append(m)
        bl.append(b0)
        vl.append(v2)
        el.append(e2)


def _anchor_log(rho, mu, psiv):
    """Solve e^L + mu - rho*L = psi for the unique L <= ln(rho).

    The left-hand side is strictly decreasing in L on (-inf, ln rho], so a
    sign bracket plus bisection is global; a short Newton polish sharpens the
    last digits. Returns (ok, L)."""
    lhi = math.log(rho)
    hhi = rho + mu - rho * lhi - psiv
    if hhi >= 0.0:
        # psi at (or within rounding slack of) its minimum over the level set
        if hhi <= 1e-9 * max(1.0, abs(psiv)):
            return True, lhi
        return False, 0.0
    llo = min(lhi - 1.0, -psiv / rho - 10.0)
    for _ in range(200):
        if math.exp(llo) + mu - rho * llo - psiv > 0.0:
            break
        llo = lhi - 2.0 * (lhi - llo)
    a = llo
    b = lhi
    for _ in range(200):
        if b - a <= _EPS * max(1.0, abs(a), abs(b)):
            break
        m = 0.5 * (a + b)
        hm = math.exp(m) + mu - rho * m - psiv
        if hm > 0.0:
            a = m
        else:
            b = m
    L = 0.5 * (a + b)
    for _ in range(3):
        hL = math.exp(L) + mu - rho * L - psiv
        dL = math.exp(L) - rho
        if dL == 0.0:
            break
        Ln = L - hL / dL
        if Ln < a or Ln > b:
            break
        L = Ln
    return True, L


# --- numpy twins for whole grids -------------------------------------------
#
# The functions below run the scalar algorithms above over many independent
# problems at once, in lock-step, with numpy arrays. They call the same
# formula functions as the scalar kernels (the field, the DP5 stages, the
# dense output and the GK15 sums) and differ from them only in control
# flow: each element leaves a loop or takes a branch on its own. numpy's
# log and exp can differ from math's in the last bit; wherever a result
# could follow that bit (the anchor's sign tests and Newton steps, the
# z-space integrand where it loses digits) the twins call math instead, so
# they agree with the scalar kernels to a few units in the last place. The
# DP5 and crossing twins use only correctly rounded arithmetic (the step
# factor's power is taken with Python's pow) and mirror Python's max and
# min where NaN can reach them, so they equal the scalar kernels bit for
# bit.


def _math_each(fn, values):
    """*fn* from :mod:`math` applied to each element of *values*."""
    return np.array([fn(v) for v in values.tolist()])


def _quad_f_batch(kind, z, beta, rho, psiv):
    """Elementwise :func:`_quad_f`. Returns (values, ok) arrays; a value is
    0.0 wherever ok is False.

    In z space, g = rho*ln z - z + psi loses digits where it is small
    against its terms (near the anchor when mu is small), so a last-bit
    difference in the log would show; there g is recomputed with math.log.
    """
    # in-place steps keep the (panels, 15) temporaries few
    with np.errstate(all="ignore"):
        if kind == 0:
            rl = np.log(z)
            rl *= rho
            g = rl - z
            g += psiv
            scale = np.abs(rl)
            scale += z
            scale += np.abs(psiv)
            scale *= 1e-2
            close = (z > 0.0) & (np.abs(g) <= scale)
            if close.any():
                zc = z[close]
                psic = np.broadcast_to(psiv, z.shape)[close]
                g[close] = rho * _math_each(math.log, zc) - zc + psic
            ok = (z > 0.0) & (g > 0.0)
            f = beta * z
        else:
            g = rho * z
            g -= np.exp(z)
            g += psiv
            ok = g > 0.0
            f = np.full(z.shape, beta)
        f *= g
        np.divide(1.0, f, out=f)
    f[~ok] = 0.0
    return f, ok


# intervals per numpy pass of _gk15_batch: the pass holds several
# (intervals, 15) temporaries, which for a whole grid's first round would
# otherwise take megabytes at once
_GK_CHUNK = 1024


def _gk15_batch(kind, a, b, beta, rho, psiv):
    """:func:`_gk15` on the intervals [a[k], b[k]], each with its own psi.
    Returns (value, err, ok) arrays."""
    if a.size > _GK_CHUNK:
        parts = [
            _gk15_batch(kind, a[k:k + _GK_CHUNK], b[k:k + _GK_CHUNK], beta, rho,
                        psiv[k:k + _GK_CHUNK])
            for k in range(0, a.size, _GK_CHUNK)
        ]
        return tuple(np.concatenate(col) for col in zip(*parts))
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    dx = hl[:, None] * np.array(_XGK)
    # columns 2j and 2j+1 hold c -/+ dx_j, column 14 the centre
    z = np.empty((a.size, 15))
    z[:, 0:14:2] = c[:, None] - dx
    z[:, 1:14:2] = c[:, None] + dx
    z[:, 14] = c
    fv, ok = _quad_f_batch(kind, z, beta, rho, psiv[:, None])
    value, err, resabs, resasc = _gk15_rule(fv.T, hl)
    scaled = (resasc != 0.0) & (err != 0.0)
    with np.errstate(all="ignore"):
        err = np.where(scaled, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return value, err, ok.all(axis=1)


def _adaptive_gk_batch(kind, lo, hi, beta, rho, psiv, atol, rtol, max_iv):
    """:func:`_adaptive_gk` over the integrals on [lo[k], hi[k]] in lock-step.

    Each round takes every integral that is still running, applies the
    scalar convergence test, and bisects that integral's own worst interval.
    An integral leaves the round as soon as it ends, with the status, value
    and error the scalar kernel would return (a non-finite total or error
    ends it as QUAD_NOCONV). Returns (status, value, err) arrays.
    """
    n = lo.size
    status = np.full(n, QUAD_OK)
    value = np.zeros(n)
    err = np.zeros(n)
    run = np.flatnonzero(hi > lo)
    if not run.size:
        return status, value, err
    v, e, ok = _gk15_batch(kind, lo[run], hi[run], beta, rho, psiv[run])
    status[run[~ok]] = QUAD_BADFUN
    idx = run[ok]
    p = psiv[idx]
    # one row per running integral, one column per interval; unused columns
    # hold zeros, which change neither the sums nor the argmax
    cap = min(8, max_iv)
    al = np.zeros((idx.size, cap))
    bl = np.zeros((idx.size, cap))
    vl = np.zeros((idx.size, cap))
    el = np.zeros((idx.size, cap))
    al[:, 0] = lo[idx]
    bl[:, 0] = hi[idx]
    vl[:, 0] = v[ok]
    el[:, 0] = e[ok]
    cnt = np.ones(idx.size, dtype=np.int64)
    while idx.size:
        # cumsum adds left to right, as the scalar loop does
        # copies of the last columns, so the (nodes, cap) sums can be freed
        total = np.cumsum(vl, axis=1)[:, -1].copy()
        errtot = np.cumsum(el, axis=1)[:, -1].copy()
        rows = np.arange(idx.size)
        worst = np.argmax(el, axis=1)
        a0 = al[rows, worst]
        b0 = bl[rows, worst]
        m = 0.5 * (a0 + b0)
        end = np.full(idx.size, -1)
        end[(m <= a0) | (m >= b0)] = QUAD_NOCONV
        end[cnt >= max_iv] = QUAD_NOCONV
        end[errtot <= np.maximum(atol, rtol * np.abs(total))] = QUAD_OK
        end[~(np.isfinite(total) & np.isfinite(errtot))] = QUAD_NOCONV
        g = np.flatnonzero(end < 0)
        if g.size:
            k = g.size
            vs, es, oks = _gk15_batch(
                kind,
                np.concatenate((a0[g], m[g])),
                np.concatenate((m[g], b0[g])),
                beta,
                rho,
                np.concatenate((p[g], p[g])),
            )
            bad = ~(oks[:k] & oks[k:])
            end[g[bad]] = QUAD_BADFUN
            keep = ~bad
            g = g[keep]
            w = worst[g]
            c = cnt[g]
            bl[g, w] = m[g]
            vl[g, w] = vs[:k][keep]
            el[g, w] = es[:k][keep]
            al[g, c] = m[g]
            bl[g, c] = b0[g]
            vl[g, c] = vs[k:][keep]
            el[g, c] = es[k:][keep]
            cnt[g] += 1
        done = end >= 0
        if done.any():
            out = idx[done]
            status[out] = end[done]
            value[out] = total[done]
            err[out] = errtot[done]
            live = ~done
            idx, p, cnt = idx[live], p[live], cnt[live]
            al, bl, vl, el = al[live], bl[live], vl[live], el[live]
        if idx.size and cnt.max() >= cap:
            grow = min(cap, max_iv - cap)
            al, bl, vl, el = (np.pad(t, ((0, 0), (0, grow))) for t in (al, bl, vl, el))
            cap += grow
    return status, value, err


def _anchor_h(m, rho, mu, p):
    """Sign function e^m + mu - rho*m - p of the anchor solve, rounded as
    the scalar kernel rounds it. numpy's exp is used first; only values too
    close to 0 for its last-bit difference to be ruled out are recomputed
    with math.exp (the band is about 500 times the worst such difference)."""
    e = np.exp(m)
    h = e + mu - rho * m - p
    close = np.flatnonzero(np.abs(h) <= 1e-12 * (e + mu + np.abs(rho * m) + np.abs(p)))
    if close.size:
        mc = m[close]
        h[close] = _math_each(math.exp, mc) + mu - rho * mc - p[close]
    return h


def _anchor_log_batch(rho, mu, psiv):
    """:func:`_anchor_log` over an array of psi values: a vectorized sign
    bracket, a bisection that stops each root at its own tolerance, and the
    same three guarded Newton steps. Every root equals the scalar kernel's
    bit for bit. Returns (ok, L) arrays."""
    lhi = math.log(rho)
    hhi = rho + mu - rho * lhi - psiv
    at_min = hhi >= 0.0
    ok = ~at_min | (hhi <= 1e-9 * np.maximum(1.0, np.abs(psiv)))
    L = np.full(psiv.shape, lhi)
    sel = np.flatnonzero(~at_min)
    p = psiv[sel]
    with np.errstate(all="ignore"):
        llo = np.minimum(lhi - 1.0, -p / rho - 10.0)
        for _ in range(200):
            widen = ~(_anchor_h(llo, rho, mu, p) > 0.0)
            if not widen.any():
                break
            llo = np.where(widen, lhi - 2.0 * (lhi - llo), llo)
        a = llo
        b = np.full(p.shape, lhi)
        for _ in range(200):
            act = ~(b - a <= _EPS * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b)))
            if not act.any():
                break
            m = 0.5 * (a + b)
            pos = _anchor_h(m, rho, mu, p) > 0.0
            a = np.where(act & pos, m, a)
            b = np.where(act & ~pos, m, b)
        Lv = 0.5 * (a + b)
        live = np.ones(p.shape, dtype=bool)
        for _ in range(3):
            e = _math_each(math.exp, Lv)
            hL = e + mu - rho * Lv - p
            dL = e - rho
            live &= dL != 0.0
            Ln = Lv - hL / dL
            live &= ~((Ln < a) | (Ln > b))
            Lv = np.where(live, Ln, Lv)
    L[sel] = Lv
    return ok, L


# below this many live nodes, _dp5_batch hands the rest to the scalar loop.
# Tuned when a numpy round cost as much as 12 to 16 scalar steps; at widths
# 16-64 it now costs 20 to 55 (0.17-0.33 ms against 6-8.5 us; 2-core host,
# Python 3.11, numpy 2.4), and the value stays until a retuning is measured.
_DP5_HANDOFF = 16


def _py_max(a, b):
    """Elementwise Python max(a, b): b where b > a, else a, even for NaN."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise Python min(a, b): b where b < a, else a, even for NaN."""
    return np.where(b < a, b, a)


def _refine_crossing_batch(y0, h, q, level, g0, g1, tol_theta):
    """:func:`_refine_crossing` at every column in lock-step: each column
    leaves at the scalar loop's exits (g1 == 0, an exact hit, a bracket
    within tol_theta, or 200 iterations) with the scalar result. q is (4,
    columns). Returns (theta, half_width) arrays."""
    theta = np.ones(g1.size)
    hw = np.zeros(g1.size)
    idx = np.flatnonzero(g1 != 0.0)
    y0, h, q, tol_theta = y0[idx], h[idx], q[:, idx], tol_theta[idx]
    ta = np.zeros(idx.size)
    fa = g0[idx]
    tb = np.ones(idx.size)
    fb = g1[idx]
    side = np.zeros(idx.size, dtype=np.int64)
    for _ in range(200):
        if not idx.size:
            break
        left = tb - ta <= tol_theta
        denom = fa - fb
        tc = (fa * tb - fb * ta) / denom
        tc = np.where((denom > 0.0) & ~((tc <= ta) | (tc >= tb)), tc, 0.5 * (ta + tb))
        fc = _dense_eval(y0, h, q[0], q[1], q[2], q[3], tc) - level
        pos = (fc > 0.0) & ~left
        neg = (fc < 0.0) & ~left
        hit = ~(left | pos | neg)
        theta[idx[hit]] = tc[hit]
        fb = np.where(pos & (side == 1), fb * 0.5, fb)
        fa = np.where(neg & (side == -1), fa * 0.5, fa)
        ta = np.where(pos, tc, ta)
        fa = np.where(pos, fc, fa)
        tb = np.where(neg, tc, tb)
        fb = np.where(neg, fc, fb)
        side = np.where(pos, 1, np.where(neg, -1, side))
        out = left | hit
        if out.any():
            theta[idx[left]] = 0.5 * (ta[left] + tb[left])
            hw[idx[left]] = 0.5 * (tb[left] - ta[left])
            keep = ~out
            idx, y0, h, q, tol_theta = idx[keep], y0[keep], h[keep], q[:, keep], tol_theta[keep]
            ta, fa, tb, fb, side = ta[keep], fa[keep], tb[keep], fb[keep], side[keep]
    theta[idx] = 0.5 * (ta + tb)
    hw[idx] = 0.5 * (tb - ta)
    return theta, hw


def _locate_batch(k, t, s, i, h, comp, level, g0, g1):
    """:func:`_locate` at many crossings at once. Column j is the accepted
    step of size h[j] from (t[j], s[j], i[j]) whose stages are k[:, :,
    j]; g0[j] > 0 and g1[j] <= 0 are component *comp* minus *level* at its
    ends. Returns the (columns, 5) rows (1, t, S, I, time half-width) that
    the scalar kernel stores in row *comp* of its event array, equal to them
    bit for bit."""
    with np.errstate(all="ignore"):
        qs = _dense_coeffs(k, 0)
        qi = _dense_coeffs(k, 1)
        y0, q = (i, qi) if comp == EV_I else (s, qs)
        tol_theta = _EV_TOL * _py_max(1.0, t + h) / h
        theta, hw = _refine_crossing_batch(y0, h, np.array(q), level, g0, g1, tol_theta)
        ev = np.empty((t.size, 5))
        ev[:, 0] = 1.0
        ev[:, 1] = t + theta * h
        ev[:, 2] = _dense_eval(s, h, *qs, theta)
        ev[:, 3] = _dense_eval(i, h, *qi, theta)
        ev[:, 4] = hw * h
    return ev


def _dp5_batch(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol):
    """:func:`_dp5` in stop mode (stop is EV_I or EV_S) from every state
    (s0[j], i0[j]), each with its own cap t_end[j], in lock-step.

    Each node keeps its own (t, S, I, h, first stage, level gap). A round
    makes one step attempt at every live node, with the scalar kernel's
    tableau, operation order, accept/reject rule and stall and cap tests. A
    node whose crossing is bracketed leaves the round with what its
    refinement reads: the step's start, size, level gaps and stages. So
    does one that stalls or reaches its cap. Once fewer than _DP5_HANDOFF
    nodes are live, each finishes in the scalar loop from where it stands,
    refined there by :func:`_locate`; the crossings found in the rounds are
    refined together by :func:`_locate_batch` at the end, which takes all
    their dense coefficients in one pass. Returns (status, t_reached, ev)
    arrays, ev[j] being row *stop* of the scalar event array; every entry
    equals the scalar kernel's bit for bit.
    """
    n = s0.size
    status = np.full(n, ODE_OK)
    t_out = np.zeros(n)
    ev_out = np.zeros((n, 5))
    level = mu if stop == EV_I else rho
    idx = np.arange(n)
    t = np.zeros(n)
    s = np.array(s0, dtype=float)
    i = np.array(i0, dtype=float)
    h = np.array([
        _initial_step(beta, gamma, a, b, c, rtol, atol)
        for a, b, c in zip(s0.tolist(), i0.tolist(), t_end.tolist())
    ])
    with np.errstate(all="ignore"):
        k1s, k1i = _field(beta, gamma, s, i)
    gap = (s, i)[stop] - level
    cap = t_end
    # per round, what the refinement of its crossings reads
    found = []
    while idx.size >= _DP5_HANDOFF:
        with np.errstate(all="ignore"):
            end = np.where(t >= cap, ODE_CAP, -1)
            end[(end < 0) & (h < 1e-15 * _py_max(1.0, np.abs(t)))] = ODE_STALL
            s1, i1, es, ei, k = _stages(beta, gamma, s, i, h, k1s, k1i)
            ss = atol + rtol * _py_max(np.abs(s), np.abs(s1))
            si = atol + rtol * _py_max(np.abs(i), np.abs(i1))
            rs = _py_min(np.abs(es / ss), 1e150)
            ri = _py_min(np.abs(ei / si), 1e150)
            err = np.sqrt(0.5 * (rs * rs + ri * ri))
            # the step factor's pow per element, as Python rounds it; err == 0
            # stands for an infinite power (factor 10 on acceptance)
            q = 0.9 * np.array([e ** -0.2 if e else math.inf for e in err.tolist()])
            acc = (err <= 1.0) & (end < 0)
            gnew = (s1, i1)[stop] - level
            cross = np.flatnonzero(acc & (gap > 0.0) & (gnew <= 0.0))
            if cross.size:
                end[cross] = ODE_OK
                found.append((idx[cross], np.array(k)[:, :, cross], t[cross], s[cross],
                              i[cross], h[cross], gap[cross], gnew[cross]))
            step = acc & (end < 0)
            t = np.where(step, t + h, t)
            s = np.where(step, s1, s)
            i = np.where(step, i1, i)
            k1s = np.where(step, k[6][0], k1s)
            k1i = np.where(step, k[6][1], k1i)
            gap = np.where(step, gnew, gap)
            # an accepted step has q >= 0.9, so the scalar loop's floor of 0.9
            # on the growth factor never binds
            h = np.where(
                step,
                h * _py_min(10.0, q),
                np.where(end < 0, h * _py_max(0.2, q), h),
            )
        done = end >= 0
        if done.any():
            out = idx[done]
            status[out] = end[done]
            t_out[out] = t[done]
            live = ~done
            idx, t, s, i, h, k1s, k1i, gap, cap = (
                a[live] for a in (idx, t, s, i, h, k1s, k1i, gap, cap)
            )
    if found:
        nodes, kc, tc, sc, ic, hc, g0, g1 = (np.concatenate(col, axis=-1) for col in zip(*found))
        del found  # the per-round pieces, before the refinement's temporaries
        ev = _locate_batch(kc, tc, sc, ic, hc, stop, level, g0, g1)
        ev_out[nodes] = ev
        t_out[nodes] = ev[:, 1]
    for j, node in enumerate(idx.tolist()):
        st, tr, ev, _, _, _ = _dp5(
            beta, gamma, float(s[j]), float(i[j]), mu, rho, float(cap[j]), stop,
            rtol, atol, float(t[j]), float(h[j]),
        )
        status[node] = st
        t_out[node] = tr
        ev_out[node] = ev[stop]
    return status, t_out, ev_out
