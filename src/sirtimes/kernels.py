"""Scalar numerical kernels: Dormand-Prince 5(4) stepping with quartic dense
output and event refinement, Gauss-Kronrod 7/15 quadrature on a graded mesh
for the time integrals, and the anchor's offset from x in closed form.

All ODE work goes through one stepping loop, :func:`_dp5`, for floats and
arrays alike. The caller picks a mode: stop at the first downward crossing
of I through mu (u) or of S through rho (v), with a time cap (the hitting
times, per node or a grid's nodes at once), or run to a fixed end and keep
every step (trajectories). :func:`_locate` refines a crossing on the dense
output.

The kernels are plain Python on floats, and this module imports no numpy;
wrappers in :mod:`sirtimes.ode` and :mod:`sirtimes.analytic` validate inputs
and turn status codes into exceptions. Kernels return status tuples instead
of raising. Their numpy twins, which run the same algorithms over whole
grids at once, live in :mod:`sirtimes.batch`.

A kernel and its twin share every formula, written here once for floats and
arrays: :func:`_field`, :func:`_stages` (which gives the seven S stages
and the seven I stages as a tuple each), :func:`_dense_coeffs`,
:func:`_dense_eval`, the integrand's I :func:`_orbit_i`, and, given the
operations of their kind (:data:`_FLOATS` by default, ``batch._ARRAYS``),
the first step :func:`_initial_step`, the crossing refinement
:func:`_locate` with its Illinois loop :func:`_refine_crossing`, the DP5
loop :func:`_dp5` with its 5(4) error norm, the GK15 rule and
its error estimate :func:`_gk15_rule`, the graded mesh :func:`_layers`, the
stopping test :func:`_converged` and the anchor offset
:func:`_anchor_offset`. The twins differ only in control flow, and only the
quadrature's driver is still written twice: :func:`_graded_gk` has no loop
but its fixed passes, which its twin runs over every panel of a grid at
once.

Two formulas have a second, written-out copy on the scalar hot path: the
field inside :func:`_stages` (for floats and arrays), and I on the orbit
inside the scalar :func:`_gk15`. The six calls of :func:`_field` were about
15% of a scalar DP5 attempt, and the 15 calls of :func:`_orbit_i` with
three list passes about 15% of a panel. (The stages' layout, a tuple per
component, and the error norm in the loop's body save a scalar attempt
about 11% more in tuples and calls.) Each copy makes the same
operations in the same order, and a test holds it to the bits of the
original: ``test_stages_write_out_the_field_bit_for_bit`` in
``tests/test_kernels.py``, and ``test_integrand_batch_matches_scalar`` in
``tests/test_batched.py`` against the batch, which calls :func:`_orbit_i`.
"""

import math
from collections import namedtuple

# status codes for the ODE kernel
ODE_OK = 0
ODE_STALL = 1
ODE_CAP = 2

# the ODE kernel's watched crossings, as indices of its pair of crossings and
# as its stop argument; PATH asks for the whole path instead of stopping
EV_S = 0  # S falls through rho: the peak time v
EV_I = 1  # I falls through mu: the threshold time u
PATH = -1

# status codes for the quadrature kernel
QUAD_OK = 0
QUAD_NOCONV = 1
QUAD_BADFUN = 2

# the unit roundoff of a float
_U = 2.0**-53

# width to which _locate refines a crossing time, relative above t = 1 and
# absolute below it: the bracket closes within _EV_TOL * max(1, t + h) of it
# (t + h the end of the step), or on an exact hit
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

# Gauss-Kronrod 7/15 nodes (positive half; last node is 0)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
# the Kronrod weights and the null rules of degrees 13, 12, 11 and 10 of
# Berntsen & Espelid (ACM TOMS 17, 1991), printed by
# tests/make_gk_error_rules.py: row j weighs the values at -/+ _XGK[j], the
# Kronrod weight and the even rules (first, third) their sum, the odd rules
# (second, fourth) their difference; _GK_CENTRE weighs the value at 0
_GK_ROWS = (
    (0.022935322010529224, 0.022921293882222405, 0.045457727476372896, 0.055963271522738556, 0.06311363824445987),
    (0.06309209262997856, -0.06635226509449108, -0.12596989532086184, -0.1414112402532541, -0.13685133423333662),
    (0.10479001032225019, 0.10472591670676057, 0.18117473072698015, 0.16276045502898784, 0.09507178146492047),
    (0.14065325971552592, -0.13896708212217126, -0.20612790079906645, -0.1120083018885812, 0.04192416069764963),
    (0.1690047266392679, 0.16890135682441784, 0.19801168644292635, 0.004511074525260409, -0.19045639589713587),
    (0.19035057806478542, -0.19136235620336586, -0.15535037034108617, 0.12408562203224108, 0.2515011436147236),
    (0.20443294007529889, 0.20430790099748694, 0.08491700766800017, -0.22624591930717078, -0.17540443525751265),
)
_GK_CENTRE = (0.20948214108472782, -0.20834952998171916, 0.2646900766795564)
# the nodes of fv in _gk15_rule's order: -/+ _XGK[j], then the centre
_GK_NODES = (*(x for xk in _XGK for x in (-xk, xk)), 0.0)


def _field(beta, gamma, s, i):
    """The SIR field (dS/dt, dI/dt) at (s, i): floats, or arrays."""
    return -beta * s * i, (beta * s - gamma) * i


def _stages(beta, gamma, s, i, h, k1s, k1i):
    """One Dormand-Prince 5(4) attempt of size h from (s, i), where the field
    is (k1s, k1i): floats, or arrays with a step per element. Returns (s1,
    i1, es, ei, ks, ki): the 5th-order state, each component's error
    estimate, and the seven S stages and the seven I stages as a tuple
    each, the last being the field at (s1, i1). Each stage's field is
    :func:`_field`'s, written out (see the module docstring)."""
    a = s + h * (_A21 * k1s)
    b = i + h * (_A21 * k1i)
    k2s, k2i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (_A31 * k1s + _A32 * k2s)
    b = i + h * (_A31 * k1i + _A32 * k2i)
    k3s, k3i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (_A41 * k1s + _A42 * k2s + _A43 * k3s)
    b = i + h * (_A41 * k1i + _A42 * k2i + _A43 * k3i)
    k4s, k4i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (_A51 * k1s + _A52 * k2s + _A53 * k3s + _A54 * k4s)
    b = i + h * (_A51 * k1i + _A52 * k2i + _A53 * k3i + _A54 * k4i)
    k5s, k5i = -beta * a * b, (beta * a - gamma) * b
    a = s + h * (_A61 * k1s + _A62 * k2s + _A63 * k3s + _A64 * k4s + _A65 * k5s)
    b = i + h * (_A61 * k1i + _A62 * k2i + _A63 * k3i + _A64 * k4i + _A65 * k5i)
    k6s, k6i = -beta * a * b, (beta * a - gamma) * b
    s1 = s + h * (_B1 * k1s + _B3 * k3s + _B4 * k4s + _B5 * k5s + _B6 * k6s)
    i1 = i + h * (_B1 * k1i + _B3 * k3i + _B4 * k4i + _B5 * k5i + _B6 * k6i)
    k7s, k7i = -beta * s1 * i1, (beta * s1 - gamma) * i1
    es = h * (_E1 * k1s + _E3 * k3s + _E4 * k4s + _E5 * k5s + _E6 * k6s + _E7 * k7s)
    ei = h * (_E1 * k1i + _E3 * k3i + _E4 * k4i + _E5 * k5i + _E6 * k6i + _E7 * k7i)
    return s1, i1, es, ei, (k1s, k2s, k3s, k4s, k5s, k6s, k7s), (k1i, k2i, k3i, k4i, k5i, k6i, k7i)


def _dense_coeffs(kc):
    """Q_0..Q_3 of one component from its seven stages kc: floats, or arrays
    with a step per element. Row 1's weights are all 0; it is summed all the
    same, since 0 * inf is NaN and an infinite second stage must show."""
    q0 = q1 = q2 = q3 = 0.0
    for v, (p0, p1, p2, p3) in zip(kc, _DENSE_P):
        q0 = q0 + v * p0
        q1 = q1 + v * p1
        q2 = q2 + v * p2
        q3 = q3 + v * p3
    return q0, q1, q2, q3


def _dense_eval(y0, h, q0, q1, q2, q3, theta):
    return y0 + h * theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))


def _pick(cond, a, b):
    """np.where on floats: a if cond holds, else b."""
    return a if cond else b


def _high(a, b):
    """Python's max(a, b) on floats, at a third of the builtin's cost on CPython 3.11."""
    return b if b > a else a


def _low(a, b):
    """Python's min(a, b) on floats, as :func:`_high` is its max."""
    return b if b < a else a


# The operations of the shared formulas for one kind of operand: _FLOATS,
# and batch._ARRAYS, whose forms give the float results element for element
# (but pow, numpy's there, to an ulp): math's functions and Python's pow,
# frexp (exact in numpy too), Python's max and min as high and low, np.where
# as pick, and any and all, whether a condition holds anywhere and
# everywhere (bool on floats). The DP5 loop's runs take three more: index,
# each run's place (0 on floats); keep, the values of the runs that go on
# (on floats, the one run's, which reaches it only as it ends); and join,
# the records of the runs that ended, in record order or, given ordered, in
# run order (on floats, the one).
_Ops = namedtuple("_Ops", "log log1p exp expm1 pow frexp sqrt high low pick any all index keep join")
_FLOATS = _Ops(
    math.log, math.log1p, math.exp, math.expm1, pow, math.frexp, math.sqrt, _high, _low, _pick,
    bool, bool, lambda values: 0, lambda live, *values: values, lambda records, ordered=False: records[0],
)


def _initial_step(beta, gamma, s, i, t_bound, rtol, atol, ops=_FLOATS):
    """The first step size from (s, i), floats or arrays: match the scale of
    the first derivative, then sanity-check with an Euler probe."""
    pick, high, low = ops.pick, ops.high, ops.low
    fs, fi = _field(beta, gamma, s, i)
    ss = atol + rtol * abs(s)
    si = atol + rtol * abs(i)
    # plain products instead of ** so overflow saturates to inf on every path
    r0s = s / ss
    r0i = i / si
    r1s = fs / ss
    r1i = fi / si
    d0 = ops.sqrt(0.5 * (r0s * r0s + r0i * r0i))
    d1 = ops.sqrt(0.5 * (r1s * r1s + r1i * r1i))
    # a quotient not taken divides by 1, so that floats do not divide by 0
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = pick(small, 1e-6, 0.01 * d0 / pick(small, 1.0, d1))
    f1s, f1i = _field(beta, gamma, s + h0 * fs, i + h0 * fi)
    r2s = (f1s - fs) / ss
    r2i = (f1i - fi) / si
    # h0 is 0 when the field overflows (d1 = inf); the fallback below then
    # takes over, and the run stalls with a typed error
    pos = h0 > 0.0
    d2 = pick(pos, ops.sqrt(0.5 * (r2s * r2s + r2i * r2i)) / pick(pos, h0, 1.0), math.inf)
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = pick(flat, high(1e-6, h0 * 1e-3), ops.pow(0.01 / pick(flat, 1.0, high(d1, d2)), 0.2))
    h = low(low(100.0 * h0, h1), t_bound)
    # extreme tolerances can overflow the scale estimates
    return pick((h > 0.0) & (h < math.inf), h, low(1e-6, t_bound))


def _refine_crossing(y0, h, q0, q1, q2, q3, level, g0, g1, tol_theta, ops=_FLOATS):
    """Locate the root of dense(theta) - level on [0, 1]: floats, or arrays
    with a crossing per element given ops=batch._ARRAYS.

    g0 = value at 0 (> 0), g1 = value at 1 (<= 0). Illinois-accelerated false
    position with a guaranteed bracket. Each crossing stops on its own: at
    theta 1 where g1 == 0, at (tc, 0) on an exact hit, and at the bracket's
    middle and half-width once the bracket is within tol_theta or after 200
    iterations. A NaN bracket width keeps iterating, and a NaN false-position
    point is kept. Returns (theta, half_width)."""
    pick = ops.pick
    # "== False" is the logical not of a Python bool and of a numpy bool
    # array alike (~True is -2)
    run = g1 != 0.0
    # ended on a point rather than a bracket: g1 == 0, or an exact hit
    hit = run == False
    zero = pick(run, 0.0, 0.0)
    theta = zero + 1.0
    ta = zero
    fa = g0
    tb = zero + 1.0
    fb = g1
    side = zero
    for _ in range(200):
        run = run & ((tb - ta <= tol_theta) == False)
        if not ops.any(run):
            break
        # false position where the values' difference is positive and the
        # point falls inside the bracket (over 1 elsewhere, so that floats do
        # not divide by 0), else bisection
        denom = fa - fb
        fp = denom > 0.0
        tc = (fa * tb - fb * ta) / pick(fp, denom, 1.0)
        tc = pick(fp & (((tc <= ta) | (tc >= tb)) == False), tc, 0.5 * (ta + tb))
        fc = _dense_eval(y0, h, q0, q1, q2, q3, tc) - level
        pos = run & (fc > 0.0)
        neg = run & (fc < 0.0)
        exact = run & ((pos | neg) == False)
        theta = pick(exact, tc, theta)
        hit = hit | exact
        fb = pick(pos & (side == 1.0), fb * 0.5, fb)
        fa = pick(neg & (side == -1.0), fa * 0.5, fa)
        ta = pick(pos, tc, ta)
        fa = pick(pos, fc, fa)
        tb = pick(neg, tc, tb)
        fb = pick(neg, fc, fb)
        side = pick(pos, 1.0, pick(neg, -1.0, side))
        run = pos | neg
    return pick(hit, theta, 0.5 * (ta + tb)), pick(hit, zero, 0.5 * (tb - ta))


def _locate(kc, t, y0, h, level, g0, g1, ops=_FLOATS):
    """Refine the downward crossing of a component through *level* inside
    the accepted step of size h from time t, where the component is y0 and
    its seven stages are kc; g0 > 0 and g1 <= 0 are the component minus the
    level at the step's ends. Floats, or arrays with a crossing per element
    given ops=batch._ARRAYS (kc then holds the stages as kc[:, j]). Returns
    (t, time half-width, theta) of the crossing, theta its place in the step
    as a fraction of h."""
    q = _dense_coeffs(kc)
    tol_t = _EV_TOL * ops.high(1.0, t + h)
    theta, hw = _refine_crossing(y0, h, *q, level, g0, g1, tol_t / h, ops)
    return t + theta * h, hw * h, theta


def _path_crossing(ts, ys, hs, stages, comp, level):
    """The first downward crossing of component *comp* through *level* in a
    path's accepted steps (times ts, states ys, sizes hs, and stages as
    (S stages, I stages)), as (t, half-width, S, I): :func:`_locate`'s
    crossing and the state there on the dense output; None where there is
    none."""
    for j, h in enumerate(hs):
        g0, g1 = ys[j][comp] - level, ys[j + 1][comp] - level
        if g0 > 0.0 and g1 <= 0.0:
            t, hw, theta = _locate(stages[j][comp], ts[j], ys[j][comp], h, level, g0, g1)
            s, i = ys[j]
            qs = _dense_coeffs(stages[j][0])
            qi = _dense_coeffs(stages[j][1])
            return t, hw, _dense_eval(s, h, *qs, theta), _dense_eval(i, h, *qi, theta)
    return None


def _dp5(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol, ops=_FLOATS):
    """Integrate from (s0, i0) at t = 0: on floats, or in stop mode, given
    ops=batch._ARRAYS, one run from each (s0[j], i0[j]) with its own t_end[j].

    stop = EV_I or EV_S watches the first downward crossing of I through mu
    or of S through rho and returns at it; the caller guarantees the
    component starts strictly above its level. t_end is then a cap that ends
    the run with ODE_CAP. Returns (status, t, half_width): ODE_OK and the
    crossing as :func:`_locate` refines it, else the status, where the run
    ended, and 0. stop = PATH (floats) runs to t_end, clipping the last step
    to it (t_end <= 0 gives the initial state alone), and returns (status,
    t_reached, (ev_s, ev_i), ts, ys, hs, stages): both crossings by
    :func:`_path_crossing`, and the accepted step times, (S, I) states,
    sizes and stages, as :func:`_stages`' (ks, ki), for the dense
    interpolant.

    A round makes one step attempt in every run still going. Each run leaves
    on its own: at its cap or on a stall before an attempt, or at its
    crossing, which on arrays drops it at the top of the next round. The
    crossings are refined once every run has ended, on arrays all at once."""
    high, low, pick, power, sqrt = ops.high, ops.low, ops.pick, ops.pow, ops.sqrt
    any_, all_ = ops.any, ops.all
    path = stop == PATH
    watch_i = stop == EV_I
    # path mode watches no level, and nothing falls through -inf
    level = -math.inf if path else mu if watch_i else rho
    s, i, cap = s0, i0, t_end
    k1s, k1i = _field(beta, gamma, s, i)
    h = _initial_step(beta, gamma, s, i, cap, rtol, atol, ops)
    gap = (i if watch_i else s) - level
    # a step below 1e-15*max(min(1, cap), t) is a stall, tested against each
    # product; the cap's term lets a run whose cap lies below 1e-15 step at all
    floor = 1e-15 * low(1.0, cap)
    t = h - h  # 0.0 of h's kind: h is finite
    runs = ops.index(s0)
    ended = []  # (runs, status, t, half-width) of the runs that ended
    found = []  # (runs, watched stages, t, y, h, g0, g1) of each crossing's step
    if path:
        ts, ys, hs, stages = [t], [(s, i)], [], []  # the accepted steps
    crossed = False
    while True:
        over = (t >= cap) | (h < floor) | (h < 1e-15 * t)
        if any_(over | crossed):
            left = over & (crossed == False)
            if any_(left):
                status = pick(t >= cap, ODE_OK if path else ODE_CAP, ODE_STALL)
                ended.append(ops.keep(left, runs, status, t, 0.0 * status))
            live = (over | crossed) == False
            if not any_(live):
                break
            runs, t, s, i, h, k1s, k1i, gap, cap, floor = ops.keep(
                live, runs, t, s, i, h, k1s, k1i, gap, cap, floor
            )
        last = path and t + h >= cap
        if last:
            h = cap - t
        s1, i1, es, ei, ks, ki = _stages(beta, gamma, s, i, h, k1s, k1i)
        # the 5(4) error norm; the scaled defects are clamped so that
        # squaring cannot overflow, and anything this large is a rejection
        rs = low(abs(es / (atol + rtol * high(abs(s), abs(s1)))), 1e150)
        ri = low(abs(ei / (atol + rtol * high(abs(i), abs(i1)))), 1e150)
        err = sqrt(0.5 * (rs * rs + ri * ri))
        # 0.9*err**-0.2; err + 5e-324 keeps Python's pow off 0, and any err
        # below 1e-290 reaches the growth cap of 10 either way
        q = 0.9 * power(err + 5e-324, -0.2)
        gnew = (i1 if watch_i else s1) - level
        # accepted, and still above the level: no run crosses
        if all_((err <= 1.0) & (gnew > 0.0)):
            t = cap if last else t + h
            if path:
                ts.append(t)
                ys.append((s1, i1))
                hs.append(h)
                stages.append((ks, ki))
            s, i = s1, i1
            k1s, k1i = ks[6], ki[6]
            gap = gnew
            h = h * low(10.0, q)
            crossed = False
            continue
        acc = err <= 1.0
        crossed = acc & (gap > 0.0) & (gnew <= 0.0)
        if any_(crossed):
            kc = ki if watch_i else ks
            found.append(ops.keep(crossed, runs, kc, t, i if watch_i else s, h, gap, gnew))
            if all_(crossed):
                break
        # a rejection on floats (path mode's only way here), a mixed round on arrays
        t = pick(acc, t + h, t)
        s = pick(acc, s1, s)
        i = pick(acc, i1, i)
        k1s = pick(acc, ks[6], k1s)
        k1i = pick(acc, ki[6], k1i)
        gap = pick(acc, gnew, gap)
        h = h * pick(acc, low(10.0, q), high(0.2, q))
    if path:
        _, status, t, _ = ended[0]
        crossings = (_path_crossing(ts, ys, hs, stages, EV_S, rho),
                     _path_crossing(ts, ys, hs, stages, EV_I, mu))
        return status, t, crossings, ts, ys, hs, stages
    if found:
        runs, kc, t, y, h, g0, g1 = ops.join(found)
        t, hw, _ = _locate(kc, t, y, h, level, g0, g1, ops)
        ended.append((runs, ODE_OK + 0 * runs, t, hw))
    return ops.join(ended, True)[1:]


def _orbit_i(sig, rho, s_ref, i_ref, expm1=math.expm1):
    """I on the orbit through (s_ref, i_ref) at sig = ln(S/s_ref), exact at
    sig = 0: floats, or arrays given an array expm1."""
    return i_ref - s_ref * expm1(sig) + rho * sig


def _gk15_rule(fv, hl, ops=_FLOATS):
    """The Gauss-Kronrod 7/15 rule over a panel of half-length hl, from the
    integrand values fv: fv[2j] and fv[2j+1] at the centre -/+ hl*_XGK[j],
    fv[14] at the centre; floats, or arrays with a panel per element given
    ops=batch._ARRAYS. Returns (value, err): the Kronrod value and an
    estimate of its error from null rules (Berntsen & Espelid, ACM TOMS 17,
    1991). e1, the larger of the rules of degrees 13 and 12, and e2, that of
    degrees 11 and 10, measure the integrand's components of those degrees;
    r = e1/e2 is their decay over two degrees, and the Kronrod rule's error
    lies about five such steps below e1: err = e1*min(1, r**5/2), which is
    e1 where the components do not decay, plus u*|value|, the rounding of
    the rule's sum (u the unit roundoff). Where e2 lies below 20*u*|value|,
    in the values' rounding, r is taken over that level instead, so that
    rounding noise in the rules adds nothing."""
    wk, n14, n12 = _GK_CENTRE
    fc = fv[14]
    resk = wk * fc
    e14 = n14 * fc
    e12 = n12 * fc
    e13 = e11 = 0.0
    pairs = iter(fv)
    for (f1, f2), (wk, n14, n13, n12, n11) in zip(zip(pairs, pairs), _GK_ROWS):
        add = f1 + f2
        sub = f2 - f1
        resk += wk * add
        e14 += n14 * add
        e13 += n13 * sub
        e12 += n12 * add
        e11 += n11 * sub
    e1 = ops.high(abs(e14), abs(e13))
    noise = _U * abs(resk)
    # plus the least subnormal, so that floats do not divide by 0
    r = e1 / (ops.high(ops.high(abs(e12), abs(e11)), 20.0 * noise) + 5e-324)
    r2 = r * r
    return resk * hl, (e1 * ops.low(1.0, 0.5 * (r2 * r2 * r)) + noise) * abs(hl)


def _gk15(a, b, beta, rho, s_ref, i_ref):
    """Gauss-Kronrod 7/15 rule on [a, b] with the error estimate of
    :func:`_gk15_rule`, over the integrand of the time representations:
    1/(beta*I) in sig = ln S - s0, I by :func:`_orbit_i` from (s_ref, i_ref)
    at s0.
    Returns (value, err, ok), ok false where I <= 0 at a node; a
    denominator that underflows to 0 gives an infinite value, as numpy's
    division does in the batch. Each node's I is :func:`_orbit_i`'s,
    written out (see the module docstring), and the loop stops at the first
    I <= 0."""
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    expm1 = math.expm1
    fv = []
    for xk in _GK_NODES:
        sig = c + hl * xk
        i = i_ref - s_ref * expm1(sig) + rho * sig
        if not i > 0.0:
            return 0.0, 0.0, False
        den = beta * i
        fv.append(1.0 / den if den else math.inf)
    return (*_gk15_rule(fv, hl), True)


def _converged(total, errtot, atol, rtol, ops=_FLOATS):
    """The quadrature's stopping test on the summed value and error: floats,
    or arrays given ops=batch._ARRAYS."""
    return errtot <= ops.high(atol, rtol * abs(total))


def _layers(lo, hi, rho, s_ref, i_ref, ops=_FLOATS):
    """The graded mesh of the piece [lo, hi] of the time integrand, I from
    (s_ref, i_ref): floats, or arrays given ops=batch._ARRAYS, whose exp and
    expm1 are math's, so that both kinds place the same edges.

    At an end e the integrand has a boundary layer of width w = I/|rho - S|
    there, I over its slope in s. The graded edges from lo are lo +
    w_lo*2**j for every j >= 0 with w_lo*2**j below half the length, counted
    exactly from the binary exponents, and likewise hi - w_hi*2**j from hi.
    An end grades only where w is positive and finite: the peak end, where
    the slope is 0, does not, nor an end where I <= 0, I is NaN or w
    underflows to 0. Returns (half, w_lo, n_lo, w_hi, n_hi): half the
    length, and each end's width and count of graded edges."""
    pick = ops.pick
    half = 0.5 * (hi - lo)
    mh, eh = ops.frexp(half)
    ends = [half]
    for end in (lo, hi):
        slope = abs(rho - s_ref * ops.exp(end))
        w = _orbit_i(end, rho, s_ref, i_ref, ops.expm1) / pick(slope > 0.0, slope, 1.0)
        mw, ew = ops.frexp(w)
        grade = (slope > 0.0) & (w > 0.0) & (w < math.inf)
        ends += [w, pick(grade, ops.high(eh - ew + (mw < mh), 0), 0)]
    return ends


def _graded_gk(lo, hi, beta, rho, s_ref, i_ref, atol, rtol):
    """GK15 quadrature of the time integrand over [lo, hi] on a fixed graded
    mesh (Piessens et al., *QUADPACK*, 1983, 2.2; Davis & Rabinowitz,
    *Methods of Numerical Integration*, 1984, on graded meshes at endpoint
    singularities). The panel edges are lo, the graded edges of
    :func:`_layers` from lo, the midpoint, those from hi, and hi. Where the
    panels' summed estimate misses :func:`_converged`, every panel is
    halved, at most twice, so a piece takes at most 7 times its first
    panel count. Panels are summed in order, and err holds their estimates
    and each partial sum's rounding bound. Returns (status, value, err):
    QUAD_BADFUN with the sums before the panel where I <= 0 at a node, and
    QUAD_NOCONV with the last sums after the second halving."""
    if hi <= lo:
        return QUAD_OK, 0.0, 0.0
    half, w_lo, n_lo, w_hi, n_hi = _layers(lo, hi, rho, s_ref, i_ref)
    edges = [lo, *(lo + math.ldexp(w_lo, j) for j in range(n_lo)), lo + half,
             *(hi - math.ldexp(w_hi, j) for j in reversed(range(n_hi))), hi]
    for halving in range(3):
        if halving:
            edges = [e for a, b in zip(edges, edges[1:]) for e in (a, 0.5 * (a + b))] + [hi]
        total = errtot = 0.0
        for a, b in zip(edges, edges[1:]):
            v, e, ok = _gk15(a, b, beta, rho, s_ref, i_ref)
            if not ok:
                return QUAD_BADFUN, total, errtot
            total += v
            # the panel's error and the rounding of the sum, at most u*|total|
            errtot += e + _U * abs(total)
        if _converged(total, errtot, atol, rtol):
            return QUAD_OK, total, errtot
    return QUAD_NOCONV, total, errtot


def _deficit_root(d, ops):
    """The root t <= 0 of expm1(t) - t = d >= 0: floats, or arrays given
    ops=batch._ARRAYS. t = ln(a/rho) is the anchor's offset from the peak,
    and d its deficit, (psi - psi_min)/rho: the orbit's psi above psi's
    minimum over the threshold line, which sits at the branch point, a =
    rho.

    The root is the Kermack-McKendrick final-size relation in closed form:
    with c = 1 + d and W0 the principal branch of the Lambert W function,

        t = -c - W0(-e^-c)

    (Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W function",
    Adv. Comput. Math. 5, 1996; Pakes, "Lambert's W meets Kermack-McKendrick
    epidemics", IMA J. Appl. Math. 80, 2015), W0 = -1 at the branch point.
    Two Halley steps start from the branch-point series -(p + p^2/6 +
    p^3/36), p = sqrt(2d), for d < 2, and beyond it from e^-c - c (W0(z) ~
    z), which is -c where e^-c underflows. A Halley step whose denominator
    rounds to 0 (at the branch point) is skipped."""
    pick = ops.pick
    p = ops.sqrt(2.0 * d)
    c = 1.0 + d
    t = pick(d < 2.0, -p * (1.0 + p * (1.0 / 6.0 + p / 36.0)), ops.exp(-c) - c)
    for _ in range(2):
        em = ops.expm1(t)
        f = em - t - d
        den = 2.0 * em * em - f * (em + 1.0)
        flat = den == 0.0
        t = t - pick(flat, 0.0, 2.0 * f * em / pick(flat, 1.0, den))
    return t


def _anchor_offset(rho, mu, x, y, s_rho, ops=_FLOATS):
    """s* = ln(a/x) <= min(0, s_rho), s_rho = ln(rho/x): the root of y - mu
    - x*expm1(s) + rho*s = 0 at x > 0, y >= mu; floats, or arrays given
    ops=batch._ARRAYS. Every such (x, y) has one: the deficit d = (y - mu -
    (rho - x) + rho*s_rho)/rho is taken as 0 where it rounds below 0. The
    solve starts from s_rho + t, t from :func:`_deficit_root`, or, where x
    < rho and it leaves a smaller residual, from (mu - y)/(rho - x),
    Newton's step from 0, which keeps the digits of an s* small against
    s_rho. One Newton step ends the solve where the slope rho - a is
    positive and the step stays within half the distance to s_rho, that is,
    away from the branch point."""
    pick = ops.pick
    dy = y - mu
    top = dy - (rho - x) + rho * s_rho
    s = s_rho + _deficit_root(pick(top > 0.0, top / rho, 0.0), ops)
    f = _orbit_i(s, rho, x, dy, ops.expm1)
    below = x < rho
    # over inf where x >= rho, so that the quotient not taken is 0 and I
    # there cannot overflow on arrays
    s_lin = -dy / pick(below, rho - x, math.inf)
    f_lin = _orbit_i(s_lin, rho, x, dy, ops.expm1)
    lin = below & (abs(f_lin) < abs(f))
    s = pick(lin, s_lin, s)
    f = pick(lin, f_lin, f)
    slope = rho - x * ops.exp(s)
    step = f / pick(slope > 0.0, slope, 1.0)
    s = pick((slope > 0.0) & (abs(step) <= 0.5 * abs(s - s_rho)), s - step, s)
    return ops.low(s, ops.low(s_rho, 0.0))
