"""numpy twins of the per-node kernels and route functions, for whole grids.

This is the one module of the package that imports numpy at its top
(:mod:`sirtimes.checks`, which only ``verify`` loads, is the other). The
per-node functions (:func:`~sirtimes.hitting_time_u`,
:func:`~sirtimes.u_integral`, the bounds and asymptotics, ...) and the
``compute``, ``bounds`` and ``asymptotics`` subcommands never load it;
:func:`sirtimes.run_grid` and :meth:`sirtimes.GridSpec.xs`/``ys`` import it
when they are called.

The functions here run the scalar algorithms of :mod:`sirtimes.kernels`,
:mod:`sirtimes.analytic` and :mod:`sirtimes.ode` over many independent
problems at once, in lock-step, with numpy arrays. Every formula comes from
those modules, given :data:`_ARRAYS`: the field, DP5 stages, error norm,
dense output and crossing refinement, the GK15 rule and its error
estimate, the graded mesh and stopping test, the anchor, the u integral's
pieces and the limits' rounding, the bound, asymptotic, cap and event
formulas, and the DP5 step loop itself, which :func:`_dp5_batch` runs on
arrays. The twins differ only in control flow: each element leaves a loop
or takes a branch on its own. Only the quadrature's driver is still written
twice: its fixed passes
run every panel of a grid at once (:func:`_batch_quad`). Their per-node
logs and exps are math's per element (:func:`_math_each`), so the anchor,
the crossing refinement, the quadrature's mesh and the side cells agree
with the scalar kernels bit for bit (and :func:`_py_max`, :func:`_py_min`
mirror max and min). Two
things follow numpy's SIMD functions instead, to a few units in the last
place: the quadratures' I takes numpy's expm1 unless asked for math's, and
the DP5 loop's step sizes take numpy's power, so its crossing times match
the per-node ones to rounding rather than bit for bit.
"""

import math
from collections import deque
from functools import partial
from itertools import repeat

import numpy as np

from .analytic import (
    _DEGENERATE_DEN,
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    _asymptotic_u,
    _asymptotic_v,
    _bounds_u_terms,
    _bounds_v_args,
    _bounds_v_terms,
    _log_ratio,
    _subcritical_u,
    _u_pieces,
    _v_limit_err,
)
from .core import Method, ModelParams
from .gridrun import GRID_FIELDS, STATUS_OK, GridRow, _evaluate, side_cells
from .kernels import (
    _XGK,
    EV_I,
    EV_S,
    ODE_OK,
    _U,
    _converged,
    _dp5,
    _gk15_rule,
    _layers,
    _orbit_i,
    _Ops,
)
from .ode import _CAP_SLACK, _DEFAULT_CONFIG, _cap_terms, _event_value

__all__ = ["u_integral_batch", "v_integral_batch"]


# --- the kernels' twins ------------------------------------------------------

def _math_each(fn, values, *args):
    """*fn*, a function of floats such as those of :mod:`math`, applied to
    each element of the array *values*, with any further arguments."""
    flat = values.ravel().tolist()
    return np.fromiter(map(fn, flat, *map(repeat, args)), float, len(flat)).reshape(values.shape)


def _py_max(a, b):
    """Elementwise Python max(a, b): b where b > a, else a, even for NaN."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise Python min(a, b): b where b < a, else a, even for NaN."""
    return np.where(b < a, b, a)


def _keep(live, *values):
    """The values of the DP5 loop's runs that go on, where *live* holds:
    arrays, or one component's seven stages, which come out as one (7,
    runs) array."""
    return tuple(v[live] if isinstance(v, np.ndarray) else np.array(v)[:, live] for v in values)


def _join(records, ordered=False):
    """The records of the DP5 loop's runs, tuples of arrays whose first is
    the runs' places, put together column by column in record order, or in
    run order if *ordered*."""
    cols = [np.concatenate(col, axis=-1) for col in zip(*records)]
    if not ordered:
        return cols
    order = np.argsort(cols[0])
    return tuple(c[..., order] for c in cols)


# kernels._Ops on arrays: math's log, log1p, exp and expm1 per element, on
# which the anchor, the quadrature's mesh and the side cells rest bit for bit;
# numpy's power, which only the DP5 loop's step sizes take and whose SIMD
# form differs from libm's pow by 1 ulp at about 5% of arguments on AVX-512
# CPUs (so ODE grid values match the per-node ones to rounding); numpy's
# frexp and sqrt (exact and correctly rounded, as math's are); any and all
# as the arrays' own methods, at half the cost of np.any's and np.all's
# wrappers; and the DP5 loop's runs numbered 0 to n - 1
_ARRAYS = _Ops(
    *(partial(_math_each, fn) for fn in (math.log, math.log1p, math.exp, math.expm1)),
    np.power, np.frexp, np.sqrt, _py_max, _py_min, np.where, np.ndarray.any, np.ndarray.all,
    lambda values: np.arange(values.size), _keep, _join,
)


# panels per numpy pass of _gk15_batch: the pass holds several (panels, 15)
# temporaries, which for a whole grid's first pass would otherwise take
# megabytes at once
_GK_CHUNK = 1024


def _gk15_batch(a, b, beta, rho, s_ref, i_ref, expm1=np.expm1):
    """:func:`kernels._gk15` on the panels [a[k], b[k]], each with its
    own reference point (s_ref[k], i_ref[k]), I by :func:`kernels._orbit_i`
    with *expm1*. Returns (value, err, ok) arrays."""
    if a.size > _GK_CHUNK:
        parts = [
            _gk15_batch(a[k:k + _GK_CHUNK], b[k:k + _GK_CHUNK], beta, rho,
                        s_ref[k:k + _GK_CHUNK], i_ref[k:k + _GK_CHUNK], expm1)
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
    with np.errstate(all="ignore"):
        fv = _orbit_i(z, rho, s_ref[:, None], i_ref[:, None], expm1)
        ok = fv > 0.0
        fv *= beta
        np.divide(1.0, fv, out=fv)
        return (*_gk15_rule(fv.T, hl, _ARRAYS), ok.all(axis=1))


def _run_sums(v, e, counts):
    """The sums of the panel values v and errors e over consecutive runs,
    run j counts[j] long: each added left to right from 0.0, as
    :func:`kernels._graded_gk` adds its panels, the errors' with the
    rounding of the values' sum."""
    starts = np.cumsum(counts) - counts
    tot, err = np.zeros((2, counts.size))
    for j in range(counts.max(initial=0)):
        live = np.flatnonzero(counts > j)
        tot[live] += v[starts[live] + j]
        err[live] += e[starts[live] + j] + _U * abs(tot[live])
    return tot, err


# below this many nodes, _dp5_batch steps each node on floats instead. A
# lock-step round costs about 0.27 ms at small widths, against about 10 us
# per scalar step, and every node stays in the rounds to its end: whole
# batches of 16, 64, 72, 80 and 96 random README u-surface states took 4.2x,
# 1.09x, 1.04x, 0.92x and 0.79x the scalar loop's time, and of v-surface
# states 3.9x, 1.14x, 1.00x, 0.96x and 0.83x (median of 15, CPU time, one
# pinned CPU of a shared 2-vCPU VM, Python 3.11, numpy 2.4). The bound sits at
# that break-even
_LOCKSTEP_MIN = 80


def _dp5_batch(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol):
    """:func:`kernels._dp5` in stop mode (stop is EV_I or EV_S) from every
    state (s0[j], i0[j]), each with its own cap t_end[j]: in lock-step on
    arrays from _LOCKSTEP_MIN nodes, node by node on floats below. Returns
    (status, t, half_width) arrays, as the kernel returns them per node.

    The step factor's power is numpy's on arrays, which on AVX-512 CPUs
    differs from the floats' libm pow by 1 ulp at about 5% of arguments; a
    step size an ulp apart moves the path by rounding, so the crossing times
    match the per-node ones to rounding (or to within the half-widths, where
    one refinement ends on a bracket and the other on an exact hit). With
    Python's pow in _ARRAYS they are the per-node ones bit for bit.
    """
    if s0.size >= _LOCKSTEP_MIN:
        with np.errstate(all="ignore"):
            return _dp5(beta, gamma, s0, i0, mu, rho, t_end, stop, rtol, atol, _ARRAYS)
    status = np.full(s0.size, ODE_OK)
    t = np.zeros(s0.size)
    half_width = np.zeros(s0.size)
    for j, (a, b, c) in enumerate(zip(s0.tolist(), i0.tolist(), t_end.tolist())):
        status[j], t[j], half_width[j] = _dp5(beta, gamma, a, b, mu, rho, c, stop, rtol, atol)
    return status, t, half_width


# --- the route functions' twins ----------------------------------------------

def _batch_quad(good, lo, hi, beta, rho, s_ref, i_ref, total, err, expm1):
    """:func:`kernels._graded_gk` over [lo, hi] from the reference points
    (s_ref, i_ref) at the nodes that are still *good*, added to *total* and
    *err*; *good* is cleared where it did not converge.

    The panels of the running nodes are held flat, each node's in order, so
    that memory follows the panels evaluated; a pass evaluates them all in
    one :func:`_gk15_batch` call and sums each node's panels in order, and
    the nodes that miss the stopping test have every panel halved for the
    next pass. The mesh is the scalar one (:func:`kernels._layers` with
    math's exp and expm1), so with ``expm1=_ARRAYS.expm1`` the sums are the
    scalar kernel's bit for bit."""
    k = np.flatnonzero(good & ~(hi <= lo))
    lo, hi, s_ref, i_ref = lo[k], hi[k], s_ref[k], i_ref[k]
    with np.errstate(all="ignore"):
        half, w_lo, n_lo, w_hi, n_hi = _layers(lo, hi, rho, s_ref, i_ref, _ARRAYS)
        # node j's edges at places q = 0 .. last: lo, lo + w_lo*2**(q-1) up to
        # q = n_lo, the midpoint, hi - w_hi*2**(last-1-q) down to 2**0, and hi
        last = n_lo + n_hi + 2
        own = np.repeat(np.arange(k.size), last + 1)
        q = np.arange(own.size) - np.repeat(np.cumsum(last + 1) - (last + 1), last + 1)
        lo_q, hi_q, n_q, last_q = lo[own], hi[own], n_lo[own], last[own]
        edges = np.select(
            [q == 0, q <= n_q, q == n_q + 1, q < last_q],
            [lo_q, lo_q + np.ldexp(w_lo[own], q - 1), lo_q + half[own],
             hi_q - np.ldexp(w_hi[own], last_q - 1 - q)],
            hi_q,
        )
        a, b, own = edges[q < last_q], edges[q > 0], own[q > 0]
        for halving in range(3):
            if halving:
                mid = 0.5 * (a + b)
                a, b = np.stack((a, mid), 1).ravel(), np.stack((mid, b), 1).ravel()
                own = np.repeat(own, 2)
            v, e, ok = _gk15_batch(a, b, beta, rho, s_ref[own], i_ref[own], expm1)
            count = np.bincount(own, minlength=k.size)
            tot, et = _run_sums(v, e, count)
            bad = np.bincount(own[~ok], minlength=k.size) > 0
            conv = _converged(tot, et, QUAD_ABS_TOL, QUAD_REL_TOL, _ARRAYS) & ~bad
            end = (count > 0) & (conv | bad | (halving == 2))
            total[k[end]] += tot[end]
            err[k[end]] += et[end]
            good[k[end & ~conv]] = False
            keep = ~end[own]
            a, b, own = a[keep], b[keep], own[keep]


def u_integral_batch(params: ModelParams, xs, ys, expm1=np.expm1):
    """:func:`analytic.u_integral` at many nodes at once, with numpy: the
    same anchor solve, far tail and quadratures, in lock-step over the
    nodes, the integrand with *expm1*: numpy's, whose SIMD form differs from
    math's in the last bit at about a tenth of the points, or
    ``_ARRAYS.expm1``, which gives the scalar values bit for bit at a Python
    call per point. Returns (ok, value, err) arrays. A node is ok when it
    lies in the interior of u's domain (x > 0, y >= mu, and not y == mu
    with x <= rho) and its quadratures converged; any other node needs the
    scalar :func:`u_integral`, which returns the edge value or raises the
    typed error there."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    rho, mu, beta = params.rho, params.mu, params.beta
    ok = (x > 0.0) & (y >= mu) & ~((y == mu) & (x <= rho))
    ok &= np.isfinite(x) & np.isfinite(y)
    value = np.zeros(x.shape)
    err = np.zeros(x.shape)
    idx = np.flatnonzero(ok)
    xi, yi = x[idx], y[idx]
    # logs and exps through math, as the scalar route takes them; where not
    # taken, (x - rho)/rho and the deficit root's series can overflow
    with np.errstate(all="ignore"):
        s_rho = _log_ratio(rho, xi, _ARRAYS)
        tail, s_ref, i_ref, sig_hi, e, kappa = _u_pieces(params, xi, yi, s_rho, _ARRAYS)
    good = np.isfinite(tail)
    zero = np.zeros(idx.size)
    # each piece's sum and error added, with the rounding of the addition,
    # as _run_quads adds them
    for lo, hi, s0, i0 in ((zero, sig_hi, s_ref, i_ref), (s_rho, zero, xi, yi)):
        part, part_err = np.zeros((2, idx.size))
        _batch_quad(good, lo, hi, beta, rho, s0, i0, part, part_err, expm1)
        tail += part
        e += part_err
        e += _U * abs(tail)
    ok[idx] = good
    value[idx] = np.maximum(tail, 0.0)
    err[idx] = e + _U * kappa * abs(part)
    return ok, value, err


def v_integral_batch(params: ModelParams, xs, ys, expm1=np.expm1):
    """:func:`analytic.v_integral` at many nodes at once, with numpy, the
    integrand with *expm1* as in :func:`u_integral_batch`.

    Returns (ok, value, err) arrays. A node is ok when x > rho, y > 0 and
    its quadrature converged; any other node needs the scalar
    :func:`v_integral`.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    rho = params.rho
    ok = (x > rho) & (y > 0.0) & np.isfinite(x) & np.isfinite(y)
    value = np.zeros(x.shape)
    with np.errstate(all="ignore"):
        at = np.where(ok, x, rho)
        s_rho = _log_ratio(rho, at, _ARRAYS)
        err, kappa = _v_limit_err(params, at, np.where(ok, y, 1.0), s_rho, _ARRAYS)
    _batch_quad(ok, s_rho, np.zeros(x.shape), params.beta, rho, x, y, value, err, expm1)
    err += _U * abs(value)
    err += _U * kappa * abs(value)
    np.maximum(value, 0.0, out=value)
    return ok, value, err


def _side_cells_batch(params: ModelParams, kind: str, xs, ys):
    """The bound and asymptotic cells of a grid row of time *kind* ("u" or
    "v") at many nodes at once, with numpy.

    Returns (inside, lower, upper, asymptotic) arrays. A node is inside
    where the bounds and the asymptotic function of *kind* both return a
    value; there the cells equal those of the scalar functions: lower, the
    least upper bound, and the asymptotic value. The other entries hold no
    value, and those nodes need the scalar functions.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    mu, rho = params.mu, params.rho
    inside = np.isfinite(x) & np.isfinite(y)
    if kind == "u":
        # asymptotic_u's rules follow from these: (x + y)/mu >= y/mu >= 1
        inside &= (x >= 0.0) & (y >= mu)
    else:
        inside &= (x > rho) & (y > 0.0)
    k = np.flatnonzero(inside)
    x, y = x[k], y[k]
    with np.errstate(all="ignore"):
        if kind == "u":
            lower, crude_num, crude_den = _bounds_u_terms(params, x, y, _ARRAYS)
            good = np.full(k.size, crude_den != 0.0)
            # no subcritical bound where beta*x >= gamma: NaN, which _py_min skips
            sub = np.where(
                params.beta * x < params.gamma, _subcritical_u(params, x, y, _ARRAYS), np.nan
            )
            upper = _py_min(crude_num / crude_den, sub)
            asym = _asymptotic_u(params, x, y, _ARRAYS)
        else:
            dlog, upper_den, upper_arg, lower_arg = _bounds_v_args(params, x, y, _ARRAYS)
            good = (upper_den > _DEGENERATE_DEN) & (upper_arg > 0.0) & (lower_arg > 0.0)
            # a log argument out of range becomes 1, so that math.log takes
            # it; its node is not inside
            upper, lower_num, lower_den, crude_den = _bounds_v_terms(
                params, x, y, dlog, upper_den,
                np.where(good, upper_arg, 1.0), np.where(good, lower_arg, 1.0), _ARRAYS,
            )
            asym_num, asym_den = _asymptotic_v(params, x, y, _ARRAYS)
            good &= (lower_den != 0.0) & (crude_den != 0.0) & (asym_den != 0.0)
            lower = lower_num / lower_den
            upper = _py_min(upper, dlog / crude_den)
            asym = asym_num / asym_den
    inside[k] = good
    cells = np.zeros((3, inside.size))
    cells[:, k] = lower, upper, asym
    return inside, *cells


def _hitting_times(params, xs, ys, row, config):
    """:func:`ode._hitting_time` at many nodes, stepped together by
    :func:`_dp5_batch`. Returns (ok, value, err_estimate) arrays. A node is
    ok when it lies in the interior that :func:`hitting_time_u` and
    :func:`hitting_time_v` integrate from (finite, with x >= 0 and y > mu for
    u, x > rho and y > 0 for v, and a finite cap) and the kernel found its
    crossing. Any other node needs the scalar entry, which returns the edge
    value or raises the typed error there."""
    cfg = config or _DEFAULT_CONFIG
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if row == EV_I:
        inside = (x >= 0.0) & (y > params.mu)
    else:
        inside = (x > params.rho) & (y > 0.0)
    idx = np.flatnonzero(inside & np.isfinite(x) & np.isfinite(y))
    # a sum that overflows gives an infinite cap, as on floats; where the
    # denominator underflows to 0 there is no finite cap, and the node is
    # left out
    with np.errstate(all="ignore"):
        num, den = _cap_terms(params, x[idx], y[idx], row, _ARRAYS)
        caps = num / den * _CAP_SLACK
    capped = np.broadcast_to(den != 0.0, idx.shape)
    idx, caps = idx[capped], caps[capped]
    status, t_event, half_width = _dp5_batch(
        params.beta, params.gamma, x[idx], y[idx], params.mu, params.rho,
        caps, row, cfg.rel_tol, cfg.abs_tol,
    )
    ok = np.zeros(x.size, dtype=bool)
    values = np.zeros(x.size)
    errs = np.zeros(x.size)
    hit = status == ODE_OK
    ok[idx[hit]] = True
    values[ok], errs[ok] = _event_value(t_event[hit], half_width[hit], cfg, _ARRAYS)
    return ok, values, errs


def _node_rows(params, time_kind, method, nodes, config=None, expm1=np.expm1):
    """The rows at *nodes*, a list of (x, y) float pairs, by *method*'s route.

    Every node goes to the route's batch entry, which evaluates the nodes
    inside its own interior at once: the integral route by the batched
    quadrature, the ODE route by the lock-step Dormand-Prince loop. Every
    node the batch did not take or did not finish goes through the per-node
    route function, which validates the counts and applies the edge rules.
    The bound and asymptotic cells come the same way: at once where the
    scalar functions' rules hold, node by node through :func:`side_cells`
    elsewhere. ``config`` applies to the ODE route only, and ``expm1`` to
    the integral route only (see :func:`u_integral_batch`).
    """
    xs = [x for x, _ in nodes]
    ys = [y for _, y in nodes]
    if method == "integral":
        batch = u_integral_batch if time_kind == "u" else v_integral_batch
        ok, values, errs = batch(params, xs, ys, expm1)
        tag = Method.INTEGRAL.value
    else:
        row = EV_I if time_kind == "u" else EV_S
        ok, values, errs = _hitting_times(params, xs, ys, row, config)
        tag = Method.ODE_EVENT.value
    values, errs = values.tolist(), errs.tolist()
    tags = [tag] * len(nodes)
    statuses = [STATUS_OK] * len(nodes)
    for j in np.flatnonzero(~ok).tolist():
        values[j], tags[j], errs[j], statuses[j] = _evaluate(
            params, time_kind, method, xs[j], ys[j], config
        )
    inside, lower, upper, asym = _side_cells_batch(params, time_kind, xs, ys)
    lower, upper, asym = lower.tolist(), upper.tolist(), asym.tolist()
    for j in np.flatnonzero(~inside).tolist():
        lower[j], upper[j], asym[j] = side_cells(params, time_kind, xs[j], ys[j])
    # each row's __dict__ takes all its fields in one update: the dict that
    # GridRow's __init__ builds with one object.__setattr__ call per field
    rows = list(map(object.__new__, repeat(GridRow, len(nodes))))
    cells = zip(xs, ys, values, tags, errs, lower, upper, asym, statuses)
    deque(map(dict.update, map(vars, rows), map(zip, repeat(GRID_FIELDS), cells)), maxlen=0)
    return rows


def _axis(lo, hi, n, spacing):
    """The n nodes of a grid axis from lo to hi, endpoints included, spaced
    "linear" or "log"."""
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)
