"""The four benchmark workloads, one timed pass each, through public entry
points only: names in ``sirtimes.__all__``, ``sirtimes.checks.ALL_CHECKS``
and the ``sirtimes`` CLI.

A pass returns a ``Pass``: its wall and CPU time, the nodes it evaluated,
the CPU time and interval of each call it made, and its failures.
``run.py`` turns CPU time into reference time with ``refclock``. Outputs are
checked after the timed part of the pass, so checking never counts as the
program's time.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from sirtimes import (
    ModelParams,
    SirTimesError,
    hitting_time_u,
    hitting_time_v,
    rows_to_csv,
    rows_to_json,
    run_grid,
    u_integral,
    v_integral,
)
from sirtimes.checks import ALL_CHECKS

from surfaces import SURFACES, TINY_SURFACES, agrees, edge_split, load_reference

# Wide-domain panel: states drawn log-uniform once, from PANEL_SEED, over
# +-2 decades in beta, gamma, mu and x/rho and 0..4 decades in y/mu. The run's
# seed jitters every coordinate by up to +-JITTER_DECADES, so each seed is a
# different set of inputs with the same mix of easy and stiff states; fresh
# draws per seed move the number of stiff states, which dominate the sweep's
# time, by +-40% between seeds. A jitter of 0.01 decades moved the slowest
# finishing call and the fastest expiring one by up to 20% each, to within a
# factor 1.7 of each other, close enough for the deadline to split a state's
# calls differently on two runs of one seed.
PANEL_SEED = 1
PANEL_STATES = 100
JITTER_DECADES = 0.001

# Per-call deadline, in reference seconds (see refclock) of the call's CPU
# time, so that the load other tenants put on the host does not decide which
# calls expire. Call times on the panel form a continuum up to the stiff
# hitting_time_u calls of ROADMAP item 4, some of which still run after 6 s;
# the deadline sits in the widest gap of that continuum, between about 1.3 s
# (state 4) and 3.1 s (state 16), a factor 1.5 from either side. The timer is
# ITIMER_PROF (process CPU time, signal SIGPROF). A signal can interrupt a
# call only because the fallback kernels are pure Python: a numba-compiled
# kernel does not return to the interpreter until it finishes, so this
# deadline would not bound it.
DEADLINE_S = 2.0

PERCENTILES = (90.0, 95.0, 99.0, 99.9, 99.99)


class Expired(Exception):
    """A call ran past its deadline."""


@dataclass
class Pass:
    wall: float  # wall seconds
    cpu: float  # CPU seconds
    nodes: int
    latencies: list = field(default_factory=list)  # CPU seconds, one per call
    intervals: list = field(default_factory=list)  # monotonic (start, end), one per call
    expired: list = field(default_factory=list)  # indices of calls past their deadline
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs outside tolerance of their reference
    notes: dict = field(default_factory=dict)


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _span = contextlib.nullcontext()

    def span(self, name):
        return self._span


NULL_TRACER = NullTracer()


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics: the i-th smallest of n values
    weighs the mass of a Beta((n+1)q, (n+1)(1-q)) distribution on
    [(i-1)/n, i/n], integrated here by the midpoint rule on 64 cells per
    interval. Interpolating between the two values nearest the quantile
    follows whichever calls happen to fall there; on the wide-domain p95,
    where the calls near it lie far apart, five sweeps spread by 0.059
    (IQR / median) that way and by 0.036 this way.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cells = 64
    t = (np.arange(n * cells) + 0.5) / (n * cells)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(mass @ x / mass.sum())


def tail(values, percentiles=PERCENTILES):
    """Highest percentile with at least ten samples beyond it.

    Returns (label, value), the value estimated by ``quantile``. With fewer
    than 100 samples none of them qualifies, and the upper quartile is
    reported instead: the maximum of a handful of passes is too noisy to
    hold to a bound.
    """
    n = len(values)
    best = None
    for q in percentiles:
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    if best is None:
        best = 75.0
    return f"p{best:g}", quantile(values, best / 100.0)


# ---------------------------------------------------------------- grids


def grid_pass(method, reference, tracer=NULL_TRACER, surfaces=SURFACES):
    """Evaluate and emit both reference surfaces on one route."""
    results = []
    t0, c0 = time.monotonic(), time.process_time()
    for kind, (params, spec) in surfaces.items():
        with tracer.span(f"gridrun.run_grid[{kind}]"):
            rows = run_grid(params, spec, kind, method).rows
        with tracer.span(f"gridrun.rows_to_csv[{kind}]"):
            rows_to_csv(rows)
        with tracer.span(f"gridrun.rows_to_json[{kind}]"):
            rows_to_json(rows)
        results.append((kind, rows))
    t1, cpu = time.monotonic(), time.process_time() - c0

    out = Pass(wall=t1 - t0, cpu=cpu, nodes=0, latencies=[cpu], intervals=[(t0, t1)])
    splits = 0
    for kind, rows in results:
        ref = reference[kind]
        if len(rows) != len(ref):
            raise SystemExit(f"{kind} surface has {len(rows)} rows, reference has {len(ref)}")
        for row, want in zip(rows, ref):
            out.attempted += 1
            if row.status != "ok":
                out.failed += 1
            elif not agrees(row.value, want):
                if method == "ode" and edge_split(kind, row.x, row.y, row.value):
                    splits += 1
                else:
                    out.failed += 1
                    out.wrong += 1
        out.nodes += len(rows)
    out.notes["edge_rule_split"] = splits
    return out


# ---------------------------------------------------------- wide domain


def wide_panel(seed, n=PANEL_STATES):
    """(beta, gamma, mu, x, y) for each panel state, jittered by *seed*."""
    unit = np.random.default_rng(PANEL_SEED).uniform(size=(n, 5))
    logs = np.column_stack([-2.0 + 4.0 * unit[:, :4], 4.0 * unit[:, 4]])
    logs += np.random.default_rng(seed).uniform(-JITTER_DECADES, JITTER_DECADES, (n, 5))
    panel = []
    for lb, lg, lm, lxr, lym in logs:
        beta, gamma, mu = 10.0**lb, 10.0**lg, 10.0**lm
        panel.append((beta, gamma, mu, 10.0**lxr * gamma / beta, 10.0**lym * mu))
    return panel


TICK_S = 0.05  # CPU seconds between deadline checks when a clock is given


def call_with_deadline(fn, args, deadline, clock=None):
    """Run fn(*args) with a limit of *deadline* CPU seconds, or, with a
    RefClock, *deadline* reference seconds; raises Expired past it.

    With a clock the timer fires every TICK_S of CPU time and adds the CPU
    time since the last tick at the host's latest speed, so the limit
    follows the host's speed while a long call runs."""
    if clock is None:
        def on_tick(signum, frame):
            raise Expired

        first, every = deadline, 0.0
    else:
        used = 0.0
        last = time.thread_time()

        def on_tick(signum, frame):
            nonlocal used, last
            now = time.thread_time()
            used += (now - last) * clock.recent_scale()
            last = now
            if used >= deadline:
                raise Expired

        first = every = TICK_S
    previous = signal.signal(signal.SIGPROF, on_tick)
    try:
        signal.setitimer(signal.ITIMER_PROF, first, every)
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)


ROUTES = (
    ("u", "analytic.u_integral", u_integral),
    ("u", "ode.hitting_time_u", hitting_time_u),
    ("v", "analytic.v_integral", v_integral),
    ("v", "ode.hitting_time_v", hitting_time_v),
)


def wide_pass(panel, deadline, tracer=NULL_TRACER, only=None, clock=None):
    """Send every panel state to both routes of u and, where x > rho, of v.

    Each call runs under the deadline, in CPU seconds; with a RefClock
    ``clock`` the deadline is in reference seconds. An expired call or a typed SirTimesError
    counts as failed. An expired call's latency is the CPU time it ran, the
    deadline plus the interrupt latency; ``run.py`` charges it the deadline.
    ``only``, a set of (state index, call name), restricts the pass to those
    calls.
    """
    values = {}
    statuses = {}
    latencies = []
    intervals = []
    expired = []
    t0 = time.monotonic()
    for k, (beta, gamma, mu, x, y) in enumerate(panel):
        with tracer.span("core.ModelParams"):
            params = ModelParams(beta, gamma, mu)
        for kind, name, fn in ROUTES:
            if kind == "v" and not x > params.rho:
                continue
            if only is not None and (k, name) not in only:
                continue
            m0, c0 = time.monotonic(), time.thread_time()
            try:
                with tracer.span(name):
                    values[k, name] = call_with_deadline(fn, (params, x, y), deadline,
                                                         clock).value
                statuses[k, name] = "ok"
            except Expired:
                statuses[k, name] = "expired"
                expired.append(len(latencies))
            except SirTimesError as exc:
                statuses[k, name] = type(exc).__name__
            latencies.append(time.thread_time() - c0)
            intervals.append((m0, time.monotonic()))
    wall = time.monotonic() - t0

    out = Pass(wall=wall, cpu=sum(latencies), nodes=len(statuses), latencies=latencies,
               intervals=intervals, expired=expired)
    out.attempted = len(statuses)
    out.failed = sum(1 for s in statuses.values() if s != "ok")
    worst = 0.0
    for k in range(len(panel)):
        for a, b in (("analytic.u_integral", "ode.hitting_time_u"),
                     ("analytic.v_integral", "ode.hitting_time_v")):
            if (k, a) in values and (k, b) in values:
                ref, got = values[k, a], values[k, b]
                gap = abs(got - ref) / ref if ref > 0.0 else abs(got)
                worst = max(worst, gap)
                if not agrees(got, ref):
                    out.wrong += 1
                    out.failed += 1
    out.notes["expired"] = sum(1 for s in statuses.values() if s == "expired")
    out.notes["typed_errors"] = sum(1 for s in statuses.values() if s not in ("ok", "expired"))
    out.notes["worst_cross_route_gap"] = worst
    out.notes["statuses"] = statuses
    return out


# ---------------------------------------------------------------- verify


def run_child(args):
    """Run a Python child to completion; returns (monotonic (start, end),
    CPU s, exit code, peak RSS in MB, stdout text)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0
    return (t0, time.monotonic()), cpu, proc.returncode, rss, out.decode(errors="replace")


def verify_pass(tracer=NULL_TRACER, quick=False):
    """The battery through the CLI, as a child process."""
    with tracer.span("cli.verify"):
        span, cpu, code, rss, text = run_child(
            ["-m", "sirtimes.cli", "verify", *(["--quick"] if quick else [])])
    attempted = len(ALL_CHECKS)
    passed = sum(1 for line in text.splitlines() if line.startswith("PASS"))
    failed = attempted - passed
    if code != 0 and failed == 0:
        failed = 1
    out = Pass(wall=span[1] - span[0], cpu=cpu, nodes=attempted, latencies=[cpu],
               intervals=[span], attempted=attempted,
               failed=failed, wrong=failed)
    out.notes["exit_code"] = code
    out.notes["peak_rss_mb"] = rss
    return out


# -------------------------------------------------------------- dispatch


WORKLOADS = ("grid-integral", "grid-ode", "wide-domain", "verify")


def make_pass(workload, seed, tiny=False):
    """A callable running one pass of *workload*, taking an optional tracer
    and an optional RefClock (used by wide-domain only).

    ``tiny`` shrinks every input for the self-test: small grids checked
    against integral values computed on the spot, three panel states and the
    quick battery.
    """
    if workload in ("grid-integral", "grid-ode"):
        method = workload.split("-")[1]
        if tiny:
            surfaces = TINY_SURFACES
            reference = {kind: [r.value for r in run_grid(p, spec, kind, "integral").rows]
                         for kind, (p, spec) in surfaces.items()}
        else:
            surfaces, reference = SURFACES, load_reference()
        return lambda tracer=NULL_TRACER, clock=None: grid_pass(
            method, reference, tracer, surfaces)
    if workload == "wide-domain":
        panel = wide_panel(seed, 3 if tiny else PANEL_STATES)
        return lambda tracer=NULL_TRACER, clock=None: wide_pass(
            panel, DEADLINE_S, tracer, clock=clock)
    if workload == "verify":
        return lambda tracer=NULL_TRACER, clock=None: verify_pass(tracer, quick=tiny)
    raise ValueError(f"unknown workload {workload!r}")
