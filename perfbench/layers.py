"""Traced run: per-layer metrics, kept apart from the timed runs.

The layers are the package's modules. Spans are recorded from the benchmark's
own code around each public call (the program itself is not instrumented),
held in memory, and written to one JSON file at the end. Self time per module
comes from a separate cProfile pass, grouped by the source file of each
profiled function, because subtracting noisy wall times cannot resolve a
layer as thin as row assembly.
"""

import cProfile
import itertools
import json
import os
import pstats
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from sirtimes import (
    JIT_ENABLED,
    GridSpec,
    asymptotic_u,
    asymptotic_v,
    bounds_u,
    bounds_v,
    hitting_time_u,
    hitting_time_v,
    integrate,
    rows_to_csv,
    rows_to_json,
    run_grid,
    solve_anchor,
    u_integral,
    v_integral,
)
from sirtimes.checks import ALL_CHECKS

import refclock
import workloads
from surfaces import SURFACES, TINY_SURFACES


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def durations(self, name, since=0):
        """Durations of the spans called *name* among spans[since:]."""
        return [s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name]


class _Span:
    __slots__ = ("tracer", "name", "id", "start", "parent")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = next(t._ids)
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append({
            "id": self.id, "name": self.name, "start": self.start, "end": end,
            "parent": self.parent, "run": t.run_id,
        })
        return False


# ----------------------------------------------------------- profiling


PROFILE_GRID = GridSpec(0.0, 6.0, 31, 1.0, 5.0, 21)  # the u surface at half resolution
WIDE_PROFILE_STATES = 20


def profile(fn):
    """Run fn under cProfile, in this thread and in every thread it starts
    (run_grid's default thread pool). Returns (wall s, {module file: self s},
    {module file: calls}), summed over threads."""
    profilers = [cProfile.Profile(time.thread_time)]

    def start_in_thread(frame, event, arg):
        sys.setprofile(None)
        prof = cProfile.Profile(time.thread_time)
        profilers.append(prof)
        prof.enable()

    threading.setprofile(start_in_thread)
    t0 = time.perf_counter()
    try:
        profilers[0].runcall(fn)
    finally:
        threading.setprofile(None)
    wall = time.perf_counter() - t0
    self_s, calls = {}, {}
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(*profilers).stats.items():
        module = os.path.basename(filename)
        self_s[module] = self_s.get(module, 0.0) + tottime
        calls[module] = calls.get(module, 0) + ncalls
    return wall, self_s, calls


def profile_target(workload, seed, untraced, tiny):
    """A reduced copy of the workload's own work, for the profiler."""
    params = SURFACES["u"][0]
    if workload in ("grid-integral", "grid-ode"):
        method = workload.split("-")[1]
        spec = TINY_SURFACES["u"][1] if tiny else PROFILE_GRID
        return lambda: run_grid(params, spec, "u", method)
    if workload == "wide-domain":
        # only calls that finished in the untraced pass, so no deadline is
        # needed and the call counts repeat exactly for a given seed
        done = {key for key, status in untraced.notes["statuses"].items()
                if status == "ok" and key[0] < WIDE_PROFILE_STATES}
        panel = workloads.wide_panel(seed, 3 if tiny else WIDE_PROFILE_STATES)
        return lambda: workloads.wide_pass(panel, 1e6, only=done)
    return lambda: [fn(quick=True) for fn in ALL_CHECKS]


# --------------------------------------------------------- layer probe


U_NODES = [(float(x), float(y)) for y in np.linspace(1.5, 5.0, 9) for x in np.linspace(0.5, 6.0, 12)]
V_NODES = [(float(x), float(y)) for y in np.linspace(0.5, 5.0, 9) for x in np.linspace(2.0, 20.0, 12)]
BATCH = 20  # repeats per span for calls of a few microseconds
EDGE_BATCH = 1000


def _per_call_us(tracer, name, fn, args, reps):
    with tracer.span(name) as sp:
        for _ in range(reps):
            fn(*args)
    return (time.perf_counter() - sp.start) / reps * 1e6


def probe(tracer, tiny=False):
    """Fixed per-node calls on interior nodes of both reference surfaces."""
    pu, pv = SURFACES["u"][0], SURFACES["v"][0]
    stride = 12 if tiny else 1
    first_span = len(tracer.spans)  # the workload's own spans stay out of these metrics
    metrics = {}
    anchor_us, bounds_us, asym_us, steps = [], [], [], []
    for x, y in U_NODES[::stride]:
        with tracer.span("ode.hitting_time_u"):
            t_u = hitting_time_u(pu, x, y).value
        with tracer.span("analytic.u_integral"):
            u_integral(pu, x, y)
        with tracer.span("ode.integrate"):
            steps.append(len(integrate(pu, x, y, t_u).samples) - 1)
        anchor_us.append(_per_call_us(tracer, "analytic.solve_anchor", solve_anchor, (pu, x, y), BATCH))
        bounds_us.append(_per_call_us(tracer, "analytic.bounds_u", bounds_u, (pu, x, y), BATCH))
        asym_us.append(_per_call_us(tracer, "analytic.asymptotic_u", asymptotic_u, (pu, x, y), BATCH))
    for x, y in V_NODES[::stride]:
        with tracer.span("ode.hitting_time_v"):
            hitting_time_v(pv, x, y)
        with tracer.span("analytic.v_integral"):
            v_integral(pv, x, y)
        bounds_us.append(_per_call_us(tracer, "analytic.bounds_v", bounds_v, (pv, x, y), BATCH))
        asym_us.append(_per_call_us(tracer, "analytic.asymptotic_v", asymptotic_v, (pv, x, y), BATCH))
    edge = [_per_call_us(tracer, "core.edge_call", hitting_time_u, (pu, 4.0, 0.5), EDGE_BATCH)
            for _ in range(9)]

    for name in ("ode.hitting_time_u", "ode.hitting_time_v",
                 "analytic.u_integral", "analytic.v_integral"):
        ms = [d * 1e3 for d in tracer.durations(name, first_span)]
        metrics[f"{name}_ms_p50"] = (statistics.median(ms), "ms")
        metrics[f"{name}_ms_tail"] = (workloads.tail(ms)[1], "ms")
    metrics["ode.steps_p50"] = (float(statistics.median(steps)), "count")
    metrics["ode.steps_max"] = (float(max(steps)), "count")
    metrics["analytic.solve_anchor_us_p50"] = (statistics.median(anchor_us), "us")
    metrics["analytic.bounds_us_p50"] = (statistics.median(bounds_us), "us")
    metrics["analytic.asymptotic_us_p50"] = (statistics.median(asym_us), "us")
    metrics["core.edge_call_us"] = (statistics.median(edge), "us")
    return metrics


def probe_gridrun(tracer, surfaces):
    """Both reference surfaces on the integral route, emitted both ways."""
    run_s = csv_ms = json_ms = 0.0
    csv_bytes = json_bytes = 0
    for kind, (params, spec) in surfaces.items():
        t0 = time.perf_counter()
        with tracer.span(f"gridrun.run_grid[{kind}]"):
            rows = run_grid(params, spec, kind, "integral").rows
        t1 = time.perf_counter()
        with tracer.span(f"gridrun.rows_to_csv[{kind}]"):
            csv_bytes += len(rows_to_csv(rows))
        t2 = time.perf_counter()
        with tracer.span(f"gridrun.rows_to_json[{kind}]"):
            json_bytes += len(rows_to_json(rows))
        t3 = time.perf_counter()
        run_s += t1 - t0
        csv_ms += (t2 - t1) * 1e3
        json_ms += (t3 - t2) * 1e3
    return {
        "gridrun.run_grid_s": (run_s, "s"),
        "gridrun.rows_to_csv_ms": (csv_ms, "ms"),
        "gridrun.rows_to_json_ms": (json_ms, "ms"),
        "gridrun.csv_bytes": (float(csv_bytes), "bytes"),
        "gridrun.json_bytes": (float(json_bytes), "bytes"),
    }


def probe_cli(tracer, reps=3):
    metrics = {}
    for name, args in (("cli.import_s", ["-c", "import sirtimes.cli"]),
                       ("cli.compute_s", ["-m", "sirtimes.cli", "compute", "--beta", "2",
                                          "--gamma", "3", "--x", "4", "--y", "2"])):
        walls = []
        for _ in range(reps):
            with tracer.span(name):
                (t0, t1), _, code, _, text = workloads.run_child(args)
            if code != 0:
                raise SystemExit(f"{name} child exited {code}: {text}")
            walls.append(t1 - t0)
        metrics[name] = (statistics.median(walls), "s")
    return metrics


def probe_checks(tracer, quick):
    """Each check of the battery in-process; returns (metrics, failed)."""
    metrics = {}
    failed = 0
    t0 = time.perf_counter()
    for fn in ALL_CHECKS:
        c0 = time.perf_counter()
        with tracer.span(f"checks.{fn.__name__}"):
            outcome = fn(quick=quick)
        metrics[f"checks.{outcome.name}_s"] = (time.perf_counter() - c0, "s")
        failed += not outcome.passed
    metrics["checks.total_s"] = (time.perf_counter() - t0, "s")
    return metrics, failed


def jit_compare(workload):
    """Byte comparison of the u surface CSV, JIT against the fallback.

    Only meaningful when numba is active; otherwise both sides would run the
    same fallback code, so the comparison is skipped rather than reported.
    """
    if not JIT_ENABLED:
        return "skipped: JIT_ENABLED is false"
    method = workload.split("-")[1]
    params, spec = SURFACES["u"]
    jitted = rows_to_csv(run_grid(params, spec, "u", method).rows)
    code = (
        "import sys\n"
        "from sirtimes import GridSpec, ModelParams, run_grid, rows_to_csv\n"
        f"p = ModelParams({params.beta!r}, {params.gamma!r}, {params.mu!r})\n"
        f"s = GridSpec({spec.x_min!r}, {spec.x_max!r}, {spec.nx}, {spec.y_min!r}, {spec.y_max!r}, {spec.ny})\n"
        f"sys.stdout.write(rows_to_csv(run_grid(p, s, 'u', {method!r}).rows))\n"
    )
    env = dict(os.environ, SIRTIMES_NO_JIT="1")
    fallback = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True).stdout
    return "match" if fallback == jitted else "DIFFER"


# ------------------------------------------------------------ traced run


def traced_run(workload, seed, out_dir, tiny=False):
    """Returns (metrics {name: (value, unit)}, attempted, failed, wrong,
    report lines).

    ``tiny`` shrinks every input, for the self-test.
    """
    run_pass = workloads.make_pass(workload, seed, tiny)
    tracer = Tracer(run_id=f"{workload}-{seed}")
    with refclock.RefClock() as clock:  # for the wide-domain deadline
        untraced = run_pass(clock=clock)
        with tracer.span(f"pass[{workload}]"):
            traced = run_pass(tracer, clock=clock)
    metrics = {
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
    }

    prof_wall, self_s, calls = profile(profile_target(workload, seed, untraced, tiny))
    metrics["kernels.self_share"] = (self_s.get("kernels.py", 0.0) / prof_wall, "ratio")
    metrics["kernels.calls"] = (float(calls.get("kernels.py", 0)), "count")
    metrics["gridrun.self_share"] = (
        (self_s.get("gridrun.py", 0.0) + self_s.get("core.py", 0.0)) / prof_wall, "ratio")

    with tracer.span("probe"):
        metrics.update(probe(tracer, tiny))
        metrics.update(probe_gridrun(tracer, TINY_SURFACES if tiny else SURFACES))
        metrics.update(probe_cli(tracer))
        check_metrics, check_failed = probe_checks(tracer, quick=tiny)
        metrics.update(check_metrics)

    jit = jit_compare(workload) if workload.startswith("grid-") else "not applicable"
    attempted = untraced.attempted + traced.attempted + len(ALL_CHECKS)
    wrong = untraced.wrong + traced.wrong + check_failed + (jit == "DIFFER")
    failed = untraced.failed + traced.failed + check_failed + (jit == "DIFFER")

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "jit_compare": jit,
            "untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
            "profile_wall_s": prof_wall,
            "profile_self_s": self_s, "profile_calls": calls,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": tracer.spans,
        }, fh)
    lines = [
        f"jit_compare {jit}",
        f"spans {len(tracer.spans)} written to {os.path.relpath(path)}",
        f"profile wall {prof_wall:.3f} s over the reduced {workload} work",
    ]
    return metrics, attempted, failed, wrong, lines
