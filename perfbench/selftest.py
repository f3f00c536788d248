#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes. Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
in timed and in traced runs of every workload, and that an injected wrong
value and an expired deadline are both counted as failures. Exits 1 on the
first failed check.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
os.environ["PYTHONPATH"] = os.path.join(os.getcwd(), "src")

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check(ok, message):
    if not ok:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_names(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    check(got == want, f"{what}: metrics and units match BENCHMARK.json")


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the four workloads")

    for workload in workloads.WORKLOADS:
        one_pass = workloads.make_pass(workload, seed=1, tiny=True)()
        check(one_pass.wrong == 0 and one_pass.attempted > 0,
              f"{workload}: tiny pass is correct")
        metrics, _ = run.end_to_end(workload, [one_pass], setup_s=0.1)
        check_names(metrics, spec["end_to_end"], f"{workload} timed")
        with tempfile.TemporaryDirectory(dir=HERE) as out:
            metrics, _, _, wrong, _ = layers.traced_run(workload, 1, out, tiny=True)
        check(wrong == 0, f"{workload}: tiny traced run is correct")
        check_names(metrics, spec["per_layer"], f"{workload} traced")

    # an injected wrong reference value is one failed, wrong node
    surfaces = workloads.TINY_SURFACES
    reference = {kind: [r.value for r in workloads.run_grid(p, s, kind, "integral").rows]
                 for kind, (p, s) in surfaces.items()}
    reference["u"][-1] *= 1.0 + 1e-3
    bad = workloads.grid_pass("integral", reference, surfaces=surfaces)
    check(bad.failed == 1 and bad.wrong == 1, "injected wrong value counts as one failure")

    # a deadline far below any call's time: the CPU timer fires at the next
    # scheduler tick, so every call that runs through a tick expires
    panel = workloads.wide_panel(seed=1, n=3)
    expired = workloads.wide_pass(panel, deadline=1e-5)
    check(len(expired.expired) == expired.notes["expired"] == expired.failed > 0
          and expired.wrong == 0, "expired deadline counts as a failure")
    check(min(expired.latencies[i] for i in expired.expired) >= 1e-5,
          "an expired call ran at least its deadline")
    print("selftest passed")


if __name__ == "__main__":
    main()
