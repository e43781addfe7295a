#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Attribution: a known busy-wait added from the benchmark's own dispatch
   observer (to every dispatch of one TaskTag component) or sink wrapper (to
   every event of one obs sink) must show up in that layer's self time, at
   the injected amount, and in no other layer.
2. Determinism: traced and untraced units of one seed report identical
   simulated-time results.

Exits 0 when every check passes.
"""

import os
import statistics
import subprocess
import json
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = ["--workload", "cluster_incast", "--seed", "7"]
INJECT_NS = 2000
REPEATS = 3


def unit(binary, *extra):
    p = subprocess.run([binary, *WORKLOAD, *extra], capture_output=True,
                       text=True, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


def median_ledger(units):
    layers = {l for u in units for l in u["ledger"]}
    return {l: statistics.median(u["ledger"].get(l, 0.0) for u in units)
            for l in layers}


def check_attribution(binary, base, layer, flag, target):
    units = [unit(binary, "--trace", "1", flag, target,
                  "--inject-ns", str(INJECT_NS)) for _ in range(REPEATS)]
    calls = units[0]["traced"].get("calls." + layer, 0.0)
    expected_ms = calls * INJECT_NS / 1e6
    got = median_ledger(units)
    failures = []
    if calls == 0:
        failures.append(f"{layer}: no spans to inject into")
    delta = got.get(layer, 0.0) - base.get(layer, 0.0)
    if not 0.8 * expected_ms <= delta <= 1.5 * expected_ms:
        failures.append(f"{layer}: grew {delta:.1f} ms, injected {expected_ms:.1f} ms")
    for other, ms in got.items():
        if other == layer:
            continue
        d = ms - base.get(other, 0.0)
        if d > 0.2 * expected_ms + 0.25 * base.get(other, 0.0):
            failures.append(f"{other}: grew {d:.1f} ms when only {layer} was slowed")
    print(f"  {flag} {target}: {layer} +{delta:.1f} ms of {expected_ms:.1f} ms injected"
          f" -> {'ok' if not failures else 'FAIL'}")
    return failures


def main():
    binary = run.build(run.build_dir())
    failures = []

    print("determinism: traced vs untraced unit")
    plain = unit(binary, "--trace", "0")
    traced = unit(binary, "--trace", "1")
    if plain["sim"] != traced["sim"] or not plain["correct"] or not traced["correct"]:
        failures.append("traced and untraced units disagree (or failed)")
    print(f"  -> {'ok' if not failures else 'FAIL'}")

    print("attribution: busy-wait of %d ns per span" % INJECT_NS)
    base = median_ledger([traced] + [unit(binary, "--trace", "1")
                                     for _ in range(REPEATS - 1)])
    failures += check_attribution(binary, base, "net", "--inject-tag", "net")
    failures += check_attribution(binary, base, "obs.metrics", "--inject-sink", "metrics")

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
