#!/usr/bin/env python3
"""Repository benchmark for the pinsim simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the benchmark's unit runner from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), then runs units of the workload --
one process per unit, each building a fresh simulated system from the seed
and running one fixed amount of work -- until --seconds have passed. Each
workload runs in its own scratch directory under the build directory.

--trace 0 reports the end-to-end metrics: medians over the units of host
time, and the simulated-time metrics, which every unit of one commit and
seed must reproduce exactly. --trace 1 alternates untraced and traced units
and reports the per-layer metrics: counts from the simulator's public stats,
and wall-clock self time per layer from spans the benchmark records around
its calls into each layer (see ledger.hpp). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pingpong_rndv", "cluster_uniform", "cluster_incast")

# End-to-end metrics: name -> (unit, source). "host" values are medians over
# the untraced units; "sim" values are identical in every unit.
END_TO_END = {
    "wall_s": ("s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "sim_goodput_mib_per_s": ("MiB/s", "sim"),
    "msg_p50_us": ("us", "sim"),
    "msg_p95_us": ("us", "sim"),
    "wire_amplification": ("ratio", "sim"),
}

# Per-layer counts: name -> unit. Values come from the units' "sim" (public
# stats) or "traced" (seen only by the traced units' observer and sink) maps.
LAYER_COUNTS = {
    "msg_p99_us": "us",
    "core.wire.frames": "count",
    "core.wire.bytes": "bytes",
    "sim.events": "count",
    "sim.timer_events": "count",
    "cpu.bh_busy_sim_ms": "ms",
    "cpu.kernel_busy_sim_ms": "ms",
    "cpu.bh_wait_p99_us": "us",
    "core.proto.overlap_misses": "count",
    "core.proto.frames_dropped_on_miss": "count",
    "core.proto.pull_rerequests": "count",
    "core.proto.retransmit_timeouts": "count",
    "core.proto.retry_exhausted": "count",
    "core.proto.pull_useful_ratio": "ratio",
    "core.pin.pages_pinned": "count",
    "core.pin.pages_unpinned": "count",
    "core.pin.repins": "count",
    "core.pin.denied": "count",
    "core.pin.retry_exhausted": "count",
    "core.pin.latency_p50_us": "us",
    "core.pin.latency_p99_us": "us",
    "core.pin.arb_requests": "count",
    "core.pin.arb_grant_ratio": "ratio",
    "core.cache.hit_ratio": "ratio",
    "mem.pins": "count",
    "mem.unpins": "count",
    "mem.notifier_invalidations": "count",
    "net.tx_frames": "count",
    "net.congestion_dropped": "count",
    "net.fault_dropped": "count",
    "net.max_queue_depth": "count",
    "net.uplink_busy_sim_ms": "ms",
    "obs.events": "count",
    "obs.flight_dumps": "count",
}

# Ledger layers (spans the benchmark times) -> per-layer self-time metric.
# Layers not listed here ("bench", "bench.verify", "untagged") are the
# benchmark's own work or unattributed dispatches: unnamed.
SELF_TIME = {
    "core.wire.codec": "core.wire.codec_ms",
    "sim.loop": "sim.self_ms",
    "sim.tasks": "sim.tasks_self_ms",
    "cpu.bottom_half": "cpu.bh_self_ms",
    "cpu.kernel": "cpu.kernel_self_ms",
    "cpu.other": "cpu.other_self_ms",
    "core.timers": "core.timers_self_ms",
    "mem.as_copy": "mem.as_copy_ms",
    "workloads.imb": "workloads.imb_self_ms",
    "net": "net.self_ms",
}
SINKS = ("invariants", "latency", "critical_path", "metrics", "flight")
UNNAMED = ("bench", "bench.verify", "untagged")

MIN_UNTRACED = 3      # units per run, whatever --seconds says
MIN_TRACED = 2
RUN_CAP_S = 150.0     # stop starting units after this, to end within 180 s
UNIT_TIMEOUT_S = 120.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures and builds perfbench_unit; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources at {os.path.join(ROOT, 'src')}")
    out = os.path.join(bdir, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_unit")


def run_unit(binary, work, args, traced, index):
    """Runs one unit process to completion; returns its parsed result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--ledger-out", os.path.join(work, f"ledger-{index}.json")]
    with open(os.path.join(work, f"unit-{index}.stderr"), "w") as err:
        try:
            p = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, stderr=err,
                               text=True, timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return {"correct": False, "errors": ["unit timed out"],
                    "attempted": 0, "failed": 0}
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0,
                "errors": [f"unit exited {p.returncode} without a result"]}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def check(units):
    """Correctness gate: every unit passed its own checks, and every unit
    reproduced the same simulated-time results."""
    errors = [e for u in units for e in u.get("errors", [])]
    ok = all(u.get("correct") for u in units)
    sims = {json.dumps(u.get("sim"), sort_keys=True) for u in units if u.get("correct")}
    traced = {json.dumps(u.get("traced"), sort_keys=True)
              for u in units if u.get("correct") and u.get("trace")}
    if len(sims) > 1 or len(traced) > 1:
        ok = False
        errors.append("simulated-time results differ between units of one seed")
    return ok, errors


def layer_metrics(traced_units, untraced_units):
    """Per-layer metrics of a --trace 1 run (timings are medians)."""
    m = {}
    first = traced_units[0]
    for name, unit in LAYER_COUNTS.items():
        src = first["traced"] if name in first["traced"] else first["sim"]
        m[name] = (src.get(name, 0.0), unit)

    def med_ledger(layer):
        return median([u["ledger"].get(layer, 0.0) for u in traced_units])

    wall_ms = median([u["host"]["wall_s"] for u in traced_units]) * 1e3
    for layer, name in SELF_TIME.items():
        m[name] = (med_ledger(layer), "ms")
    m["core.wire.codec_share"] = (med_ledger("core.wire.codec") / wall_ms if wall_ms else 0.0, "ratio")
    events = first["traced"].get("obs.events", 0.0)
    total = 0.0
    for sink in SINKS:
        ms = med_ledger("obs." + sink)
        total += ms
        m[f"obs.{sink}.fanout_ms"] = (ms, "ms")
        m[f"obs.{sink}.fanout_ns_per_event"] = (ms * 1e6 / events if events else 0.0, "ns")
    m["obs.fanout_ms"] = (total, "ms")
    m["obs.fanout_ns_per_event"] = (total * 1e6 / events if events else 0.0, "ns")
    m["bench.self_ms"] = (sum(med_ledger(l) for l in UNNAMED), "ms")
    layers = {l for u in traced_units for l in u["ledger"]}
    named = sum(med_ledger(l) for l in layers if l not in UNNAMED)
    everything = sum(med_ledger(l) for l in layers)
    m["ledger.named_share"] = (named / everything if everything else 0.0, "ratio")
    untraced_wall = median([u["host"]["wall_s"] for u in untraced_units])
    m["trace_overhead_pct"] = ((wall_ms / 1e3 / untraced_wall - 1.0) * 100.0
                               if untraced_wall else 0.0, "%")
    sim = first["sim"]
    m["sim.events_per_s"] = (sim["sim.events"] / untraced_wall if untraced_wall else 0.0, "1/s")
    m["sim.ns_per_wall_ms"] = (sim["sim_ns"] / (untraced_wall * 1e3) if untraced_wall else 0.0, "ns/ms")
    return m


def report(args, units, untraced, traced_units):
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} (untraced {len(untraced)}, traced {len(traced_units)})")
    print("\nend-to-end (host time: median [q1, q3] over untraced units; "
          "simulated time: exact)")
    sim = untraced[0]["sim"]
    for name, (unit, src) in END_TO_END.items():
        if src == "host":
            xs = [u["host"][name] for u in untraced]
            q1, q3 = quartiles(xs)
            print(f"  {name:24s} {median(xs):14.6f} {unit:6s} [{q1:.6f}, {q3:.6f}]")
        else:
            note = f"  (n={int(sim['msg_samples'])} messages)" if name.startswith("msg_") else ""
            print(f"  {name:24s} {sim[name]:14.6f} {unit:6s}{note}")
    extra = untraced[0].get("extra", {})
    if "fig7_gain_error_pp" in extra:
        print(f"  {'fig7_gain_error_pp':24s} {extra['fig7_gain_error_pp']:14.6f} pp     "
              f"(Overlap+Cache over Regular at 16 MB: {extra['fig7_gain_pct']:+.2f}% "
              f"vs the paper's expected +5%)")
        for k in sorted(extra):
            if k.startswith("imb."):
                print(f"  {k:40s} {extra[k]:10.1f} MiB/s")
    if not traced_units:
        return
    print("\nwhere the wall clock goes (traced units, median self time per layer)")
    layers = {l for u in traced_units for l in u["ledger"]}
    rows = sorted(((median([u["ledger"].get(l, 0.0) for u in traced_units]), l)
                   for l in layers), reverse=True)
    total = sum(ms for ms, _ in rows)
    for ms, l in rows:
        tag = "" if l not in UNNAMED else "  (benchmark / unattributed)"
        print(f"  {l:24s} {ms:12.3f} ms {100.0 * ms / total if total else 0.0:6.1f}%{tag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    work = os.path.join(bdir, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    start = time.monotonic()
    units = []
    while True:
        n_untraced = sum(1 for u in units if not u.get("trace"))
        n_traced = len(units) - n_untraced
        elapsed = time.monotonic() - start
        enough = n_untraced >= MIN_UNTRACED and (not args.trace or n_traced >= MIN_TRACED)
        if (elapsed >= args.seconds and enough) or elapsed >= RUN_CAP_S:
            break
        traced = bool(args.trace) and len(units) % 2 == 1
        u = run_unit(binary, work, args, traced, len(units))
        u["trace"] = 1 if traced else 0
        units.append(u)
        if not u.get("correct"):
            break

    ok, errors = check(units)
    attempted = sum(u.get("attempted", 0) for u in units)
    failed = sum(u.get("failed", 0) if u.get("correct") else u.get("attempted", 0)
                 for u in units)
    untraced = [u for u in units if not u["trace"] and u.get("correct")]
    traced_units = [u for u in units if u["trace"] and u.get("correct")]
    metrics = {}
    if ok and untraced and (traced_units or not args.trace):
        report(args, units, untraced, traced_units)
        if args.trace:
            for name, (value, unit) in layer_metrics(traced_units, untraced).items():
                metrics[name] = {"value": value, "unit": unit}
            print("\nper-layer metrics")
            for name, v in metrics.items():
                print(f"  {name:40s} {v['value']:16.6f} {v['unit']}")
        else:
            for name, (unit, src) in END_TO_END.items():
                xs = [u["host"][name] for u in untraced] if src == "host" else None
                value = median(xs) if xs else untraced[0]["sim"][name]
                metrics[name] = {"value": value, "unit": unit}
    else:
        ok = False
        for e in errors[:10]:
            print(f"perfbench: FAIL: {e[:500]}")
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed if ok else max(failed, 1), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
