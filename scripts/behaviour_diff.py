#!/usr/bin/env python3
"""Check that two builds of the simulator behave identically.

  scripts/behaviour_diff.py <parent-build> <change-build>
                            [<parent-perfbench> <change-perfbench>]

The first two arguments are CMake build directories (e.g. `build`). Both
builds run the quick paper benches (PAPER_BENCHES: fig6, fig7, overlap_miss,
table1 on a bare PinManager, table2 and ablation_baselines, whose cache
sweep evicts from the region cache) and `soak <suite> --quick --trace-out`
for all five soak suites, every run in its own temporary directory. Then,
per run:

  * exit status and stdout must match;
  * the set of files the run wrote must match;
  * every `.report.json` must match once the wall-clock keys are dropped
    (WALL_CLOCK_KEYS, at any depth);
  * every `.flame.json` (weighted by wall time) must name the same frames;
  * every other file (`.trace.json`, flight dumps) must match byte for byte.

The optional last two arguments are perfbench build directories (each
holding a `perfbench_unit`, as `perfbench/run.py` builds it). Both then run
one unit of every perfbench workload at seeds 1 and 90210, with `--trace 0`
and `--trace 1`; exit status, correctness, attempted and failed counts,
and the `sim` and `traced` maps must match once host-time keys
(`is_host_time`) are dropped.

A refactor that claims to change no behaviour passes this with exit 0.
Exits 1 on any difference, 2 on usage errors or a missing binary. Stdlib
only.
"""

import json
import os
import subprocess
import sys
import tempfile

PAPER_BENCHES = ["fig6_pingpong_pinning", "fig7_decoupled", "overlap_miss",
                 "table1_pinning", "table2_apps", "ablation_baselines"]
SOAK_SUITES = ["chaos", "pressure", "crash", "cluster", "quota"]

# Report keys that measure the host, not the simulation.
WALL_CLOCK_KEYS = {
    "self_ms",
    "events_per_sec",
    "wall_ms",
    "sim_ns_per_wall_ms",
    "top",
    "throughput",
}


PERFBENCH_WORKLOADS = ["pingpong_rndv", "cluster_uniform", "cluster_incast"]
PERFBENCH_SEEDS = [1, 90210]


def is_host_time(key):
    """Whether a perfbench `sim`/`traced` key measures the host (wall time,
    rates and shares of it), not the simulation. `*_sim_ms` is sim time."""
    if key.endswith("_sim_ms"):
        return False
    return key.endswith(("_ms", "_per_event", "_per_s", "_share", "_pct"))


def runs():
    """(name, binary, args) for every run the diff compares."""
    out = [(b, b, ["--quick"]) for b in PAPER_BENCHES]
    out += [("soak-" + s, "soak", [s, "--quick", "--trace-out=" + s])
            for s in SOAK_SUITES]
    return out


def drop_wall_clock(node):
    if isinstance(node, dict):
        return {k: drop_wall_clock(v) for k, v in node.items()
                if k not in WALL_CLOCK_KEYS}
    if isinstance(node, list):
        return [drop_wall_clock(v) for v in node]
    return node


def run_one(build, binary, args):
    """Runs one binary in a fresh directory; returns (status, stdout, files)
    with files mapping each written file's name to its comparable form."""
    exe = os.path.abspath(os.path.join(build, "bench", binary))
    if not os.access(exe, os.X_OK):
        print(f"behaviour_diff: no executable {exe}", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory(prefix="behaviour_diff-") as cwd:
        proc = subprocess.run([exe] + args, cwd=cwd, capture_output=True,
                              text=True, check=False)
        files = {}
        for name in sorted(os.listdir(cwd)):
            path = os.path.join(cwd, name)
            if name.endswith(".report.json"):
                with open(path, encoding="utf-8") as f:
                    files[name] = drop_wall_clock(json.load(f))
            elif name.endswith(".flame.json"):
                with open(path, encoding="utf-8") as f:
                    files[name] = json.load(f)["shared"]["frames"]
            else:
                with open(path, "rb") as f:
                    files[name] = f.read()
    return proc.returncode, proc.stdout, files


def run_unit(build, workload, seed, trace):
    """Runs one perfbench unit in a fresh directory; returns what must match."""
    exe = os.path.abspath(os.path.join(build, "perfbench_unit"))
    if not os.access(exe, os.X_OK):
        print(f"behaviour_diff: no executable {exe}", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory(prefix="behaviour_diff-") as cwd:
        proc = subprocess.run(
            [exe, "--workload", workload, "--seed", str(seed),
             "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"status": proc.returncode, "stdout": ""}
    unit = json.loads(lines[-1])
    out = {k: unit[k] for k in ("correct", "errors", "attempted", "failed")}
    out["status"] = proc.returncode
    for section in ("sim", "traced"):
        out[section] = {k: v for k, v in unit[section].items()
                        if not is_host_time(k)}
    return out


def compare_units(name, parent, change):
    """Human-readable differences between two run_unit results."""
    diffs = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b)):
                if a.get(k) != b.get(k):
                    diffs.append(f"{key}.{k} {a.get(k)} -> {b.get(k)}")
        elif a != b:
            diffs.append(f"{key} {a} -> {b}")
    return [f"{name}: {d}" for d in diffs]


def first_diff_line(a, b):
    """1-based number of the first line where two texts differ."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return i + 1
    return min(len(la), len(lb)) + 1


def compare(name, parent, change):
    """Human-readable differences between two run_one results."""
    (st_a, out_a, files_a), (st_b, out_b, files_b) = parent, change
    diffs = []
    if st_a != st_b:
        diffs.append(f"exit status {st_a} -> {st_b}")
    if out_a != out_b:
        diffs.append(f"stdout differs from line {first_diff_line(out_a, out_b)}")
    for f in sorted(set(files_a) ^ set(files_b)):
        diffs.append(f"{f} written by only one build")
    for f in sorted(set(files_a) & set(files_b)):
        if files_a[f] != files_b[f]:
            diffs.append(f"{f} differs")
    return [f"{name}: {d}" for d in diffs]


def main(argv):
    if len(argv) not in (3, 5) or any(a.startswith("-") for a in argv[1:]):
        print("usage: behaviour_diff.py <parent-build> <change-build> "
              "[<parent-perfbench> <change-perfbench>]", file=sys.stderr)
        return 2
    parent_build, change_build = argv[1], argv[2]
    failures = []
    for name, binary, args in runs():
        diffs = compare(name, run_one(parent_build, binary, args),
                        run_one(change_build, binary, args))
        print(f"{name}: {'DIFFERS' if diffs else 'same'}", flush=True)
        failures += diffs
    if len(argv) == 5:
        for workload in PERFBENCH_WORKLOADS:
            for seed in PERFBENCH_SEEDS:
                for trace in (0, 1):
                    name = f"perfbench-{workload}-s{seed}-t{trace}"
                    diffs = compare_units(
                        name, run_unit(argv[3], workload, seed, trace),
                        run_unit(argv[4], workload, seed, trace))
                    print(f"{name}: {'DIFFERS' if diffs else 'same'}",
                          flush=True)
                    failures += diffs
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
