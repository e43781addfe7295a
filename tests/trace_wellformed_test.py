#!/usr/bin/env python3
"""Well-formedness gate for every observability artifact a quick
instrumented bench run emits: each `.trace.json` / `.flight.json` must be
valid Chrome Trace Event JSON with in-order span timestamps, and each
`.report.json` must be a valid JSON object carrying the report sections,
with host- and fabric-scope values only in its `hosts` / `fabric` sections,
never in an `endpoints[]` row.

The C++ side has json_valid() unit coverage; this test closes the loop on
the files as actually written — truncated writes, a stray comma from a
hand-rolled serializer, or a sink flushing events out of order all surface
here, on exactly the artifacts ci.sh archives when a tier fails.

Usage: trace_wellformed_test.py --bench <path-to-fig6-binary>
Runs the bench with --quick --trace-out into a temp dir and checks
everything it left behind. Exits 0 when every artifact is well-formed.
Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Phases that carry no (meaningful) timestamp or that legitimately appear
# outside the time-ordered stream.
UNTIMED_PHASES = {"M"}


def fail(path, msg):
    print(f"FAIL {os.path.basename(path)}: {msg}", file=sys.stderr)
    return False


def check_trace(path):
    """Chrome-trace JSON: parseable, and span/instant timestamps in order."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"malformed JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(path, "no traceEvents array")

    ok = True
    last_ts = None
    open_spans = {}  # (cat, id, ph-family) -> stack of begin timestamps
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            ok = fail(path, f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            ok = fail(path, f"event {i} has no phase")
            continue
        if ph in UNTIMED_PHASES:
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            ok = fail(path, f"event {i} ({ev.get('name')}) bad ts {ts!r}")
            continue
        # Both writers render events in simulated-time order; a regression
        # there shows up as a backwards jump in the flat ts sequence.
        if last_ts is not None and ts < last_ts:
            ok = fail(path, f"event {i} ({ev.get('name')}) ts {ts} after "
                            f"{last_ts}: out of order")
        last_ts = max(ts, last_ts) if last_ts is not None else ts
        # Async spans ("b"/"e", matched by (cat, id)) and duration spans
        # ("B"/"E", matched per pid/tid) must nest with begin <= end.
        if ph in ("b", "B"):
            key = (ev.get("cat"), ev.get("id"), ev.get("pid"),
                   ev.get("tid"), ph)
            open_spans.setdefault(key, []).append(ts)
        elif ph in ("e", "E"):
            key = (ev.get("cat"), ev.get("id"), ev.get("pid"),
                   ev.get("tid"), "b" if ph == "e" else "B")
            stack = open_spans.get(key, [])
            if not stack:
                ok = fail(path, f"event {i} ({ev.get('name')}) span end "
                                "with no open begin")
            elif ts < stack[-1]:
                ok = fail(path, f"event {i} ({ev.get('name')}) span end ts "
                                f"{ts} before its begin {stack[-1]}")
            if stack:
                stack.pop()
    return ok


def check_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"malformed JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "report is not a JSON object")
    missing = [k for k in ("invariant_violations", "profile", "flight",
                           "hosts", "fabric")
               if k not in doc]
    if missing:
        return fail(path, f"report missing sections: {missing}")
    # Host- and fabric-wide values are reported once, in `hosts` and
    # `fabric`; copied into every endpoint row they would sum to nonsense.
    ok = True
    for i, row in enumerate(doc.get("endpoints", [])):
        leaked = sorted(k for k in row
                        if k.startswith(("host_", "fabric_")))
        if leaked:
            ok = fail(path, f"endpoints[{i}] carries host/fabric-scope "
                            f"keys {leaked}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="instrumentable bench binary (fig6)")
    args = parser.parse_args()
    bench = os.path.abspath(args.bench)

    with tempfile.TemporaryDirectory(prefix="pinsim-wellformed-") as tmp:
        proc = subprocess.run(
            [bench, "--quick", f"--trace-out={os.path.join(tmp, 'wf')}"],
            cwd=tmp, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"FAIL: {bench} exited {proc.returncode}",
                  file=sys.stderr)
            return 1

        checked = 0
        ok = True
        for name in sorted(os.listdir(tmp)):
            path = os.path.join(tmp, name)
            if name.endswith((".trace.json", ".flight.json")):
                ok &= check_trace(path)
                checked += 1
            elif name.endswith(".report.json"):
                ok &= check_report(path)
                checked += 1
            elif name.endswith(".flame.json"):
                try:
                    with open(path) as f:
                        json.load(f)
                except (OSError, json.JSONDecodeError) as e:
                    ok = fail(path, f"malformed JSON: {e}")
                checked += 1
        # The instrumented run must have produced at least the trace, the
        # report and the flame file; zero artifacts means the harness broke.
        if checked < 3:
            print(f"FAIL: expected >=3 artifacts, found {checked} in {tmp}",
                  file=sys.stderr)
            return 1
        if not ok:
            return 1
        print(f"OK: {checked} artifacts well-formed")
        return 0


if __name__ == "__main__":
    sys.exit(main())
