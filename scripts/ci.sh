#!/usr/bin/env bash
# CI entry point: builds and tests the default preset, then the ASan+UBSan
# preset (the memory-chaos acceptance bar is "bit-exact with zero sanitizer
# findings"). Pass --soak to also run the full-length soak tier, --perf (or
# PINSIM_PERF_TIER=1) to run the perf-regression gates against three
# committed baselines (BENCH_seed.json, BENCH_pr12.json, BENCH_pr8.json; see
# perf_tier below), --lint (or PINSIM_LINT_TIER=1) to run the
# static-analysis tier (pinlint, plus clang-format/clang-tidy on changed
# files when those tools exist), --tsan (or PINSIM_TSAN_TIER=1) to run the
# ThreadSanitizer tier over the code that runs on more than one thread.
#
#   scripts/ci.sh           # default + asan tiers (default includes pinlint)
#   scripts/ci.sh --tsan    # ... plus the TSan tier: the obs tests, the bus
#                           # delivery tests, mem_extra_test (the frame
#                           # pool's set-up slices) and the determinism test
#   scripts/ci.sh --soak    # ... plus the full-length soaks, all five suites
#   scripts/ci.sh --perf    # ... plus the three perf gates (needs python3)
#   scripts/ci.sh --lint    # ... plus the clang-format/clang-tidy sweep
set -euo pipefail
cd "$(dirname "$0")/.."

run_soak=0
run_perf="${PINSIM_PERF_TIER:-0}"
run_lint="${PINSIM_LINT_TIER:-0}"
run_tsan="${PINSIM_TSAN_TIER:-0}"
for arg in "$@"; do
  case "$arg" in
    --soak) run_soak=1 ;;
    --perf) run_perf=1 ;;
    --lint) run_lint=1 ;;
    --tsan) run_tsan=1 ;;
    *) echo "usage: $0 [--soak] [--perf] [--lint] [--tsan]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# On a failing tier, keep the observability artifacts the instrumented
# soaks left behind (Chrome traces + JSON run reports + flight-recorder
# post-mortem dumps, see DESIGN.md §6d/§10) — they carry the
# invariant-checker verdict and the event window around any violation,
# which is usually all that is needed to diagnose the failure.
archive_artifacts() {
  local preset="$1" build_dir="$2"
  local dest="ci-artifacts/${preset}"
  mkdir -p "${dest}"
  find "${build_dir}" -name '*.trace.json' -o -name '*.report.json' \
    -o -name '*.flight.json' \
    2>/dev/null | while read -r f; do cp "$f" "${dest}/"; done
  echo "=== tier ${preset} FAILED; traces/reports archived in ${dest} ===" >&2
}

tier() {
  local preset="$1"
  local build_dir
  case "${preset}" in
    default) build_dir=build ;;
    *) build_dir="build-${preset}" ;;
  esac
  echo "=== tier: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  local status=0
  ctest --preset "${preset}" -j "${jobs}" || status=1
  if [[ "${preset}" == default ]]; then
    # The default ctest pass includes the repo-wide pinlint gate
    # (pinlint_repo), which leaves its machine-readable artifacts in the
    # build dir. Archive them win or lose — the SARIF feeds code-scanning
    # UIs and the dot is the rendered include-layering evidence.
    mkdir -p ci-artifacts/lint
    cp "${build_dir}/pinlint_report.json" "${build_dir}/pinlint.sarif" \
      "${build_dir}/pinlint_includes.dot" ci-artifacts/lint/ \
      2>/dev/null || true
  fi
  if [[ "${status}" -ne 0 ]]; then
    archive_artifacts "${preset}" "${build_dir}"
    return 1
  fi
}

# Lint tier: the repo-native pinlint pass (determinism/protocol/counter
# contracts, see tools/pinlint) over everything, then clang-format and
# clang-tidy restricted to files changed since PINSIM_LINT_BASE (default:
# the previous commit) — a full-tree clang pass would mass-touch code this
# change never went near. Both clang tools degrade to a warning when the
# toolchain does not ship them; pinlint is built from source and always runs.
lint_tier() {
  echo "=== tier: lint ==="
  if [[ ! -d build ]]; then
    cmake --preset default
  fi
  cmake --build --preset default -j "${jobs}" --target pinlint
  local lint_status=0
  ./build/tools/pinlint/pinlint --root=. \
    --baseline=tools/pinlint/baseline.txt \
    --json=build/pinlint_report.json \
    --sarif=build/pinlint.sarif \
    --dot=build/pinlint_includes.dot src bench tests || lint_status=1
  # Archive the machine-readable reports pass or fail: the SARIF is what
  # code-scanning dashboards ingest and the dot is the include-layering
  # graph (render with `dot -Tsvg`, recipe in EXPERIMENTS.md).
  mkdir -p ci-artifacts/lint
  cp build/pinlint_report.json build/pinlint.sarif \
    build/pinlint_includes.dot ci-artifacts/lint/ 2>/dev/null || true
  if [[ "${lint_status}" -ne 0 ]]; then
    echo "=== tier lint FAILED; pinlint report archived in" \
         "ci-artifacts/lint ===" >&2
    return 1
  fi

  local base="${PINSIM_LINT_BASE:-HEAD~1}"
  local changed=()
  while IFS= read -r f; do
    [[ "$f" == tools/pinlint/testdata/* ]] && continue  # fixtures are lint bait
    [[ -f "$f" ]] && changed+=("$f")
  done < <(git diff --name-only --diff-filter=ACMR "${base}" -- \
             '*.cpp' '*.hpp' 2>/dev/null || true)

  if command -v clang-format >/dev/null 2>&1; then
    if [[ "${#changed[@]}" -gt 0 ]]; then
      echo "lint tier: clang-format --dry-run on ${#changed[@]} changed file(s)"
      clang-format --dry-run -Werror "${changed[@]}"
    fi
  else
    echo "lint tier: clang-format not available, format check skipped" >&2
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    local tidy_files=()
    for f in "${changed[@]}"; do
      [[ "$f" == *.cpp ]] && tidy_files+=("$f")  # headers lack compile entries
    done
    if [[ -f build/compile_commands.json && "${#tidy_files[@]}" -gt 0 ]]; then
      echo "lint tier: clang-tidy on ${#tidy_files[@]} changed file(s)"
      clang-tidy -p build --quiet "${tidy_files[@]}"
    fi
  else
    echo "lint tier: clang-tidy not available, tidy check skipped" >&2
  fi
}

if [[ "${run_lint}" -eq 1 ]]; then
  lint_tier
fi

tier default
tier asan

if [[ "${run_tsan}" -eq 1 ]]; then
  tier tsan
fi

if [[ "${run_soak}" -eq 1 ]]; then
  tier soak
fi

# Perf tier: instrumented quick runs of the paper benches, folded into a
# BENCH point and gated three times:
#  1. against the committed BENCH_seed.json for the bit-stable sim-time
#     latency metrics (tight threshold, cannot flake) — throughput metrics
#     are newer than that baseline and ride along record-only;
#  2. against the committed BENCH_pr12.json for the wall-clock throughput
#     metrics (events_per_sec, sim_ns_per_wall_ms), the first point taken
#     with the carry-less-multiply frame CRC, so putting the bytewise CRC
#     back fails here. Wall-clock numbers vary with the machine, so the
#     tolerance is generous and overridable via PINSIM_PERF_TPUT_TOL
#     (relative drop, default 0.5);
#  3. against the committed BENCH_pr8.json, the first point carrying the
#     cluster-soak stages and their tenant_fairness digests — this is where
#     Jain-index drops gate.
# The tier also runs the benchmark's self-test (perfbench/selftest.py) and
# the profiler-overhead smoke: an instrumented fig6 run
# (dispatch profiler + flight recorder + trace sinks attached) must stay
# within PINSIM_PERF_PROF_TOL relative slowdown of the plain run — a
# backstop against the always-on observer hook growing per-dispatch cost.
# The comparison deltas are archived when any gate fails.
perf_tier() {
  echo "=== tier: perf ==="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "perf tier skipped: python3 not available" >&2
    return 0
  fi
  local out=build/perf
  local tput_tol="${PINSIM_PERF_TPUT_TOL:-0.5}"
  ./build/bench/fig6_pingpong_pinning --quick --trace-out="${out}_fig6" \
    > /dev/null
  ./build/bench/fig7_decoupled --quick --trace-out="${out}_fig7" > /dev/null
  ./build/bench/overlap_miss --quick --trace-out="${out}_overlap_miss" \
    > /dev/null
  # Cluster soak: one report per stage (uniform / incast / composed), each
  # carrying the tenant_fairness digest the compare gate watches for
  # Jain-index drops.
  ./build/bench/soak cluster --quick --trace-out="${out}_cluster" \
    > /dev/null
  python3 scripts/bench_compare.py collect --label ci --out build/BENCH_ci.json \
    fig6="${out}_fig6.report.json" \
    fig7="${out}_fig7.report.json" \
    overlap_miss="${out}_overlap_miss.report.json" \
    cluster_uniform="${out}_cluster-s0.report.json" \
    cluster_incast="${out}_cluster-s1.report.json" \
    cluster_composed="${out}_cluster-s2.report.json"
  local failed=0
  if ! python3 scripts/profiler_overhead.py \
      --bench build/bench/fig6_pingpong_pinning \
      --workdir build/perf_prof -- --quick; then
    failed=1
  fi
  if ! python3 scripts/bench_compare.py compare \
      --baseline BENCH_seed.json --current build/BENCH_ci.json \
      --delta-out build/BENCH_delta.json; then
    failed=1
  fi
  if [[ -f BENCH_pr12.json ]]; then
    if ! python3 scripts/bench_compare.py compare \
        --baseline BENCH_pr12.json --current build/BENCH_ci.json \
        --throughput-threshold "${tput_tol}" \
        --delta-out build/BENCH_tput_delta.json; then
      failed=1
    fi
  fi
  # The repo benchmark's self-test: ledger attribution, and traced vs
  # untraced units reporting the same simulated-time results.
  if ! python3 perfbench/selftest.py; then
    failed=1
  fi
  if [[ -f BENCH_pr8.json ]]; then
    if ! python3 scripts/bench_compare.py compare \
        --baseline BENCH_pr8.json --current build/BENCH_ci.json \
        --throughput-threshold "${tput_tol}" \
        --delta-out build/BENCH_fairness_delta.json; then
      failed=1
    fi
  fi
  if [[ "${failed}" -ne 0 ]]; then
    mkdir -p ci-artifacts/perf
    cp build/BENCH_ci.json build/BENCH_delta.json \
      build/BENCH_tput_delta.json build/BENCH_fairness_delta.json \
      ci-artifacts/perf/ 2>/dev/null || true
    cp "${out}"_*.report.json "${out}"_*.trace.json ci-artifacts/perf/ \
      2>/dev/null || true
    echo "=== tier perf FAILED; comparison delta archived in" \
         "ci-artifacts/perf ===" >&2
    return 1
  fi
}

if [[ "${run_perf}" -eq 1 ]]; then
  perf_tier
fi

echo "=== ci: all tiers passed ==="
