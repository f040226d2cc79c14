#!/usr/bin/env bash
# Tier-1 verification: the exact configure/build/test sequence CI runs.
# Benchmarks are auto-detected (D3T_BUILD_BENCH=AUTO); a missing
# google-benchmark never fails this script.
#
# Sanitizer runs: set D3T_SANITIZE=thread (or a comma-separated list
# such as address,undefined,float-cast-overflow) to build into
# build-<sanitizer>/ with -fsanitize instrumentation — the thread
# variant race-checks the RunAll/RunMultiSource worker-pool path. Every
# finding aborts its process (-fno-sanitize-recover=all).
# Sanitizer builds are Debug, so the engines' assert()-level invariants
# (orphan census, scenario barrier, event time order) run there too.
# D3T_TEST_FILTER optionally narrows ctest (regex) for slow sanitizer
# builds.
#
# Bench smoke: set D3T_BENCH_SMOKE=1 to instead build bench/ in Release
# mode (D3T_BUILD_BENCH=ON — here a missing google-benchmark *fails*,
# that is the point) and run every bench binary briefly: the
# google-benchmark drivers with --benchmark_min_time=1x, the paper-
# figure CLI binaries at a tiny scale, and the end-to-end benchmark
# (bench/e2e/run.sh --smoke). Keeps the perf binaries from
# bitrotting without turning CI into a benchmarking farm. Each
# google-benchmark driver also emits machine-readable results to
# bench-results/BENCH_<name>.json (--benchmark_format console output
# stays on the log); CI uploads the directory as an artifact, so every
# commit contributes a point to the perf trajectory.
#
# Lint: set D3T_LINT=1 to instead run the d3t-lint static-analysis
# suite (tools/lint/d3t_lint.py) — fixture selftest first, then a
# clean pass over src/. No toolchain needed beyond python3.
#
# Distributed smoke: set D3T_DISTRIBUTED_SMOKE=1 to instead build the
# examples and run examples/distributed_world — four real processes
# over loopback TCP, each shipping its results home as one kObsSnapshot
# stream; it exits 0 iff every node's snapshot holds every "engine.*"
# entry of the direct in-process run's registry byte for byte, so one
# run asserts the whole socket/cluster path end to end.
#
# Chaos smoke: set D3T_CHAOS_SMOKE=1 to instead run the same example
# with --chaos: scripted feed faults (drops, a reorder, a corrupted
# byte) plus one supervised SIGKILL/restart of a node. Exit 0 requires
# the faults to have fired (feed.faults_injected in the publisher's
# shipped snapshot), the crash to have been restarted, AND the metrics
# to still match the fault-free direct runs byte for byte.
#
# Both smokes pass --trace-out so the merged flight-recorder dump
# (obs/ trace events shipped back over kObsSnapshot frames) lands in
# trace-results/ for CI to upload — every smoke run leaves an
# inspectable Chrome-trace artifact.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ -n "${D3T_LINT:-}" ]]; then
  echo "== d3t-lint: fixture selftest =="
  python3 tools/lint/d3t_lint.py --selftest
  echo "== d3t-lint: src/ =="
  python3 tools/lint/d3t_lint.py src/
  exit 0
fi

if [[ -n "${D3T_BENCH_SMOKE:-}" ]]; then
  BUILD_DIR=build-bench-smoke
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DD3T_BUILD_BENCH=ON \
    -DD3T_BUILD_TESTS=OFF \
    -DD3T_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j
  # One measured iteration per google-benchmark binary. The `1x`
  # iteration syntax needs google-benchmark >= 1.8; probe flag support
  # via --benchmark_list_tests (parses flags, runs nothing) so the
  # fallback is chosen by library version, never by a crashing benchmark.
  MIN_TIME_FLAG="--benchmark_min_time=1x"
  if ! "$BUILD_DIR/bench/event_kernel" "$MIN_TIME_FLAG" \
      --benchmark_list_tests=true > /dev/null 2>&1; then
    MIN_TIME_FLAG="--benchmark_min_time=0.01"
  fi
  RESULTS_DIR=bench-results
  mkdir -p "$RESULTS_DIR"
  for gbench in event_kernel micro_core session_sweep wire; do
    echo "== bench smoke: ${gbench} =="
    "$BUILD_DIR/bench/$gbench" "$MIN_TIME_FLAG" \
      --benchmark_out_format=json \
      --benchmark_out="$RESULTS_DIR/BENCH_${gbench}.json"
  done
  # Paper-figure CLI drivers at a tiny scale (they all take the common
  # flags); scalability also exercises the streaming routing path and
  # prints peak RSS.
  for cli_bench in "$BUILD_DIR"/bench/*; do
    name=$(basename "$cli_bench")
    case "$name" in
      event_kernel|micro_core|session_sweep|wire) continue ;;
    esac
    echo "== bench smoke: ${name} =="
    "$cli_bench" --repositories 8 --items 4 --ticks 120
  done
  # Churn smoke: the scalability point again with a generated
  # failure-churn scenario attached, so the dynamics path (detach,
  # repair, recovery) cannot bitrot either.
  echo "== bench smoke: scalability --churn =="
  "$BUILD_DIR/bench/scalability" --repositories 8 --items 4 --ticks 120 \
    --churn
  # The end-to-end benchmark (BENCHMARK.json): run.sh builds it in
  # Release, checks its workload and metric names against
  # BENCHMARK.json, and --smoke runs its selftest plus every workload at
  # toy scale, untraced and traced.
  echo "== bench smoke: bench/e2e =="
  bash bench/e2e/run.sh --smoke
  exit 0
fi

if [[ -n "${D3T_DISTRIBUTED_SMOKE:-}" || -n "${D3T_CHAOS_SMOKE:-}" ]]; then
  BUILD_DIR=build-distributed-smoke
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DD3T_BUILD_TESTS=OFF \
    -DD3T_BUILD_BENCH=OFF \
    -DD3T_BUILD_EXAMPLES=ON
  cmake --build "$BUILD_DIR" -j
  TRACE_DIR=trace-results
  mkdir -p "$TRACE_DIR"
  if [[ -n "${D3T_CHAOS_SMOKE:-}" ]]; then
    echo "== chaos smoke: examples/distributed_world --chaos =="
    "$BUILD_DIR/examples/distributed_world" --chaos \
      --trace-out "$TRACE_DIR/TRACE_chaos_smoke.json"
  else
    echo "== distributed smoke: examples/distributed_world =="
    "$BUILD_DIR/examples/distributed_world" \
      --trace-out "$TRACE_DIR/TRACE_distributed_smoke.json"
  fi
  exit 0
fi

BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "${D3T_SANITIZE:-}" ]]; then
  BUILD_DIR="build-${D3T_SANITIZE}"
  # Sanitized bench binaries are pointless; keep the build lean.
  CMAKE_ARGS+=("-DD3T_SANITIZE=${D3T_SANITIZE}" "-DD3T_BUILD_BENCH=OFF"
               "-DCMAKE_BUILD_TYPE=Debug")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "$BUILD_DIR" -j
if [[ -n "${D3T_TEST_FILTER:-}" ]]; then
  # -R must precede the bare -j, which would otherwise consume it.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$D3T_TEST_FILTER" -j
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
fi
