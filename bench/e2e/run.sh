#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, into $CARGO_TARGET_DIR or
# .bench_build at the repository root) and runs it.
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last stdout line is the JSON
#       result.
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       every workload, each in its own process, so no workload's heap
#       or allocator state carries into the next; writes
#       DIR/<workload>.result.json (+ .trace.json with --trace 1) and
#       DIR/machine.json.
#   bench/e2e/run.sh --smoke | --list
#
# Every invocation first checks that d3t_bench's workload and metric
# list matches BENCHMARK.json, so the names cannot drift.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
bin="$build/d3t_bench"

build_bench() {
  mkdir -p "$build"
  local log="$build/build.log"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 1)"
  [ "$jobs" -gt 4 ] && jobs=4
  if { [ -f "$build/CMakeCache.txt" ] ||
       cmake -S "$here" -B "$build" >"$log" 2>&1; } &&
     cmake --build "$build" -j "$jobs" >>"$log" 2>&1; then
    return 0
  fi
  echo "run.sh: building the benchmark failed; see $log" >&2
  tail -n 20 "$log" >&2 || true
  return 1
}

build_bench
if ! "$bin" --list | python3 "$here/compare.py" --check-list \
    "$root/BENCHMARK.json" >&2; then
  echo "run.sh: d3t_bench --list and BENCHMARK.json disagree" >&2
  exit 1
fi

workload="" seed=42 seconds=25 trace=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) exec "$bin" --smoke ;;
    --list) exec "$bin" --list ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -n "$workload" ] && [ -z "$out" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace"
fi

out="${out:-$build/results}"
mkdir -p "$out"
python3 - "$out/machine.json" "$(nproc 2>/dev/null || echo 0)" \
  "$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- || true)" \
  "$(c++ --version 2>/dev/null | head -n1 || true)" <<'EOF'
import json, sys
path, nproc, cpu, compiler = sys.argv[1:5]
with open(path, "w") as f:
    json.dump({"nproc": int(nproc), "cpu_model": cpu.strip(),
               "compiler": compiler.strip()}, f, indent=2)
    f.write("\n")
EOF

status=0
workloads="$workload"
[ -n "$workloads" ] || workloads="$("$bin" --list | awk '$1 == "workload" {print $2}')"
for w in $workloads; do
  args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
        --out-json "$out/$w.result.json")
  [ "$trace" = 1 ] && args+=(--trace-out "$out/$w.trace.json")
  if "$bin" "${args[@]}" >"$out/$w.log"; then
    echo "ok      $w"
  else
    echo "FAILED  $w (see $out/$w.log)"
    status=1
  fi
  sed -n '1,/^  quality/p' "$out/$w.log" | tail -n +2 | sed 's/^/        /'
done
echo "results in $out"
exit "$status"
