#!/usr/bin/env bash
# Builds bench_e2e from the sources of this checkout and runs it.
#
#   bench/e2e/run.sh [BUILD_DIR] --workload W [--seed N] [--seconds S]
#                    [--trace 0|1]
#       One workload (read_hot, read_cold, ingest) in its own
#       process. Prints `workload metric value unit` lines, then a
#       one-line JSON summary of the metrics BENCHMARK.json names.
#   bench/e2e/run.sh [BUILD_DIR] [--seed N] [--seconds S] [--trace]
#       All three workloads, one process each; writes BENCH_e2e.json in
#       the current directory.
#   bench/e2e/run.sh [BUILD_DIR] --counters [--seed N]
#       The fixed 2,000-request counter pass of every workload, diffed
#       against baseline/counters.json by check_counters.py.
#
# BUILD_DIR defaults to .bench_build in the checkout. The bench is built
# in BUILD_DIR/bench_e2e, which this script owns, so BUILD_DIR may be
# any build tree, the repo's own included. Other options: --docs N,
# --out FILE (the run record, or the merged records, as JSON). Run
# records and traced runs' trace-<workload>.json (Chrome trace format)
# go to BUILD_DIR/bench_e2e/runs.
# Exits non-zero when the build fails or any answer was wrong.
set -euo pipefail

# Physical paths, as CMake records the source directory in its cache.
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(cd "$here/../.." && pwd -P)"
base="$root/.bench_build"
workload=""
counters=0
trace=0
out=""
pass=()

if [[ $# -gt 0 && "$1" != --* ]]; then
  base="$1"
  shift
fi
build="$base/bench_e2e"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --counters) counters=1; shift ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --seed|--seconds|--docs) pass+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no sdms sources at $root/src; run from a full checkout" >&2
  exit 1
fi

# A build directory configured for another checkout cannot be reused,
# and is left for its owner to remove.
if [[ -f "$build/CMakeCache.txt" ]] &&
   ! grep -qxF "CMAKE_HOME_DIRECTORY:INTERNAL=$here" "$build/CMakeCache.txt"; then
  echo "run.sh: $build was configured from another source tree;" \
    "remove it or pass another BUILD_DIR" >&2
  exit 2
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

sha=unknown
if [[ -d "$root/.git" ]]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
mkdir -p "$build/runs" "$build/tmp"

# run_one WORKLOAD RECORD [extra bench_e2e args...]
run_one() {
  local w="$1" record="$2"
  shift 2
  rm -f "$record"
  "$build/bench_e2e" --workload "$w" "${pass[@]}" --out "$record" \
    --tmp-dir "$build/tmp" --git-sha "$sha" "$@"
}

if [[ -n "$workload" ]]; then
  record="${out:-$build/runs/$workload.json}"
  status=0
  if [[ $counters == 1 ]]; then
    run_one "$workload" "$record" --counters --setup-reps 1 || status=$?
  else
    run_one "$workload" "$record" --trace "$trace" \
      --trace-out "$build/runs/trace-$workload.json" || status=$?
  fi
  # A run that died before writing its record prints no summary.
  if [[ ! -f "$record" ]]; then
    (( status != 0 )) || status=1
    exit "$status"
  fi
  python3 "$here/report.py" final "$record" "$root/BENCHMARK.json"
  exit "$status"
fi

records=()
status=0
for w in read_hot read_cold ingest; do
  record="$build/runs/$w.json"
  if [[ $counters == 1 ]]; then
    run_one "$w" "$record" --counters --setup-reps 1 || status=1
  else
    run_one "$w" "$record" --trace "$trace" \
      --trace-out "$build/runs/trace-$w.json" || status=1
  fi
  [[ -f "$record" ]] && records+=("$record")
done
if [[ $counters == 1 ]]; then
  python3 "$here/check_counters.py" "${records[@]}" || status=1
else
  python3 "$here/report.py" merge "${out:-$PWD/BENCH_e2e.json}" "${records[@]}"
fi
exit "$status"
