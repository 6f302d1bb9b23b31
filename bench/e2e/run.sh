#!/usr/bin/env bash
# lithobench: builds the pinned benchmark and runs its workloads.
#
#   bench/e2e/run.sh                      all four workloads once (seed 1)
#   bench/e2e/run.sh --trace 1            all four, traced: per-layer metrics
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                         one workload; the last line of
#                                         stdout is its JSON result
#   bench/e2e/run.sh --repeat N           N rounds of all four (seeds 1..N),
#                                         then median, Q1 and Q3 per metric
#   bench/e2e/run.sh --smoke              all four at tiny sizes with the
#                                         schema check (ctest lithobench_smoke)
#
# Builds into build-bench/ at the repository root (Release, -O3,
# -march=native; see CMakeLists.txt) and writes one JSON result per
# workload under build-bench/results/. Exits nonzero if the build, any
# output check or any run fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
workloads=(chip_golden chip_learned serve_low serve_high)

# Any LITHOGAN_* knob (INFER_DTYPE, CONV_ALGO, CONV_AUTOTUNE, DISPATCH_COST,
# TRACE, ...) would change what is measured.
while IFS= read -r var; do unset "$var"; done < <(compgen -e | grep '^LITHOGAN_' || true)

workload="" seed=1 seconds=20 trace=0 repeat=0 smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ ! -f "$build/Makefile" ] &&
   ! cmake -S "$here" -B "$build" >"$build/configure.log" 2>&1; then
  cat "$build/configure.log" >&2
  echo "run.sh: configure failed" >&2
  exit 1
fi
if ! cmake --build "$build" -j "$jobs" >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

if [ "$smoke" = 1 ]; then
  cd "$build"
  exec ctest -R lithobench_smoke --output-on-failure
fi

# Fingerprint: the commit measured, and whether tracked files differ from it.
git_sha=unknown git_dirty=0
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  git_sha="$(git -C "$root" rev-parse HEAD)"
  [ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ] || git_dirty=1
fi

run_one() {  # workload seed out_dir
  mkdir -p "$3"
  "$build/lithobench" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$trace" \
    --out "$3" --git-sha "$git_sha" --git-dirty "$git_dirty"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seed" "$build/results"
  exit
fi

status=0
if [ "$repeat" -gt 0 ]; then
  dirs=()
  for ((i = 1; i <= repeat; i++)); do
    dir="$build/results/repeat/$i"
    dirs+=("$dir")
    mkdir -p "$dir"
    for w in "${workloads[@]}"; do
      run_one "$w" "$i" "$dir" >"$dir.$w.log" 2>&1 ||
        { status=1; echo "run.sh: $w seed $i failed (see $dir.$w.log)" >&2; }
    done
  done
  python3 "$here/results.py" summary --benchmark "$root/BENCHMARK.json" "${dirs[@]}"
  exit "$status"
fi

for w in "${workloads[@]}"; do
  run_one "$w" "$seed" "$build/results" || { status=1; echo "run.sh: $w failed" >&2; }
done
exit "$status"
