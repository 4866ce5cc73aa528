#!/usr/bin/env bash
# Builds bench_e2e and the engine-node daemon from this checkout's sources,
# then runs the benchmark with the arguments given, e.g.
#   bash bench/e2e/run.sh --workload echo-http --seed 1 --seconds 20 --trace 0
# The build tree is $CARGO_TARGET_DIR when set, .bench_build otherwise; the
# first run configures and compiles it, later runs only re-check it. Build
# output goes to stderr, so the last line on stdout is the benchmark's JSON.
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: the runtime's sources (CMakeLists.txt, src/) are missing from $root" >&2
  exit 2
fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 ||
    { echo "run.sh: configure failed" >&2; exit 2; }
fi
cmake --build "$build" -j "$(nproc)" --target bench_e2e >&2 ||
  { echo "run.sh: build failed" >&2; exit 2; }

cd "$root" && exec "$build/bench_e2e" "$@"
