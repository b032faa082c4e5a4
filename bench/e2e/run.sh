#!/usr/bin/env bash
# End-to-end G-CORE benchmark. Builds bench/e2e (and the engine library it
# links) from this checkout with the system toolchain — no network — then
# runs workloads, one process each. Run it from anywhere; build files go to
# <repo>/build/e2e, results to <repo>/build/e2e/results unless --out says
# otherwise.
#
#   bench/e2e/run.sh --seed 1                 # all four workloads, traced
#   bench/e2e/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#   bench/e2e/run.sh --smoke                  # 1 s per workload, no trace
#   bench/e2e/run.sh --smoke --self-test      # must fail: one reference is corrupted
#
# With --workload the last line of standard output is the run's JSON
# result; without it every workload runs in turn (traced unless --trace 0
# or --smoke is given) and the exit status is non-zero if any failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/e2e"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" >&2
fi
cmake --build "$build" --target gcore_e2e -j "$(nproc)" >&2

sha=unknown
dirty=0
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  sha="$(git -C "$root" rev-parse HEAD)"
  if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=1; fi
fi

has() {
  local flag="$1"
  shift
  for a in "$@"; do [ "$a" = "$flag" ] && return 0; done
  return 1
}

extra=(--git-sha "$sha" --git-dirty "$dirty")
has --out "$@" || extra+=(--out "$build/results")

if has --workload "$@"; then
  exec "$build/gcore_e2e" "$@" "${extra[@]}"
fi

if ! has --trace "$@" && ! has --smoke "$@"; then extra+=(--trace 1); fi
status=0
for workload in serve rw_mix construct tour; do
  "$build/gcore_e2e" --workload "$workload" "$@" "${extra[@]}" || status=1
done
exit "$status"
