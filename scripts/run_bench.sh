#!/usr/bin/env bash
# Runs the recorded trajectory benches and writes the numbers the
# acceptance criteria track (google-benchmark JSON format):
#   BENCH_join_dedup.json      — fused join dedup (serial TableJoin) vs
#                                the seed path on a 20k×20k join, plus a
#                                triangle MATCH through the engine at
#                                parallelism 1, 2 and 4
#   BENCH_columnar_scan.json   — columnar Ω vs row-major storage
#   BENCH_stats_ablation.json  — what the statistics cost: the PPG
#                                reference scan (BM_StatsCollect) vs the
#                                snapshot column sweep GraphCatalog::Stats
#                                runs (BM_StatsCollectFromSnapshot)
#   BENCH_wcoj.json            — triangle/diamond motifs, binary joins vs
#                                MultiwayExpand (worst-case-optimal)
#   BENCH_storage.json         — GraphSnapshot label spans / typed columns
#                                vs the PPG map-walk read path, plus
#                                arena persistence: save / load / mmap
#                                vs re-freeze at SNB 2k and 20k persons
#   BENCH_paths.json           — path machinery: reachability, (k-)
#                                shortest, PATH-view traversal, ALL-paths,
#                                plus the parallel path engine ablation:
#                                serial spec vs 64-source batched waves /
#                                bidirectional pair probes, parallelism 1
#                                and max
#   BENCH_serving.json         — concurrent session serving: SNB query mix
#                                QPS + p50/p95/p99, cold vs warm plan
#                                cache, 1/2/max threads
#   BENCH_expr.json            — vectorized expression kernels vs the
#                                row-at-a-time evaluator: arithmetic WHERE,
#                                3-conjunct AND, computed projection at
#                                SNB 2k/20k, single-threaded
#   BENCH_construct.json       — CONSTRUCT end to end through the engine:
#                                identity copies, GROUP skolems, COUNT(*)
#                                per group, stored paths, CONSTRUCT g, ...
#                                unions, graph set operations (serial)
#   BENCH_guided_tour.json     — the paper's guided-tour queries end to end
#                                on the toy graphs, plus SNB 800 workloads
#                                including the Q7 pattern predicate and the
#                                Q9 correlated EXISTS
#   BENCH_data_complexity.json — Section 4's data-complexity claim: fixed
#                                queries (filter, two-hop, aggregation,
#                                reachability, shortest path, UNION) over
#                                SNB 100, 400, 1600 and 6400 persons
# A leading bench_<name> argument restricts the run to that binary; the
# remaining arguments pass through to every binary that runs (the last
# occurrence of a google-benchmark flag wins), e.g.
#   scripts/run_bench.sh bench_path_finding
#   scripts/run_bench.sh bench_columnar_scan --benchmark_filter='BM_ColumnarScan.*'
#   scripts/run_bench.sh --benchmark_repetitions=1 --benchmark_min_time=0.01
# Each run merges into its BENCH_*.json: a row the run measured replaces
# the row of the same name, every other row stays (so a filtered run
# keeps the rest of the file) and the committed `baseline` block stays.
# When the run re-measured every row of the file, `context` and the row
# order come from the run; otherwise the file keeps its `context` and
# each row the run wrote carries the run's date, host, commit, build type
# and core count under `run_context`. Rows of benchmarks that no longer
# exist stay until removed by hand. A binary that records no benchmark
# leaves its file untouched and, unless a --benchmark_filter was given,
# fails the run. GCORE_BENCH_TIMEOUT (seconds, default none) limits each binary.
set -euo pipefail
cd "$(dirname "$0")/.."

# Binary → recorded file, in run order.
benches=(
  bench_join_dedup:BENCH_join_dedup.json
  bench_columnar_scan:BENCH_columnar_scan.json
  bench_wcoj:BENCH_wcoj.json
  bench_storage:BENCH_storage.json
  bench_path_finding:BENCH_paths.json
  bench_serving:BENCH_serving.json
  bench_expr:BENCH_expr.json
  bench_construct:BENCH_construct.json
  bench_guided_tour:BENCH_guided_tour.json
  bench_baseline_ablation:BENCH_stats_ablation.json
  bench_data_complexity:BENCH_data_complexity.json
)

only=""
if [ $# -gt 0 ] && [[ "$1" == bench_* ]]; then
  only="$1"
  shift
fi
selected=()
for entry in "${benches[@]}"; do
  if [ -z "${only}" ] || [ "${entry%%:*}" = "${only}" ]; then
    selected+=("${entry}")
  fi
done
if [ "${#selected[@]}" -eq 0 ]; then
  echo "run_bench.sh: unknown bench binary '${only}'" >&2
  exit 2
fi

cmake -B build -S . >/dev/null
cmake --build build --target "${selected[@]%%:*}" -j

# Stamped into every JSON context: the commit, gcore's own build type
# (google-benchmark's library_build_type describes the benchmark library)
# and the core count.
# `-dirty` marks a tree whose sources differ from the commit; the
# BENCH_*.json files this script rewrites do not count.
sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain -- . ':(exclude)BENCH_*.json' 2>/dev/null)" ]; then
  sha="${sha}-dirty"
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)"
build_type="${build_type:-RelWithDebInfo}"  # CMakeLists.txt's default
context="git_sha=${sha},build_type=${build_type},nproc=$(nproc)"
trap 'rm -f BENCH_*.json.tmp' EXIT

filtered=0
for arg in "$@"; do
  if [[ "${arg}" == --benchmark_filter* ]]; then filtered=1; fi
done
missing=0

# Merges the google-benchmark JSON `run` into `out` (see the header).
merge_json() {
  python3 - "$1" "$2" <<'EOF'
import json, os, sys

run_path, out_path = sys.argv[1], sys.argv[2]
with open(run_path) as f:
    run = json.load(f)
merged = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        merged = json.load(f)
fresh = {b["name"]: b for b in run["benchmarks"]}
old_rows = merged.get("benchmarks", [])
if all(b["name"] in fresh for b in old_rows):
    merged["context"] = run["context"]
    merged["benchmarks"] = run["benchmarks"]
else:
    stamp = {k: run["context"][k]
             for k in ("date", "host_name", "git_sha", "build_type", "nproc")
             if k in run["context"]}
    for b in fresh.values():
        b["run_context"] = stamp
    rows = [fresh.pop(b["name"], b) for b in old_rows]
    rows.extend(fresh.values())
    merged["benchmarks"] = rows
with open(run_path, "w") as f:
    json.dump(merged, f, indent=2, ensure_ascii=False)
    f.write("\n")
os.replace(run_path, out_path)
EOF
}

# Runs one binary into `out`.tmp and merges that into `out` only when it
# recorded at least one benchmark: google-benchmark truncates its
# --benchmark_out file to 0 bytes and exits 0 when a filter matches
# nothing.
run_bench() {
  local binary="$1" out="$2"
  shift 2
  local tmp="${out}.tmp"
  timeout "${GCORE_BENCH_TIMEOUT:-0}" "./build/${binary}" \
    --benchmark_format=json \
    --benchmark_out="${tmp}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_context="${context}" \
    "$@"
  if [ -s "${tmp}" ] && grep -q '"name":' "${tmp}"; then
    merge_json "${tmp}" "${out}"
  else
    rm -f "${tmp}"
    echo "run_bench.sh: ${binary} recorded no benchmarks; ${out} left as is" >&2
    if [ "${filtered}" -eq 0 ]; then missing=1; fi
  fi
}

for entry in "${selected[@]}"; do
  binary="${entry%%:*}"
  out="${entry#*:}"
  if [ "${binary}" = bench_baseline_ablation ]; then
    # The stats filter comes last: google-benchmark honors the final
    # --benchmark_filter, so a user-passed filter cannot swap which
    # benchmarks land in BENCH_stats_ablation.json.
    run_bench "${binary}" "${out}" "$@" --benchmark_filter='BM_Stats.*'
  else
    run_bench "${binary}" "${out}" "$@"
  fi
done
if [ "${missing}" -ne 0 ]; then
  echo "run_bench.sh: a binary recorded no benchmarks without a filter" >&2
  exit 1
fi
