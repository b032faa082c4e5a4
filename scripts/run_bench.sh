#!/usr/bin/env bash
# Runs the recorded trajectory benches and writes the numbers the
# acceptance criteria track (google-benchmark JSON format):
#   BENCH_join_dedup.json      — fused join dedup vs the seed path
#   BENCH_columnar_scan.json   — columnar Ω vs row-major storage
#   BENCH_stats_ablation.json  — stats-driven cardinality vs seed constants
#   BENCH_wcoj.json            — triangle/diamond motifs, binary joins vs
#                                MultiwayExpand (worst-case-optimal)
#   BENCH_storage.json         — GraphSnapshot label spans / typed columns
#                                vs the PPG map-walk read path, plus
#                                arena persistence: save / load / mmap
#                                vs re-freeze at SNB 2k and 20k persons
#   BENCH_paths.json           — parallel path engine ablation: serial
#                                spec vs delta-stepping / batched waves /
#                                bidirectional probes, parallelism 1 and max
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
# Extra arguments pass through to every bench binary, e.g.
#   scripts/run_bench.sh --benchmark_filter='BM_ColumnarScan.*'
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build --target bench_join_dedup bench_columnar_scan \
  bench_baseline_ablation bench_wcoj bench_storage bench_path_finding \
  bench_serving bench_expr bench_construct bench_guided_tour -j

# Stamped into every JSON context: the commit, gcore's own build type
# (google-benchmark's library_build_type describes the benchmark library)
# and the core count.
sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then sha="${sha}-dirty"; fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)"
build_type="${build_type:-RelWithDebInfo}"  # CMakeLists.txt's default
context="git_sha=${sha},build_type=${build_type},nproc=$(nproc)"

run_bench() {
  local binary="$1" out="$2"
  shift 2
  "./build/${binary}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_context="${context}" \
    "$@"
}

run_bench bench_join_dedup BENCH_join_dedup.json "$@"
run_bench bench_columnar_scan BENCH_columnar_scan.json "$@"
run_bench bench_wcoj BENCH_wcoj.json "$@"
run_bench bench_storage BENCH_storage.json "$@"
run_bench bench_path_finding BENCH_paths.json "$@"
run_bench bench_serving BENCH_serving.json "$@"
run_bench bench_expr BENCH_expr.json "$@"
run_bench bench_construct BENCH_construct.json "$@"
run_bench bench_guided_tour BENCH_guided_tour.json "$@"
# The stats filter comes last: google-benchmark honors the final
# --benchmark_filter, so a user-passed filter cannot swap which
# benchmarks land in BENCH_stats_ablation.json.
run_bench bench_baseline_ablation BENCH_stats_ablation.json "$@" \
  --benchmark_filter='BM_Stats.*'
