// Join + dedup trajectory bench (scripts/run_bench.sh →
// BENCH_join_dedup.json).
//
// Two workloads:
//  * a 20k×20k natural join whose inputs carry duplicate rows (the shape
//    intermediate tables take after column-dropping), comparing the seed
//    path (materialize every merged row, then a whole-table
//    Deduplicate() pass) against the fused construction of TableJoin;
//  * a cyclic 3-chain (triangle) MATCH over a generated SNB graph, end
//    to end through the engine at morsel-parallelism 1 / 2 / 4.
#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>

#include "baselines.h"
#include "engine/engine.h"
#include "eval/binding_ops.h"
#include "snb/generator.h"

namespace gcore {
namespace {

using bench::MaterializeRows;
using bench::SeedRows;

// --- seed baseline ------------------------------------------------------------
// The pre-fused join, reconstructed verbatim over the seed's row-major
// storage (vector<BindingRow> — BindingTable is columnar since the
// vectorized-Ω refactor): hash-probe, merge every compatible pair into
// the output (duplicates included), then dedup in a second pass that
// re-hashes and copies every surviving row — exactly the constant
// factors the fused path removes.

size_t SeedSharedHash(const BindingRow& row,
                      const std::vector<std::pair<size_t, size_t>>& shared,
                      bool probe_side) {
  size_t h = 0;
  for (const auto& [ia, ib] : shared) {
    h ^= row[probe_side ? ia : ib].Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

struct SeedRowHash {
  size_t operator()(const BindingRow* row) const { return HashRow(*row); }
};
struct SeedRowEq {
  bool operator()(const BindingRow* a, const BindingRow* b) const {
    return *a == *b;
  }
};

void SeedDeduplicate(SeedRows* rows) {
  std::unordered_set<const BindingRow*, SeedRowHash, SeedRowEq> seen;
  seen.reserve(rows->size());
  SeedRows kept;
  kept.reserve(rows->size());
  for (auto& row : *rows) {
    if (seen.count(&row) > 0) continue;
    kept.push_back(row);
    seen.insert(&kept.back());
  }
  *rows = std::move(kept);
}

SeedRows SeedTableJoin(const SeedRows& a, const SeedRows& b,
                       const std::vector<std::pair<size_t, size_t>>& shared,
                       const std::vector<size_t>& b_extra) {
  SeedRows out;
  std::unordered_map<size_t, std::vector<size_t>> index;
  index.reserve(b.size());
  for (size_t r = 0; r < b.size(); ++r) {
    index[SeedSharedHash(b[r], shared, /*probe_side=*/false)].push_back(r);
  }
  for (const auto& ra : a) {
    auto it = index.find(SeedSharedHash(ra, shared, /*probe_side=*/true));
    if (it == index.end()) continue;
    for (size_t rb_idx : it->second) {
      const BindingRow& rb = b[rb_idx];
      bool compatible = true;
      for (const auto& [ia, ib] : shared) {
        if (!(ra[ia] == rb[ib])) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      BindingRow merged;
      merged.reserve(ra.size() + b_extra.size());
      merged.insert(merged.end(), ra.begin(), ra.end());
      for (size_t j : b_extra) merged.push_back(rb[j]);
      out.push_back(std::move(merged));
    }
  }
  SeedDeduplicate(&out);
  return out;
}

// --- workload construction ----------------------------------------------------

Datum N(uint64_t id) { return Datum::OfNode(NodeId(id)); }

/// a(x, y): `rows` rows, each distinct (x, y) pair appearing twice.
/// b(y, z): `rows` rows, each distinct (y, z) pair appearing twice.
/// The join matches rows/600 b-rows per a-row and every distinct merged
/// (x, y, z) appears 4 times — dedup does real work, as it does after
/// the executor's Project drops columns.
void BuildJoinInputs(size_t rows, BindingTable* a, BindingTable* b) {
  *a = BindingTable({"x", "y"});
  for (uint64_t i = 0; i < rows; ++i) {
    Status st = a->AddRow({N(i % (rows / 4)), N(100000 + i % 600)});
    (void)st;
  }
  *b = BindingTable({"y", "z"});
  for (uint64_t j = 0; j < rows; ++j) {
    Status st = b->AddRow({N(100000 + j % 600), N(200000 + j % (rows / 4))});
    (void)st;
  }
}

void BM_JoinDedup_Seed(benchmark::State& state) {
  BindingTable a, b;
  BuildJoinInputs(static_cast<size_t>(state.range(0)), &a, &b);
  // Row-major inputs are materialized outside the timed loop: the seed
  // stored its tables this way, so only join + dedup are measured.
  const SeedRows a_rows = MaterializeRows(a);
  const SeedRows b_rows = MaterializeRows(b);
  std::vector<std::pair<size_t, size_t>> shared;
  std::vector<size_t> b_extra;
  for (size_t i = 0; i < a.columns().size(); ++i) {
    const size_t j = b.ColumnIndex(a.columns()[i]);
    if (j != BindingTable::kNpos) shared.emplace_back(i, j);
  }
  for (size_t j = 0; j < b.columns().size(); ++j) {
    if (a.ColumnIndex(b.columns()[j]) == BindingTable::kNpos) {
      b_extra.push_back(j);
    }
  }
  size_t out_rows = 0;
  for (auto _ : state) {
    SeedRows j = SeedTableJoin(a_rows, b_rows, shared, b_extra);
    out_rows = j.size();
    benchmark::DoNotOptimize(j);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_JoinDedup_Seed)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_JoinDedup_Fused(benchmark::State& state) {
  BindingTable a, b;
  BuildJoinInputs(static_cast<size_t>(state.range(0)), &a, &b);
  size_t out_rows = 0;
  for (auto _ : state) {
    BindingTable j = TableJoin(a, b);
    out_rows = j.NumRows();
    benchmark::DoNotOptimize(j);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_JoinDedup_Fused)->Arg(20000)->Unit(benchmark::kMillisecond);

// --- cyclic 3-chain through the engine ----------------------------------------

void BM_ChainTriangle(benchmark::State& state) {
  GraphCatalog catalog;
  snb::GeneratorOptions options;
  options.num_persons = 600;
  options.avg_knows_degree = 10.0;
  catalog.RegisterGraph("snb", snb::Generate(options, catalog.ids()));
  catalog.SetDefaultGraph("snb");

  QueryEngine engine(&catalog);
  engine.set_parallelism(static_cast<size_t>(state.range(0)));
  const std::string query =
      "SELECT COUNT(*) AS triangles "
      "MATCH (a:Person)-[:knows]->(b), (b:Person)-[:knows]->(c), "
      "(c:Person)-[:knows]->(a)";
  size_t rows = 0;
  for (auto _ : state) {
    auto r = engine.Execute(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows = r->table->NumRows();
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ChainTriangle)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
