// Worst-case-optimal multiway join trajectory bench (scripts/run_bench.sh
// → BENCH_wcoj.json).
//
// Triangle count and diamond motif queries over a ring-of-communities
// toy graph (SNB-like: dense local :knows neighborhoods, bounded degree,
// plenty of closed motifs), each run through the engine twice per
// parallelism: enable_multiway=false (binary left-deep HashJoins — the
// pre-rewrite planner) vs enable_multiway=true (the cycle collapses into
// one MultiwayExpand evaluated by sorted adjacency intersection). The
// binary plan materializes every wedge (Θ(N·d²) rows) before the closing
// join can discard it; the multiway operator intersects the two incident
// neighbor lists instead and only materializes actual motif bindings.
// The acceptance numbers track the single-thread (parallelism 1) ratio;
// degrees 2 and 4 show the scaling up to all cores of the 4-CPU box the
// committed JSON is recorded on.
#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "graph/graph_builder.h"

namespace gcore {
namespace {

/// Triangle workload: 250 communities of 20 :Person nodes, member i
/// pointing at the next six (mod community) with :knows, plus 100
/// disjoint directed triangles. 5300 nodes, 30300 edges, max degree 6.
/// The directed ring steps (1..6, community 20) never wrap, so the
/// binary plan's wedge intermediate (Σ in·out ≈ 180k rows) dwarfs the
/// ~600 actual triangle bindings — the Θ(N·d²) vs output gap the
/// multiway intersection exists to close.
void RegisterTriangleGraph(GraphCatalog* catalog) {
  GraphBuilder b("tri_communities", catalog->ids());
  for (int c = 0; c < 250; ++c) {
    std::vector<NodeId> members;
    members.reserve(20);
    for (int i = 0; i < 20; ++i) members.push_back(b.AddNode({"Person"}));
    for (int i = 0; i < 20; ++i) {
      for (int step = 1; step <= 6; ++step) {
        b.AddEdge(members[i], members[(i + step) % 20], "knows");
      }
    }
  }
  for (int t = 0; t < 100; ++t) {
    const NodeId t1 = b.AddNode({"Person"});
    const NodeId t2 = b.AddNode({"Person"});
    const NodeId t3 = b.AddNode({"Person"});
    b.AddEdge(t1, t2, "knows");
    b.AddEdge(t2, t3, "knows");
    b.AddEdge(t3, t1, "knows");
  }
  catalog->RegisterGraph("tri_communities", b.Build());
  catalog->SetDefaultGraph("tri_communities");
}

/// Diamond workload: 500 communities of 10, steps 1..3 — sparser, so the
/// ~95k diamond bindings stay comparable to the wedge intermediates (the
/// honest output-bound case of the ablation).
void RegisterDiamondGraph(GraphCatalog* catalog) {
  GraphBuilder b("dia_communities", catalog->ids());
  for (int c = 0; c < 500; ++c) {
    std::vector<NodeId> members;
    members.reserve(10);
    for (int i = 0; i < 10; ++i) members.push_back(b.AddNode({"Person"}));
    for (int i = 0; i < 10; ++i) {
      for (int step = 1; step <= 3; ++step) {
        b.AddEdge(members[i], members[(i + step) % 10], "knows");
      }
    }
  }
  catalog->RegisterGraph("dia_communities", b.Build());
  catalog->SetDefaultGraph("dia_communities");
}

constexpr const char* kTriangle =
    "SELECT COUNT(*) AS motifs "
    "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), "
    "(c)-[:knows]->(a)";
constexpr const char* kDiamond =
    "SELECT COUNT(*) AS motifs "
    "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), "
    "(a)-[:knows]->(d:Person), (d)-[:knows]->(c)";

void RunMotif(benchmark::State& state, const char* query, bool multiway) {
  GraphCatalog catalog;
  if (query == kTriangle) {
    RegisterTriangleGraph(&catalog);
  } else {
    RegisterDiamondGraph(&catalog);
  }
  QueryEngine engine(&catalog);
  engine.set_enable_multiway(multiway);
  engine.set_parallelism(static_cast<size_t>(state.range(0)));
  double motifs = 0.0;
  for (auto _ : state) {
    auto r = engine.Execute(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    motifs = r->table->At(0, 0).NumericAsDouble();
    benchmark::DoNotOptimize(r);
  }
  // Both modes must count the same motifs — the differential suite pins
  // this; the counter makes it visible in the archived JSON too.
  state.counters["motifs"] = motifs;
}

void BM_TriangleBinary(benchmark::State& state) {
  RunMotif(state, kTriangle, /*multiway=*/false);
}
void BM_TriangleMultiway(benchmark::State& state) {
  RunMotif(state, kTriangle, /*multiway=*/true);
}
void BM_DiamondBinary(benchmark::State& state) {
  RunMotif(state, kDiamond, /*multiway=*/false);
}
void BM_DiamondMultiway(benchmark::State& state) {
  RunMotif(state, kDiamond, /*multiway=*/true);
}

BENCHMARK(BM_TriangleBinary)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TriangleMultiway)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiamondBinary)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiamondMultiway)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
