// Data-complexity benchmark: the central claim of Section 4 is that every
// fixed G-CORE query evaluates in polynomial time in data size. We sweep
// the SNB generator (persons 100 → 6400, 4x steps) with fixed queries and
// report per-size runtimes; the shape to check is polynomial (here:
// near-linear for matches, near-linear-in-edges for path search), NOT
// exponential. google-benchmark's --benchmark_report_aggregates_only or
// the default output both show the trend.
#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace {

struct SizedFixture {
  GraphCatalog catalog;
  std::unique_ptr<QueryEngine> engine;
  size_t num_edges = 0;

  explicit SizedFixture(size_t persons) {
    snb::GeneratorOptions options;
    options.num_persons = persons;
    PathPropertyGraph g = snb::Generate(options, catalog.ids());
    num_edges = g.NumEdges();
    catalog.RegisterGraph("snb", std::move(g));
    catalog.SetDefaultGraph("snb");
    engine = std::make_unique<QueryEngine>(&catalog);
  }
};

void RunQuery(benchmark::State& state, const char* query) {
  SizedFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["persons"] = static_cast<double>(state.range(0));
  state.counters["edges"] = static_cast<double>(f.num_edges);
  // time / edges: roughly flat curve <=> linear in data size.
  state.counters["per_edge_ns"] = benchmark::Counter(
      static_cast<double>(f.num_edges),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_FilterMatch(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'");
}
BENCHMARK(BM_FilterMatch)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_TwoHopPattern(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (n)-[:coloc]->(m) "
           "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person) "
           "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
}
BENCHMARK(BM_TwoHopPattern)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_GraphAggregation(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (x GROUP e :Emp {name:=e}) "
           "MATCH (n:Person {employer=e})");
}
BENCHMARK(BM_GraphAggregation)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_ReachabilitySingleSource(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
           "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
}
BENCHMARK(BM_ReachabilitySingleSource)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_ShortestPathSingleSource(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (n)-/@p:sp{d:=c}/->(m) "
           "MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) "
           "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
}
BENCHMARK(BM_ShortestPathSingleSource)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_UnionWithInput(benchmark::State& state) {
  RunQuery(state,
           "CONSTRUCT (n)-[:coloc]->(m) "
           "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person) "
           "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
           "UNION snb");
}
BENCHMARK(BM_UnionWithInput)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
