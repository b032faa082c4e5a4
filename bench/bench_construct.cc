// CONSTRUCT and graph-algebra benchmarks: grouping/skolem throughput,
// aggregation (COUNT over groups), identity-preserving copies, stored-path
// materialization, `CONSTRUCT g, ...` (the input graph unioned with new
// objects), and the Appendix A.5 set operations that make the language
// closed. scripts/run_bench.sh records them in BENCH_construct.json.
#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "eval/binding_ops.h"
#include "graph/graph_ops.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace {

struct Fixture {
  GraphCatalog catalog;
  std::unique_ptr<QueryEngine> engine;

  explicit Fixture(size_t persons) {
    snb::GeneratorOptions options;
    options.num_persons = persons;
    catalog.RegisterGraph("snb", snb::Generate(options, catalog.ids()));
    catalog.SetDefaultGraph("snb");
    engine = std::make_unique<QueryEngine>(&catalog);
    // CONSTRUCT is serial; a serial MATCH keeps the numbers about it.
    engine->set_parallelism(1);
  }
};

void BM_IdentityConstruct(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute("CONSTRUCT (n)-[e]->(m) MATCH (n)-[e]->(m)");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("bound identities: copy the whole graph through a query");
}
BENCHMARK(BM_IdentityConstruct)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_GroupingSkolem(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(
        "CONSTRUCT (x GROUP e :Emp {name:=e})<-[:worksAt]-(n) "
        "MATCH (n:Person {employer=e})");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("GROUP aggregation: company nodes via skolems (Q5 shape)");
}
BENCHMARK(BM_GroupingSkolem)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_CountAggregatePerEdge(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(
        "CONSTRUCT (n) SET n.degree := COUNT(*) "
        "MATCH (n:Person)-[:knows]->(m)");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("per-node COUNT(*) aggregation (Q10 shape)");
}
BENCHMARK(BM_CountAggregatePerEdge)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_StoredPathsConstruct(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(
        "CONSTRUCT (n)-/@p:nearest/->(m) "
        "MATCH (n:Person)-/p<:knows*>/->(m:Person) "
        "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("stored shortest paths: bodies share prefixes (@p)");
}
BENCHMARK(BM_StoredPathsConstruct)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_GraphUnionConstruct(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(
        "CONSTRUCT snb, (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
        "MATCH (n:Person {employer=e})");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("CONSTRUCT g, ...: the input graph unioned with new objects");
}
BENCHMARK(BM_GraphUnionConstruct)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_GraphSetOps(benchmark::State& state) {
  IdAllocator ids;
  snb::GeneratorOptions options;
  options.num_persons = static_cast<size_t>(state.range(0));
  PathPropertyGraph g1 = snb::Generate(options, &ids);
  options.seed = 43;  // overlapping id universes? no — disjoint graphs
  PathPropertyGraph g2 = g1;  // identical copy: worst-case overlap
  for (auto _ : state) {
    PathPropertyGraph u = GraphUnion(g1, g2);
    PathPropertyGraph i = GraphIntersect(g1, g2);
    PathPropertyGraph d = GraphMinus(g1, g2);
    benchmark::DoNotOptimize(u);
    benchmark::DoNotOptimize(i);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel("UNION + INTERSECT + MINUS on fully-overlapping graphs");
}
BENCHMARK(BM_GraphSetOps)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_BindingJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BindingTable a({"x", "y"});
  BindingTable b({"y", "z"});
  for (size_t i = 0; i < n; ++i) {
    benchmark::DoNotOptimize(
        a.AddRow({Datum::OfNode(NodeId(i)), Datum::OfNode(NodeId(i % 64))}));
    benchmark::DoNotOptimize(
        b.AddRow({Datum::OfNode(NodeId(i % 64)), Datum::OfNode(NodeId(i))}));
  }
  for (auto _ : state) {
    BindingTable j = TableJoin(a, b);
    benchmark::DoNotOptimize(j);
  }
  state.SetLabel("hash natural join, 64-way skewed key");
}
BENCHMARK(BM_BindingJoin)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_OptionalLeftJoin(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = f.engine->Execute(
        "CONSTRUCT (n) SET n.msgs := COUNT(*) "
        "MATCH (n:Person) OPTIONAL (msg)-[:has_creator]->(n)");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("OPTIONAL left outer join + aggregation");
}
BENCHMARK(BM_OptionalLeftJoin)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
