// Ablation: why the paper's semantics choices matter (DESIGN.md S16).
//
//   1. arbitrary-walk shortest via product automaton   — polynomial
//   2. naive enumeration of all conforming walks       — exponential
//   3. simple-path semantics (Cypher 9 / NP-complete)  — backtracking
//
// The product search scales with graph size; the baselines hit their
// expansion budgets already on small instances. The `expansions` counter
// makes the blow-up visible independent of wall-clock noise.
#include <benchmark/benchmark.h>

#include "baselines.h"

#include "graph/catalog.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "eval/matcher.h"
#include "parser/parser.h"
#include "paths/k_shortest.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace {

struct AblationFixture {
  IdAllocator ids;
  PathPropertyGraph graph;
  std::unique_ptr<GraphSnapshot> snap;
  NodeId src;
  NodeId dst;
  Nfa nfa;

  explicit AblationFixture(size_t persons)
      : nfa(Compile()) {
    snb::GeneratorOptions options;
    options.num_persons = persons;
    graph = snb::Generate(options, &ids);
    snap = std::make_unique<GraphSnapshot>(graph);
    graph.ForEachNode([&](NodeId n) {
      if (!graph.Labels(n).Contains(snb::kPerson)) return;
      if (!src.valid()) src = n;
      dst = n;
    });
  }

  static Nfa Compile() {
    auto r = ParseRpq(":knows*");
    if (!r.ok()) std::abort();
    return Nfa::Compile(**r);
  }

  PathSearchContext Ctx() const {
    PathSearchContext ctx;
    ctx.snap = snap.get();
    ctx.nfa = &nfa;
    return ctx;
  }
};

constexpr uint64_t kBudget = 2'000'000;

void BM_ProductShortest(benchmark::State& state) {
  AblationFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = ShortestPath(f.Ctx(), f.src, f.dst);
    if (!r.ok()) state.SkipWithError("product search failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("polynomial product-automaton search (G-CORE semantics)");
}
BENCHMARK(BM_ProductShortest)
    ->RangeMultiplier(2)
    ->Range(50, 1600)
    ->Unit(benchmark::kMillisecond);

void BM_NaiveWalkEnumeration(benchmark::State& state) {
  AblationFixture f(static_cast<size_t>(state.range(0)));
  const size_t max_hops = 8;
  uint64_t expansions = 0;
  bool exhausted = false;
  for (auto _ : state) {
    auto stats = bench::EnumerateConformingWalks(
        f.graph, f.snap->adjacency(), f.nfa, f.src, f.dst, max_hops, kBudget);
    expansions = stats.expansions;
    exhausted = stats.budget_exhausted;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["expansions"] = static_cast<double>(expansions);
  state.SetLabel(exhausted
                     ? "EXPONENTIAL: 2M-expansion budget exhausted (<=8 hops)"
                     : "all walks enumerated (<=8 hops)");
}
BENCHMARK(BM_NaiveWalkEnumeration)
    ->RangeMultiplier(2)
    ->Range(50, 400)
    ->Unit(benchmark::kMillisecond);

void BM_SimplePathSemantics(benchmark::State& state) {
  AblationFixture f(static_cast<size_t>(state.range(0)));
  uint64_t expansions = 0;
  bool exhausted = false;
  for (auto _ : state) {
    bench::EnumerationStats stats;
    auto best = bench::ShortestSimplePath(f.graph, f.snap->adjacency(), f.nfa,
                                          f.src, f.dst, kBudget, &stats);
    expansions = stats.expansions;
    exhausted = stats.budget_exhausted;
    benchmark::DoNotOptimize(best);
  }
  state.counters["expansions"] = static_cast<double>(expansions);
  state.SetLabel(exhausted
                     ? "NP-hard backtracking: budget exhausted"
                     : "simple-path backtracking completed");
}
BENCHMARK(BM_SimplePathSemantics)
    ->RangeMultiplier(2)
    ->Range(50, 400)
    ->Unit(benchmark::kMillisecond);

// --- selection-pushdown ablation (DESIGN.md §5 design choices) ------------------

void BM_SelectivePathQuery(benchmark::State& state, bool pushdown) {
  GraphCatalog catalog;
  snb::GeneratorOptions options;
  options.num_persons = static_cast<size_t>(state.range(0));
  catalog.RegisterGraph("snb", snb::Generate(options, catalog.ids()));
  catalog.SetDefaultGraph("snb");

  auto parsed = ParseQuery(
      "CONSTRUCT (m) MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
  if (!parsed.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  const MatchClause& match = *(*parsed)->body->basic->match;

  MatcherContext ctx;
  ctx.catalog = &catalog;
  ctx.default_graph = "snb";
  ctx.enable_pushdown = pushdown;
  for (auto _ : state) {
    Matcher matcher(ctx);
    auto bindings = matcher.EvalMatchClause(match);
    if (!bindings.ok()) {
      state.SkipWithError(bindings.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(bindings);
  }
  state.SetLabel(pushdown
                     ? "single-var WHERE conjuncts pushed before path hop"
                     : "NO pushdown: shortest paths from every person");
}

void BM_PushdownOn(benchmark::State& state) {
  BM_SelectivePathQuery(state, true);
}
void BM_PushdownOff(benchmark::State& state) {
  BM_SelectivePathQuery(state, false);
}
BENCHMARK(BM_PushdownOn)
    ->RangeMultiplier(2)
    ->Range(50, 400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PushdownOff)
    ->RangeMultiplier(2)
    ->Range(50, 400)
    ->Unit(benchmark::kMillisecond);

// --- statistics cost (BENCH_stats_ablation.json) --------------------------

/// Cost of the statistics themselves on generated SNB data — the price
/// of having real selectivities at all. BM_StatsCollect times the
/// reference scan over the PPG (GraphStats::Collect);
/// BM_StatsCollectFromSnapshot times the column sweep that
/// GraphCatalog::Stats runs, which tests pin to the same result.
void BM_StatsCollect(benchmark::State& state) {
  IdAllocator ids;
  snb::GeneratorOptions options;
  options.num_persons = static_cast<size_t>(state.range(0));
  PathPropertyGraph graph = snb::Generate(options, &ids);
  for (auto _ : state) {
    GraphStats stats = GraphStats::Collect(graph);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["nodes"] = static_cast<double>(graph.NumNodes());
  state.counters["edges"] = static_cast<double>(graph.NumEdges());
  state.SetLabel("PPG scan: label counts, per-key distinct/range, "
                 "per-bucket edge counts");
}
BENCHMARK(BM_StatsCollect)
    ->RangeMultiplier(2)
    ->Range(200, 1600)
    ->Unit(benchmark::kMillisecond);

void BM_StatsCollectFromSnapshot(benchmark::State& state) {
  IdAllocator ids;
  snb::GeneratorOptions options;
  options.num_persons = static_cast<size_t>(state.range(0));
  const GraphSnapshot snap(snb::Generate(options, &ids));
  for (auto _ : state) {
    GraphStats stats = GraphStats::CollectFromSnapshot(snap);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["nodes"] = static_cast<double>(snap.num_nodes());
  state.counters["edges"] = static_cast<double>(snap.num_edges());
  state.SetLabel("snapshot column sweep (what GraphCatalog::Stats runs)");
}
BENCHMARK(BM_StatsCollectFromSnapshot)
    ->RangeMultiplier(2)
    ->Range(200, 1600)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
