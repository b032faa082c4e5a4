// Path-machinery micro-benchmarks: the evaluation cost of the paper's
// path features in isolation — reachability, 1/k-shortest, weighted view
// traversal, ALL-paths projection — as graph size and regex complexity
// grow (the "most powerful path query functionality ... while carefully
// avoiding intractable complexity" claim).
//
// The *_PerSource / *_Batched, *_PerPair / *_Batched and *_Forward /
// *_Bidirectional families are the parallel-path-engine ablation
// (scripts/run_bench.sh → BENCH_paths.json): the executable spec vs the
// 64-lane-wave and meet-in-the-middle kernels, at parallelism 1 and at
// one-thread-per-core (0).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "graph/snapshot.h"
#include "parser/parser.h"
#include "paths/all_paths.h"
#include "paths/batched_bfs.h"
#include "paths/frontier.h"
#include "paths/k_shortest.h"
#include "paths/product_bfs.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace {

/// SNB graph frozen into a snapshot, the only graph the path kernels
/// read: topology from its CSR, labels admitted through interned ids.
struct PathFixture {
  IdAllocator ids;
  PathPropertyGraph graph;
  std::unique_ptr<GraphSnapshot> snap;
  std::vector<NodeId> persons;
  NodeId src;  // first Person
  NodeId dst;  // last Person

  explicit PathFixture(size_t num_persons) {
    snb::GeneratorOptions options;
    options.num_persons = num_persons;
    graph = snb::Generate(options, &ids);
    snap = std::make_unique<GraphSnapshot>(graph);
    graph.ForEachNode([&](NodeId n) {
      if (graph.Labels(n).Contains(snb::kPerson)) persons.push_back(n);
    });
    src = persons.front();
    dst = persons.back();
  }

  PathSearchContext Ctx(const Nfa* nfa) const {
    PathSearchContext ctx;
    ctx.snap = snap.get();
    ctx.nfa = nfa;
    return ctx;
  }
};

Nfa CompileOrDie(const char* regex) {
  auto r = ParseRpq(regex);
  if (!r.ok()) std::abort();
  return Nfa::Compile(**r);
}

void BM_Reachability(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  size_t reached = 0;
  for (auto _ : state) {
    auto r = ReachableFrom(f.Ctx(&nfa), f.src);
    if (!r.ok()) state.SkipWithError("reachability failed");
    reached = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["reached"] = static_cast<double>(reached);
}
BENCHMARK(BM_Reachability)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Arg(12800)
    ->Unit(benchmark::kMillisecond);

void BM_SingleSourceShortest(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  for (auto _ : state) {
    auto r = ShortestPathsFrom(f.Ctx(&nfa), f.src);
    if (!r.ok()) state.SkipWithError("shortest failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SingleSourceShortest)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Arg(12800)
    ->Unit(benchmark::kMillisecond);

void BM_KShortest(benchmark::State& state) {
  PathFixture f(1600);
  const size_t k = static_cast<size_t>(state.range(0));
  Nfa nfa = CompileOrDie(":knows*");
  for (auto _ : state) {
    auto r = KShortestPathsFrom(f.Ctx(&nfa), f.src, k);
    if (!r.ok()) state.SkipWithError("k-shortest failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("k=" + std::to_string(k) + ", persons=1600");
}
BENCHMARK(BM_KShortest)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);

void BM_RegexComplexity(benchmark::State& state) {
  // Regex alternatives of increasing automaton size over a fixed graph:
  // evaluation is O(product) = graph × NFA states, so growth must be
  // proportional to NFA size, not exponential.
  static const char* kRegexes[] = {
      ":knows",
      ":knows :knows",
      ":knows*",
      "(:knows|:isLocatedIn)*",
      "(:knows :knows)* :isLocatedIn?",
      "!Person (:knows !Person)*",
  };
  PathFixture f(1600);
  Nfa nfa = CompileOrDie(kRegexes[state.range(0)]);
  for (auto _ : state) {
    auto r = ReachableFrom(f.Ctx(&nfa), f.src);
    if (!r.ok()) state.SkipWithError("reachability failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(kRegexes[state.range(0)]) +
                 " (nfa states: " + std::to_string(nfa.num_states()) + ")");
}
BENCHMARK(BM_RegexComplexity)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_AllPathsProjection(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  for (auto _ : state) {
    auto r = AllPathsProjection(f.Ctx(&nfa), f.src, f.dst);
    if (!r.ok()) state.SkipWithError("projection failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AllPathsProjection)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Unit(benchmark::kMillisecond);

// ALL-paths projections from one source onto every Person it reaches
// (the shape of guided-tour Q8): the per-pair spec fanned over pairs, as
// the matcher ran it before the batched kernel, vs one forward sweep plus
// 64-target backward mask waves.
void BM_AllPathsProjection_PerPair(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  PathSearchContext ctx = f.Ctx(&nfa);
  ctx.parallelism = static_cast<size_t>(state.range(1));
  size_t pairs = 0, ids = 0;
  for (auto _ : state) {
    auto reached = ReachableFrom(ctx, f.src);
    if (!reached.ok()) {
      state.SkipWithError("reachability failed");
      break;
    }
    std::vector<NodeId> targets;
    for (NodeId t : *reached) {
      if (f.graph.Labels(t).Contains(snb::kPerson)) targets.push_back(t);
    }
    // Each projection is counted and dropped: kept, the sets would take
    // gigabytes at SNB 3200.
    std::vector<size_t> sizes(targets.size(), 0);
    std::vector<char> failed(targets.size(), 0);
    ParallelFor(ctx.parallelism, targets.size(), [&](size_t i) {
      auto r = AllPathsProjection(ctx, f.src, targets[i]);
      if (r.ok()) {
        sizes[i] = r->nodes.size() + r->edges.size();
      } else {
        failed[i] = 1;
      }
    });
    if (std::find(failed.begin(), failed.end(), 1) != failed.end()) {
      state.SkipWithError("projection failed");
      break;
    }
    pairs = targets.size();
    ids = 0;
    for (size_t n : sizes) ids += n;
    benchmark::DoNotOptimize(ids);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["ids"] = static_cast<double>(ids);
  state.SetLabel("parallelism=" + std::to_string(ctx.parallelism));
}
BENCHMARK(BM_AllPathsProjection_PerPair)
    ->ArgsProduct({{200, 800, 3200}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

void BM_AllPathsProjection_Batched(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  PathSearchContext ctx = f.Ctx(&nfa);
  ctx.parallelism = static_cast<size_t>(state.range(1));
  size_t pairs = 0, ids = 0;
  for (auto _ : state) {
    auto r = BatchedAllPathsProjection(ctx, {f.src}, [&](size_t, NodeId t) {
      return f.graph.Labels(t).Contains(snb::kPerson);
    });
    if (!r.ok()) {
      state.SkipWithError("projection failed");
      break;
    }
    pairs = r->front().targets.size();
    ids = 0;
    for (const SortedProjection& p : r->front().projections) {
      ids += p.nodes.size() + p.edges.size();
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["ids"] = static_cast<double>(ids);
  state.SetLabel("parallelism=" + std::to_string(ctx.parallelism));
}
BENCHMARK(BM_AllPathsProjection_Batched)
    ->ArgsProduct({{200, 800, 3200}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

void BM_WeightedViewTraversal(benchmark::State& state) {
  // A wKnows-style view over every knows edge with property-derived cost,
  // then Dijkstra over <~w*>.
  PathFixture f(static_cast<size_t>(state.range(0)));
  PathViewRegistry views;
  PathViewRelation rel("w");
  uint64_t i = 0;
  f.graph.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (!f.graph.Labels(e).Contains(snb::kKnows)) return;
    PathViewSegment seg;
    seg.src = src;
    seg.dst = dst;
    seg.cost = 1.0 / (1.0 + static_cast<double>(i++ % 7));
    seg.body.nodes = {src, dst};
    seg.body.edges = {e};
    if (!rel.AddSegment(std::move(seg)).ok()) std::abort();
  });
  views.Register(std::move(rel));

  Nfa nfa = CompileOrDie("~w*");
  PathSearchContext ctx = f.Ctx(&nfa);
  ctx.views = &views;
  for (auto _ : state) {
    auto r = ShortestPathsFrom(ctx, f.src);
    if (!r.ok()) state.SkipWithError("weighted traversal failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WeightedViewTraversal)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Unit(benchmark::kMillisecond);

// RPQ pair query: full forward fixpoint vs the bidirectional
// meet-in-the-middle probe, src = first person, dst = last person.
void BM_RpqPair_Forward(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows* :isLocatedIn");
  PathSearchContext ctx = f.Ctx(&nfa);
  for (auto _ : state) {
    auto r = ReachableFrom(ctx, f.src);
    if (!r.ok()) state.SkipWithError("forward rpq failed");
    benchmark::DoNotOptimize(r->count(f.dst));
  }
}
BENCHMARK(BM_RpqPair_Forward)
    ->Args({2000})
    ->Args({20000})
    ->Unit(benchmark::kMillisecond);

void BM_RpqPair_Bidirectional(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows* :isLocatedIn");
  PathSearchContext ctx = f.Ctx(&nfa);
  for (auto _ : state) {
    auto r = IsReachable(ctx, f.src, f.dst);
    if (!r.ok()) state.SkipWithError("bidirectional rpq failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RpqPair_Bidirectional)
    ->Args({2000})
    ->Args({20000})
    ->Unit(benchmark::kMillisecond);

// Multi-source reachability, 64 sources: one traversal per source (what
// PathSearchOp used to launch per row) vs one 64-lane mask wave. The
// acceptance trajectory tracks the single-thread PerSource/Batched ratio
// at SNB 20k.
void BM_MultiSourceReach_PerSource(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  PathSearchContext ctx = f.Ctx(&nfa);
  const size_t n = std::min<size_t>(64, f.persons.size());
  size_t reached = 0;
  for (auto _ : state) {
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      auto r = ReachableFrom(ctx, f.persons[i]);
      if (!r.ok()) state.SkipWithError("per-source reachability failed");
      count += r->size();
    }
    reached = count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["reached"] = static_cast<double>(reached);
}
BENCHMARK(BM_MultiSourceReach_PerSource)
    ->Args({2000})
    ->Args({20000})
    ->Unit(benchmark::kMillisecond);

void BM_MultiSourceReach_Batched(benchmark::State& state) {
  PathFixture f(static_cast<size_t>(state.range(0)));
  Nfa nfa = CompileOrDie(":knows*");
  PathSearchContext ctx = f.Ctx(&nfa);
  ctx.parallelism = static_cast<size_t>(state.range(1));
  const size_t n = std::min<size_t>(64, f.persons.size());
  std::vector<NodeId> sources(f.persons.begin(), f.persons.begin() + n);
  size_t reached = 0;
  for (auto _ : state) {
    auto r = BatchedReachableFrom(ctx, sources);
    if (!r.ok()) state.SkipWithError("batched reachability failed");
    size_t count = 0;
    for (const auto& s : *r) count += s.size();
    reached = count;
    benchmark::DoNotOptimize(r);
  }
  state.counters["reached"] = static_cast<double>(reached);
  state.SetLabel("parallelism=" + std::to_string(ctx.parallelism));
}
BENCHMARK(BM_MultiSourceReach_Batched)
    ->Args({2000, 1})
    ->Args({2000, 0})
    ->Args({20000, 1})
    ->Args({20000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_AdjacencyBuild(benchmark::State& state) {
  IdAllocator ids;
  snb::GeneratorOptions options;
  options.num_persons = static_cast<size_t>(state.range(0));
  PathPropertyGraph graph = snb::Generate(options, &ids);
  for (auto _ : state) {
    AdjacencyIndex adj(graph);
    benchmark::DoNotOptimize(adj);
  }
  state.counters["edges"] = static_cast<double>(graph.NumEdges());
}
BENCHMARK(BM_AdjacencyBuild)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Arg(12800)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
