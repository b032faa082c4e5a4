// Differential suite for the parallel/batched path kernels: every kernel
// must be *result-identical* to its serial executable spec at parallelism
// 1 / 2 / 8 —
//   BatchedReachableFrom ≡ ReachableFrom per source (incl. >64 sources,
//                          so the 64-lane wave split is exercised),
//   IsReachable (bidirectional) ≡ membership in the full fixpoint,
//   BatchedKShortestFrom ≡ KShortestPathsFrom per source, and
//   BatchedAllPathsProjection ≡ AllPathsProjection per (source, target)
//                          pair (incl. >64 targets and PATH views).
// The engine-level suite (tests/plan/parallel_test.cc) pins tables and
// path ids on top, and this file adds the 1-row-morsel degree sweep.
// Both pipelines share ExpandPathHop, so differential_test cannot see a
// kernel bug: this file is where each fast path meets its spec.
#include <gtest/gtest.h>

#include <set>

#include "eval/matcher.h"
#include "graph/snapshot.h"
#include "parser/parser.h"
#include "paths/all_paths.h"
#include "paths/batched_bfs.h"
#include "paths/k_shortest.h"
#include "paths/product_bfs.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// Deterministic pseudo-random multigraph: `nodes` nodes, `edges` edges
/// labeled "a", endpoints from an LCG. Dense enough for shortcut-induced
/// distance ties.
struct RandomGraph {
  PathPropertyGraph g;
  std::unique_ptr<GraphSnapshot> snap;
  size_t num_nodes;

  RandomGraph(size_t nodes, size_t edges) : num_nodes(nodes) {
    for (uint64_t i = 1; i <= nodes; ++i) g.AddNode(NodeId(i));
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    for (uint64_t e = 0; e < edges; ++e) {
      const uint64_t s = 1 + next() % nodes;
      uint64_t d = 1 + next() % nodes;
      if (d == s) d = 1 + d % nodes;
      const EdgeId id(1000 + e);
      if (!g.AddEdge(id, NodeId(s), NodeId(d)).ok()) std::abort();
      g.AddLabel(id, "a");
    }
    Freeze();
  }

  /// Re-freezes the snapshot after `g` changed.
  void Freeze() { snap = std::make_unique<GraphSnapshot>(g); }
};

Nfa CompileRegex(const std::string& text) {
  auto r = ParseRpq(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return Nfa::Compile(**r);
}

TEST(BatchedReachability, MatchesPerSourceAcrossWaveSplit) {
  // 100 sources > 64 forces two waves; every lane must equal the
  // single-source fixpoint.
  RandomGraph rg(100, 300);
  Nfa nfa = CompileRegex(":a*");
  PathSearchContext ctx;
  ctx.snap = rg.snap.get();
  ctx.nfa = &nfa;

  std::vector<NodeId> sources;
  for (uint64_t i = 1; i <= rg.num_nodes; ++i) sources.push_back(NodeId(i));
  std::vector<std::set<NodeId>> want;
  for (NodeId src : sources) {
    auto r = ReachableFrom(ctx, src);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want.push_back(std::move(*r));
  }
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    ctx.parallelism = parallelism;
    auto got = BatchedReachableFrom(ctx, sources);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i], want[i])
          << "source " << ToString(sources[i]) << " @ parallelism "
          << parallelism;
    }
  }
}

/// Shared fixture with a PATH view and a node label, so view-ref and
/// node-test transitions are covered too. The view covers every other
/// edge with cost 1 + (edge id mod 3).
struct ViewFixture {
  RandomGraph rg;
  PathViewRegistry views;

  ViewFixture() : rg(40, 120) {
    PathViewRelation rel("w");
    size_t i = 0;
    rg.g.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
      if (++i % 2 == 0) return;  // view over half the edges
      PathViewSegment seg;
      seg.src = src;
      seg.dst = dst;
      seg.cost = 1.0 + static_cast<double>(e.value() % 3);
      seg.body.nodes = {src, dst};
      seg.body.edges = {e};
      ASSERT_TRUE(rel.AddSegment(std::move(seg)).ok());
    });
    views.Register(std::move(rel));
    rg.g.AddLabel(NodeId(5), "Hub");
    rg.Freeze();
  }

  PathSearchContext Ctx(const Nfa* nfa) {
    PathSearchContext ctx;
    ctx.snap = rg.snap.get();
    ctx.nfa = nfa;
    ctx.views = &views;
    return ctx;
  }
};

TEST(BatchedReachability, MatchesPerSourceWithViews) {
  ViewFixture f;
  Nfa nfa = CompileRegex("(~w | :a)*");
  PathSearchContext ctx = f.Ctx(&nfa);
  std::vector<NodeId> sources;
  for (uint64_t i = 1; i <= f.rg.num_nodes; ++i) sources.push_back(NodeId(i));
  std::vector<std::set<NodeId>> want;
  for (NodeId src : sources) {
    auto r = ReachableFrom(ctx, src);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want.push_back(std::move(*r));
  }
  ctx.parallelism = 4;
  auto got = BatchedReachableFrom(ctx, sources);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i], want[i]) << "source " << ToString(sources[i]);
  }
}

TEST(BidirectionalReachability, MatchesFullFixpointAllPairs) {
  ViewFixture f;
  for (const char* regex :
       {":a*", ":a :a", "(:a-)*", "(~w | :a)*", "(:a !Hub :a)?"}) {
    Nfa nfa = CompileRegex(regex);
    PathSearchContext ctx = f.Ctx(&nfa);
    for (uint64_t s = 1; s <= f.rg.num_nodes; ++s) {
      auto full = ReachableFrom(ctx, NodeId(s));
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      for (uint64_t d = 1; d <= f.rg.num_nodes; ++d) {
        auto got = IsReachable(ctx, NodeId(s), NodeId(d));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, full->count(NodeId(d)) > 0)
            << regex << ": " << s << " -> " << d;
      }
    }
  }
}

TEST(BatchedKShortest, MatchesPerSource) {
  RandomGraph rg(60, 200);
  Nfa nfa = CompileRegex(":a*");
  PathSearchContext ctx;
  ctx.snap = rg.snap.get();
  ctx.nfa = &nfa;
  std::vector<NodeId> sources;
  for (uint64_t i = 1; i <= rg.num_nodes; i += 3) sources.push_back(NodeId(i));
  for (size_t parallelism : {size_t{1}, size_t{8}}) {
    ctx.parallelism = parallelism;
    auto got = BatchedKShortestFrom(ctx, sources, 2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < sources.size(); ++i) {
      auto want = KShortestPathsFrom(ctx, sources[i], 2);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ((*got)[i].size(), want->size());
      for (const auto& [dst, paths] : *want) {
        const auto it = (*got)[i].find(dst);
        ASSERT_NE(it, (*got)[i].end());
        ASSERT_EQ(it->second.size(), paths.size());
        for (size_t p = 0; p < paths.size(); ++p) {
          EXPECT_EQ(it->second[p].cost, paths[p].cost);
          EXPECT_EQ(it->second[p].body.nodes, paths[p].body.nodes);
          EXPECT_EQ(it->second[p].body.edges, paths[p].body.edges);
        }
      }
    }
  }
}

/// Checks the batched ALL kernel against the per-pair spec from each of
/// nodes 1..num_nodes onto each of them, at parallelism 1, 2 and 8. Pairs
/// without a conforming walk (empty spec projection) must be absent.
void ExpectAllPathsMatchSpec(PathSearchContext ctx, size_t num_nodes,
                             const std::string& regex) {
  std::vector<NodeId> sources;
  for (uint64_t i = 1; i <= num_nodes; ++i) sources.push_back(NodeId(i));
  std::vector<std::vector<std::pair<NodeId, PathProjection>>> want(
      sources.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    for (NodeId dst : sources) {  // src == dst included
      auto r = AllPathsProjection(ctx, sources[s], dst);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (!r->Empty()) want[s].emplace_back(dst, std::move(*r));
    }
  }
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    ctx.parallelism = parallelism;
    auto got = BatchedAllPathsProjection(
        ctx, sources, [](size_t, NodeId) { return true; });
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), sources.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      const AllPathsFrom& from = (*got)[s];
      ASSERT_EQ(from.targets.size(), want[s].size())
          << regex << " from " << ToString(sources[s]) << " @ parallelism "
          << parallelism;
      for (size_t i = 0; i < want[s].size(); ++i) {
        const auto& [dst, spec] = want[s][i];
        ASSERT_EQ(from.targets[i], dst);
        EXPECT_EQ(from.projections[i].nodes,
                  std::vector<NodeId>(spec.nodes.begin(), spec.nodes.end()))
            << regex << ": " << ToString(sources[s]) << " -> "
            << ToString(dst) << " @ parallelism " << parallelism;
        EXPECT_EQ(from.projections[i].edges,
                  std::vector<EdgeId>(spec.edges.begin(), spec.edges.end()))
            << regex << ": " << ToString(sources[s]) << " -> "
            << ToString(dst) << " @ parallelism " << parallelism;
      }
    }
  }
}

TEST(BatchedAllPaths, MatchesPerPairSpec) {
  {
    // 100 targets per source > 64: two backward waves per source.
    RandomGraph rg(100, 300);
    Nfa nfa = CompileRegex(":a*");
    PathSearchContext ctx;
    ctx.snap = rg.snap.get();
    ctx.nfa = &nfa;
    ExpectAllPathsMatchSpec(ctx, rg.num_nodes, ":a*");
  }
  ViewFixture f;
  for (const char* regex :
       {":a*", ":a :a", "(:a-)*", "(~w | :a)*", "(:a !Hub :a)?"}) {
    Nfa nfa = CompileRegex(regex);
    ExpectAllPathsMatchSpec(f.Ctx(&nfa), f.rg.num_nodes, regex);
  }
}

// Engine-level: the path stages on 1-row morsels at every degree — the
// batched ExpandPathHop sees the whole drained input either way, and the
// result tables (including fresh path ids) must be byte-identical to the
// serial run.
TEST(EngineDegreeSweep, PathModesOnOneRowMorsels) {
  auto run = [](const char* query, size_t parallelism) {
    GraphCatalog catalog;
    snb::RegisterToyData(&catalog);
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    const MatchClause& match = *(*parsed)->body->basic->match;
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";
    ctx.use_planner = true;
    ctx.parallelism = parallelism;
    ctx.morsel_size = 1;
    Matcher matcher(ctx);
    auto table = matcher.EvalMatchClause(match);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    std::string rendered;
    for (size_t r = 0; r < table->NumRows(); ++r) {
      for (const auto& col : table->columns()) {
        const Datum d = table->Get(r, col);
        rendered += col + "=" + d.ToString();
        if (d.kind() == Datum::Kind::kPath) {
          rendered += "#" + std::to_string(d.path().id.value());
          for (NodeId n : d.path().body.nodes) rendered += ToString(n) + ",";
          if (d.path().projection.has_value()) {
            for (NodeId n : d.path().projection->first) {
              rendered += ToString(n) + ",";
            }
            for (EdgeId e : d.path().projection->second) {
              rendered += ToString(e) + ",";
            }
          }
        }
        rendered += ";";
      }
      rendered += "\n";
    }
    return rendered;
  };
  for (const char* query :
       {"CONSTRUCT (z) MATCH (n:Person)-/<:knows*>/->(m:Person)",
        "CONSTRUCT (z) MATCH (n:Person)-/2 SHORTEST p<:knows*> COST c/->(m)",
        "CONSTRUCT (z) MATCH (n:Person)-/p<:knows*>/->(m) "
        "WHERE n.firstName = 'John'",
        "CONSTRUCT (z) MATCH (n:Person)-/ALL p<:knows*>/->(m:Person)"}) {
    const std::string serial = run(query, 1);
    EXPECT_FALSE(serial.empty()) << query;
    for (size_t parallelism : {size_t{2}, size_t{8}}) {
      EXPECT_EQ(run(query, parallelism), serial)
          << query << " @ parallelism " << parallelism;
    }
  }
}

}  // namespace
}  // namespace gcore
