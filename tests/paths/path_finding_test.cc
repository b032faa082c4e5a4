// Tests for the product-automaton path machinery: reachability, (k-)
// shortest conforming walks, weighted PATH views, ALL-paths projection,
// and the plain BFS oracle of the product search.
#include <gtest/gtest.h>

#include <deque>
#include <limits>

#include "graph/graph_builder.h"
#include "graph/snapshot.h"
#include "parser/parser.h"
#include "paths/all_paths.h"
#include "paths/k_shortest.h"
#include "paths/product_bfs.h"

namespace gcore {
namespace {

// A chain with a shortcut and a label change:
//   1 -a-> 2 -a-> 3 -a-> 4
//   1 -b-> 4
//   4 -a-> 5,   3 -c-> 5
struct TestGraph {
  PathPropertyGraph g;
  std::unique_ptr<GraphSnapshot> snap;

  TestGraph() {
    for (uint64_t i = 1; i <= 5; ++i) g.AddNode(NodeId(i));
    add_edge(10, 1, 2, "a");
    add_edge(11, 2, 3, "a");
    add_edge(12, 3, 4, "a");
    add_edge(13, 1, 4, "b");
    add_edge(14, 4, 5, "a");
    add_edge(15, 3, 5, "c");
    g.AddLabel(NodeId(3), "Hub");
    snap = std::make_unique<GraphSnapshot>(g);
  }

  void add_edge(uint64_t id, uint64_t s, uint64_t d, const char* label) {
    ASSERT_TRUE(g.AddEdge(EdgeId(id), NodeId(s), NodeId(d)).ok());
    g.AddLabel(EdgeId(id), label);
  }

  PathSearchContext Ctx(const Nfa* nfa,
                        const PathViewRegistry* views = nullptr) const {
    PathSearchContext ctx;
    ctx.snap = snap.get();
    ctx.nfa = nfa;
    ctx.views = views;
    return ctx;
  }
};

Nfa CompileRegex(const std::string& text) {
  auto r = ParseRpq(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return Nfa::Compile(**r);
}

TEST(Reachability, StarIncludesSource) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto reachable = ReachableFrom(t.Ctx(&nfa), NodeId(1));
  ASSERT_TRUE(reachable.ok());
  // 1 (empty walk), 2, 3, 4 (via a a a), 5 (via a a a a).
  EXPECT_EQ(*reachable,
            (std::set<NodeId>{NodeId(1), NodeId(2), NodeId(3), NodeId(4),
                              NodeId(5)}));
}

TEST(Reachability, PlusExcludesSourceWithoutCycle) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a+");
  auto reachable = ReachableFrom(t.Ctx(&nfa), NodeId(1));
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(reachable->count(NodeId(1)), 0u);
  EXPECT_EQ(reachable->count(NodeId(2)), 1u);
}

TEST(Reachability, LabelConstrained) {
  TestGraph t;
  Nfa nfa = CompileRegex(":b");
  auto reachable = ReachableFrom(t.Ctx(&nfa), NodeId(1));
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(*reachable, (std::set<NodeId>{NodeId(4)}));
}

TEST(Reachability, InverseDirection) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a-");
  auto reachable = ReachableFrom(t.Ctx(&nfa), NodeId(2));
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(*reachable, (std::set<NodeId>{NodeId(1)}));
}

TEST(Reachability, NodeTestGuards) {
  TestGraph t;
  // Walk a-edges but only through a node labeled Hub.
  Nfa nfa = CompileRegex(":a !Hub :a");
  auto reachable = ReachableFrom(t.Ctx(&nfa), NodeId(2));
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(*reachable, (std::set<NodeId>{NodeId(4)}));
  // From node 1: 1-a->2 but 2 is not Hub.
  auto from1 = ReachableFrom(t.Ctx(&nfa), NodeId(1));
  ASSERT_TRUE(from1.ok());
  EXPECT_TRUE(from1->empty());
}

TEST(Reachability, IsReachablePair) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto yes = IsReachable(t.Ctx(&nfa), NodeId(1), NodeId(5));
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Nfa c = CompileRegex(":c");
  auto no = IsReachable(t.Ctx(&c), NodeId(1), NodeId(5));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(ShortestPath, FindsMinimalHopWalk) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(1), NodeId(5));
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->has_value());
  // 1-b->4-a->5 is 2 hops, beating 1-a->2-a->3 routes.
  EXPECT_EQ((*sp)->body.edges.size(), 2u);
  EXPECT_EQ((*sp)->body.nodes.front(), NodeId(1));
  EXPECT_EQ((*sp)->body.nodes.back(), NodeId(5));
}

TEST(ShortestPath, RespectsRegexEvenIfLonger) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(1), NodeId(5));
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->has_value());
  EXPECT_EQ((*sp)->body.edges.size(), 4u);  // must avoid the b shortcut
  for (EdgeId e : (*sp)->body.edges) {
    EXPECT_TRUE(t.g.Labels(e).Contains("a"));
  }
}

TEST(ShortestPath, NoneWhenUnreachable) {
  TestGraph t;
  Nfa nfa = CompileRegex(":c");
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(1), NodeId(2));
  ASSERT_TRUE(sp.ok());
  EXPECT_FALSE(sp->has_value());
}

TEST(ShortestPath, EmptyWalkWhenSourceEqualsTargetAndNullableRegex) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(3), NodeId(3));
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->has_value());
  EXPECT_EQ((*sp)->body.edges.size(), 0u);
  EXPECT_EQ((*sp)->body.nodes, std::vector<NodeId>{NodeId(3)});
}

TEST(ShortestPath, BodyIsValidWalk) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto all = ShortestPathsFrom(t.Ctx(&nfa), NodeId(1));
  ASSERT_TRUE(all.ok());
  for (const auto& [dst, found] : *all) {
    ASSERT_EQ(found.body.nodes.size(), found.body.edges.size() + 1);
    for (size_t i = 0; i < found.body.edges.size(); ++i) {
      const auto [s, d] = t.g.EdgeEndpoints(found.body.edges[i]);
      const NodeId a = found.body.nodes[i];
      const NodeId b = found.body.nodes[i + 1];
      EXPECT_TRUE((s == a && d == b) || (s == b && d == a));
    }
  }
}

TEST(KShortest, ReturnsAtMostKInCostOrder) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto paths = KShortestPaths(t.Ctx(&nfa), NodeId(1), NodeId(4), 3);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 3u);
  EXPECT_LE((*paths)[0].cost, (*paths)[1].cost);
  EXPECT_LE((*paths)[1].cost, (*paths)[2].cost);
  EXPECT_EQ((*paths)[0].body.edges.size(), 1u);  // the b shortcut
}

TEST(KShortest, DistinctBodies) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto paths = KShortestPaths(t.Ctx(&nfa), NodeId(1), NodeId(5), 4);
  ASSERT_TRUE(paths.ok());
  for (size_t i = 0; i < paths->size(); ++i) {
    for (size_t j = i + 1; j < paths->size(); ++j) {
      EXPECT_FALSE((*paths)[i].body == (*paths)[j].body);
    }
  }
}

TEST(KShortest, KOneMatchesShortestPath) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto k1 = KShortestPaths(t.Ctx(&nfa), NodeId(1), NodeId(4), 1);
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(1), NodeId(4));
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(sp.ok());
  ASSERT_EQ(k1->size(), 1u);
  ASSERT_TRUE(sp->has_value());
  EXPECT_EQ((*k1)[0].cost, (*sp)->cost);
}

TEST(KShortest, InvalidArguments) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a");
  EXPECT_FALSE(KShortestPaths(t.Ctx(&nfa), NodeId(1), NodeId(2), 0).ok());
  EXPECT_FALSE(KShortestPaths(t.Ctx(&nfa), NodeId(99), NodeId(2), 1).ok());
  EXPECT_FALSE(KShortestPaths(t.Ctx(&nfa), NodeId(1), NodeId(99), 1).ok());
}

TEST(KShortest, DeterministicAcrossRuns) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto a = KShortestPathsFrom(t.Ctx(&nfa), NodeId(1), 3);
  auto b = KShortestPathsFrom(t.Ctx(&nfa), NodeId(1), 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (auto ita = a->begin(), itb = b->begin(); ita != a->end();
       ++ita, ++itb) {
    ASSERT_EQ(ita->second.size(), itb->second.size());
    for (size_t i = 0; i < ita->second.size(); ++i) {
      EXPECT_TRUE(ita->second[i].body == itb->second[i].body);
    }
  }
}

// --- weighted view traversal --------------------------------------------------

TEST(WeightedViews, DijkstraOverSegments) {
  TestGraph t;
  PathViewRegistry views;
  PathViewRelation rel("w");
  auto seg = [&](uint64_t s, uint64_t d, double cost,
                 std::vector<uint64_t> edge_ids,
                 std::vector<uint64_t> node_ids) {
    PathViewSegment segment;
    segment.src = NodeId(s);
    segment.dst = NodeId(d);
    segment.cost = cost;
    for (uint64_t n : node_ids) segment.body.nodes.push_back(NodeId(n));
    for (uint64_t e : edge_ids) segment.body.edges.push_back(EdgeId(e));
    ASSERT_TRUE(rel.AddSegment(segment).ok());
  };
  seg(1, 2, 0.5, {10}, {1, 2});
  seg(2, 3, 0.5, {11}, {2, 3});
  seg(1, 4, 5.0, {13}, {1, 4});
  seg(3, 4, 0.25, {12}, {3, 4});
  views.Register(std::move(rel));

  Nfa nfa = CompileRegex("~w*");
  auto sp = ShortestPath(t.Ctx(&nfa, &views), NodeId(1), NodeId(4));
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->has_value());
  // 1→2→3→4 costs 1.25, cheaper than the direct 5.0 segment.
  EXPECT_DOUBLE_EQ((*sp)->cost, 1.25);
  EXPECT_EQ((*sp)->body.edges.size(), 3u);
  EXPECT_EQ((*sp)->body.nodes,
            (std::vector<NodeId>{NodeId(1), NodeId(2), NodeId(3), NodeId(4)}));
}

TEST(WeightedViews, NonPositiveCostRejectedAtConstruction) {
  PathViewRelation rel("w");
  PathViewSegment segment;
  segment.src = NodeId(1);
  segment.dst = NodeId(2);
  segment.cost = 0.0;
  segment.body.nodes = {NodeId(1), NodeId(2)};
  segment.body.edges = {EdgeId(10)};
  EXPECT_TRUE(rel.AddSegment(segment).IsEvaluationError());
}

TEST(WeightedViews, MissingViewIsEvaluationError) {
  TestGraph t;
  Nfa nfa = CompileRegex("~nope");
  auto sp = ShortestPath(t.Ctx(&nfa), NodeId(1), NodeId(2));
  EXPECT_FALSE(sp.ok());
}

// --- ALL-paths projection --------------------------------------------------------

TEST(AllPaths, ProjectionContainsExactlyParticipatingEdges) {
  TestGraph t;
  Nfa nfa = CompileRegex(":a*");
  auto proj = AllPathsProjection(t.Ctx(&nfa), NodeId(1), NodeId(4));
  ASSERT_TRUE(proj.ok());
  // Only the chain 1-2-3-4; the b shortcut and c edge do not conform.
  EXPECT_EQ(proj->nodes, (std::set<NodeId>{NodeId(1), NodeId(2), NodeId(3),
                                           NodeId(4)}));
  EXPECT_EQ(proj->edges,
            (std::set<EdgeId>{EdgeId(10), EdgeId(11), EdgeId(12)}));
}

TEST(AllPaths, WildcardIncludesAlternatives) {
  TestGraph t;
  Nfa nfa = CompileRegex("_*");
  auto proj = AllPathsProjection(t.Ctx(&nfa), NodeId(1), NodeId(4));
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(proj->edges.count(EdgeId(13)) > 0);  // shortcut participates
  EXPECT_TRUE(proj->edges.count(EdgeId(12)) > 0);
}

TEST(AllPaths, EmptyWhenUnreachable) {
  TestGraph t;
  Nfa nfa = CompileRegex(":c");
  auto proj = AllPathsProjection(t.Ctx(&nfa), NodeId(1), NodeId(2));
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(proj->Empty());
}

// --- plain BFS oracle --------------------------------------------------------

/// Result of a single-source run; indexed by dense node index.
struct SsspResult {
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();
  std::vector<double> distance;  // kUnreachable when not reached
};

/// Unit-weight BFS over all edges (both directions optional): the oracle
/// the product search is checked against.
SsspResult BfsFrom(const AdjacencyIndex& adj, NodeId src,
                   bool follow_forward = true, bool follow_backward = false) {
  SsspResult r;
  r.distance.assign(adj.num_nodes(), SsspResult::kUnreachable);
  const DenseNodeIndex s = adj.IndexOf(src);
  r.distance[s] = 0.0;
  std::deque<DenseNodeIndex> queue{s};
  while (!queue.empty()) {
    const DenseNodeIndex n = queue.front();
    queue.pop_front();
    auto visit = [&](const AdjacencyEntry* begin, const AdjacencyEntry* end) {
      for (const AdjacencyEntry* e = begin; e != end; ++e) {
        if (r.distance[e->neighbor] != SsspResult::kUnreachable) continue;
        r.distance[e->neighbor] = r.distance[n] + 1.0;
        queue.push_back(e->neighbor);
      }
    };
    if (follow_forward) {
      auto [b, e] = adj.Out(n);
      visit(b, e);
    }
    if (follow_backward) {
      auto [b, e] = adj.In(n);
      visit(b, e);
    }
  }
  return r;
}

TEST(Sssp, BfsHopCounts) {
  TestGraph t;
  const AdjacencyIndex& adj = t.snap->adjacency();
  SsspResult r = BfsFrom(adj, NodeId(1));
  EXPECT_EQ(r.distance[adj.IndexOf(NodeId(1))], 0.0);
  EXPECT_EQ(r.distance[adj.IndexOf(NodeId(4))], 1.0);
  EXPECT_EQ(r.distance[adj.IndexOf(NodeId(5))], 2.0);
}

// Parameterized consistency: for unit costs, the product search over `_*`
// must agree with plain BFS distances.
class ProductVsBfs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProductVsBfs, WildcardStarMatchesBfsHops) {
  // Deterministic random digraph.
  PathPropertyGraph g;
  uint64_t state = GetParam() * 888888877u + 3;
  auto next = [&]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const uint64_t n = 12;
  for (uint64_t i = 1; i <= n; ++i) g.AddNode(NodeId(i));
  for (int i = 0; i < 30; ++i) {
    const NodeId a(1 + next() % n);
    const NodeId b(1 + next() % n);
    Status st = g.AddEdge(EdgeId(1000 + i), a, b);
    (void)st;
  }
  const GraphSnapshot snap(g);
  const AdjacencyIndex& adj = snap.adjacency();
  Nfa nfa = CompileRegex("_*");
  PathSearchContext ctx;
  ctx.snap = &snap;
  ctx.nfa = &nfa;

  // `_*` crosses edges in both directions; mirror that in the BFS.
  SsspResult bfs = BfsFrom(adj, NodeId(1), /*follow_forward=*/true,
                           /*follow_backward=*/true);
  auto product = ShortestPathsFrom(ctx, NodeId(1));
  ASSERT_TRUE(product.ok());
  for (uint64_t i = 1; i <= n; ++i) {
    const double bfs_dist = bfs.distance[adj.IndexOf(NodeId(i))];
    auto it = product->find(NodeId(i));
    if (bfs_dist == SsspResult::kUnreachable) {
      EXPECT_EQ(it, product->end());
    } else {
      ASSERT_NE(it, product->end()) << "node " << i;
      EXPECT_DOUBLE_EQ(it->second.cost, bfs_dist) << "node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductVsBfs, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace gcore
