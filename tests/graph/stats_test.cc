// GraphStats tests: the snapshot sweep the catalog runs
// (CollectFromSnapshot) must match the full Collect() scan exactly, and
// the derived quantities the estimator reads (distinct counts, numeric
// ranges, average and maximum degrees, per-label buckets) must be correct
// on a known graph.
#include "graph/stats.h"

#include <gtest/gtest.h>

#include "graph/catalog.h"
#include "graph/graph_builder.h"
#include "graph/snapshot.h"

namespace gcore {
namespace {

/// 4 :A nodes (k = 0,1,0,1; v = 10,20,30,40), 2 :B nodes (one also :C),
/// edges: every A --:link--> B0 (4), B0 --:hop--> each A (4, with a
/// weight prop), one unlabeled edge B1 -> B0, one stored path.
GraphBuilder MakeKnownGraph(IdAllocator* ids) {
  GraphBuilder b("g", ids);
  std::vector<NodeId> as;
  for (int i = 0; i < 4; ++i) {
    as.push_back(b.AddNode({"A"}, {{"k", int64_t{i % 2}},
                                   {"v", int64_t{10 * (i + 1)}}}));
  }
  const NodeId b0 = b.AddNode({"B"});
  const NodeId b1 = b.AddNode({"B", "C"});
  std::vector<EdgeId> links;
  for (const NodeId a : as) links.push_back(b.AddEdge(a, b0, "link"));
  for (const NodeId a : as) b.AddEdge(b0, a, "hop", {{"weight", 1.5}});
  b.AddEdge(b1, b0, "");
  Status st = b.AddPath({as[0], b0}, {links[0]}).status();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return b;
}

/// The statistics GraphCatalog::Stats computes for `b`'s graph: the
/// column sweep over its snapshot.
GraphStats StatsOf(const GraphBuilder& b) {
  return GraphStats::CollectFromSnapshot(GraphSnapshot(b.graph()));
}

TEST(GraphStatsTest, CountsAndLabelHistograms) {
  IdAllocator ids;
  GraphBuilder builder = MakeKnownGraph(&ids);
  const GraphStats stats = StatsOf(builder);
  EXPECT_EQ(stats.num_nodes, 6u);
  EXPECT_EQ(stats.num_edges, 9u);
  EXPECT_EQ(stats.num_paths, 1u);
  EXPECT_EQ(stats.NodesWithLabel("A"), 4u);
  EXPECT_EQ(stats.NodesWithLabel("B"), 2u);
  EXPECT_EQ(stats.NodesWithLabel("C"), 1u);
  EXPECT_EQ(stats.NodesWithLabel("Z"), 0u);
  EXPECT_EQ(stats.EdgesWithLabel("link"), 4u);
  EXPECT_EQ(stats.EdgesWithLabel("hop"), 4u);
}

TEST(GraphStatsTest, PropertyDistributions) {
  IdAllocator ids;
  GraphBuilder builder = MakeKnownGraph(&ids);
  const GraphStats stats = StatsOf(builder);

  const PropertyStats& k = stats.node_props.at("k");
  EXPECT_EQ(k.count, 4u);
  EXPECT_EQ(k.distinct, 2u);
  EXPECT_TRUE(k.has_range);
  EXPECT_EQ(k.min, 0.0);
  EXPECT_EQ(k.max, 1.0);

  const PropertyStats& v = stats.node_props.at("v");
  EXPECT_EQ(v.count, 4u);
  EXPECT_EQ(v.distinct, 4u);
  EXPECT_EQ(v.min, 10.0);
  EXPECT_EQ(v.max, 40.0);

  const PropertyStats& weight = stats.edge_props.at("weight");
  EXPECT_EQ(weight.count, 4u);
  EXPECT_EQ(weight.distinct, 1u);
  EXPECT_EQ(weight.min, 1.5);
  EXPECT_EQ(weight.max, 1.5);
}

TEST(GraphStatsTest, MultiValuedPropertyCountsObjectsOnce) {
  IdAllocator ids;
  GraphBuilder b("mv", &ids);
  const NodeId n = b.AddNode({"P"}, {{"employer", "CWI"}});
  b.AddNodePropertyValue(n, "employer", Value::String("MIT"));
  b.AddNodePropertyValue(n, "employer", Value::String("MIT"));  // dup value
  const NodeId m = b.AddNode({"P"}, {{"employer", "Acme"}});
  const EdgeId e = b.AddEdge(n, m, "rated", {{"score", int64_t{3}}});
  b.AddEdgePropertyValue(e, "score", Value::Int(5));
  const GraphStats stats = StatsOf(b);
  const PropertyStats& employer = stats.node_props.at("employer");
  EXPECT_EQ(employer.count, 2u);     // two carrying objects
  EXPECT_EQ(employer.distinct, 3u);  // CWI, MIT, Acme
  EXPECT_FALSE(employer.has_range);  // strings carry no numeric range
  const PropertyStats& score = stats.edge_props.at("score");
  EXPECT_EQ(score.count, 1u);
  EXPECT_EQ(score.distinct, 2u);  // {3, 5} on one edge
  EXPECT_EQ(score.min, 3.0);
  EXPECT_EQ(score.max, 5.0);
  EXPECT_EQ(stats, GraphStats::Collect(b.graph()));
}

TEST(GraphStatsTest, AverageDegrees) {
  IdAllocator ids;
  GraphBuilder builder = MakeKnownGraph(&ids);
  const GraphStats stats = StatsOf(builder);
  // Every A has exactly one :link out-edge; B0 has four :hop out-edges
  // over two B nodes.
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("A", "link"), 1.0);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("B", "hop"), 2.0);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("A", "hop"), 0.0);
  // In-degrees key on the target: all 4 :link edges land on one of 2 Bs;
  // each A receives one :hop.
  EXPECT_DOUBLE_EQ(stats.AvgInDegree("B", "link"), 2.0);
  EXPECT_DOUBLE_EQ(stats.AvgInDegree("A", "hop"), 1.0);
  // "" buckets: any edge label / any endpoint label.
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("", ""), 9.0 / 6.0);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("A", ""), 1.0);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("B", ""), 5.0 / 2.0);
  // Unknown labels degrade to zero.
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("Z", "link"), 0.0);
  EXPECT_DOUBLE_EQ(stats.AvgOutDegree("A", "zzz"), 0.0);
}

TEST(GraphStatsTest, PerLabelPropertyDistributions) {
  IdAllocator ids;
  GraphBuilder b("pl", &ids);
  // k lives only on :A nodes (4 of them, 2 distinct values); :B nodes
  // carry a disjoint key.
  for (int i = 0; i < 4; ++i) b.AddNode({"A"}, {{"k", int64_t{i % 2}}});
  for (int i = 0; i < 6; ++i) b.AddNode({"B"}, {{"m", int64_t{i}}});
  const GraphStats stats = StatsOf(b);
  const PropertyStats* a_k = stats.NodePropStatsFor("A", "k");
  ASSERT_NE(a_k, nullptr);
  EXPECT_EQ(a_k->count, 4u);     // every :A carries k
  EXPECT_EQ(a_k->distinct, 2u);
  // The global distribution still reports the carrying fraction over all
  // nodes (4 of 10) — the independence double-charge the bucket removes.
  EXPECT_EQ(stats.node_props.at("k").count, 4u);
  EXPECT_EQ(stats.num_nodes, 10u);
  // Missing buckets answer null: the estimator's global fallback.
  EXPECT_EQ(stats.NodePropStatsFor("B", "k"), nullptr);
  EXPECT_EQ(stats.NodePropStatsFor("Z", "k"), nullptr);
  // The empty label addresses the global distribution.
  ASSERT_NE(stats.NodePropStatsFor("", "k"), nullptr);
  EXPECT_EQ(stats.NodePropStatsFor("", "k")->count, 4u);
  // The full scan agrees (per-label buckets included).
  EXPECT_EQ(stats, GraphStats::Collect(b.graph()));
}

TEST(GraphStatsTest, CatalogSeedsAndCachesPrecomputedStats) {
  GraphCatalog catalog;
  GraphBuilder builder = MakeKnownGraph(catalog.ids());
  GraphStats stats = GraphStats::Collect(builder.graph());
  catalog.RegisterGraph("g", builder.Build(), std::move(stats));
  auto cached = catalog.Stats("g");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ((*cached)->num_nodes, 6u);
  EXPECT_EQ((*cached)->node_props.at("k").distinct, 2u);
  // Re-registering without stats invalidates the seeded cache and the
  // lazy scan recomputes the same numbers.
  GraphBuilder rebuilt = MakeKnownGraph(catalog.ids());
  catalog.RegisterGraph("g", rebuilt.Build());
  auto rescanned = catalog.Stats("g");
  ASSERT_TRUE(rescanned.ok());
  EXPECT_EQ((*rescanned)->num_nodes, 6u);
  EXPECT_DOUBLE_EQ((*rescanned)->AvgOutDegree("A", "link"), 1.0);
}

}  // namespace
}  // namespace gcore
