// Join-subsystem tests for the bushy/WCOJ refactor: plan-shape goldens
// (triangle/diamond → MultiwayExpand, bushy DP trees, build-side swap),
// differential pins of MultiwayExpand output against the legacy walk and
// the binary-join plan at parallelism 1/2/8, determinism of the multiway
// operator under the morsel protocol, the EXPLAIN ANALYZE intermediate
// comparison of the acceptance criteria, the rewrite on skewed SNB
// graphs, and the parallel LeftOuterJoin composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>

#include "engine/engine.h"
#include "eval/binding_ops.h"
#include "eval/matcher.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "plan/cost.h"
#include "plan/planner.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"
#include "tests/plan/cycle_graph.h"

namespace gcore {
namespace {

/// Order-insensitive canonical form (differential comparisons).
std::vector<std::string> Canonical(const BindingTable& table) {
  std::vector<std::string> columns = table.columns();
  std::sort(columns.begin(), columns.end());
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (const auto& col : columns) {
      row += col + "=" + table.Get(r, col).ToString() + ";";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class WcojTest : public ::testing::Test {
 protected:
  WcojTest() {
    RegisterCycleGraph(&catalog);
    catalog.SetDefaultGraph("cyc");
  }

  std::string Explain(const std::string& query, bool multiway = true,
                      bool analyze = false) {
    QueryEngine engine(&catalog);
    engine.set_enable_multiway(multiway);
    auto r = engine.Execute(
        std::string(analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") + query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    std::string out;
    for (size_t i = 0; i < r->table->NumRows(); ++i) {
      out += r->table->At(i, 0).AsString() + "\n";
    }
    return out;
  }

  /// MATCH bindings under an explicit configuration.
  Result<BindingTable> Bindings(const std::string& query, bool use_planner,
                                bool multiway, size_t parallelism,
                                size_t morsel_size = 0) {
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    parsed_.push_back(std::move(*parsed));
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = default_graph;
    ctx.use_planner = use_planner;
    ctx.enable_multiway = multiway;
    ctx.parallelism = parallelism;
    ctx.morsel_size = morsel_size;
    Matcher matcher(ctx);
    return matcher.EvalMatchClause(*parsed_.back()->body->basic->match);
  }

  GraphCatalog catalog;
  std::string default_graph = "cyc";
  std::vector<std::unique_ptr<Query>> parsed_;
};

// --- plan-shape goldens ------------------------------------------------------

TEST_F(WcojTest, TrianglePlanUsesMultiwayExpand) {
  const std::string plan = Explain(kTriangleQuery);
  EXPECT_NE(plan.find("MultiwayExpand cycle=["), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  // The seed scan survives below the cycle and the node carries an
  // estimate like any other operator.
  EXPECT_NE(plan.find("NodeScan (a:P)"), std::string::npos) << plan;
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      plan, m, std::regex(R"(MultiwayExpand[^\n]*est_rows=)")))
      << plan;
}

TEST_F(WcojTest, SingleChainTrianglePlanUsesMultiwayExpand) {
  const std::string plan = Explain(kSingleChainTriangle);
  EXPECT_NE(plan.find("MultiwayExpand"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("ExpandEdge"), std::string::npos) << plan;
}

TEST_F(WcojTest, DiamondPlanUsesMultiwayExpand) {
  const std::string plan = Explain(kDiamondQuery);
  EXPECT_NE(plan.find("MultiwayExpand"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
}

// enable_multiway=false reproduces the binary planner: it ablates only
// the rewrite.
TEST_F(WcojTest, FlagsDisableTheRewrite) {
  const std::string binary = Explain(kTriangleQuery, /*multiway=*/false);
  EXPECT_EQ(binary.find("MultiwayExpand"), std::string::npos) << binary;
  EXPECT_NE(binary.find("HashJoin"), std::string::npos) << binary;
}

// Stats-absent locations keep the seed plan shape: no estimates, no
// rewrite, source-order left-deep joins.
TEST_F(WcojTest, UnknownGraphKeepsBinaryPlan) {
  const std::string plan = Explain(
      "CONSTRUCT (a) MATCH (a:P)-[x:e]->(b:P) ON nowhere, "
      "(b)-[y:e]->(c:P) ON nowhere, (c)-[z:e]->(a) ON nowhere");
  EXPECT_EQ(plan.find("MultiwayExpand"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

// --- differential pins -------------------------------------------------------

// MultiwayExpand output == legacy tree-walk == binary-join plan, as sets,
// with identical schemas, at every parallelism degree (1-row morsels
// force real multi-morsel execution on the toy data).
TEST_F(WcojTest, TriangleDifferentialAcrossEnginesAndParallelism) {
  for (const char* query :
       {kTriangleQuery, kSingleChainTriangle, kDiamondQuery}) {
    auto legacy = Bindings(query, /*use_planner=*/false, false, 1);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    auto binary = Bindings(query, /*use_planner=*/true, false, 1);
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    EXPECT_EQ(Canonical(*legacy), Canonical(*binary)) << query;
    EXPECT_FALSE(legacy->Empty()) << query;  // the closures guarantee hits
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      auto multiway = Bindings(query, /*use_planner=*/true, true,
                               parallelism, /*morsel_size=*/2);
      ASSERT_TRUE(multiway.ok()) << multiway.status().ToString();
      EXPECT_EQ(multiway->columns(), legacy->columns())
          << query << " p=" << parallelism;
      EXPECT_EQ(Canonical(*multiway), Canonical(*legacy))
          << query << " p=" << parallelism;
    }
  }
}

// Reversed (<-) and undirected (-[]-) cycle edges exercise the In-span
// and merged-span arms of the intersection; the rewrite fires (the
// bounds are direction-symmetric / sum both spans) and output matches
// the legacy walk and the binary plan.
TEST_F(WcojTest, ReversedAndUndirectedCyclesDifferential) {
  const char* reversed =
      "CONSTRUCT (a) MATCH (a:P)<-[x:e]-(b:P), (b)<-[y:e]-(c:P), "
      "(c)<-[z:e]-(a)";
  const char* undirected =
      "CONSTRUCT (a) MATCH (a:P)-[x:e]-(b:P), (b)-[y:e]-(c:P), "
      "(c)-[z:e]-(a)";
  for (const char* query : {reversed, undirected}) {
    const std::string plan = Explain(query);
    EXPECT_NE(plan.find("MultiwayExpand"), std::string::npos)
        << query << "\n" << plan;
    auto legacy = Bindings(query, /*use_planner=*/false, false, 1);
    auto binary = Bindings(query, /*use_planner=*/true, false, 1);
    ASSERT_TRUE(legacy.ok() && binary.ok()) << query;
    EXPECT_FALSE(legacy->Empty()) << query;
    EXPECT_EQ(Canonical(*legacy), Canonical(*binary)) << query;
    for (size_t parallelism : {size_t{1}, size_t{8}}) {
      auto multiway = Bindings(query, /*use_planner=*/true, true,
                               parallelism, /*morsel_size=*/2);
      ASSERT_TRUE(multiway.ok()) << multiway.status().ToString();
      EXPECT_EQ(multiway->columns(), legacy->columns()) << query;
      EXPECT_EQ(Canonical(*multiway), Canonical(*legacy))
          << query << " p=" << parallelism;
    }
  }
}

// The operator's output is deterministic row-for-row (not only as a
// set) across parallelism degrees — candidates ascend by node id, edge
// bindings by edge id, morsels reassemble in input order.
TEST_F(WcojTest, MultiwayOutputDeterministicAcrossParallelism) {
  auto p1 = Bindings(kTriangleQuery, true, true, 1, 2);
  auto p2 = Bindings(kTriangleQuery, true, true, 2, 2);
  auto p8 = Bindings(kTriangleQuery, true, true, 8, 2);
  ASSERT_TRUE(p1.ok() && p2.ok() && p8.ok());
  EXPECT_EQ(p1->ToString(), p2->ToString());
  EXPECT_EQ(p1->ToString(), p8->ToString());
}

// Acceptance: on the triangle, the multiway plan's measured intermediate
// (MultiwayExpand actual_rows) undercuts the binary plan's largest
// intermediate (the wedge join), and both agree on the final count.
TEST_F(WcojTest, AnalyzeShowsMultiwayBeatsBinaryIntermediates) {
  const std::string multiway =
      Explain(kTriangleQuery, true, /*analyze=*/true);
  const std::string binary =
      Explain(kTriangleQuery, false, /*analyze=*/true);

  auto actuals = [](const std::string& plan, const char* op) {
    std::vector<int64_t> out;
    std::regex pattern(std::string(op) + R"([^\n]*actual_rows=(\d+))");
    for (std::sregex_iterator it(plan.begin(), plan.end(), pattern), end;
         it != end; ++it) {
      out.push_back(std::stoll((*it)[1]));
    }
    return out;
  };
  const auto multi_rows = actuals(multiway, "MultiwayExpand");
  ASSERT_EQ(multi_rows.size(), 1u) << multiway;
  const auto join_rows = actuals(binary, "HashJoin");
  ASSERT_FALSE(join_rows.empty()) << binary;
  const int64_t binary_peak =
      *std::max_element(join_rows.begin(), join_rows.end());
  EXPECT_LT(multi_rows[0], binary_peak) << multiway << "\n" << binary;

  // Same final Project count either way.
  const auto multi_final = actuals(multiway, "Project");
  const auto binary_final = actuals(binary, "Project");
  ASSERT_EQ(multi_final.size(), 1u);
  ASSERT_EQ(binary_final.size(), 1u);
  EXPECT_EQ(multi_final[0], binary_final[0]);
}

// --- skewed SNB --------------------------------------------------------------

// SNB's `knows` degrees are skewed, so a worst-case (max-degree) bound on
// the cycle's output loses to the binary plan's average-degree estimate
// and the construct workload's triangle would never rewrite. Priced by
// the binary plan's own estimator, it rewrites on every seed, and its
// bindings stay the legacy walk's.
TEST_F(WcojTest, SkewedSnbTriangleRewritesAndMatchesLegacy) {
  const std::string triangle =
      "CONSTRUCT (a)-[:triangle]->(b) "
      "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person)"
      "-[:knows]->(a)";
  default_graph = "snb";
  for (const uint64_t seed : {uint64_t{1}, uint64_t{42}}) {
    snb::GeneratorOptions options;
    options.num_persons = 300;
    options.seed = seed;
    catalog.RegisterGraph("snb", snb::Generate(options, catalog.ids()));
    catalog.SetDefaultGraph("snb");

    const std::string plan = Explain(triangle);
    EXPECT_NE(plan.find("MultiwayExpand"), std::string::npos)
        << "seed " << seed << "\n" << plan;
    EXPECT_EQ(plan.find("ExpandEdge"), std::string::npos)
        << "seed " << seed << "\n" << plan;

    auto legacy = Bindings(triangle, /*use_planner=*/false, false, 1);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    EXPECT_FALSE(legacy->Empty()) << "seed " << seed;
    for (const size_t parallelism : {size_t{1}, size_t{3}}) {
      auto multiway =
          Bindings(triangle, /*use_planner=*/true, true, parallelism);
      ASSERT_TRUE(multiway.ok()) << multiway.status().ToString();
      EXPECT_EQ(multiway->columns(), legacy->columns()) << "seed " << seed;
      EXPECT_EQ(Canonical(*multiway), Canonical(*legacy))
          << "seed " << seed << " p=" << parallelism;
    }
  }
}

// --- bushy enumeration -------------------------------------------------------

// Two strongly-reducing clusters joined by a cross product: the DP emits
// the bushy tree (join of joins) instead of a left-deep chain, because
// either left-deep interleaving pays a far larger intermediate.
TEST(BushyJoinTest, TwoClustersProduceABushyTree) {
  GraphCatalog catalog;
  GraphBuilder b("bushy", catalog.ids());
  // Cluster 1: 100 :S --:p--> 100 :M --:q--> :U nodes carrying u = i % 5
  // (the u = 1 filter keeps ~20); cluster 2 mirrors it over :T/:N/:V.
  // Each cluster join shrinks (≈3 rows estimated), while interleaving
  // the clusters pays the unfiltered cross products — so C_out favors
  // (c1 ⋈ c2) × (c3 ⋈ c4), the bushy shape.
  for (int i = 0; i < 100; ++i) {
    const NodeId s = b.AddNode({"S"});
    const NodeId m = b.AddNode({"M"});
    const NodeId u = b.AddNode({"U"}, {{"u", int64_t{i % 5}}});
    b.AddEdge(s, m, "p");
    b.AddEdge(m, u, "q");
  }
  for (int i = 0; i < 100; ++i) {
    const NodeId t = b.AddNode({"T"});
    const NodeId n = b.AddNode({"N"});
    const NodeId v = b.AddNode({"V"}, {{"v", int64_t{i % 5}}});
    b.AddEdge(t, n, "r");
    b.AddEdge(n, v, "s");
  }
  catalog.RegisterGraph("bushy", b.Build());
  catalog.SetDefaultGraph("bushy");

  auto parsed = ParseQuery(
      "CONSTRUCT (a) MATCH (a:S)-[:p]->(m:M), (m:M)-[:q]->(c:U {u=1}), "
      "(t:T)-[:r]->(n:N), (n:N)-[:s]->(f:V {v=1})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MatcherContext ctx;
  ctx.catalog = &catalog;
  ctx.default_graph = "bushy";
  Matcher matcher(ctx);
  Planner planner(&matcher, PlannerOptions::FromContext(ctx));
  auto plan = planner.PlanMatch(*(*parsed)->body->basic->match);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const PlanNode* node = plan->get();
  while (node->op != PlanOp::kHashJoin) {
    ASSERT_FALSE(node->children.empty());
    node = node->children[0].get();
  }
  // Bushy: both inputs of the top join are joins themselves.
  EXPECT_EQ(node->children[0]->op, PlanOp::kHashJoin) << (*plan)->ToString();
  EXPECT_EQ(node->children[1]->op, PlanOp::kHashJoin) << (*plan)->ToString();

  // And the bushy plan computes the same bindings as the legacy walk.
  auto via_plan = matcher.EvalMatchClause(*(*parsed)->body->basic->match);
  ASSERT_TRUE(via_plan.ok()) << via_plan.status().ToString();
  MatcherContext legacy_ctx = ctx;
  legacy_ctx.use_planner = false;
  Matcher legacy(legacy_ctx);
  auto via_walk = legacy.EvalMatchClause(*(*parsed)->body->basic->match);
  ASSERT_TRUE(via_walk.ok()) << via_walk.status().ToString();
  EXPECT_EQ(via_plan->columns(), via_walk->columns());
  EXPECT_EQ(Canonical(*via_plan), Canonical(*via_walk));
}

// --- build-side swap ---------------------------------------------------------

class BuildSideTest : public ::testing::Test {
 protected:
  BuildSideTest() {
    GraphBuilder b("skew", catalog.ids());
    // 4 :Small nodes vs 200 :Big nodes sharing the key k — the Big chain
    // is ≫ 4× the Small chain, which trips the swap rule.
    for (int i = 0; i < 4; ++i) {
      b.AddNode({"Small"}, {{"k", int64_t{i}}});
    }
    for (int i = 0; i < 200; ++i) {
      b.AddNode({"Big"}, {{"k", int64_t{i % 4}}});
    }
    catalog.RegisterGraph("skew", b.Build());
    catalog.SetDefaultGraph("skew");
  }

  Result<QueryResult> Run(const std::string& query, bool use_planner) {
    QueryEngine engine(&catalog);
    engine.set_use_planner(use_planner);
    return engine.Execute(query);
  }

  GraphCatalog catalog;
};

TEST_F(BuildSideTest, SkewedJoinMarksSwapBuildAndPreservesResults) {
  const std::string query =
      "SELECT s.k AS k MATCH (s:Small), (g:Big) WHERE s.k = g.k "
      "ORDER BY k";
  auto with = Run("EXPLAIN " + query, true);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  std::string plan;
  for (size_t i = 0; i < with->table->NumRows(); ++i) {
    plan += with->table->At(i, 0).AsString() + "\n";
  }
  EXPECT_NE(plan.find("HashJoin swap_build"), std::string::npos) << plan;

  // The swapped plan's result is the spec's (canonical column order
  // re-merged).
  auto swapped = Run(query, true);
  auto spec = Run(query, false);
  ASSERT_TRUE(swapped.ok() && spec.ok());
  Table a = std::move(*swapped->table);
  Table c = std::move(*spec->table);
  a.SortRows();
  c.SortRows();
  EXPECT_EQ(a.ToString(), c.ToString());
}

// The swapped streaming join (build over a, probe b) produces the same
// set as TableJoin with canonical schema and provenance (only row order
// may differ).
TEST(SwapBuildJoinTest, CanonicalSchemaAndSameRowSet) {
  BindingTable a({"x", "y"});
  a.SetColumnGraph("x", "ga");
  a.SetColumnGraph("y", "ga");
  BindingTable b({"y", "z"});
  b.SetColumnGraph("y", "gb");
  b.SetColumnGraph("z", "gb");
  for (uint64_t i = 0; i < 30; ++i) {
    Status st = a.AddRow({Datum::OfNode(NodeId(i)),
                          Datum::OfNode(NodeId(100 + i % 4))});
    ASSERT_TRUE(st.ok());
  }
  for (uint64_t j = 0; j < 12; ++j) {
    Status st = b.AddRow({Datum::OfNode(NodeId(100 + j % 6)),
                          Datum::OfNode(NodeId(200 + j))});
    ASSERT_TRUE(st.ok());
  }
  const BindingTable plain = TableJoin(a, b);
  StreamingJoinProbe probe(a, /*swap_output=*/true);
  probe.Probe(b);
  const BindingTable swapped = probe.Finish();
  EXPECT_EQ(swapped.columns(), plain.columns());
  EXPECT_EQ(swapped.ColumnGraph("y"), plain.ColumnGraph("y"));
  EXPECT_EQ(swapped.ColumnGraph("z"), plain.ColumnGraph("z"));
  EXPECT_EQ(Canonical(swapped), Canonical(plain));
  EXPECT_EQ(swapped.NumRows(), plain.NumRows());
}

}  // namespace
}  // namespace gcore
