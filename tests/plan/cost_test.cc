// Unit tests for the cardinality estimator (plan/cost.h) — the first
// direct coverage of every estimator path: label selectivity (including
// the multi-label double-count regression), property equality vs
// 1/distinct, min/max range interpolation, degree-based expansion, the
// degree-aware join bound, and the no-stats fallback constants.
#include "plan/cost.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "eval/matcher.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "plan/planner.h"

namespace gcore {
namespace {

/// Test graph "g": 20 :A nodes with k = i%5 (5 distinct) and v = i
/// (distinct 20, range [0, 19]); 10 :B nodes (no properties); per A one
/// :link edge and four :link2 edges to B nodes; per B three :hop edges
/// to A nodes. The catalog computes its statistics from the snapshot.
void RegisterTestGraph(GraphCatalog* catalog) {
  GraphBuilder b("g", catalog->ids());
  std::vector<NodeId> as;
  std::vector<NodeId> bs;
  for (int i = 0; i < 20; ++i) {
    as.push_back(
        b.AddNode({"A"}, {{"k", int64_t{i % 5}}, {"v", int64_t{i}}}));
  }
  for (int i = 0; i < 10; ++i) bs.push_back(b.AddNode({"B"}));
  for (int i = 0; i < 20; ++i) {
    b.AddEdge(as[i], bs[i % 10], "link");
    for (int j = 0; j < 4; ++j) {
      b.AddEdge(as[i], bs[(i + j) % 10], "link2");
    }
  }
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 3; ++j) {
      b.AddEdge(bs[i], as[(3 * i + j) % 20], "hop");
    }
  }
  catalog->RegisterGraph("g", b.Build());
}

constexpr double kNodes = 30.0;   // 20 A + 10 B
constexpr double kASel = 20.0 / 30.0;
constexpr double kBSel = 10.0 / 30.0;

class CostTest : public ::testing::Test {
 protected:
  CostTest() {
    RegisterTestGraph(&catalog);
    catalog.SetDefaultGraph("g");
  }

  /// Plans the MATCH clause of `query` and annotates estimates.
  PlanPtr Plan(const std::string& query) {
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    parsed_queries_.push_back(std::move(*parsed));
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "g";
    Matcher matcher(ctx);
    Planner planner(&matcher, PlannerOptions::FromContext(ctx));
    auto plan =
        planner.PlanMatch(*parsed_queries_.back()->body->basic->match);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    planner.AnnotateEstimates(plan->get());
    return std::move(*plan);
  }

  /// First operator of kind `op` in pre-order.
  static const PlanNode* FindOp(const PlanNode* node, PlanOp op) {
    if (node == nullptr) return nullptr;
    if (node->op == op) return node;
    for (const auto& child : node->children) {
      const PlanNode* found = FindOp(child.get(), op);
      if (found != nullptr) return found;
    }
    return nullptr;
  }

  GraphCatalog catalog;
  std::vector<std::unique_ptr<Query>> parsed_queries_;
};

// --- label selectivity -------------------------------------------------------

TEST_F(CostTest, LabelSelectivityFromCounts) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_NEAR(scan->est_rows, 20.0, 1e-9);
  PlanPtr plan_b = Plan("CONSTRUCT (b) MATCH (b:B)");
  EXPECT_NEAR(FindOp(plan_b.get(), PlanOp::kNodeScan)->est_rows, 10.0, 1e-9);
}

// Regression (seed bug): a disjunctive group over co-occurring labels
// summed per-label counts, exceeding the object count before the clamp.
// The independence-union formula keeps the fraction strictly below 1.
TEST_F(CostTest, LabelSelectivityMultiLabelGroupDoesNotDoubleCount) {
  std::map<std::string, size_t> counts{{"X", 8}, {"Y", 8}};
  const double sel =
      CardinalityEstimator::LabelSelectivity({{"X", "Y"}}, counts, 10);
  // 1 - (1 - 0.8)² = 0.96 — NOT the saturated min(1, 16/10) = 1.0.
  EXPECT_NEAR(sel, 0.96, 1e-12);
  EXPECT_LT(sel, 1.0);
  // Single labels stay the exact fraction; conjunctions multiply.
  EXPECT_NEAR(CardinalityEstimator::LabelSelectivity({{"X"}}, counts, 10),
              0.8, 1e-12);
  EXPECT_NEAR(
      CardinalityEstimator::LabelSelectivity({{"X"}, {"Y"}}, counts, 10),
      0.64, 1e-12);
  // Unknown labels and empty totals degrade to zero; no groups pass all.
  EXPECT_EQ(CardinalityEstimator::LabelSelectivity({{"Z"}}, counts, 10),
            0.0);
  EXPECT_EQ(CardinalityEstimator::LabelSelectivity({{"X"}}, counts, 0),
            0.0);
  EXPECT_EQ(CardinalityEstimator::LabelSelectivity({}, counts, 10), 1.0);
}

TEST_F(CostTest, MultiLabelScanUsesUnionFormula) {
  // A dedicated graph where 8 of 10 nodes carry both X and Y.
  GraphBuilder b("ml", catalog.ids());
  for (int i = 0; i < 8; ++i) b.AddNode({"X", "Y"});
  for (int i = 0; i < 2; ++i) b.AddNode();
  catalog.RegisterGraph("ml", b.Build());
  PlanPtr plan = Plan("CONSTRUCT (m) MATCH (m:X|Y) ON ml");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_NEAR(scan->est_rows, 10.0 * 0.96, 1e-9);  // seed formula said 10
}

// --- property equality -------------------------------------------------------

TEST_F(CostTest, PatternPropertyFilterUsesOneOverDistinct) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A {k=2})");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  // The (label, key) bucket removes the old carrying-fraction ×
  // label-fraction double-charge: every :A node carries k, so the
  // estimate is 30 × P(:A) × (carrying 20/20) × 1/5 distinct = 4 — the
  // true count — not the seed's 30 × P(:A) × (20/30) × 1/5 ≈ 2.67.
  EXPECT_NEAR(scan->est_rows, kNodes * kASel * (1.0 / 5.0), 1e-9);
}

TEST_F(CostTest, PushedEqualityUsesOneOverDistinct) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A) WHERE a.k = 2");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  ASSERT_FALSE(scan->pushed.empty());
  // Label-restricted bucket, as above: 20 × 1/5 = 4, the exact count.
  EXPECT_NEAR(scan->est_rows, kNodes * kASel * (1.0 / 5.0), 1e-9);
  // The residual filter re-checks the pushed conjunct: no further
  // reduction is charged.
  const PlanNode* filter = FindOp(plan.get(), PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NEAR(filter->est_rows, scan->est_rows, 1e-9);
}

// A pattern without a pinned label keeps the global per-key distribution
// (the carrying fraction is then genuinely informative).
TEST_F(CostTest, UnlabeledPropertyFilterUsesGlobalDistribution) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a {k=2})");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  // 30 × (carrying 20/30) × 1/5.
  EXPECT_NEAR(scan->est_rows, kNodes * kASel * (1.0 / 5.0), 1e-9);
}

// --- range interpolation -----------------------------------------------------

TEST_F(CostTest, RangePredicateInterpolatesMinMax) {
  PlanPtr below = Plan("CONSTRUCT (a) MATCH (a:A) WHERE a.v < 10");
  ASSERT_NE(below, nullptr);
  const PlanNode* scan = FindOp(below.get(), PlanOp::kNodeScan);
  // v spans [0, 19] and every :A node carries it (the label bucket's
  // carrying fraction is 1): fraction (10-0)/19 of the 20 :A nodes.
  EXPECT_NEAR(scan->est_rows, kNodes * kASel * (10.0 / 19.0), 1e-9);
  PlanPtr above = Plan("CONSTRUCT (a) MATCH (a:A) WHERE a.v >= 10");
  EXPECT_NEAR(FindOp(above.get(), PlanOp::kNodeScan)->est_rows,
              kNodes * kASel * (9.0 / 19.0), 1e-9);
  // Literal-on-the-left comparisons flip: 10 > a.v  ⇔  a.v < 10.
  PlanPtr flipped = Plan("CONSTRUCT (a) MATCH (a:A) WHERE 10 > a.v");
  EXPECT_NEAR(FindOp(flipped.get(), PlanOp::kNodeScan)->est_rows,
              kNodes * kASel * (10.0 / 19.0), 1e-9);
  // Out-of-range constants clamp to the full carrying fraction.
  PlanPtr all = Plan("CONSTRUCT (a) MATCH (a:A) WHERE a.v < 100");
  EXPECT_NEAR(FindOp(all.get(), PlanOp::kNodeScan)->est_rows,
              kNodes * kASel, 1e-9);
}

// --- degree-based expansion --------------------------------------------------

TEST_F(CostTest, ExpansionUsesMeasuredOutDegree) {
  PlanPtr plan = Plan("CONSTRUCT (b) MATCH (b:B)-[:hop]->(a:A)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* expand = FindOp(plan.get(), PlanOp::kExpandEdge);
  ASSERT_NE(expand, nullptr);
  // 10 B sources × measured out-degree 3 × target admission P(:A).
  EXPECT_NEAR(expand->est_rows, 10.0 * 3.0 * kASel, 1e-9);
}

TEST_F(CostTest, ReverseExpansionUsesMeasuredInDegree) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A)<-[:hop]-(b:B)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* expand = FindOp(plan.get(), PlanOp::kExpandEdge);
  // 20 A anchors × avg in-degree 30/20 × P(:B).
  EXPECT_NEAR(expand->est_rows, 20.0 * 1.5 * kBSel, 1e-9);
}

// A closing edge — its target already bound below — intersects instead
// of expanding: each fanout edge lands on the bound node with probability
// 1 / that variable's domain.
TEST_F(CostTest, ClosingEdgeDividesFanoutByBoundDomain) {
  PlanPtr plan =
      Plan("CONSTRUCT (a) MATCH (a:A)-[:link]->(b:B)-[:hop]->(a)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* closing = FindOp(plan.get(), PlanOp::kExpandEdge);
  ASSERT_NE(closing, nullptr);
  ASSERT_EQ(closing->to_var, "a");
  // 20 A sources × out-degree 1 on :link × P(:B).
  const double paths = 20.0 * 1.0 * kBSel;
  EXPECT_NEAR(closing->children[0]->est_rows, paths, 1e-9);
  // 3 :hop edges per B, each hitting the bound a with probability 1/20.
  EXPECT_NEAR(closing->est_rows, paths * 3.0 / 20.0, 1e-9);
}

// --- join bound --------------------------------------------------------------

TEST_F(CostTest, CorrelatedJoinUsesDegreeAwareBound) {
  PlanPtr plan = Plan(
      "CONSTRUCT (y) MATCH (x:A)-[:link2]->(y:B), (z:A)-[:link2]->(y:B)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* join = FindOp(plan.get(), PlanOp::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->join_correlated);
  EXPECT_EQ(join->join_vars, std::vector<std::string>{"y"});
  // Each chain: 30 × P(:A) × degree 4 × P(:B) = 80/3; the shared key y
  // has domain |:B| = 10 < chain size, so the bound divides by 10
  // instead of saturating at max(L, R).
  const double chain = kNodes * kASel * 4.0 * kBSel;
  EXPECT_NEAR(join->est_rows, chain * chain / 10.0, 1e-6);
  EXPECT_GT(join->est_rows, chain);  // strictly above the seed's max()
}

TEST_F(CostTest, IndependentJoinIsCrossProduct) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A), (b:B)");
  ASSERT_NE(plan, nullptr);
  const PlanNode* join = FindOp(plan.get(), PlanOp::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_FALSE(join->join_correlated);
  EXPECT_TRUE(join->join_vars.empty());
  EXPECT_NEAR(join->est_rows, 20.0 * 10.0, 1e-9);
}

// A correlated join whose shared keys have no measurable domain keeps the
// max-of-inputs guess.
TEST_F(CostTest, SeedModelJoinFallsBackToMaxOfInputs) {
  const std::vector<std::pair<double, double>> unknown_domains = {
      {-1.0, -1.0}};
  EXPECT_DOUBLE_EQ(CardinalityEstimator::JoinEstimate(
                       80.0, 30.0, /*correlated=*/true, unknown_domains),
                   80.0);
  EXPECT_DOUBLE_EQ(CardinalityEstimator::JoinEstimate(
                       12.0, 45.0, /*correlated=*/true, unknown_domains),
                   45.0);
  // No shared key at all prices the same way.
  EXPECT_DOUBLE_EQ(
      CardinalityEstimator::JoinEstimate(12.0, 45.0, /*correlated=*/true, {}),
      45.0);
}

// --- no-stats fallbacks ------------------------------------------------------

TEST_F(CostTest, UnknownGraphDegradesToUnknown) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A) ON nowhere");
  ASSERT_NE(plan, nullptr);
  EXPECT_LT(FindOp(plan.get(), PlanOp::kNodeScan)->est_rows, 0.0);
  EXPECT_LT(plan->est_rows, 0.0);
}

TEST_F(CostTest, UnknownPropertyKeyFallsBackToConstant) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A {zzz=5})");
  ASSERT_NE(plan, nullptr);
  // kPropFilterSelectivity = 0.1 — the seed constant.
  EXPECT_NEAR(FindOp(plan.get(), PlanOp::kNodeScan)->est_rows,
              kNodes * kASel * 0.1, 1e-9);
}

TEST_F(CostTest, OpaquePushedPredicateFallsBackToConstant) {
  PlanPtr plan = Plan("CONSTRUCT (a) MATCH (a:A) WHERE a.k + 0 = 2");
  ASSERT_NE(plan, nullptr);
  const PlanNode* scan = FindOp(plan.get(), PlanOp::kNodeScan);
  ASSERT_FALSE(scan->pushed.empty());
  // kPushedPredicateSelectivity = 0.25 — the seed constant.
  EXPECT_NEAR(scan->est_rows, kNodes * kASel * 0.25, 1e-9);
}

}  // namespace
}  // namespace gcore
