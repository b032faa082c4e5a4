// Estimator-accuracy tests: EXPLAIN ANALYZE runs chain/star/filter
// queries on a graph with known distributions and every operator's
// estimate must stay within a fixed q-error bound of its actual row
// count — the ground truth the stats subsystem exists to predict. The
// triangle's closing edge and its MultiwayExpand rewrite are pinned the
// same way, and against each other. Also pins the join-order flip: when
// per-column statistics say the smaller side should build first, the
// plan changes shape vs the constants-only model.
#include <gtest/gtest.h>

#include <regex>

#include "engine/engine.h"
#include "graph/graph_builder.h"
#include "tests/plan/cycle_graph.h"

namespace gcore {
namespace {

/// Accuracy graph: homogeneous so the estimator's independence
/// assumptions hold exactly. 100 :Person nodes, each carrying
/// city = "c" + (i % 10)  (10 distinct, uniform) and age = i
/// (range [0, 99]). Edges: person i --:knows--> persons i+1..i+4 (out-
/// and in-degree exactly 4) and person i --:follows--> person (7i+1)%100
/// (out- and in-degree exactly 1; 7 is coprime to 100).
void RegisterAccuracyGraph(GraphCatalog* catalog) {
  GraphBuilder b("acc", catalog->ids());
  std::vector<NodeId> persons;
  for (int i = 0; i < 100; ++i) {
    persons.push_back(
        b.AddNode({"Person"}, {{"city", "c" + std::to_string(i % 10)},
                               {"age", int64_t{i}}}));
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 1; j <= 4; ++j) {
      b.AddEdge(persons[i], persons[(i + j) % 100], "knows");
    }
    b.AddEdge(persons[i], persons[(7 * i + 1) % 100], "follows");
  }
  catalog->RegisterGraph("acc", b.Build());
  catalog->SetDefaultGraph("acc");
}

/// (est_rows, actual_rows) pairs of every operator line that carries
/// both annotations.
std::vector<std::pair<double, double>> ParseEstimates(
    const std::string& plan) {
  static const std::regex kPattern(
      R"(est_rows=([0-9.eE+\-]+) actual_rows=([0-9]+))");
  std::vector<std::pair<double, double>> out;
  for (std::sregex_iterator it(plan.begin(), plan.end(), kPattern), end;
       it != end; ++it) {
    out.emplace_back(std::stod((*it)[1]), std::stod((*it)[2]));
  }
  return out;
}

double QError(double est, double actual) {
  // Smooth zero rows to 1 so the ratio stays defined; an estimate of 0
  // for a non-empty operator (or vice versa) still blows the bound.
  const double e = std::max(est, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

/// The rendered plan of `EXPLAIN [ANALYZE] query`, one operator a line.
std::string ExplainOver(GraphCatalog* catalog, const std::string& query,
                        bool analyze = true, bool multiway = true) {
  QueryEngine engine(catalog);
  engine.set_enable_multiway(multiway);
  auto r = engine.Execute((analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") +
                          query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  EXPECT_TRUE(r->IsTable());
  std::string out;
  for (size_t i = 0; i < r->table->NumRows(); ++i) {
    if (i > 0) out += "\n";
    out += r->table->At(i, 0).AsString();
  }
  return out;
}

class EstimatorAccuracyTest : public ::testing::Test {
 protected:
  EstimatorAccuracyTest() { RegisterAccuracyGraph(&catalog); }

  std::string ExplainAnalyze(const std::string& query) {
    return ExplainOver(&catalog, query);
  }

  /// Every operator annotated with est and actual passes the q-error
  /// bound.
  void ExpectQErrorWithin(const std::string& query, double bound) {
    const std::string plan = ExplainAnalyze(query);
    const auto pairs = ParseEstimates(plan);
    ASSERT_FALSE(pairs.empty()) << plan;
    for (const auto& [est, actual] : pairs) {
      EXPECT_LE(QError(est, actual), bound)
          << "est=" << est << " actual=" << actual << "\n"
          << plan;
    }
  }

  GraphCatalog catalog;
};

TEST_F(EstimatorAccuracyTest, OutputShowsEstimatesAndActuals) {
  const std::string plan =
      ExplainAnalyze("CONSTRUCT (n) MATCH (n:Person) WHERE n.city = 'c3'");
  EXPECT_NE(plan.find("est_rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual_rows="), std::string::npos) << plan;
  // The pushed equality predicate: 100 persons / 10 distinct cities.
  EXPECT_NE(plan.find("actual_rows=10"), std::string::npos) << plan;
}

TEST_F(EstimatorAccuracyTest, FilterQueryWithinQErrorBound) {
  ExpectQErrorWithin(
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.city = 'c3'", 1.5);
}

TEST_F(EstimatorAccuracyTest, RangeQueryWithinQErrorBound) {
  // age >= 90 selects 10 of 100; interpolation over [0, 99] predicts
  // 100·(99−90)/99 ≈ 9.09.
  ExpectQErrorWithin(
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.age >= 90", 1.5);
}

TEST_F(EstimatorAccuracyTest, ChainQueryWithinQErrorBound) {
  // 100 sources × measured degree 4 = 400 expansions, exactly.
  ExpectQErrorWithin(
      "SELECT a.city AS c MATCH (a:Person)-[:knows]->(b:Person)", 1.5);
}

TEST_F(EstimatorAccuracyTest, StarJoinWithinQErrorBound) {
  // Two chains share b: 400 × 100 / |domain(b)| = 400 predicted; the
  // actual join is Σ_b 4·1 = 400.
  ExpectQErrorWithin(
      "SELECT a.city AS c "
      "MATCH (a:Person)-[:knows]->(b:Person), "
      "(c:Person)-[:follows]->(b:Person)",
      1.5);
}

TEST_F(EstimatorAccuracyTest, AnalyzeMatchesPlainExecutionResult) {
  // EXPLAIN ANALYZE runs the real pipeline: its reported actual for the
  // root Project equals the row count of the plain execution.
  QueryEngine engine(&catalog);
  auto direct = engine.Execute(
      "SELECT a.city AS c MATCH (a:Person)-[:knows]->(b:Person)");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const std::string plan = ExplainAnalyze(
      "SELECT a.city AS c MATCH (a:Person)-[:knows]->(b:Person)");
  // Project dedups (a, b) pairs: 400 of them.
  EXPECT_NE(plan.find("Project [a, b] dedup"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual_rows=400"), std::string::npos) << plan;
}

// --- cycles ------------------------------------------------------------------

/// The first plan line containing `needle`; empty when absent.
std::string LineOf(const std::string& plan, const std::string& needle) {
  const size_t at = plan.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = plan.rfind('\n', at);
  const size_t from = begin == std::string::npos ? 0 : begin + 1;
  return plan.substr(from, plan.find('\n', at) - from);
}

/// est_rows of one plan line; -1 when it carries none.
double EstRows(const std::string& line) {
  static const std::regex kEst(R"(est_rows=([0-9.eE+\-]+))");
  std::smatch m;
  return std::regex_search(line, m, kEst) ? std::stod(m[1]) : -1.0;
}

/// The triangle on the "cyc" graph: 55 :P nodes, 95 :e edges (average
/// out-degree 95/55), 15 triangle bindings.
class CycleEstimateTest : public ::testing::Test {
 protected:
  CycleEstimateTest() {
    RegisterCycleGraph(&catalog);
    catalog.SetDefaultGraph("cyc");
  }

  GraphCatalog catalog;
};

TEST_F(CycleEstimateTest, ClosingEdgeWithinQErrorBound) {
  // The closing edge lands on the bound a with probability 1/|P|: 164
  // wedges × 95/55 / 55 ≈ 5.15 predicted for 15 actual.
  const std::string plan = ExplainOver(&catalog, kSingleChainTriangle,
                                       /*analyze=*/true, /*multiway=*/false);
  const auto pairs =
      ParseEstimates(LineOf(plan, "ExpandEdge (c)-[z:e]->(a)"));
  ASSERT_EQ(pairs.size(), 1u) << plan;
  EXPECT_DOUBLE_EQ(pairs[0].second, 15.0) << plan;
  EXPECT_LE(QError(pairs[0].first, pairs[0].second), 4.0) << plan;
}

TEST_F(CycleEstimateTest, MultiwayEstimateWithinQErrorBound) {
  for (const char* query : {kTriangleQuery, kSingleChainTriangle}) {
    const std::string plan = ExplainOver(&catalog, query);
    const auto pairs = ParseEstimates(LineOf(plan, "MultiwayExpand"));
    ASSERT_EQ(pairs.size(), 1u) << plan;
    EXPECT_DOUBLE_EQ(pairs[0].second, 15.0) << plan;
    EXPECT_LE(QError(pairs[0].first, pairs[0].second), 4.0)
        << query << "\n" << plan;
  }
}

// The rewrite and the binary plan it replaces are priced by one
// estimator, so they predict the same output.
TEST_F(CycleEstimateTest, MultiwayEstimateAgreesWithBinaryRoot) {
  for (const char* query : {kTriangleQuery, kSingleChainTriangle}) {
    const std::string multiway =
        ExplainOver(&catalog, query, /*analyze=*/false);
    const std::string binary = ExplainOver(&catalog, query,
                                           /*analyze=*/false,
                                           /*multiway=*/false);
    const double multiway_est = EstRows(LineOf(multiway, "MultiwayExpand"));
    // The first annotated line is the binary plan's root.
    const double binary_root = EstRows(LineOf(binary, "est_rows="));
    ASSERT_GT(multiway_est, 0.0) << multiway;
    ASSERT_GT(binary_root, 0.0) << binary;
    EXPECT_LE(QError(multiway_est, binary_root), 1.5)
        << query << "\n" << multiway << "\n" << binary;
  }
}

// --- join-order flip ---------------------------------------------------------

class JoinOrderFlipTest : public ::testing::Test {
 protected:
  JoinOrderFlipTest() {
    // 100 :A nodes with a 2-distinct-valued key, 30 :B nodes. Stats say
    // σ(a.k = 1) keeps 50 rows (> 30); the pushed-predicate constant
    // would say 25 (< 30) and misrank the chains.
    GraphBuilder b("flip", catalog.ids());
    for (int i = 0; i < 100; ++i) {
      b.AddNode({"A"}, {{"k", int64_t{i % 2}}});
    }
    for (int i = 0; i < 30; ++i) b.AddNode({"B"});
    catalog.RegisterGraph("flip", b.Build());
    catalog.SetDefaultGraph("flip");
  }

  std::string Explain() {
    QueryEngine engine(&catalog);
    auto r = engine.Execute(
        "EXPLAIN CONSTRUCT (a) MATCH (a:A), (b:B) WHERE a.k = 1");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string out;
    for (size_t i = 0; i < r->table->NumRows(); ++i) {
      out += r->table->At(i, 0).AsString() + "\n";
    }
    return out;
  }

  GraphCatalog catalog;
};

TEST_F(JoinOrderFlipTest, StatsFlipTheBuildSide) {
  // With per-column stats: est(:A filtered) = 100/2 = 50 > 30 = est(:B),
  // so the B chain joins first (renders above the A scan).
  const std::string with_stats = Explain();
  const size_t b_scan = with_stats.find("NodeScan (b:B)");
  const size_t a_scan = with_stats.find("NodeScan (a:A)");
  ASSERT_NE(b_scan, std::string::npos) << with_stats;
  ASSERT_NE(a_scan, std::string::npos) << with_stats;
  EXPECT_LT(b_scan, a_scan) << with_stats;
}

}  // namespace
}  // namespace gcore
