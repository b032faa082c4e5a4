// Plan-shape golden tests: the planner must produce the expected
// operator trees for the paper's guided-tour queries, with the pushdown
// and chain-ordering rules visible in EXPLAIN output.
#include "plan/planner.h"

#include <gtest/gtest.h>

#include <sstream>

#include "engine/engine.h"
#include "eval/matcher.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "plan/executor.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
  }

  /// EXPLAIN through the engine; returns the plan rows joined by '\n'.
  std::string Explain(const std::string& query, bool pushdown = true) {
    QueryEngine engine(&catalog);
    engine.set_enable_pushdown(pushdown);
    auto r = engine.Execute("EXPLAIN " + query);
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

  /// Plans the MATCH clause of `query` directly. The parsed AST is kept
  /// alive in the fixture: plans reference it.
  PlanPtr PlanMatchOf(const std::string& query, Matcher* matcher) {
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    parsed_queries_.push_back(std::move(*parsed));
    PlannerOptions options = PlannerOptions::FromContext(matcher->context());
    Planner planner(matcher, options);
    auto plan =
        planner.PlanMatch(*parsed_queries_.back()->body->basic->match);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    planner.AnnotateEstimates(plan->get());
    return std::move(*plan);
  }

  std::vector<std::unique_ptr<Query>> parsed_queries_;

  Matcher MakeMatcher() {
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";
    return Matcher(ctx);
  }

  GraphCatalog catalog;
};

// Q1 (paper lines 1-4): scan + pushed filter + residual WHERE + project.
TEST_F(PlannerTest, Q1_ScanWithPushedFilter) {
  const std::string plan = Explain(
      "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
      "WHERE n.employer = 'Acme'");
  EXPECT_NE(plan.find("Project [n] dedup"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter (n.employer = 'Acme')"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find(
                "NodeScan (n:Person) on social_graph "
                "push={(n.employer = 'Acme')}"),
            std::string::npos)
      << plan;
}

// Q2 (lines 5-9): cross-graph join under a graph-level union.
TEST_F(PlannerTest, Q2_JoinUnderGraphUnion) {
  const std::string plan = Explain(
      "CONSTRUCT (c)<-[:worksAt]-(n) "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer UNION social_graph");
  EXPECT_NE(plan.find("GraphUnion"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("NodeScan (c:Company) on company_graph"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("NodeScan (n:Person) on social_graph"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Graph social_graph"), std::string::npos) << plan;
}

// Q5 (lines 20-22): property unrolling stays inside the scan; the bound
// variable e is a visible output column.
TEST_F(PlannerTest, Q5_PropertyUnrollingInScan) {
  const std::string plan =
      Explain("CONSTRUCT social_graph, "
              "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
              "MATCH (n:Person {employer=e})");
  EXPECT_NE(plan.find("NodeScan (n:Person {employer = e})"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Project [n, e] dedup"), std::string::npos) << plan;
}

// Q6 (lines 23-27): the selective source filters are pushed below the
// expensive k-shortest path search.
TEST_F(PlannerTest, Q6_FiltersPushedBelowPathSearch) {
  const std::string plan = Explain(
      "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE (n:Person) AND (m:Person) "
      "AND n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  const size_t search = plan.find("PathSearch");
  const size_t scan = plan.find("NodeScan");
  ASSERT_NE(search, std::string::npos) << plan;
  ASSERT_NE(scan, std::string::npos) << plan;
  // The scan renders below (after) the search and carries the pushed
  // source predicates.
  EXPECT_LT(search, scan) << plan;
  EXPECT_NE(plan.find("(n.firstName = 'John')"), std::string::npos) << plan;
  const size_t push = plan.find("push={", scan);
  EXPECT_NE(push, std::string::npos) << plan;
  EXPECT_NE(plan.find("Project [n, p, m, c] dedup"), std::string::npos)
      << plan;
}

// Q7 (lines 28-31): reachability search with an edge-pattern predicate
// kept in the residual filter.
TEST_F(PlannerTest, Q7_ReachabilityPlan) {
  const std::string plan = Explain(
      "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  EXPECT_NE(plan.find("PathSearch"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("isLocatedIn"), std::string::npos) << plan;
}

// The pushdown rule is an optimizer flag: disabling it removes every
// pushed predicate but keeps the residual filter.
TEST_F(PlannerTest, PushdownFlagControlsRule) {
  const std::string query =
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'";
  const std::string with = Explain(query, /*pushdown=*/true);
  const std::string without = Explain(query, /*pushdown=*/false);
  EXPECT_NE(with.find("push={"), std::string::npos) << with;
  EXPECT_EQ(without.find("push={"), std::string::npos) << without;
  EXPECT_NE(without.find("Filter (n.employer = 'Acme')"), std::string::npos)
      << without;
}

// A pushed list keeps the query's conjunct order, which is also the
// order it runs in: EXPLAIN shows what evaluates first.
TEST_F(PlannerTest, PushedConjunctsKeepQueryOrder) {
  const std::string plan = Explain(
      "CONSTRUCT (n) MATCH (n:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe'");
  EXPECT_NE(plan.find("push={(n.firstName = 'John'), (n.lastName = 'Doe')}"),
            std::string::npos)
      << plan;
}

// The pushdown rule folds a WHERE's top-level label tests into scan and
// expand admission: the WHERE form plans exactly like its pattern-label
// twin — the construct workload's q10 MATCH and tour Q6 — and no label
// test is left in a Filter or a pushed list.
TEST_F(PlannerTest, WhereLabelTestsPlanLikePatternLabels) {
  const std::pair<const char*, const char*> twins[] = {
      {"CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
       "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
       "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
       "(msg2:Post|Comment)-[c2]->(m) "
       "WHERE (c1:has_creator) AND (c2:has_creator)",
       "CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
       "MATCH (n:Person)-[e:knows]->(m:Person) "
       "OPTIONAL (n)<-[c1:has_creator]-(msg1:Post|Comment), "
       "(msg1)-[:reply_of]-(msg2), (msg2:Post|Comment)-[c2:has_creator]->(m)"},
      {"CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
       "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
       "WHERE (n:Person) AND (m:Person) "
       "AND n.firstName = 'John' AND n.lastName = 'Doe' "
       "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
       "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
       "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) "
       "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
       "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"},
  };
  for (const auto& [where_form, pattern_form] : twins) {
    const std::string plan = Explain(where_form);
    EXPECT_EQ(plan, Explain(pattern_form));
    std::istringstream lines(plan);
    for (std::string line; std::getline(lines, line);) {
      const size_t push = line.find("push={");
      const size_t filter = line.find("Filter ");
      for (size_t at : {push, filter}) {
        if (at == std::string::npos) continue;
        EXPECT_EQ(line.find(":Person", at), std::string::npos) << plan;
        EXPECT_EQ(line.find(":has_creator", at), std::string::npos) << plan;
      }
    }
  }
}

// A label written on one occurrence of a variable holds at all of them:
// every scan of profile_card's anchor `a` and of `b` reads the Person
// span.
TEST_F(PlannerTest, EveryScanOfAVariableCarriesItsLabels) {
  const std::string plan = Explain(
      "SELECT co1.name AS employer, c1.name AS city, COUNT(*) AS fanout "
      "MATCH (a:Person)-[:knows]->(b:Person), "
      "(a)-[:isLocatedIn]->(c1:City), (b)-[:isLocatedIn]->(c2:City), "
      "(a)-[:worksAt]->(co1:Company), (b)-[:worksAt]->(co2:Company), "
      "(a)-[:hasInterest]->(t1:Tag), (b)-[:hasInterest]->(t2:Tag) "
      "WHERE a.firstName = 'John' AND a.lastName = 'Doe'");
  size_t scans_of_a = 0;
  size_t scans_of_b = 0;
  std::istringstream lines(plan);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("NodeScan (a") != std::string::npos) {
      ++scans_of_a;
      EXPECT_NE(line.find("NodeScan (a:Person)"), std::string::npos) << plan;
    }
    if (line.find("NodeScan (b") != std::string::npos) {
      ++scans_of_b;
      EXPECT_NE(line.find("NodeScan (b:Person)"), std::string::npos) << plan;
    }
  }
  EXPECT_EQ(scans_of_a, 4u) << plan;
  EXPECT_EQ(scans_of_b, 3u) << plan;
}

// The label fold is part of the pushdown rule: without it, label tests
// stay in the residual Filter and each occurrence keeps its own labels.
TEST_F(PlannerTest, PushdownFlagControlsLabelFold) {
  const std::string query =
      "CONSTRUCT (n) MATCH (n)-[e]->(m), (m)-[:isLocatedIn]->(c:City) "
      "WHERE (e:knows) AND (m:Person) AND n.employer = 'Acme'";
  const std::string with = Explain(query, /*pushdown=*/true);
  const std::string without = Explain(query, /*pushdown=*/false);
  EXPECT_NE(with.find("ExpandEdge (n)-[e:knows]->(m:Person)"),
            std::string::npos)
      << with;
  EXPECT_NE(with.find("NodeScan (m:Person)"), std::string::npos) << with;
  EXPECT_NE(with.find("Filter (n.employer = 'Acme')"), std::string::npos)
      << with;
  EXPECT_NE(without.find("ExpandEdge (n)-[e]->(m)"), std::string::npos)
      << without;
  EXPECT_NE(without.find("NodeScan (m)"), std::string::npos) << without;
  EXPECT_NE(
      without.find("Filter ((e:knows AND m:Person) AND (n.employer = 'Acme'))"),
      std::string::npos)
      << without;
}

// Chain-ordering rule: independent chains join smallest-first (4
// companies before 5 persons), regardless of source order.
TEST_F(PlannerTest, ChainsOrderedByEstimatedCardinality) {
  const std::string plan = Explain(
      "SELECT n.firstName AS f "
      "MATCH (n:Person) ON social_graph, (c:Company) ON company_graph");
  const size_t company = plan.find("NodeScan (c:Company)");
  const size_t person = plan.find("NodeScan (n:Person)");
  ASSERT_NE(company, std::string::npos) << plan;
  ASSERT_NE(person, std::string::npos) << plan;
  EXPECT_LT(company, person) << plan;
}

// Chain ordering follows *measured* degrees: 5 :S hubs fan out 16 dense
// edges each (est 80) while 20 :T nodes average 1.5 sparse edges (est
// 30), so the T chain joins first. A global-fanout model, dividing both
// edge counts by the same node total, would rank the chains the other
// way (400/N vs 600/N).
TEST_F(PlannerTest, ChainReorderingFollowsMeasuredDegrees) {
  GraphBuilder b("deg", catalog.ids());
  std::vector<NodeId> hubs;
  for (int i = 0; i < 10; ++i) hubs.push_back(b.AddNode({"H"}));
  for (int i = 0; i < 5; ++i) {
    const NodeId s = b.AddNode({"S"});
    for (int j = 0; j < 16; ++j) b.AddEdge(s, hubs[j % 10], "dense");
  }
  for (int i = 0; i < 20; ++i) {
    const NodeId t = b.AddNode({"T"});
    b.AddEdge(t, hubs[i % 10], "sparse");
    if (i < 10) b.AddEdge(t, hubs[(i + 1) % 10], "sparse");
  }
  catalog.RegisterGraph("deg", b.Build());

  const std::string query =
      "CONSTRUCT (s) MATCH (s:S)-[:dense]->(h) ON deg, "
      "(t:T)-[:sparse]->(u) ON deg";
  QueryEngine engine(&catalog);
  auto r = engine.Execute("EXPLAIN " + query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string with_stats;
  for (size_t i = 0; i < r->table->NumRows(); ++i) {
    with_stats += r->table->At(i, 0).AsString() + "\n";
  }
  const size_t t_scan = with_stats.find("NodeScan (t:T)");
  const size_t s_scan = with_stats.find("NodeScan (s:S)");
  ASSERT_NE(t_scan, std::string::npos) << with_stats;
  ASSERT_NE(s_scan, std::string::npos) << with_stats;
  EXPECT_LT(t_scan, s_scan) << with_stats;
}

// OPTIONAL lowers to a left outer join above the main plan.
TEST_F(PlannerTest, OptionalBecomesLeftOuterJoin) {
  const std::string plan = Explain(
      "CONSTRUCT (n) MATCH (n:Person) "
      "OPTIONAL (n)-[e:knows]->(m)");
  EXPECT_NE(plan.find("LeftOuterJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ExpandEdge"), std::string::npos) << plan;
}

// OPTIONAL block WHERE conjuncts push into the block's own chain: the
// block-side ExpandEdge carries the pushed predicate, and the residual
// block filter stays above it.
TEST_F(PlannerTest, OptionalBlockWherePushesIntoBlockPlan) {
  const std::string plan = Explain(
      "CONSTRUCT (n) MATCH (n:Person) "
      "OPTIONAL (n)-[e:knows]->(m) WHERE m.employer = 'Acme'");
  const size_t outer = plan.find("LeftOuterJoin");
  ASSERT_NE(outer, std::string::npos) << plan;
  const size_t pushed =
      plan.find("push={(m.employer = 'Acme')}", outer);
  EXPECT_NE(pushed, std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter (m.employer = 'Acme')", outer),
            std::string::npos)
      << plan;
  // The pushdown flag gates block pushdown like main-WHERE pushdown.
  const std::string without = Explain(
      "CONSTRUCT (n) MATCH (n:Person) "
      "OPTIONAL (n)-[e:knows]->(m) WHERE m.employer = 'Acme'",
      /*pushdown=*/false);
  EXPECT_EQ(without.find("push={"), std::string::npos) << without;
}

// The plan root advertises the resolved execution degree.
TEST_F(PlannerTest, ExplainShowsParallelism) {
  QueryEngine engine(&catalog);
  engine.set_parallelism(4);
  auto r = engine.Execute("EXPLAIN CONSTRUCT (n) MATCH (n:Person)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string out;
  for (size_t i = 0; i < r->table->NumRows(); ++i) {
    out += r->table->At(i, 0).AsString() + "\n";
  }
  EXPECT_NE(out.find("Project [n] dedup parallelism=4"), std::string::npos)
      << out;
}

// Direct planner output: estimates are annotated bottom-up and the
// executor runs the plan to the same result as the clause evaluator.
TEST_F(PlannerTest, PlanExecutesThroughExecutor) {
  Matcher matcher = MakeMatcher();
  PlanPtr plan = PlanMatchOf(
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'", &matcher);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->op, PlanOp::kProject);
  EXPECT_GE(plan->est_rows, 0.0);
  Executor executor(&matcher);
  auto table = executor.Run(*plan);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->NumRows(), 2u);  // John and Alice
  EXPECT_EQ(table->columns(), std::vector<std::string>{"n"});
}

// Graph-level operators refuse binding-level execution.
TEST_F(PlannerTest, GraphUnionIsNotExecutable) {
  Matcher matcher = MakeMatcher();
  PlanPtr plan = MakePlan(PlanOp::kGraphUnion);
  Executor executor(&matcher);
  auto result = executor.Run(*plan);
  EXPECT_FALSE(result.ok());
}

// EXPLAIN never executes: ON-subquery locations and head clauses stay
// unmaterialized and render with unknown cardinality.
TEST_F(PlannerTest, ExplainDoesNotExecuteSubqueries) {
  const std::string plan = Explain(
      "CONSTRUCT (n) "
      "MATCH (n) ON (CONSTRUCT (p) MATCH (p:Person) WHERE p.employer = "
      "'Acme')");
  EXPECT_NE(plan.find("(subquery)"), std::string::npos) << plan;
}

}  // namespace
}  // namespace gcore
