// Matcher unit tests: edge direction semantics, label disjunction,
// parallel edges, self loops, property filters, homomorphic matching.
#include "eval/matcher.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "parser/parser.h"

namespace gcore {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() {
    GraphBuilder b("g", catalog.ids());
    a_ = b.AddNode({"A"}, {{"name", "a"}});
    c_ = b.AddNode({"B"}, {{"name", "c"}});
    d_ = b.AddNode({"A", "B"}, {{"name", "d"}});
    e1_ = b.AddEdge(a_, c_, "x", {{"w", 1}});
    e2_ = b.AddEdge(a_, c_, "x", {{"w", 2}});  // parallel edge
    e3_ = b.AddEdge(c_, a_, "y");
    e4_ = b.AddEdge(d_, d_, "x");  // self loop
    catalog.RegisterGraph("g", b.Build());
    catalog.SetDefaultGraph("g");
  }

  Result<BindingTable> Match(const std::string& match_text) {
    auto q = ParseQuery("CONSTRUCT (z) " + match_text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return q.status();
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "g";
    Matcher matcher(ctx);
    return matcher.EvalMatchClause(*(*q)->body->basic->match);
  }

  GraphCatalog catalog;
  NodeId a_, c_, d_;
  EdgeId e1_, e2_, e3_, e4_;
};

// A matcher without an engine-wired EXISTS callback must fail with an
// error naming the offending subquery, not a generic message.
TEST_F(MatcherTest, ExistsWithoutCallbackNamesSubquery) {
  auto t = Match(
      "MATCH (n) WHERE EXISTS (CONSTRUCT (m) MATCH (m:Person))");
  ASSERT_FALSE(t.ok());
  const std::string message = t.status().ToString();
  EXPECT_NE(message.find("EXISTS subquery"), std::string::npos) << message;
  EXPECT_NE(message.find("MATCH (m:Person)"), std::string::npos) << message;
}

TEST_F(MatcherTest, DirectedRightFollowsRho) {
  auto t = Match("MATCH (n)-[e:x]->(m)");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // e1, e2 from a->c and the self loop d->d.
  EXPECT_EQ(t->NumRows(), 3u);
}

TEST_F(MatcherTest, DirectedLeftFollowsReverseRho) {
  auto t = Match("MATCH (n)<-[e:x]-(m)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 3u);
  for (size_t r = 0; r < t->NumRows(); ++r) {
    // n is the edge target under <-.
    const NodeId n = t->Get(r, "n").node();
    EXPECT_TRUE(n == c_ || n == d_);
  }
}

TEST_F(MatcherTest, UndirectedMatchesBothDirections) {
  auto t = Match("MATCH (n)-[e:y]-(m)");
  ASSERT_TRUE(t.ok());
  // e3 traversable both ways: (c,a) and (a,c).
  EXPECT_EQ(t->NumRows(), 2u);
}

TEST_F(MatcherTest, SelfLoopUndirectedBothTraversals) {
  auto t = Match("MATCH (n {name='d'})-[e:x]-(m)");
  ASSERT_TRUE(t.ok());
  // The loop appears once per traversal direction; set semantics keeps
  // (n=d, e=e4, m=d) as a single binding.
  EXPECT_EQ(t->NumRows(), 1u);
}

TEST_F(MatcherTest, ParallelEdgesBindSeparately) {
  auto t = Match("MATCH (n {name='a'})-[e:x]->(m)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u);  // e1 and e2
}

TEST_F(MatcherTest, LabelDisjunctionOnNodes) {
  auto t = Match("MATCH (n:A|B)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 3u);  // all nodes carry A or B
  auto only_a = Match("MATCH (n:A)");
  ASSERT_TRUE(only_a.ok());
  EXPECT_EQ(only_a->NumRows(), 2u);  // a and d
}

TEST_F(MatcherTest, ConjunctiveLabelGroups) {
  // (n:A:B) requires both labels: only d.
  auto t = Match("MATCH (n:A:B)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->Get(0, "n").node(), d_);
}

TEST_F(MatcherTest, EdgePropertyFilter) {
  auto t = Match("MATCH (n)-[e:x {w = 2}]->(m)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->Get(0, "e").edge(), e2_);
}

TEST_F(MatcherTest, HomomorphicNoRepeatRestriction) {
  // The same node may bind to several variables (homomorphism, unlike
  // Cypher's no-repeated-edge semantics).
  auto t = Match("MATCH (n {name='a'}), (m {name='a'})");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->Get(0, "n").node(), t->Get(0, "m").node());
}

TEST_F(MatcherTest, SharedVariableJoinsChains) {
  // (n)-[:x]->(m), (m)-[:y]->(k): m joins, so k must be a.
  auto t = Match("MATCH (n)-[e:x]->(m), (m)-[f:y]->(k)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 2u);  // via e1 and e2
  for (size_t r = 0; r < t->NumRows(); ++r) {
    EXPECT_EQ(t->Get(r, "k").node(), a_);
  }
}

TEST_F(MatcherTest, SameVariableTwiceInOneChain) {
  // (n)-[e:x]->(n): only the self loop.
  auto t = Match("MATCH (n)-[e:x]->(n)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->Get(0, "n").node(), d_);
  EXPECT_EQ(t->Get(0, "e").edge(), e4_);
}

TEST_F(MatcherTest, AnonymousElementsDroppedFromResult) {
  auto t = Match("MATCH (n)-[:x]->()");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumColumns(), 1u);
  EXPECT_TRUE(t->HasColumn("n"));
  // a (twice, deduped) and d.
  EXPECT_EQ(t->NumRows(), 2u);
}

TEST_F(MatcherTest, ProvenanceRecordedPerColumn) {
  auto t = Match("MATCH (n)-[e:x]->(m)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ColumnGraph("n"), "g");
  EXPECT_EQ(t->ColumnGraph("e"), "g");
}

// A WHERE over a column with provenance `g` reads σ from the graph the
// matcher pinned, even after a writer re-registers `g` mid-query — in
// both the VecProgram tier (use_planner) and the row evaluator.
TEST(MatcherPins, FilterReadsPinnedProvenanceGraph) {
  auto where = ParseExpression("n.name = 'old'");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  for (const bool use_planner : {true, false}) {
    for (const bool re_register : {false, true}) {
      GraphCatalog catalog;
      GraphBuilder b("g", catalog.ids());
      const NodeId n = b.AddNode({"Person"}, {{"name", "old"}});
      catalog.RegisterGraph("g", b.Build());
      MatcherContext ctx;
      ctx.catalog = &catalog;
      ctx.default_graph = "g";
      ctx.use_planner = use_planner;
      Matcher matcher(ctx);
      auto pinned = matcher.ResolveGraph("g");
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      if (re_register) {
        PathPropertyGraph next = **pinned;
        next.SetProperty(n, "name", ValueSet(Value::String("new")));
        catalog.RegisterGraph("g", std::move(next));
      }

      BindingTable table({"n"});
      table.SetColumnGraph("n", "g");
      table.MutableColumn(0).Append(Datum::OfNode(n));
      table.CommitRow();
      auto kept = matcher.FilterByConjuncts(std::move(table),
                                            {where->get()}, *pinned);
      ASSERT_TRUE(kept.ok()) << kept.status().ToString();
      EXPECT_EQ(kept->NumRows(), 1u) << "use_planner=" << use_planner
                                     << " re_register=" << re_register;
    }
  }
}

}  // namespace
}  // namespace gcore
