// Engine-level integration tests: errors surface as proper Status codes,
// views persist and compose, ON (subquery) locations, set operations
// through the engine, catalog sharing, and the SHORTEST tie order.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_ops.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { snb::RegisterToyData(&catalog); }
  GraphCatalog catalog;
};

TEST_F(EngineTest, ParseErrorsPropagate) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute("CONSTRUCT (n MATCH");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST_F(EngineTest, UnknownGraphIsNotFound) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute("CONSTRUCT (n) MATCH (n) ON nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(EngineTest, NoDefaultGraphIsBindError) {
  GraphCatalog empty;
  QueryEngine engine(&empty);
  auto r = engine.Execute("CONSTRUCT (n) MATCH (n)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
}

TEST_F(EngineTest, BareGraphNameQueryReturnsThatGraph) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute("social_graph");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto original = catalog.Lookup("social_graph");
  ASSERT_TRUE(original.ok());
  EXPECT_TRUE(GraphEquals(*r->graph, **original));
}

TEST_F(EngineTest, ConstructSetLeavesCatalogObjectsUntouched) {
  // The result shares the bound persons' λ/σ payloads with the catalog
  // graph until SET edits them; the edit must not reach the catalog.
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  std::map<NodeId, std::pair<std::vector<std::string>,
                             std::map<std::string, ValueSet>>>
      before;
  (*social)->ForEachNode([&](NodeId n) {
    before[n] = {(*social)->Labels(n).labels(),
                 (*social)->Properties(n).entries()};
  });
  for (bool planner : {true, false}) {
    QueryEngine engine(&catalog);
    engine.set_use_planner(planner);
    auto r = engine.Execute("CONSTRUCT (n) SET n.x := 1 MATCH (n:Person)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->graph->NumNodes(), 5u);
    r->graph->ForEachNode([&](NodeId n) {
      EXPECT_EQ(r->graph->Property(n, "x"), ValueSet(Value::Int(1)));
      EXPECT_EQ(r->graph->Labels(n).labels(), before[n].first);
    });
  }
  (*social)->ForEachNode([&](NodeId n) {
    EXPECT_EQ((*social)->Labels(n).labels(), before[n].first);
    EXPECT_EQ((*social)->Properties(n).entries(), before[n].second);
    EXPECT_TRUE((*social)->Property(n, "x").empty());
  });
}

TEST_F(EngineTest, IntersectAndMinusThroughEngine) {
  QueryEngine engine(&catalog);
  // persons ∩ houston-residents, as two construct queries intersected.
  auto r = engine.Execute(
      "(CONSTRUCT (n) MATCH (n:Person)) INTERSECT "
      "(CONSTRUCT (m) MATCH (m:Person)-[:isLocatedIn]->(c:City) "
      "WHERE c.name = 'Houston')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->graph->NumNodes(), 4u);  // all but Alice
  auto minus = engine.Execute(
      "(CONSTRUCT (n) MATCH (n:Person)) MINUS "
      "(CONSTRUCT (m) MATCH (m:Person)-[:isLocatedIn]->(c:City) "
      "WHERE c.name = 'Houston')");
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ(minus->graph->NumNodes(), 1u);  // Alice
  EXPECT_TRUE(minus->graph->HasNode(NodeId(snb::kAliceId)));
}

TEST_F(EngineTest, OnSubqueryLocation) {
  QueryEngine engine(&catalog);
  // Match directly against an inline subquery result (Appendix A.2:
  // basicGraphPattern ON fullGraphQuery).
  auto r = engine.Execute(
      "SELECT m.firstName AS name "
      "MATCH (m) ON (CONSTRUCT (n) MATCH (n:Person) "
      "WHERE n.employer = 'Acme')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->IsTable());
  r->table->SortRows();
  ASSERT_EQ(r->table->NumRows(), 2u);
  EXPECT_EQ(r->table->At(0, 0), Value::String("Alice"));
  EXPECT_EQ(r->table->At(1, 0), Value::String("John"));
  // The temporary location graph does not leak into the catalog.
  EXPECT_FALSE(catalog.HasGraph("__location0"));
}

TEST_F(EngineTest, OnSubqueryMixedWithNamedGraph) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "SELECT c.name AS company, m.firstName AS person "
      "MATCH (c:Company) ON company_graph, "
      "(m) ON (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'HAL') "
      "WHERE c.name IN m.employer");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table->NumRows(), 1u);
  EXPECT_EQ(r->table->At(0, 1), Value::String("Celine"));
}

TEST_F(EngineTest, ViewsComposeAcrossExecutes) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW v1 AS (CONSTRUCT (n) "
                           "MATCH (n:Person))")
                  .ok());
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW v2 AS (CONSTRUCT (n) MATCH (n) ON v1 "
                           "WHERE n.employer = 'Acme')")
                  .ok());
  auto r = engine.Execute("SELECT COUNT(*) AS c MATCH (n) ON v2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table->At(0, 0), Value::Int(2));
}

TEST_F(EngineTest, CatalogSharedBetweenEngines) {
  QueryEngine engine1(&catalog);
  ASSERT_TRUE(engine1
                  .Execute("GRAPH VIEW shared AS (CONSTRUCT (n) "
                           "MATCH (n:Tag))")
                  .ok());
  QueryEngine engine2(&catalog);
  auto r = engine2.Execute("SELECT COUNT(*) AS c MATCH (t) ON shared");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->At(0, 0), Value::Int(1));
}

TEST_F(EngineTest, ViewRedefinitionReplaces) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW w AS (CONSTRUCT (n) MATCH (n:Person))")
                  .ok());
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW w AS (CONSTRUCT (n) MATCH (n:Tag))")
                  .ok());
  auto r = engine.Execute("SELECT COUNT(*) AS c MATCH (x) ON w");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->At(0, 0), Value::Int(1));
}

TEST_F(EngineTest, EmptyMatchYieldsEmptyGraphNotError) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'Nobody'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->graph->Empty());
}

TEST_F(EngineTest, ExistsOverEmptySubqueryIsFalse) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "SELECT COUNT(*) AS c MATCH (n:Person) "
      "WHERE EXISTS ( CONSTRUCT () MATCH (n)-[:worksAt]->(x) )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table->At(0, 0), Value::Int(0));  // no worksAt edges yet
}

TEST_F(EngineTest, RuntimeErrorsCarryEvaluationCode) {
  QueryEngine engine(&catalog);
  // PATH cost of zero violates Appendix A.4's "> 0" rule at runtime.
  auto r = engine.Execute(
      "PATH w = (x)-[e:knows]->(y) COST 0 "
      "CONSTRUCT (m) MATCH (n)-/p<~w*>/->(m)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsEvaluationError());
}

TEST_F(EngineTest, ViewWalkShortestIsFirstOfKShortest) {
  // Two equal-cost view walks s→q→t and s→p→t (2.0 each). SHORTEST must
  // return the walk that `2 SHORTEST` lists first, in every mode.
  GraphBuilder b("ties", catalog.ids());
  const NodeId s = b.AddNode({}, {{"name", "s"}});
  const NodeId p = b.AddNode({}, {{"name", "p"}});
  const NodeId q = b.AddNode({}, {{"name", "q"}});
  const NodeId t = b.AddNode({}, {{"name", "t"}});
  b.AddEdge(s, q, "r", {{"w", 0.5}});
  b.AddEdge(s, p, "r", {{"w", 1.0}});
  b.AddEdge(q, t, "r", {{"w", 1.5}});
  b.AddEdge(p, t, "r", {{"w", 1.0}});
  catalog.RegisterGraph("ties", b.Build());
  catalog.SetDefaultGraph("ties");
  auto query = [](const char* mode) {
    return std::string("PATH v = (x)-[e:r]->(y) COST e.w "
                       "SELECT nodes(p)[1].name AS via, c AS cost "
                       "MATCH (a)-/") +
           mode +
           "p<~v*> COST c/->(z) WHERE a.name = 's' AND z.name = 't'";
  };
  for (bool use_planner : {true, false}) {
    for (size_t parallelism : {size_t{1}, size_t{3}}) {
      QueryEngine engine(&catalog);
      engine.set_use_planner(use_planner);
      engine.set_parallelism(parallelism);
      const std::string label = "use_planner=" + std::to_string(use_planner) +
                                " parallelism=" + std::to_string(parallelism);
      auto one = engine.Execute(query(""));
      ASSERT_TRUE(one.ok()) << label << ": " << one.status().ToString();
      ASSERT_EQ(one->table->NumRows(), 1u) << label;
      EXPECT_EQ(one->table->At(0, 0), Value::String("q")) << label;
      EXPECT_EQ(one->table->At(0, 1), Value::Int(2)) << label;
      auto two = engine.Execute(query("2 SHORTEST "));
      ASSERT_TRUE(two.ok()) << label << ": " << two.status().ToString();
      ASSERT_EQ(two->table->NumRows(), 2u) << label;
      EXPECT_EQ(two->table->Row(0), one->table->Row(0)) << label;
    }
  }
}

TEST_F(EngineTest, DivisionByZeroSurfaces) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute("SELECT 1/0 AS boom MATCH (n:Person)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsEvaluationError());
}

TEST_F(EngineTest, QueryResultToString) {
  QueryEngine engine(&catalog);
  auto g = engine.Execute("CONSTRUCT (n) MATCH (n:Tag)");
  ASSERT_TRUE(g.ok());
  EXPECT_NE(g->ToString().find("Tag"), std::string::npos);
  auto t = engine.Execute("SELECT COUNT(*) AS c MATCH (n:Tag)");
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->ToString().find("c"), std::string::npos);
}

}  // namespace
}  // namespace gcore
