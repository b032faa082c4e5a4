// Golden-result integration tests: every query of the Section 3 guided
// tour, executed on the reconstructed Figure 4 instance, must reproduce
// the results the paper prints (binding tables on pp. 8-9, the Figure 5
// views, the wagnerFriend score-2 edge, ...). EXPERIMENTS.md row index:
// Q1..Q12.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "graph/graph_ops.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

class GuidedTour : public ::testing::Test {
 protected:
  GuidedTour() { snb::RegisterToyData(&catalog); }

  Result<PathPropertyGraph> Run(const std::string& q) {
    QueryEngine engine(&catalog);
    auto r = engine.Execute(q);
    if (!r.ok()) return r.status();
    EXPECT_TRUE(r->IsGraph());
    return std::move(*r->graph);
  }

  Result<Table> RunTable(const std::string& q) {
    QueryEngine engine(&catalog);
    auto r = engine.Execute(q);
    if (!r.ok()) return r.status();
    EXPECT_TRUE(r->IsTable());
    Table t = std::move(*r->table);
    t.SortRows();
    return t;
  }

  GraphCatalog catalog;
};

// Q1 (lines 1-4): Acme employees, labels and properties preserved.
TEST_F(GuidedTour, Q1_AcmePersons) {
  auto g = Run(
      "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
      "WHERE n.employer = 'Acme'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 2u);  // John and Alice
  EXPECT_EQ(g->NumEdges(), 0u);
  EXPECT_TRUE(g->HasNode(NodeId(snb::kJohnId)));
  EXPECT_TRUE(g->HasNode(NodeId(snb::kAliceId)));
  EXPECT_TRUE(g->Labels(NodeId(snb::kJohnId)).Contains("Person"));
  EXPECT_EQ(g->Property(NodeId(snb::kAliceId), "lastName").single(),
            Value::String("Alba"));
}

// Binding table p.8: the equi-join yields exactly
// {(Acme, Alice), (HAL, Celine), (Acme, John)} — Frank fails because his
// employer is the set {"CWI","MIT"}.
TEST_F(GuidedTour, BindingTableJoin_Page8) {
  auto t = RunTable(
      "SELECT c.name AS company, n.firstName AS person "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 3u);
  EXPECT_EQ(t->At(0, 0), Value::String("Acme"));
  EXPECT_EQ(t->At(0, 1), Value::String("Alice"));
  EXPECT_EQ(t->At(1, 0), Value::String("Acme"));
  EXPECT_EQ(t->At(1, 1), Value::String("John"));
  EXPECT_EQ(t->At(2, 0), Value::String("HAL"));
  EXPECT_EQ(t->At(2, 1), Value::String("Celine"));
}

// Cartesian table p.8: without WHERE, 4 companies × 5 persons = 20 rows;
// Frank's employer renders as {CWI, MIT}; Peter's is absent.
TEST_F(GuidedTour, CartesianTable_Page8) {
  auto t = RunTable(
      "SELECT c.name AS company, n.firstName AS person, "
      "n.employer AS employer "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->NumRows(), 20u);
  int frank_rows = 0, peter_rows = 0;
  for (size_t r = 0; r < t->NumRows(); ++r) {
    if (t->At(r, 1) == Value::String("Frank")) {
      ++frank_rows;
      EXPECT_EQ(t->At(r, 2), Value::String("{CWI, MIT}"));
    }
    if (t->At(r, 1) == Value::String("Peter")) {
      ++peter_rows;
      EXPECT_TRUE(t->At(r, 2).is_null());  // unbound employer
    }
  }
  EXPECT_EQ(frank_rows, 4);
  EXPECT_EQ(peter_rows, 4);
}

// Q2 (lines 5-9): equi-join construction + UNION. Five persons stay, but
// only 3 worksAt edges exist (Frank unmatched).
TEST_F(GuidedTour, Q2_WorksAtEquals) {
  auto g = Run(
      "CONSTRUCT (c)<-[:worksAt]-(n) "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer "
      "UNION social_graph");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  EXPECT_EQ(g->NumEdges(), (*social)->NumEdges() + 3);
}

// Q3 (lines 10-14): IN fixes Frank — five new edges total.
TEST_F(GuidedTour, Q3_WorksAtIn) {
  auto g = Run(
      "CONSTRUCT (c)<-[:worksAt]-(n) "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name IN n.employer "
      "UNION social_graph");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  // "the original graph plus five edges"
  EXPECT_EQ(g->NumEdges(), (*social)->NumEdges() + 5);
  EXPECT_EQ(g->NumNodes(), (*social)->NumNodes() + 4);
  // Frank's two worksAt edges to #CWI and #MIT.
  int frank_works = 0;
  g->ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (g->Labels(e).Contains("worksAt") && src == NodeId(snb::kFrankId)) {
      ++frank_works;
      EXPECT_TRUE(g->Labels(dst).Contains("Company"));
    }
  });
  EXPECT_EQ(frank_works, 2);
}

// Q4 (lines 15-19) + binding table p.9: {employer=e} unrolls into five
// bindings, including Frank twice.
TEST_F(GuidedTour, Q4_UnrollingBindingTable_Page9) {
  auto t = RunTable(
      "SELECT c.name AS company, n.firstName AS person, e AS employer "
      "MATCH (c:Company) ON company_graph, "
      "(n:Person {employer=e}) ON social_graph "
      "WHERE c.name = e");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 5u);
  // Sorted rows: Acme/Alice, Acme/John, CWI/Frank, HAL/Celine, MIT/Frank.
  EXPECT_EQ(t->At(0, 1), Value::String("Alice"));
  EXPECT_EQ(t->At(1, 1), Value::String("John"));
  EXPECT_EQ(t->At(2, 1), Value::String("Frank"));
  EXPECT_EQ(t->At(2, 2), Value::String("CWI"));
  EXPECT_EQ(t->At(3, 1), Value::String("Celine"));
  EXPECT_EQ(t->At(4, 1), Value::String("Frank"));
  EXPECT_EQ(t->At(4, 2), Value::String("MIT"));
}

// Q5 (lines 20-22): graph aggregation — four new company nodes, five new
// edges, unioned with the original graph.
TEST_F(GuidedTour, Q5_GraphAggregation) {
  auto g = Run(
      "CONSTRUCT social_graph, "
      "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
      "MATCH (n:Person {employer=e})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  EXPECT_EQ(g->NumNodes(), (*social)->NumNodes() + 4);
  EXPECT_EQ(g->NumEdges(), (*social)->NumEdges() + 5);
}

// Q6 (lines 23-27): 3-shortest knows* paths from John to co-located
// persons, stored with label and distance.
TEST_F(GuidedTour, Q6_StoredShortestPaths) {
  auto g = Run(
      "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE (n:Person) AND (m:Person) "
      "AND n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_GT(g->NumPaths(), 0u);
  // Every stored path starts at John, carries the label and the distance
  // property equal to its hop count; targets are Houston residents.
  g->ForEachPath([&](PathId p, const PathBody& body) {
    EXPECT_TRUE(g->Labels(p).Contains("localPeople"));
    EXPECT_EQ(body.nodes.front(), NodeId(snb::kJohnId));
    EXPECT_EQ(g->Property(p, "distance").single(),
              Value::Int(static_cast<int64_t>(body.edges.size())));
    EXPECT_NE(body.nodes.back(), NodeId(snb::kAliceId));  // Austin
  });
  // At most 3 paths per destination.
  std::map<NodeId, int> per_dst;
  g->ForEachPath([&](PathId, const PathBody& body) {
    ++per_dst[body.nodes.back()];
  });
  for (const auto& [dst, count] : per_dst) {
    EXPECT_LE(count, 3) << ToString(dst);
  }
  // Shortest to Celine and Frank is 2 hops (via Peter).
  int min_celine = 99;
  g->ForEachPath([&](PathId, const PathBody& body) {
    if (body.nodes.back() == NodeId(snb::kCelineId)) {
      min_celine = std::min(min_celine, static_cast<int>(body.edges.size()));
    }
  });
  EXPECT_EQ(min_celine, 2);
  // "a projection of all nodes and edges involved in these stored paths":
  // cities/tags/messages are absent (Alice can appear as an intermediate
  // node of a k-shortest walk such as John→Alice→John, but never as a
  // destination — asserted above).
  EXPECT_FALSE(g->HasNode(NodeId(snb::kHoustonId)));
  EXPECT_FALSE(g->HasNode(NodeId(snb::kAustinId)));
  EXPECT_FALSE(g->HasNode(NodeId(snb::kWagnerTagId)));
  EXPECT_TRUE(g->Validate().ok());
}

// Q7 (lines 28-31): reachability — all co-located persons reachable over
// knows*.
TEST_F(GuidedTour, Q7_Reachability) {
  auto g = Run(
      "CONSTRUCT (m) "
      "MATCH (n:Person)-/<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // John (empty walk), Peter, Celine, Frank — all in Houston.
  EXPECT_EQ(g->NumNodes(), 4u);
  EXPECT_TRUE(g->HasNode(NodeId(snb::kPeterId)));
  EXPECT_TRUE(g->HasNode(NodeId(snb::kCelineId)));
  EXPECT_TRUE(g->HasNode(NodeId(snb::kFrankId)));
  EXPECT_FALSE(g->HasNode(NodeId(snb::kAliceId)));
}

// Q8 (lines 32-35): ALL-paths projection over knows*.
TEST_F(GuidedTour, Q8_AllPathsProjection) {
  auto g = Run(
      "CONSTRUCT (n)-/p/->(m) "
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumPaths(), 0u);
  // knows edges are bidirectional so every knows edge lies on some
  // conforming walk; Alice participates as an intermediate node even
  // though she is not a valid endpoint.
  EXPECT_TRUE(g->HasNode(NodeId(snb::kAliceId)));
  EXPECT_EQ(g->NumNodes(), 5u);
  EXPECT_EQ(g->NumEdges(), 8u);  // the 4 bidirectional knows pairs
  EXPECT_TRUE(g->Validate().ok());
}

// Q9 (lines 36-38): the explicit EXISTS form is equivalent to the
// implicit pattern predicate.
TEST_F(GuidedTour, Q9_ExplicitExistsEquivalence) {
  auto implicit = Run(
      "CONSTRUCT (m) MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  auto explicit_form = Run(
      "CONSTRUCT (m) MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND EXISTS ( CONSTRUCT () "
      "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )");
  ASSERT_TRUE(implicit.ok()) << implicit.status().ToString();
  ASSERT_TRUE(explicit_form.ok()) << explicit_form.status().ToString();
  EXPECT_TRUE(GraphEquals(*implicit, *explicit_form));
  EXPECT_EQ(implicit->NumNodes(), 4u);  // Houston residents
}

// Q10 (lines 39-47): social_graph1 — nr_messages on every knows edge
// (Figure 5).
TEST_F(GuidedTour, Q10_View1_NrMessages) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "GRAPH VIEW social_graph1 AS ( "
      "CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
      "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
      "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
      "(msg2:Post|Comment)-[c2]->(m) "
      "WHERE (c1:has_creator) AND (c2:has_creator) )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(catalog.HasGraph("social_graph1"));
  auto view = catalog.Lookup("social_graph1");
  ASSERT_TRUE(view.ok());
  const PathPropertyGraph& g = **view;

  // Every knows edge carries nr_messages; John-Peter exchanged 2 each way,
  // Peter-Celine 1 each way, the rest 0.
  std::map<std::pair<uint64_t, uint64_t>, int64_t> messages;
  g.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (!g.Labels(e).Contains("knows")) return;
    const ValueSet& v = g.Property(e, "nr_messages");
    ASSERT_TRUE(v.is_singleton());
    messages[{src.value(), dst.value()}] = v.single().AsInt();
  });
  ASSERT_EQ(messages.size(), 8u);
  EXPECT_EQ((messages[{snb::kJohnId, snb::kPeterId}]), 2);
  EXPECT_EQ((messages[{snb::kPeterId, snb::kJohnId}]), 2);
  EXPECT_EQ((messages[{snb::kPeterId, snb::kCelineId}]), 1);
  EXPECT_EQ((messages[{snb::kCelineId, snb::kPeterId}]), 1);
  EXPECT_EQ((messages[{snb::kJohnId, snb::kAliceId}]), 0);
  EXPECT_EQ((messages[{snb::kPeterId, snb::kFrankId}]), 0);
}

// Q11 (lines 57-66): social_graph2 — weighted shortest paths to the two
// Wagner lovers, stored as :toWagner (Figure 5, grey box).
TEST_F(GuidedTour, Q11_View2_ToWagnerPaths) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW social_graph1 AS ( "
                           "CONSTRUCT social_graph, (n)-[e]->(m) "
                           "SET e.nr_messages := COUNT(*) "
                           "MATCH (n)-[e:knows]->(m) "
                           "WHERE (n:Person) AND (m:Person) "
                           "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), "
                           "(msg1)-[:reply_of]-(msg2), "
                           "(msg2:Post|Comment)-[c2]->(m) "
                           "WHERE (c1:has_creator) AND (c2:has_creator) )")
                  .ok());
  auto r = engine.Execute(
      "GRAPH VIEW social_graph2 AS ( "
      "PATH wKnows = (x)-[e:knows]->(y) "
      "WHERE NOT 'Acme' IN y.employer "
      "COST 1 / (1 + e.nr_messages) "
      "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
      "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
      "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
      "AND n.firstName = 'John' AND n.lastName = 'Doe')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto view = catalog.Lookup("social_graph2");
  ASSERT_TRUE(view.ok());
  const PathPropertyGraph& g = **view;

  // "it adds to social_graph1 two stored paths", both via Peter.
  ASSERT_EQ(g.NumPaths(), 2u);
  std::set<uint64_t> destinations;
  g.ForEachPath([&](PathId p, const PathBody& body) {
    EXPECT_TRUE(g.Labels(p).Contains("toWagner"));
    EXPECT_EQ(body.nodes.front(), NodeId(snb::kJohnId));
    ASSERT_EQ(body.nodes.size(), 3u);
    EXPECT_EQ(body.nodes[1], NodeId(snb::kPeterId));
    destinations.insert(body.nodes.back().value());
  });
  EXPECT_EQ(destinations,
            (std::set<uint64_t>{snb::kCelineId, snb::kFrankId}));
}

// A PATH view's WHERE is a full G-CORE predicate: here a pattern
// predicate on the segment's target. Every person has an isLocatedIn
// edge, so all 8 knows edges become lk segments and John reaches all
// five persons (himself by the empty walk, Peter and Alice directly,
// Celine and Frank through Peter). Only Celine and Frank have an
// interest, so with hasInterest the segments are Peter->Celine and
// Peter->Frank, none of which leaves John: only the empty walk remains.
TEST_F(GuidedTour, PathViewWherePatternPredicate) {
  const std::string match =
      "SELECT m.firstName AS f "
      "MATCH (n:Person)-/p<~lk*>/->(m:Person) WHERE n.firstName = 'John'";
  const std::pair<std::string, std::vector<std::string>> cases[] = {
      {"PATH lk = (x)-[e:knows]->(y) WHERE (y)-[:isLocatedIn]->() ",
       {"Alice", "Celine", "Frank", "John", "Peter"}},
      {"PATH lk = (x)-[e:knows]->(y) WHERE (y)-[:hasInterest]->() ",
       {"John"}},
  };
  for (const bool use_planner : {true, false}) {
    for (const auto& [path, expected] : cases) {
      QueryEngine engine(&catalog);
      engine.set_use_planner(use_planner);
      auto r = engine.Execute(path + match);
      ASSERT_TRUE(r.ok()) << "use_planner=" << use_planner << ": "
                          << r.status().ToString();
      ASSERT_TRUE(r->IsTable());
      Table t = std::move(*r->table);
      t.SortRows();
      std::vector<std::string> names;
      for (size_t i = 0; i < t.NumRows(); ++i) {
        names.push_back(t.At(i, 0).AsString());
      }
      EXPECT_EQ(names, expected) << "use_planner=" << use_planner << ": "
                                 << path;
    }
  }
}

// Q12 (lines 67-71): scoring John's friends — a single wagnerFriend edge
// John→Peter with score 2. (Line 71 prints `n = nodes(p)[1]`, which
// contradicts n being the path source; the reading that reproduces the
// paper's stated result is `m = nodes(p)[1]`.)
TEST_F(GuidedTour, Q12_WagnerFriendScore) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Execute("GRAPH VIEW social_graph1 AS ( "
                           "CONSTRUCT social_graph, (n)-[e]->(m) "
                           "SET e.nr_messages := COUNT(*) "
                           "MATCH (n)-[e:knows]->(m) "
                           "WHERE (n:Person) AND (m:Person) "
                           "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), "
                           "(msg1)-[:reply_of]-(msg2), "
                           "(msg2:Post|Comment)-[c2]->(m) "
                           "WHERE (c1:has_creator) AND (c2:has_creator) )")
                  .ok());
  ASSERT_TRUE(
      engine
          .Execute("GRAPH VIEW social_graph2 AS ( "
                   "PATH wKnows = (x)-[e:knows]->(y) "
                   "WHERE NOT 'Acme' IN y.employer "
                   "COST 1 / (1 + e.nr_messages) "
                   "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
                   "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) "
                   "ON social_graph1 "
                   "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
                   "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
                   "AND n.firstName = 'John' AND n.lastName = 'Doe')")
          .ok());
  auto r = engine.Execute(
      "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) "
      "WHEN e.score > 0 "
      "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
      "WHERE m = nodes(p)[1]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PathPropertyGraph& g = *r->graph;
  ASSERT_EQ(g.NumEdges(), 1u);
  g.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    EXPECT_TRUE(g.Labels(e).Contains("wagnerFriend"));
    EXPECT_EQ(src, NodeId(snb::kJohnId));
    EXPECT_EQ(dst, NodeId(snb::kPeterId));
    EXPECT_EQ(g.Property(e, "score").single(), Value::Int(2));
  });
}

// Composability: the output of one query is the input of the next
// ("closed query language on Property Graphs").
TEST_F(GuidedTour, Composability_QueryOverQueryResult) {
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "GRAPH acme AS (CONSTRUCT (n) MATCH (n:Person) "
      "WHERE n.employer = 'Acme') "
      "CONSTRUCT (m {who := m.firstName}) MATCH (m) ON acme");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->graph->NumNodes(), 2u);
}

}  // namespace
}  // namespace gcore
