// CONSTRUCT semantics tests (Appendix A.3): identity preservation,
// grouping/skolems, copy syntax, SET/REMOVE, WHEN, dangling-edge
// prevention, path constructs.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "eval/constructor.h"
#include "graph/graph_ops.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

class ConstructTest : public ::testing::Test {
 protected:
  ConstructTest() {
    snb::RegisterToyData(&catalog);
  }

  Result<PathPropertyGraph> Run(const std::string& q) {
    QueryEngine engine(&catalog);
    auto r = engine.Execute(q);
    if (!r.ok()) return r.status();
    EXPECT_TRUE(r->IsGraph());
    return std::move(*r->graph);
  }

  GraphCatalog catalog;
};

TEST_F(ConstructTest, BoundNodesKeepIdentityLabelsProperties) {
  auto g = Run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_TRUE(g->HasNode(NodeId(snb::kJohnId)));
  EXPECT_TRUE(g->Labels(NodeId(snb::kJohnId)).Contains("Person"));
  EXPECT_EQ(g->Property(NodeId(snb::kJohnId), "firstName").single(),
            Value::String("John"));
}

TEST_F(ConstructTest, UnboundAnonymousNodePerBinding) {
  // One fresh node per binding row (full-row default grouping).
  auto g = Run("CONSTRUCT () MATCH (n:Person)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 5u);
  // None of them are the person nodes.
  EXPECT_FALSE(g->HasNode(NodeId(snb::kJohnId)));
}

TEST_F(ConstructTest, GroupClauseCollapsesByValue) {
  auto g = Run(
      "CONSTRUCT (x GROUP e :Company {name:=e}) "
      "MATCH (n:Person {employer=e})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 4u);  // Acme, HAL, CWI, MIT
  std::set<std::string> names;
  g->ForEachNode([&](NodeId n) {
    EXPECT_TRUE(g->Labels(n).Contains("Company"));
    names.insert(g->Property(n, "name").single().AsString());
  });
  EXPECT_EQ(names, (std::set<std::string>{"Acme", "CWI", "HAL", "MIT"}));
}

TEST_F(ConstructTest, DefaultEdgeGroupingBySourceAndDestination) {
  // Q5: five bindings, but edges group by (src, dst): five distinct edges
  // between four persons and four companies.
  auto g = Run(
      "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
      "MATCH (n:Person {employer=e})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 5u);
  EXPECT_EQ(g->NumNodes(), 8u);
}

TEST_F(ConstructTest, ShorthandUnionWithGraphName) {
  auto g = Run(
      "CONSTRUCT social_graph, (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
      "MATCH (n:Person {employer=e})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  // Enriched graph: original plus 4 companies and 5 edges.
  EXPECT_EQ(g->NumNodes(), (*social)->NumNodes() + 4);
  EXPECT_EQ(g->NumEdges(), (*social)->NumEdges() + 5);
}

TEST_F(ConstructTest, CopyNodeSyntaxCreatesFreshIdentity) {
  auto g = Run("CONSTRUCT (=n) MATCH (n:Person) WHERE n.firstName = 'John'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 1u);
  EXPECT_FALSE(g->HasNode(NodeId(snb::kJohnId)));  // fresh id
  g->ForEachNode([&](NodeId n) {
    EXPECT_TRUE(g->Labels(n).Contains("Person"));  // labels copied
    EXPECT_EQ(g->Property(n, "firstName").single(), Value::String("John"));
  });
}

TEST_F(ConstructTest, CopyEdgeSyntaxCopiesLabelsProps) {
  auto g = Run(
      "CONSTRUCT (n)-[=y]->(m) "
      "MATCH (n:Person)-[y:knows]->(m:Person) "
      "WHERE n.firstName = 'John' AND m.firstName = 'Peter'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->NumEdges(), 1u);
  g->ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    EXPECT_TRUE(g->Labels(e).Contains("knows"));
    EXPECT_EQ(src, NodeId(snb::kJohnId));
    EXPECT_EQ(dst, NodeId(snb::kPeterId));
  });
}

TEST_F(ConstructTest, BoundEdgeKeepsIdentity) {
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  auto g = Run("CONSTRUCT (n)-[y]->(m) MATCH (n)-[y:knows]->(m)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  g->ForEachEdge([&](EdgeId e, NodeId, NodeId) {
    EXPECT_TRUE((*social)->HasEdge(e));
  });
}

TEST_F(ConstructTest, BoundEdgeWithWrongEndpointsRejected) {
  // Using a bound edge between different nodes violates identity.
  auto g = Run("CONSTRUCT (m)-[y]->(n) MATCH (n)-[y:knows]->(m)");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsBindError());
}

TEST_F(ConstructTest, SetPropertyWithAggregate) {
  auto g = Run(
      "CONSTRUCT (n) SET n.degree := COUNT(*) "
      "MATCH (n:Person)-[:knows]->(m)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // John knows Peter and Alice.
  EXPECT_EQ(g->Property(NodeId(snb::kJohnId), "degree").single(),
            Value::Int(2));
  // Peter knows John, Celine, Frank.
  EXPECT_EQ(g->Property(NodeId(snb::kPeterId), "degree").single(),
            Value::Int(3));
}

TEST_F(ConstructTest, SetLabelAndRemove) {
  auto g = Run(
      "CONSTRUCT (n) SET n:Employee REMOVE n.employer "
      "MATCH (n:Person) WHERE n.employer = 'Acme'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->Labels(NodeId(snb::kJohnId)).Contains("Employee"));
  EXPECT_TRUE(g->Labels(NodeId(snb::kJohnId)).Contains("Person"));
  EXPECT_TRUE(g->Property(NodeId(snb::kJohnId), "employer").empty());
  // REMOVE affects only the query output, not the stored graph.
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  EXPECT_FALSE(
      (*social)->Property(NodeId(snb::kJohnId), "employer").empty());
}

TEST_F(ConstructTest, WhenPreFilterOnMatchData) {
  auto g = Run(
      "CONSTRUCT (n) WHEN n.firstName = 'John' MATCH (n:Person)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 1u);
  EXPECT_TRUE(g->HasNode(NodeId(snb::kJohnId)));
}

TEST_F(ConstructTest, WhenOverAssignedPropertyFiltersGroups) {
  // Line 67-68 shape: the condition reads a property assigned in the same
  // construct, so it is applied per group after property computation.
  auto g = Run(
      "CONSTRUCT (n)-[e:strongFriend {score:=COUNT(*)}]->(m) "
      "WHEN e.score > 1 "
      "MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(n2:Person) "
      "WHERE n = n2");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Every knows pair is bidirectional: each (n, m) has exactly one row, so
  // score = 1 everywhere and nothing survives.
  EXPECT_EQ(g->NumEdges(), 0u);
}

TEST_F(ConstructTest, DanglingEdgePreventionOnUnboundEndpoint) {
  // m is bound only when the OPTIONAL matched; rows without m must not
  // produce edges.
  auto g = Run(
      "CONSTRUCT (n)-[:interest]->(t) "
      "MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Celine and Frank have Wagner interest: 2 edges; others only nodes.
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(ConstructTest, StoredPathConstructMaterializesWalk) {
  auto g = Run(
      "CONSTRUCT (n)-/@p:jp{distance:=c}/->(m) "
      "MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) "
      "WHERE n.firstName = 'John' AND m.firstName = 'Celine'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->NumPaths(), 1u);
  const PathId pid = g->PathIds()[0];
  EXPECT_TRUE(g->Labels(pid).Contains("jp"));
  EXPECT_EQ(g->Property(pid, "distance").single(), Value::Int(2));
  const PathBody& body = g->Path(pid);
  EXPECT_EQ(body.nodes.front(), NodeId(snb::kJohnId));
  EXPECT_EQ(body.nodes.back(), NodeId(snb::kCelineId));
  // Intermediate node (Peter) and edges materialized with λ/σ.
  EXPECT_TRUE(g->HasNode(NodeId(snb::kPeterId)));
  EXPECT_TRUE(g->Labels(NodeId(snb::kPeterId)).Contains("Person"));
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(ConstructTest, PlainPathConstructProjectsWithoutPathObject) {
  auto g = Run(
      "CONSTRUCT (n)-/p/->(m) "
      "MATCH (n:Person)-/p <:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND m.firstName = 'Celine'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumPaths(), 0u);
  EXPECT_GE(g->NumNodes(), 3u);
  EXPECT_GE(g->NumEdges(), 2u);
}

TEST_F(ConstructTest, AllPathsProjectionConstruct) {
  // Q8: ALL over knows*, projected into a graph.
  auto g = Run(
      "CONSTRUCT (n)-/p/->(m) "
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND m.firstName = 'Celine'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumPaths(), 0u);
  EXPECT_TRUE(g->Validate().ok());
  // All knows edges participate in some conforming walk (they are
  // bidirectional), so the projection includes all five persons.
  EXPECT_EQ(g->NumNodes(), 5u);
}

TEST_F(ConstructTest, StoringAllPathsIsRejected) {
  auto g = Run(
      "CONSTRUCT (n)-/@p/->(m) "
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John'");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsUnsupported());
}

TEST_F(ConstructTest, SetCopyStatement) {
  auto g = Run(
      "CONSTRUCT (x GROUP n) SET x = n MATCH (n:Person) "
      "WHERE n.firstName = 'Frank'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->NumNodes(), 1u);
  g->ForEachNode([&](NodeId n) {
    EXPECT_NE(n, NodeId(snb::kFrankId));
    EXPECT_TRUE(g->Labels(n).Contains("Person"));
    EXPECT_EQ(g->Property(n, "employer").size(), 2u);
  });
}

TEST_F(ConstructTest, MultipleItemsUnionWithSharedIdentities) {
  auto g = Run(
      "CONSTRUCT (n), (n)-[:self]->(n) MATCH (n:Person) "
      "WHERE n.firstName = 'John'");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 1u);
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST_F(ConstructTest, GroupKeysFollowValueEquality) {
  // GROUP keys compare like Values (and like SELECT DISTINCT): the distinct
  // doubles 1000000.5 and 1000000.25 form two groups, Int(7) and
  // Double(7.0) one; a two-valued set and a string spelling its elements
  // are different keys.
  PathPropertyGraph g;
  for (const Value& v :
       {Value::Double(1000000.5), Value::Double(1000000.25), Value::Int(7),
        Value::Double(7.0)}) {
    const NodeId n = catalog.ids()->NextNode();
    g.AddNode(n);
    g.AddLabel(n, "P");
    g.SetProperty(n, "score", ValueSet(v));
  }
  for (const ValueSet& tag :
       {ValueSet({Value::String("a"), Value::String("b")}),
        ValueSet(Value::String("a|4:b"))}) {
    const NodeId n = catalog.ids()->NextNode();
    g.AddNode(n);
    g.AddLabel(n, "Q");
    g.SetProperty(n, "tag", tag);
  }
  catalog.RegisterGraph("scores", std::move(g));

  auto groups =
      Run("CONSTRUCT (x GROUP v :S {v:=v}) MATCH (n:P {score=v}) ON scores");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups->NumNodes(), 3u);
  auto count = [&](const Value& v) {
    int hits = 0;
    groups->ForEachNode([&](NodeId n) {
      if (groups->Property(n, "v") == ValueSet(v)) ++hits;
    });
    return hits;
  };
  EXPECT_EQ(count(Value::Double(1000000.5)), 1);
  EXPECT_EQ(count(Value::Double(1000000.25)), 1);
  EXPECT_EQ(count(Value::Int(7)), 1);

  auto tags = Run("CONSTRUCT (x GROUP n.tag :T) MATCH (n:Q) ON scores");
  ASSERT_TRUE(tags.ok()) << tags.status().ToString();
  EXPECT_EQ(tags->NumNodes(), 2u);
}

TEST_F(ConstructTest, ConstructWithoutMatchUsesUnitBinding) {
  auto g = Run("CONSTRUCT (x :Marker {v:=1})");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 1u);
}

TEST_F(ConstructTest, TableColumnsOfTheWrongSortAreRejected) {
  // The validator assigns no sort to a FROM table's columns, so these
  // reach the constructor's own checks through the engine.
  Table orders({"custName", "prodCode"});
  ASSERT_TRUE(
      orders.AddRow({Value::String("cust0"), Value::String("P0")}).ok());
  catalog.RegisterTable("orders", std::move(orders));
  auto node = Run("CONSTRUCT (custName) FROM orders");
  EXPECT_TRUE(node.status().IsTypeError()) << node.status().ToString();
  auto unbound = Run("CONSTRUCT (a)-/p/->(b) FROM orders");
  EXPECT_TRUE(unbound.status().IsBindError()) << unbound.status().ToString();
  auto path = Run("CONSTRUCT (a)-/custName/->(b) FROM orders");
  EXPECT_TRUE(path.status().IsTypeError()) << path.status().ToString();
}

TEST(ConstructProvenance, ReadsThePinnedGraphNotTheCatalogs) {
  // The bindings were matched on `pinned`; the catalog has since
  // re-registered "g" with other λ/σ. Bound objects, copies, assignments
  // and the `CONSTRUCT g, …` graph item must all read the pinned version.
  GraphCatalog catalog;
  // Ids from the catalog's allocator, so the copy's fresh id is new.
  const NodeId n = catalog.ids()->NextNode();
  const NodeId m = catalog.ids()->NextNode();
  const EdgeId e = catalog.ids()->NextEdge();
  auto version = [&](const std::string& label, int64_t v) {
    PathPropertyGraph g;
    g.AddNode(n);
    g.AddNode(m);
    EXPECT_TRUE(g.AddEdge(e, n, m).ok());
    g.AddLabel(n, label);
    g.SetProperty(n, "v", ValueSet(Value::Int(v)));
    g.AddLabel(e, label);
    g.SetProperty(e, "w", ValueSet(Value::Int(v)));
    return g;
  };
  const PathPropertyGraph pinned = version("Old", 1);
  catalog.RegisterGraph("g", version("New", 2));
  catalog.SetDefaultGraph("g");

  BindingTable bindings({"n", "e", "m"});
  for (const char* var : {"n", "e", "m"}) bindings.SetColumnGraph(var, "g");
  ASSERT_TRUE(bindings
                  .AddRow({Datum::OfNode(n), Datum::OfEdge(e),
                           Datum::OfNode(m)})
                  .ok());
  auto query = ParseQuery(
      "CONSTRUCT g, (n {u:=n.v})-[e]->(m), (=n) MATCH (n)-[e]->(m)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const ConstructClause& construct = *(*query)->body->basic->construct;

  for (bool spec : {false, true}) {
    ConstructorContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "g";
    ctx.use_spec = spec;
    ctx.resolve_graph = [&](const std::string& name) {
      return name == "g" ? &pinned : nullptr;
    };
    auto g = Constructor(ctx).EvalConstruct(construct, bindings);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ASSERT_EQ(g->NumNodes(), 3u) << spec;  // n, m and the copy of n
    g->ForEachNode([&](NodeId id) {
      if (id == m) return;
      EXPECT_EQ(g->Labels(id), LabelSet({"Old"})) << spec;
      EXPECT_EQ(g->Property(id, "v"), ValueSet(Value::Int(1))) << spec;
    });
    EXPECT_EQ(g->Property(n, "u"), ValueSet(Value::Int(1))) << spec;
    EXPECT_EQ(g->Labels(e), LabelSet({"Old"})) << spec;
    EXPECT_EQ(g->Property(e, "w"), ValueSet(Value::Int(1))) << spec;
  }
}

}  // namespace
}  // namespace gcore
