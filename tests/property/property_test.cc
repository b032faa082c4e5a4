// Cross-module property tests: invariants that must hold on arbitrary
// (generated) inputs, swept with TEST_P over seeds and scales.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "graph/graph_ops.h"
#include "graph/snapshot.h"
#include "parser/parser.h"
#include "paths/k_shortest.h"
#include "paths/product_bfs.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace {

struct EngineFixture {
  GraphCatalog catalog;
  std::unique_ptr<QueryEngine> engine;

  explicit EngineFixture(uint64_t seed, size_t persons = 120) {
    snb::GeneratorOptions options;
    options.seed = seed;
    options.num_persons = persons;
    catalog.RegisterGraph("snb", snb::Generate(options, catalog.ids()));
    catalog.SetDefaultGraph("snb");
    engine = std::make_unique<QueryEngine>(&catalog);
  }

  const PathPropertyGraph& graph() {
    return **catalog.Lookup("snb");
  }
};

class EngineInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineInvariants, IdentityConstructIsSubgraphOfInput) {
  EngineFixture f(GetParam());
  auto r = f.engine->Execute("CONSTRUCT (n)-[e]->(m) MATCH (n)-[e]->(m)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PathPropertyGraph& out = *r->graph;
  EXPECT_TRUE(out.Validate().ok());
  out.ForEachNode([&](NodeId n) { EXPECT_TRUE(f.graph().HasNode(n)); });
  out.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    EXPECT_TRUE(f.graph().HasEdge(e));
    EXPECT_EQ(f.graph().EdgeEndpoints(e), std::make_pair(src, dst));
  });
  EXPECT_EQ(out.NumEdges(), f.graph().NumEdges());
}

TEST_P(EngineInvariants, ResultGraphsAlwaysValidate) {
  EngineFixture f(GetParam());
  const char* queries[] = {
      "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
      "CONSTRUCT (x GROUP e :Emp {name:=e}) MATCH (n:Person {employer=e})",
      "CONSTRUCT (n)-[:coloc]->(m) "
      "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person) "
      "WHERE n.firstName = 'John'",
      "CONSTRUCT (n)-/@p:reach{d:=c}/->(m) "
      "MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) "
      "WHERE n.firstName = 'Wei' AND m.firstName = 'Emma'",
  };
  for (const char* q : queries) {
    auto r = f.engine->Execute(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    EXPECT_TRUE(r->graph->Validate().ok()) << q;
  }
}

TEST_P(EngineInvariants, ExecutionIsDeterministic) {
  EngineFixture f1(GetParam());
  EngineFixture f2(GetParam());
  const char* q =
      "CONSTRUCT (n)-/@p:sp{d:=c}/->(m) "
      "MATCH (n:Person)-/2 SHORTEST p <:knows*> COST c/->(m:Person) "
      "WHERE n.firstName = 'John'";
  auto r1 = f1.engine->Execute(q);
  auto r2 = f2.engine->Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(GraphEquals(*r1->graph, *r2->graph));
}

TEST_P(EngineInvariants, UnionWithInputIsSuperset) {
  EngineFixture f(GetParam());
  auto r = f.engine->Execute(
      "CONSTRUCT (n)-[:sameCity]->(m) "
      "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person) "
      "UNION snb");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->graph->NumNodes(), f.graph().NumNodes());
  EXPECT_GE(r->graph->NumEdges(), f.graph().NumEdges());
  f.graph().ForEachNode(
      [&](NodeId n) { EXPECT_TRUE(r->graph->HasNode(n)); });
}

TEST_P(EngineInvariants, MinusUnionRoundTrip) {
  EngineFixture f(GetParam());
  // (snb ∖ X) has no members of X for a node-only X.
  auto x = f.engine->Execute("CONSTRUCT (n) MATCH (n:Tag)");
  ASSERT_TRUE(x.ok());
  f.catalog.RegisterGraph("tags_only", std::move(*x->graph));
  auto r = f.engine->Execute("snb MINUS tags_only");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  r->graph->ForEachNode([&](NodeId n) {
    EXPECT_FALSE(f.graph().Labels(n).Contains(snb::kTag));
  });
  EXPECT_TRUE(r->graph->Validate().ok());
}

TEST_P(EngineInvariants, SelectRowCountMatchesCountStar) {
  EngineFixture f(GetParam());
  auto rows = f.engine->Execute(
      "SELECT n.firstName AS f, ID(n) AS i MATCH (n:Person)");
  auto count = f.engine->Execute("SELECT COUNT(*) AS c MATCH (n:Person)");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(static_cast<int64_t>(rows->table->NumRows()),
            count->table->At(0, 0).AsInt());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- path-search invariants on generated graphs ------------------------------------

class PathInvariants : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    snb::GeneratorOptions options;
    options.seed = GetParam();
    options.num_persons = 150;
    graph_ = snb::Generate(options, &ids_);
    snap_ = std::make_unique<GraphSnapshot>(graph_);
  }

  PathSearchContext Ctx(const Nfa* nfa) const {
    PathSearchContext ctx;
    ctx.snap = snap_.get();
    ctx.nfa = nfa;
    return ctx;
  }

  NodeId FirstPerson() const {
    NodeId first;
    graph_.ForEachNode([&](NodeId n) {
      if (!first.valid() && graph_.Labels(n).Contains(snb::kPerson)) {
        first = n;
      }
    });
    return first;
  }

  IdAllocator ids_;
  PathPropertyGraph graph_;
  std::unique_ptr<GraphSnapshot> snap_;
};

TEST_P(PathInvariants, ShortestPathExistsIffReachable) {
  auto rpq = ParseRpq(":knows*");
  ASSERT_TRUE(rpq.ok());
  Nfa nfa = Nfa::Compile(**rpq);
  const NodeId src = FirstPerson();
  ASSERT_TRUE(src.valid());
  auto reachable = ReachableFrom(Ctx(&nfa), src);
  ASSERT_TRUE(reachable.ok());
  auto shortest = ShortestPathsFrom(Ctx(&nfa), src);
  ASSERT_TRUE(shortest.ok());
  std::set<NodeId> shortest_dsts;
  for (const auto& [dst, path] : *shortest) shortest_dsts.insert(dst);
  EXPECT_EQ(*reachable, shortest_dsts);
}

TEST_P(PathInvariants, FoundWalksConformToRegex) {
  auto rpq = ParseRpq(":knows*");
  ASSERT_TRUE(rpq.ok());
  Nfa nfa = Nfa::Compile(**rpq);
  const NodeId src = FirstPerson();
  auto results = KShortestPathsFrom(Ctx(&nfa), src, 2);
  ASSERT_TRUE(results.ok());
  size_t checked = 0;
  for (const auto& [dst, paths] : *results) {
    for (const FoundPath& p : paths) {
      EXPECT_TRUE(BodyConformsToRegex(p.body, nfa, graph_));
      if (++checked > 50) return;  // bound runtime
    }
  }
}

TEST_P(PathInvariants, KShortestCostsNondecreasing) {
  auto rpq = ParseRpq(":knows*");
  ASSERT_TRUE(rpq.ok());
  Nfa nfa = Nfa::Compile(**rpq);
  auto results = KShortestPathsFrom(Ctx(&nfa), FirstPerson(), 3);
  ASSERT_TRUE(results.ok());
  for (const auto& [dst, paths] : *results) {
    for (size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(paths[i - 1].cost, paths[i].cost);
    }
    for (const auto& p : paths) {
      EXPECT_EQ(p.body.nodes.size(), p.body.edges.size() + 1);
    }
  }
}

TEST_P(PathInvariants, HopCostEqualsBodyLengthForUnitRegex) {
  auto rpq = ParseRpq(":knows*");
  ASSERT_TRUE(rpq.ok());
  Nfa nfa = Nfa::Compile(**rpq);
  auto results = ShortestPathsFrom(Ctx(&nfa), FirstPerson());
  ASSERT_TRUE(results.ok());
  for (const auto& [dst, p] : *results) {
    EXPECT_DOUBLE_EQ(p.cost, static_cast<double>(p.body.edges.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathInvariants,
                         ::testing::Values(11, 12, 13, 14));

// --- parser fuzz-ish robustness ------------------------------------------------------

class ParserRobustness : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRobustness, NeverCrashesOnlyStatuses) {
  auto r = ParseQuery(GetParam());
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsParseError());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Garbage, ParserRobustness,
    ::testing::Values("", "(", ")", "CONSTRUCT CONSTRUCT", "MATCH MATCH",
                      "CONSTRUCT (n MATCH", "-[:x]->", "-/p/->",
                      "CONSTRUCT (n) MATCH (n)-[e:]->(m)",
                      "CONSTRUCT (n) MATCH (n) WHERE ((((",
                      "CONSTRUCT (n) MATCH (n) WHERE n.",
                      "SELECT MATCH (n)", "GRAPH AS", "PATH p",
                      "CONSTRUCT (n) MATCH (n)-/<:a/->(m)",
                      "CONSTRUCT (n) MATCH (n) UNION",
                      "CONSTRUCT () WHEN MATCH (n)",
                      "\x01\x02\x03", "'unterminated"));

}  // namespace
}  // namespace gcore
