// Differential suite for CONSTRUCT: the columnar fast path against the
// row-at-a-time executable spec (ConstructorContext::use_spec).
//
// Each case runs on twin catalogs — the same graphs, the same id
// allocator position — and evaluates the query's bindings on each through
// the planner at the parameterized parallelism (deterministic, so the two
// binding tables are equal; MATCH may draw ids, e.g. fresh path ids or
// the nodes of an ON <table> graph). One twin constructs through the fast
// path, the other through the spec. Both must return equal graphs with
// identical member ids (fresh skolem ids included), or errors with the
// same status code.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "bench/paper_queries.h"
#include "engine/engine.h"
#include "engine/tabular.h"
#include "eval/constructor.h"
#include "graph/graph_ops.h"
#include "parser/parser.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

using Populate = std::function<void(GraphCatalog*)>;

/// The paper's Figure 4 graphs plus the `orders` table of lines 76-85.
void ToyData(GraphCatalog* catalog) {
  snb::RegisterToyData(catalog);
  Table orders({"custName", "prodCode"});
  for (int i = 0; i < 12; ++i) {
    Status st = orders.AddRow({Value::String("cust" + std::to_string(i % 5)),
                               Value::String("P" + std::to_string(i % 4))});
    (void)st;
  }
  catalog->RegisterTable("orders", std::move(orders));
}

/// A 300-person SNB graph (the construct workload's shape, scaled down).
void Snb300(GraphCatalog* catalog) {
  snb::GeneratorOptions options;
  options.num_persons = 300;
  catalog->RegisterGraph("social_graph",
                         snb::Generate(options, catalog->ids()));
  catalog->SetDefaultGraph("social_graph");
}

/// Nodes :P whose `score` values compare equal or not only as Values:
/// two close doubles, and Int(7) next to Double(7.0). Nodes :Q carry a
/// two-valued `tag` set and a string that spells the set's old key.
void Scores(GraphCatalog* catalog) {
  PathPropertyGraph g;
  IdAllocator* ids = catalog->ids();
  for (const Value& v :
       {Value::Double(1000000.5), Value::Double(1000000.25), Value::Int(7),
        Value::Double(7.0)}) {
    const NodeId n = ids->NextNode();
    g.AddNode(n);
    g.AddLabel(n, "P");
    g.SetProperty(n, "score", ValueSet(v));
  }
  const NodeId multi = ids->NextNode();
  g.AddNode(multi);
  g.AddLabel(multi, "Q");
  g.SetProperty(multi, "tag",
                ValueSet({Value::String("a"), Value::String("b")}));
  const NodeId single = ids->NextNode();
  g.AddNode(single);
  g.AddLabel(single, "Q");
  g.SetProperty(single, "tag", ValueSet(Value::String("a|4:b")));
  catalog->RegisterGraph("scores", std::move(g));
  catalog->SetDefaultGraph("scores");
}

/// A directed chain a → b → c of `next` edges, ids ascending along it.
void Chain(GraphCatalog* catalog) {
  PathPropertyGraph g;
  IdAllocator* ids = catalog->ids();
  const NodeId a = ids->NextNode();
  const NodeId b = ids->NextNode();
  const NodeId c = ids->NextNode();
  for (NodeId n : {a, b, c}) g.AddNode(n);
  for (auto [src, dst] : {std::make_pair(a, b), std::make_pair(b, c)}) {
    const EdgeId e = ids->NextEdge();
    Status st = g.AddEdge(e, src, dst);
    (void)st;
    g.AddLabel(e, "next");
  }
  catalog->RegisterGraph("chain", std::move(g));
  catalog->SetDefaultGraph("chain");
}

struct Outcome {
  Status status = Status::OK();
  PathPropertyGraph graph;
};

class ConstructDifferential : public ::testing::TestWithParam<size_t> {
 protected:
  /// Checks `query` (a basic CONSTRUCT query, possibly the left operand
  /// of a UNION or the body of a GRAPH VIEW head) after running `setup`
  /// on both catalogs. Returns the spec's outcome for further checks.
  Outcome Check(const Populate& populate, const std::string& query,
                const std::vector<std::string>& setup = {}) {
    GraphCatalog fast_catalog;
    GraphCatalog spec_catalog;
    populate(&fast_catalog);
    populate(&spec_catalog);
    for (GraphCatalog* catalog : {&fast_catalog, &spec_catalog}) {
      QueryEngine engine(catalog);
      for (const auto& text : setup) {
        auto r = engine.Execute(text);
        EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      }
    }
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << query;
    if (!parsed.ok()) return {};
    const BasicQuery& basic = BasicOf(**parsed);
    auto fast_bindings = Bindings(&fast_catalog, basic);
    auto spec_bindings = Bindings(&spec_catalog, basic);
    EXPECT_TRUE(fast_bindings.ok() && spec_bindings.ok())
        << query << ": " << fast_bindings.status().ToString();
    if (!fast_bindings.ok() || !spec_bindings.ok()) return {};
    EXPECT_EQ(fast_bindings->ToString(), spec_bindings->ToString()) << query;

    const Outcome fast =
        Construct(&fast_catalog, basic, *fast_bindings, /*spec=*/false);
    Outcome spec =
        Construct(&spec_catalog, basic, *spec_bindings, /*spec=*/true);
    ExpectSameOutcome(query, fast, spec);
    return spec;
  }

  /// Checks `query` (a CONSTRUCT without MATCH) over hand-built bindings,
  /// so row order and cell kinds can be chosen freely. `make` builds the
  /// table from a twin catalog (the twins hold the same ids).
  Outcome CheckTable(const Populate& populate, const std::string& query,
                     const std::function<BindingTable(GraphCatalog*)>& make) {
    GraphCatalog fast_catalog;
    GraphCatalog spec_catalog;
    populate(&fast_catalog);
    populate(&spec_catalog);
    auto parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << query;
    if (!parsed.ok()) return {};
    const BasicQuery& basic = BasicOf(**parsed);
    const Outcome fast = Construct(&fast_catalog, basic, make(&fast_catalog),
                                   /*spec=*/false);
    Outcome spec = Construct(&spec_catalog, basic, make(&spec_catalog),
                             /*spec=*/true);
    ExpectSameOutcome(query, fast, spec);
    return spec;
  }

 private:
  static void ExpectSameOutcome(const std::string& query, const Outcome& fast,
                                const Outcome& spec) {
    EXPECT_EQ(fast.status.code(), spec.status.code())
        << query << "\nfast: " << fast.status.ToString()
        << "\nspec: " << spec.status.ToString();
    if (fast.status.ok() && spec.status.ok()) {
      EXPECT_TRUE(GraphEquals(fast.graph, spec.graph))
          << query << "\nfast:\n" << fast.graph.ToString() << "spec:\n"
          << spec.graph.ToString();
      EXPECT_EQ(fast.graph.NodeIds(), spec.graph.NodeIds()) << query;
      EXPECT_EQ(fast.graph.EdgeIds(), spec.graph.EdgeIds()) << query;
      EXPECT_EQ(fast.graph.PathIds(), spec.graph.PathIds()) << query;
      EXPECT_TRUE(fast.graph.Validate().ok()) << query;
    }
  }

  static const BasicQuery& BasicOf(const Query& query) {
    if (query.body == nullptr) {
      return *query.graph_clauses.back().query->body->basic;
    }
    const QueryBody* body = query.body.get();
    while (body->kind != QueryBody::Kind::kBasic) body = body->left.get();
    return *body->basic;
  }

  Result<BindingTable> Bindings(GraphCatalog* catalog,
                                const BasicQuery& basic) {
    if (basic.match.has_value()) {
      MatcherContext ctx;
      ctx.catalog = catalog;
      ctx.default_graph = catalog->default_graph();
      ctx.parallelism = GetParam();
      ctx.morsel_size = GetParam() > 1 ? 2 : 0;
      // Correlated EXISTS (Appendix A.2): the subquery's bindings, which
      // the matcher semijoins with each outer row.
      ctx.exists_cb = [this, catalog](const Query& sub) {
        return Bindings(catalog, *sub.body->basic);
      };
      return Matcher(ctx).EvalMatchClause(*basic.match);
    }
    if (!basic.from_table.empty()) {
      GCORE_ASSIGN_OR_RETURN(const Table* table,
                             catalog->LookupTable(basic.from_table));
      return TableAsBindings(*table);
    }
    return BindingTable::Unit();
  }

  static Outcome Construct(GraphCatalog* catalog, const BasicQuery& basic,
                           const BindingTable& bindings, bool spec) {
    ConstructorContext ctx;
    ctx.catalog = catalog;
    ctx.default_graph = catalog->default_graph();
    ctx.use_spec = spec;
    auto graph = Constructor(ctx).EvalConstruct(*basic.construct, bindings);
    Outcome out;
    if (graph.ok()) {
      out.graph = std::move(*graph);
    } else {
      out.status = graph.status();
    }
    return out;
  }
};

// --- the construct_test shapes on the toy graphs ------------------------------------

TEST_P(ConstructDifferential, ConstructTestShapes) {
  for (const char* q : {
           "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
           "CONSTRUCT () MATCH (n:Person)",
           "CONSTRUCT (x GROUP e :Company {name:=e}) "
           "MATCH (n:Person {employer=e})",
           "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
           "MATCH (n:Person {employer=e})",
           "CONSTRUCT social_graph, "
           "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
           "MATCH (n:Person {employer=e})",
           "CONSTRUCT (=n) MATCH (n:Person) WHERE n.firstName = 'John'",
           "CONSTRUCT (n)-[=y]->(m) MATCH (n:Person)-[y:knows]->(m:Person) "
           "WHERE n.firstName = 'John' AND m.firstName = 'Peter'",
           "CONSTRUCT (n)-[y]->(m) MATCH (n)-[y:knows]->(m)",
           "CONSTRUCT (n) SET n.degree := COUNT(*) "
           "MATCH (n:Person)-[:knows]->(m)",
           "CONSTRUCT (n) SET n:Employee REMOVE n.employer "
           "MATCH (n:Person) WHERE n.employer = 'Acme'",
           "CONSTRUCT (n) WHEN n.firstName = 'John' MATCH (n:Person)",
           "CONSTRUCT (n)-[e:strongFriend {score:=COUNT(*)}]->(m) "
           "WHEN e.score > 1 "
           "MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(n2:Person) "
           "WHERE n = n2",
           "CONSTRUCT (n)-[:interest]->(t) "
           "MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)",
           "CONSTRUCT (n)-/@p:jp{distance:=c}/->(m) "
           "MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) "
           "WHERE n.firstName = 'John' AND m.firstName = 'Celine'",
           "CONSTRUCT (n)-/p/->(m) "
           "MATCH (n:Person)-/p <:knows*>/->(m:Person) "
           "WHERE n.firstName = 'John' AND m.firstName = 'Celine'",
           "CONSTRUCT (n)-/p/->(m) "
           "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
           "WHERE n.firstName = 'John' AND m.firstName = 'Celine'",
           "CONSTRUCT (x GROUP n) SET x = n MATCH (n:Person) "
           "WHERE n.firstName = 'Frank'",
           "CONSTRUCT (n), (n)-[:self]->(n) MATCH (n:Person) "
           "WHERE n.firstName = 'John'",
           "CONSTRUCT (x :Marker {v:=1})",
       }) {
    Check(ToyData, q);
  }
}

// --- the paper's queries (bench/paper_queries.h) -------------------------------------

TEST_P(ConstructDifferential, PaperQueries) {
  // Q10 defines social_graph1, which Q11 reads; Q11 defines
  // social_graph2, which Q12 reads. Each query runs after its
  // predecessors' views exist on both catalogs.
  std::vector<std::string> views;
  for (const auto& pq : bench::kPaperQueries) {
    const std::string id = pq.id;
    if (id == "SELECT") continue;
    if (id == "Q11") {
      // Q11's PATH view is materialized by the engine, out of reach of a
      // binding-level harness; its CONSTRUCT shape (a graph plus stored
      // paths over social_graph1) is checked with the view's weighted
      // walk replaced by the plain knows* walk.
      Check(ToyData,
            "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
            "MATCH (n:Person)-/p<:knows*>/->(m:Person) ON social_graph1 "
            "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
            "AND n.firstName = 'John' AND n.lastName = 'Doe'",
            views);
    } else {
      Check(ToyData, pq.text, views);
    }
    if (id == "Q10" || id == "Q11") views.push_back(pq.text);
  }
}

// --- the construct workload's seven shapes on SNB ------------------------------------

TEST_P(ConstructDifferential, ConstructWorkloadShapes) {
  for (const char* q : {
           "CONSTRUCT (n)-[e]->(m) MATCH (n)-[e:knows]->(m)",
           "CONSTRUCT social_graph, "
           "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
           "MATCH (n:Person {employer=e})",
           "CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
           "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
           "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
           "(msg2:Post|Comment)-[c2]->(m) "
           "WHERE (c1:has_creator) AND (c2:has_creator)",
           "CONSTRUCT (a)-[:triangle]->(b) "
           "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person)"
           "-[:knows]->(a)",
           "CONSTRUCT (n)-/@p:nearest/->(m) "
           "MATCH (n:Person)-/p<:knows*>/->(m:Person) "
           "WHERE n.firstName = 'John' AND n.lastName = 'Doe'",
           "CONSTRUCT (x GROUP c :CityStat {people:=COUNT(*)}) "
           "MATCH (n:Person)-[:isLocatedIn]->(c:City)",
           "CONSTRUCT (n) SET n.msgs := COUNT(*) "
           "MATCH (n:Person) OPTIONAL (msg)-[:has_creator]->(n)",
       }) {
    Check(Snb300, q);
  }
}

// --- clause features ---------------------------------------------------------------------

TEST_P(ConstructDifferential, PostWhenDropsGroupsAndTheirEdges) {
  for (const char* q : {
           "CONSTRUCT (x GROUP e :Emp {staff:=COUNT(*)})<-[:at]-(n) "
           "WHEN x.staff > 1 MATCH (n:Person {employer=e})",
           "CONSTRUCT (n)-[e:pair {k:=COUNT(*)}]->(m) WHEN e.k > 0 "
           "MATCH (n:Person)-[:knows]->(m:Person)",
       }) {
    Check(ToyData, q);
    Check(Snb300, q);
  }
}

TEST_P(ConstructDifferential, SetRemoveAndCopy) {
  for (const char* q : {
           "CONSTRUCT (n)-[e]->(m) SET n.deg := COUNT(*) REMOVE n.employer "
           "SET n:Busy REMOVE m:Person MATCH (n:Person)-[e:knows]->(m)",
           "CONSTRUCT (=n)-[=e]->(=m) MATCH (n:Person)-[e:knows]->(m:Person)",
           "CONSTRUCT (x GROUP n) SET x = n MATCH (n:Person)",
           "CONSTRUCT (n {firstName:='X'})-[e {since:=1}]->(m) "
           "MATCH (n:Person)-[e:knows]->(m:Person)",
       }) {
    Check(ToyData, q);
    Check(Snb300, q);
  }
}

// Label edits over many groups that start from one shared label set (the
// bound knows edges): the fast path edits the set once and shares it.
TEST_P(ConstructDifferential, LabelEditsOverManyGroups) {
  for (const char* q : {
           "CONSTRUCT (n)-[e]->(m) SET e:X MATCH (n)-[e:knows]->(m)",
           "CONSTRUCT (n)-[e]->(m) REMOVE e:knows "
           "MATCH (n:Person)-[e:knows]->(m:Person)",
           "CONSTRUCT (n)-[e]->(m) SET e:X REMOVE e:knows SET n:Busy "
           "REMOVE n:Busy MATCH (n)-[e:knows|isLocatedIn]->(m)",
       }) {
    Check(ToyData, q);
    Check(Snb300, q);
  }
  // Both paths run the SET statements through the same code, so check
  // the edits themselves: groups starting from other label sets (knows
  // and isLocatedIn edges) must not share one edited set.
  const Outcome out = Check(
      ToyData,
      "CONSTRUCT (n)-[e]->(m) SET e:X REMOVE e:knows "
      "MATCH (n)-[e:knows|isLocatedIn]->(m)");
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  size_t located = 0;
  out.graph.ForEachEdge([&](EdgeId e, NodeId, NodeId) {
    const LabelSet& labels = out.graph.Labels(e);
    EXPECT_TRUE(labels.Contains("X"));
    EXPECT_FALSE(labels.Contains("knows"));
    if (labels.Contains("isLocatedIn")) ++located;
  });
  EXPECT_EQ(located, 5u);  // the five persons' city edges
}

TEST_P(ConstructDifferential, MultiItemClausesShareSkolems) {
  for (const char* q : {
           "CONSTRUCT (x GROUP e :Company {name:=e}), (x)<-[:worksAt]-(n), "
           "(x)<-[:employs]-(n) MATCH (n:Person {employer=e})",
           "CONSTRUCT (), () MATCH (n:Person)",
           "CONSTRUCT (n)-[:k]->(m), (m)<-[:k]-(n), (=n) "
           "MATCH (n:Person)-[:knows]->(m:Person)",
           "CONSTRUCT (n)<-[:rev]-(m), social_graph "
           "MATCH (n:Person)-[:knows]->(m:Person)",
       }) {
    Check(ToyData, q);
    Check(Snb300, q);
  }
}

TEST_P(ConstructDifferential, DanglingEdgesArePrevented) {
  Check(ToyData,
        "CONSTRUCT (n)-[:interest]->(t)<-[:liked]-(=t) "
        "MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)");
  Check(Snb300,
        "CONSTRUCT (n)-[:posted]->(msg) "
        "MATCH (n:Person) OPTIONAL (msg)-[:has_creator]->(n)");
}

TEST_P(ConstructDifferential, ErrorsAgree) {
  // Reversed bound edge: identity violation on the first row.
  EXPECT_TRUE(Check(ToyData, "CONSTRUCT (m)-[y]->(n) MATCH (n)-[y:knows]->(m)")
                  .status.IsBindError());
  // Undirected match: each knows edge binds in both orientations, so the
  // violation sits on a later row of the same edge.
  EXPECT_TRUE(Check(Snb300, "CONSTRUCT (n)-[e]->(m) MATCH (n)-[e:knows]-(m)")
                  .status.IsBindError());
  // Scanning the chain in id order meets each edge forward first: the
  // first row agrees with ρ, the reversed second row violates it.
  EXPECT_TRUE(Check(Chain, "CONSTRUCT (x)-[e]->(y) MATCH (x)-[e:next]-(y)")
                  .status.IsBindError());
  // A node variable used as an edge.
  EXPECT_TRUE(
      Check(ToyData, "CONSTRUCT (n)-[m]->(n) MATCH (n:Person)-[:knows]->(m)")
          .status.IsTypeError());
  // Storing ALL-paths bindings is intractable.
  EXPECT_TRUE(Check(ToyData,
                    "CONSTRUCT (n)-/@p/->(m) "
                    "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
                    "WHERE n.firstName = 'John'")
                  .status.IsUnsupported());
  // SET on a variable the item does not construct.
  EXPECT_TRUE(Check(ToyData, "CONSTRUCT (n) SET z.k := 1 MATCH (n:Person)")
                  .status.IsBindError());
}

TEST_P(ConstructDifferential, GroupKeysUseValueEquality) {
  Check(Scores, "CONSTRUCT (x GROUP v :S {v:=v}) MATCH (n:P {score=v})");
  Check(Scores, "CONSTRUCT (x GROUP n.tag :T {tag:=n.tag}) MATCH (n:Q)");
  Check(Scores,
        "CONSTRUCT (x GROUP v)-[:has]->(n) MATCH (n:P {score=v})");
}

// --- error precedence and skolem order -------------------------------------------------

/// Node ids of the `chain` graph, ascending: a, b, c.
std::vector<NodeId> ChainNodes(GraphCatalog* catalog) {
  return (*catalog->Lookup("chain"))->NodeIds();
}

TEST_P(ConstructDifferential, FirstAppearingGroupDecidesAssignmentErrors) {
  // Two groups of n fail differently: 1 / 0 is an evaluation error and
  // 1 / 'x' a type error. Row 0's group holds the larger node id, so group
  // order and id order disagree; the group that appears first decides.
  auto rows = [](Value first, Value second) {
    return [=](GraphCatalog* catalog) {
      const std::vector<NodeId> nodes = ChainNodes(catalog);
      BindingTable table({"n", "v"});
      Status st = table.AddRow({Datum::OfNode(nodes[2]), Datum::OfValue(first)});
      st = table.AddRow({Datum::OfNode(nodes[0]), Datum::OfValue(second)});
      (void)st;
      return table;
    };
  };
  for (const char* q : {"CONSTRUCT (n) SET n.k := 1 / v",
                        "CONSTRUCT (n {k:=1 / v})",
                        "CONSTRUCT (=n) SET n.k := 1 / v"}) {
    EXPECT_TRUE(CheckTable(Chain, q, rows(Value::Int(0), Value::String("x")))
                    .status.IsEvaluationError())
        << q;
    EXPECT_TRUE(CheckTable(Chain, q, rows(Value::String("x"), Value::Int(0)))
                    .status.IsTypeError())
        << q;
  }
}

TEST_P(ConstructDifferential, EarliestRowDecidesTypeAndIdentityErrors) {
  // On the chain a -e1-> b -e2-> c: `ok` binds e2 with its own endpoints,
  // `violation` binds e1 reversed and `type` binds e to a node. The
  // violation sits on the smallest edge id, so id order and row order
  // disagree whenever it comes after the type error.
  enum RowKind { kOk, kViolation, kType };
  auto rows = [](std::vector<RowKind> kinds) {
    return [=](GraphCatalog* catalog) {
      const std::vector<NodeId> n = ChainNodes(catalog);
      const std::vector<EdgeId> e = (*catalog->Lookup("chain"))->EdgeIds();
      BindingTable table({"n", "e", "m"});
      for (RowKind kind : kinds) {
        Status st;
        switch (kind) {
          case kOk:
            st = table.AddRow({Datum::OfNode(n[1]), Datum::OfEdge(e[1]),
                               Datum::OfNode(n[2])});
            break;
          case kViolation:
            st = table.AddRow({Datum::OfNode(n[1]), Datum::OfEdge(e[0]),
                               Datum::OfNode(n[0])});
            break;
          case kType:
            st = table.AddRow({Datum::OfNode(n[0]), Datum::OfNode(n[0]),
                               Datum::OfNode(n[1])});
            break;
        }
        (void)st;
      }
      return table;
    };
  };
  const std::string q = "CONSTRUCT (n)-[e]->(m)";
  EXPECT_TRUE(CheckTable(Chain, q, rows({kOk, kType, kViolation}))
                  .status.IsTypeError());
  EXPECT_TRUE(CheckTable(Chain, q, rows({kOk, kViolation, kType}))
                  .status.IsBindError());
  EXPECT_TRUE(CheckTable(Chain, q, rows({kType, kOk, kViolation}))
                  .status.IsTypeError());
  EXPECT_TRUE(CheckTable(Chain, q, rows({kViolation, kOk, kType}))
                  .status.IsBindError());
}

TEST_P(ConstructDifferential, BoundAndSkolemConstructorsKeepFreshIds) {
  // Rows bind c before a: each fresh id is drawn in the order its group
  // first appears, not in the order of the bound ids.
  auto rows = [](GraphCatalog* catalog) {
    const std::vector<NodeId> nodes = ChainNodes(catalog);
    BindingTable table({"n"});
    for (NodeId id : {nodes[2], nodes[0], nodes[2], nodes[1]}) {
      Status st = table.AddRow({Datum::OfNode(id)});
      (void)st;
    }
    return table;
  };
  const Outcome out = CheckTable(
      Chain, "CONSTRUCT (n)-[:k]->(x GROUP n)<-[:j]-(=n), (n)-[:self]->(n)",
      rows);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  GraphCatalog catalog;
  Chain(&catalog);
  const std::vector<NodeId> nodes = ChainNodes(&catalog);
  std::map<NodeId, NodeId> group_of;  // bound n -> its x
  out.graph.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (out.graph.Labels(e).Contains("k")) group_of[src] = dst;
  });
  ASSERT_EQ(group_of.size(), 3u);
  EXPECT_LT(group_of[nodes[2]], group_of[nodes[0]]);
  EXPECT_LT(group_of[nodes[0]], group_of[nodes[1]]);
  // Bound and skolem constructors in one item, over MATCH rows whose
  // order is not the id order of m.
  for (const char* q : {
           "CONSTRUCT (m)<-[e]-(n)-[:twin]->(x GROUP m)<-[:of]-(=m) "
           "MATCH (n:Person)-[e:knows]->(m:Person)",
           "CONSTRUCT (n)-[e]->(m), (x GROUP m)-[:near]->(n) "
           "MATCH (m:Person)<-[e:knows]-(n:Person)",
       }) {
    Check(ToyData, q);
    Check(Snb300, q);
  }
}

TEST_P(ConstructDifferential, StoredPathsAppendOnlyImportedBodies) {
  // Computed paths over the chain a -e1-> b -e2-> c: the full walk, and
  // a walk through an edge id the chain graph does not hold. A body whose
  // edges were all imported appends; the other keeps UpsertPath's check.
  auto rows = [](bool missing_edge) {
    return [=](GraphCatalog* catalog) {
      const std::vector<NodeId> n = ChainNodes(catalog);
      const std::vector<EdgeId> e = (*catalog->Lookup("chain"))->EdgeIds();
      auto path = std::make_shared<PathValue>();
      path->id = catalog->ids()->NextPath();
      path->body.nodes = n;
      path->body.edges = {e[0], missing_edge ? EdgeId(e[1].value() + 100)
                                             : e[1]};
      BindingTable table({"a", "p", "c"});
      Status st = table.AddRow({Datum::OfNode(n[0]),
                                Datum::OfPath(std::move(path)),
                                Datum::OfNode(n[2])});
      (void)st;
      return table;
    };
  };
  const std::string q = "CONSTRUCT (a)-/@p:walk/->(c)";
  const Outcome whole = CheckTable(Chain, q, rows(false));
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
  EXPECT_EQ(whole.graph.NumPaths(), 1u);
  EXPECT_TRUE(CheckTable(Chain, q, rows(true)).status.IsInvalidArgument());
}

TEST_P(ConstructDifferential, SetOnAConstructorWithoutGroups) {
  Check(ToyData, "CONSTRUCT (n) SET n.k := 1 MATCH (n:Nobody)");
  Check(ToyData, "CONSTRUCT (n)-[e:x]->(m) SET e.k := 1 MATCH (n:Nobody)");
}

TEST_P(ConstructDifferential, TableColumnsOfTheWrongSort) {
  // The validator gives table columns no sort, so a FROM query reaches
  // the constructor's own sort checks.
  EXPECT_TRUE(Check(ToyData, "CONSTRUCT (custName) FROM orders")
                  .status.IsTypeError());
  EXPECT_TRUE(Check(ToyData, "CONSTRUCT (a)-/p/->(b) FROM orders")
                  .status.IsBindError());
  EXPECT_TRUE(Check(ToyData, "CONSTRUCT (a)-/custName/->(b) FROM orders")
                  .status.IsTypeError());
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ConstructDifferential,
                         ::testing::Values(size_t{1}, size_t{3}));

}  // namespace
}  // namespace gcore
