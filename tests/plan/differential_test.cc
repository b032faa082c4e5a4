// Differential tests: the planner/executor pipeline must produce exactly
// the results of the pre-refactor recursive matcher (kept as the
// reference implementation behind MatcherContext::use_planner = false)
// on the guided-tour and extension workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/engine.h"
#include "eval/matcher.h"
#include "graph/graph_ops.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// Order-insensitive canonical form of a binding table: sorted
/// "col=value" rows over name-sorted columns. Computed (non-stored)
/// paths carry *fresh* identifiers by definition (Appendix A.2), so they
/// canonicalize to their walk, not their id.
std::string CanonicalDatum(const Datum& datum) {
  if (datum.kind() == Datum::Kind::kPath && !datum.path().from_graph) {
    const PathValue& path = datum.path();
    std::string out = "walk(";
    for (NodeId n : path.body.nodes) out += ToString(n) + ",";
    if (path.projection.has_value()) {
      for (NodeId n : path.projection->first) out += ToString(n) + ",";
      out += "|";
      for (EdgeId e : path.projection->second) out += ToString(e) + ",";
    }
    return out + ")";
  }
  return datum.ToString();
}

std::vector<std::string> Canonical(const BindingTable& table) {
  std::vector<std::string> columns = table.columns();
  std::sort(columns.begin(), columns.end());
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (const auto& col : columns) {
      row += col + "=" + CanonicalDatum(table.Get(r, col)) + ";";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class DifferentialMatch : public ::testing::Test {
 protected:
  DifferentialMatch() {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
  }

  void ExpectSameBindings(const std::string& match_query) {
    auto parsed = ParseQuery("CONSTRUCT (z) " + match_query);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const MatchClause& match = *(*parsed)->body->basic->match;

    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";

    ctx.use_planner = true;
    Matcher planned(ctx);
    auto via_plan = planned.EvalMatchClause(match);

    ctx.use_planner = false;
    Matcher legacy(ctx);
    auto via_walk = legacy.EvalMatchClause(match);

    ASSERT_EQ(via_plan.ok(), via_walk.ok())
        << match_query << "\nplanner: " << via_plan.status().ToString()
        << "\nlegacy: " << via_walk.status().ToString();
    if (!via_plan.ok()) return;
    // Identical schema (the Project records the legacy binding order)
    // and identical binding sets.
    EXPECT_EQ(via_plan->columns(), via_walk->columns()) << match_query;
    EXPECT_EQ(Canonical(*via_plan), Canonical(*via_walk)) << match_query;
  }

  GraphCatalog catalog;
};

TEST_F(DifferentialMatch, NodeScans) {
  ExpectSameBindings("MATCH (n)");
  ExpectSameBindings("MATCH (n:Person)");
  ExpectSameBindings("MATCH (n:Person {firstName='John'})");
  ExpectSameBindings("MATCH (n:Person {employer=e})");
}

TEST_F(DifferentialMatch, EdgeHops) {
  ExpectSameBindings("MATCH (n)-[e:knows]->(m)");
  ExpectSameBindings("MATCH (n)<-[e:knows]-(m)");
  ExpectSameBindings("MATCH (n:Person)-[e:knows]-(m:Person)");
  ExpectSameBindings(
      "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person)");
  ExpectSameBindings("MATCH (n)-[e1:knows]->(m)-[e2:knows]->(o)");
}

TEST_F(DifferentialMatch, WherePushdownEquivalence) {
  ExpectSameBindings(
      "MATCH (n:Person)-[e:knows]->(m) WHERE n.firstName = 'John'");
  ExpectSameBindings(
      "MATCH (n:Person)-[e:knows]->(m:Person) "
      "WHERE n.firstName = 'John' AND m.employer = 'Acme'");
  ExpectSameBindings(
      "MATCH (n:Person) WHERE n.firstName = 'John' OR n.firstName = "
      "'Alice'");
}

TEST_F(DifferentialMatch, MultiChainJoins) {
  ExpectSameBindings(
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ExpectSameBindings(
      "MATCH (n:Person) ON social_graph, (c:Company) ON company_graph");
  ExpectSameBindings(
      "MATCH (n:Person), (m:Person) WHERE n.employer = m.employer");
}

TEST_F(DifferentialMatch, PathModes) {
  ExpectSameBindings("MATCH (n:Person)-/<:knows*>/->(m:Person)");
  ExpectSameBindings(
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE n.firstName = 'John'");
  ExpectSameBindings(
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John'");
}

TEST_F(DifferentialMatch, Optionals) {
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m)");
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m) "
      "WHERE m.employer = 'Acme'");
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[:isLocatedIn]->(c) "
      "OPTIONAL (n)-[:hasInterest]->(t)");
}

TEST_F(DifferentialMatch, PatternPredicatesAndExists) {
  ExpectSameBindings(
      "MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
}

TEST_F(DifferentialMatch, ErrorEquivalence) {
  // No default graph and two distinct ON graphs: both paths must fail.
  MatcherContext ctx;
  ctx.catalog = &catalog;
  auto parsed = ParseQuery(
      "CONSTRUCT (z) MATCH (c) ON company_graph, (n) ON social_graph");
  ASSERT_TRUE(parsed.ok());
  const MatchClause& match = *(*parsed)->body->basic->match;
  ctx.use_planner = true;
  auto via_plan = Matcher(ctx).EvalMatchClause(match);
  ctx.use_planner = false;
  auto via_walk = Matcher(ctx).EvalMatchClause(match);
  EXPECT_FALSE(via_plan.ok());
  EXPECT_FALSE(via_walk.ok());
}

/// The paper's guided-tour queries (Section 3).
const char* const kGuidedTourQueries[] = {
    "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
    "WHERE n.employer = 'Acme'",
    "CONSTRUCT (c)<-[:worksAt]-(n) "
    "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
    "WHERE c.name = n.employer UNION social_graph",
    "CONSTRUCT (c)<-[:worksAt]-(n) "
    "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
    "WHERE c.name IN n.employer UNION social_graph",
    "CONSTRUCT social_graph, "
    "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
    "MATCH (n:Person {employer=e})",
    "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
    "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
    "WHERE (n:Person) AND (m:Person) "
    "AND n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    "CONSTRUCT (n)-/p/->(m) "
    "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    "CONSTRUCT (m) MATCH (m:Person), (n:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND EXISTS ( CONSTRUCT () "
    "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )",
};

/// Engine-level differential: full queries (construction, views, set
/// operations, tabular extensions) through the planner and the
/// use_planner = false spec.
class DifferentialEngine : public ::testing::Test {
 protected:
  Result<QueryResult> Run(const std::string& query,
                          const EngineOptions& options) {
    GraphCatalog catalog;
    snb::RegisterToyData(&catalog);
    QueryEngine engine(&catalog);
    engine.set_options(options);
    return engine.Execute(query);
  }

  void ExpectSameResult(const std::string& query,
                        const EngineOptions& planned_options = {}) {
    EngineOptions spec_options;
    spec_options.use_planner = false;
    auto planned = Run(query, planned_options);
    auto legacy = Run(query, spec_options);
    ASSERT_EQ(planned.ok(), legacy.ok())
        << query << "\nplanner: " << planned.status().ToString()
        << "\nlegacy: " << legacy.status().ToString();
    if (!planned.ok()) return;
    ASSERT_EQ(planned->IsGraph(), legacy->IsGraph()) << query;
    if (planned->IsGraph()) {
      EXPECT_TRUE(GraphEquals(*planned->graph, *legacy->graph)) << query;
    } else {
      Table a = std::move(*planned->table);
      Table b = std::move(*legacy->table);
      a.SortRows();
      b.SortRows();
      EXPECT_EQ(a.ToString(), b.ToString()) << query;
    }
  }
};

TEST_F(DifferentialEngine, GuidedTourQueries) {
  for (const char* query : kGuidedTourQueries) ExpectSameResult(query);
}

// The whole lattice of optimizer rules: every one of the 4 combinations
// must reproduce the spec.
TEST_F(DifferentialEngine, GuidedTourQueriesOverKnobLattice) {
  for (unsigned bits = 0; bits < 4; ++bits) {
    EngineOptions options;
    options.enable_pushdown = (bits & 1u) != 0;
    options.enable_multiway = (bits & 2u) != 0;
    SCOPED_TRACE("knob bits " + std::to_string(bits));
    for (const char* query : kGuidedTourQueries) {
      ExpectSameResult(query, options);
    }
  }
}

TEST_F(DifferentialEngine, ViewsAndOptionals) {
  ExpectSameResult(
      "GRAPH VIEW social_graph1 AS ( "
      "CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
      "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
      "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
      "(msg2:Post|Comment)-[c2]->(m) "
      "WHERE (c1:has_creator) AND (c2:has_creator) )");
}

// WHERE label tests and labels written on one occurrence of a variable.
// The pushdown rule folds them into scan and expand admission at every
// occurrence (NOT, OR, path variables, OPTIONAL-only variables and
// occurrences on two graphs stay conjuncts); every point of the 8-point
// lattice (planner × pushdown × multiway), at parallelism 1 and 3, must
// reproduce the spec.
const char* const kLabelFoldQueries[] = {
    // A node variable and an edge variable.
    "SELECT n.firstName AS f MATCH (n) WHERE (n:Person)",
    "SELECT n.firstName AS a, m.firstName AS b MATCH (n)-[e]->(m) "
    "WHERE (e:knows) AND (n:Person)",
    // A disjunctive test, and a test that repeats a pattern label.
    "SELECT x.content AS c, p.firstName AS f "
    "MATCH (x)-[:has_creator]->(p:Person) WHERE (x:Post|Comment) "
    "AND (p:Person)",
    // A variable in several chains: labelled in the WHERE, or on one
    // occurrence only (profile_card's shape).
    "SELECT a.firstName AS a, c.name AS city "
    "MATCH (a)-[:knows]->(b), (a)-[:isLocatedIn]->(c), (b)-[:knows]->(a) "
    "WHERE (a:Person) AND (c:City|Tag) AND a.firstName <> 'Peter'",
    "SELECT a.firstName AS a, t.name AS tag "
    "MATCH (a:Person)-[:knows]->(b:Person), (a)-[:isLocatedIn]->(c), "
    "(b)-[:hasInterest]->(t)",
    // A closing occurrence in the same chain.
    "SELECT a.firstName AS a MATCH (a)-[:knows]->(b)-[:knows]->(a) "
    "WHERE (a:Person)",
    // Label tests inside an OPTIONAL block's WHERE.
    "SELECT n.firstName AS f, msg.content AS c MATCH (n) WHERE (n:Person) "
    "OPTIONAL (msg)-[e]->(n) WHERE (e:has_creator) AND (msg:Comment)",
    // NOT and OR forms stay conjuncts.
    "SELECT n.firstName AS f, m.name AS g MATCH (n)-[e]->(m) "
    "WHERE NOT (m:Person) AND (n:Person)",
    "SELECT n.firstName AS f, m.name AS g MATCH (n)-[e]->(m) "
    "WHERE (m:City) OR (m:Tag)",
    "SELECT n.firstName AS f MATCH (n)-[e]->(m) "
    "WHERE (n:Person) AND ((m:City) OR NOT (e:knows))",
    // Path variables: a path-search target, and label tests on stored
    // and computed path variables (which stay conjuncts).
    "SELECT n.firstName AS a, m.firstName AS b "
    "MATCH (n)-/<:knows*>/->(m) WHERE (n:Person) AND (m:Person) "
    "AND n.firstName = 'John'",
    "SELECT a.name AS a, b.name AS b "
    "MATCH (a)-/@p:toWagner/->(b) ON example_graph "
    "WHERE (p:toWagner) AND (b:Person)",
    "SELECT n.firstName AS a, m.firstName AS b "
    "MATCH (n:Person)-/SHORTEST p<:knows*>/->(m) WHERE (p:Person) "
    "AND (m:Person)",
    // A main-WHERE test on a variable only an OPTIONAL block binds.
    "SELECT n.firstName AS f MATCH (n:Person) WHERE (c:City) "
    "OPTIONAL (n)-[:isLocatedIn]->(c)",
    // Occurrences ON two graphs whose labels differ: Acme's employees
    // are :Vip in `vip` only.
    "GRAPH vip AS (CONSTRUCT (n:Vip) MATCH (n:Person) "
    "WHERE n.employer = 'Acme') "
    "SELECT n.firstName AS f, m.firstName AS g "
    "MATCH (n:Vip) ON vip, (n)-[:knows]->(m) ON social_graph",
    "GRAPH vip AS (CONSTRUCT (n:Vip) MATCH (n:Person) "
    "WHERE n.employer = 'Acme') "
    "SELECT n.firstName AS f, m.firstName AS g "
    "MATCH (n) ON vip, (n)-[:knows]->(m:Person) ON social_graph "
    "WHERE (m:Person)",
};

TEST_F(DifferentialEngine, WhereLabelTestsOverLattice) {
  for (size_t parallelism : {size_t{1}, size_t{3}}) {
    for (unsigned bits = 0; bits < 8; ++bits) {
      EngineOptions options;
      options.use_planner = (bits & 4u) != 0;
      options.enable_pushdown = (bits & 1u) != 0;
      options.enable_multiway = (bits & 2u) != 0;
      options.parallelism = parallelism;
      SCOPED_TRACE("knob bits " + std::to_string(bits) + ", parallelism " +
                   std::to_string(parallelism));
      for (const char* query : kLabelFoldQueries) {
        ExpectSameResult(query, options);
      }
      ExpectSameResult(
          "CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
          "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
          "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
          "(msg2:Post|Comment)-[c2]->(m) "
          "WHERE (c1:has_creator) AND (c2:has_creator)",
          options);
    }
  }
}

TEST_F(DifferentialEngine, TabularExtensions) {
  ExpectSameResult(
      "SELECT c.name AS company, n.firstName AS person "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ExpectSameResult(
      "SELECT DISTINCT c.name AS city "
      "MATCH (n:Person)-[:isLocatedIn]->(c) ORDER BY c.name");
  ExpectSameResult(
      "SELECT n.firstName AS name, COUNT(*) AS total MATCH (n:Person)");
}

TEST_F(DifferentialEngine, SetOperationsAndComposition) {
  ExpectSameResult(
      "CONSTRUCT (n) MATCH (n:Person) INTERSECT social_graph");
  ExpectSameResult(
      "GRAPH acme AS (CONSTRUCT (n) MATCH (n:Person) "
      "WHERE n.employer = 'Acme') "
      "CONSTRUCT (m {who := m.firstName}) MATCH (m) ON acme");
}

}  // namespace
}  // namespace gcore
