// Correlated predicates — implicit pattern predicates and EXISTS — are
// evaluated as ⟦γ⟧G ⋉ Ω (Appendix A.2): the inner relation once per
// evaluation, then one semijoin probe per row. Every case here is checked
// against a per-row oracle computed in the test (one TableSemijoin of the
// single outer row with the inner relation), in every execution mode: the
// legacy walk and the planner, at parallelism 1 and 3, with morsels of 1
// and 1024 rows. The laziness contract (an inner relation no row reaches
// is never evaluated, so its errors never surface) and the EXPLAIN
// ANALYZE inner_evals= counter are pinned at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "eval/binding_ops.h"
#include "eval/matcher.h"
#include "parser/parser.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// Toy graphs plus a small generated SNB graph as the default. Every run
/// builds the same catalog in the same order, so object ids agree across
/// runs.
void Populate(GraphCatalog* catalog, size_t persons = 40) {
  snb::RegisterToyData(catalog);
  snb::GeneratorOptions options;
  options.num_persons = persons;
  catalog->RegisterGraph("snb", snb::Generate(options, catalog->ids()));
  catalog->SetDefaultGraph("snb");
}

/// A SELECT cell as the engine renders a projected datum.
Value CellOf(const Datum& d) {
  if (d.kind() == Datum::Kind::kValues && d.values().is_singleton()) {
    return d.values().single();
  }
  if (d.IsUnbound() ||
      (d.kind() == Datum::Kind::kValues && d.values().empty())) {
    return Value::Null();
  }
  return Value::String(d.ToString());
}

std::string RenderRow(const std::vector<Value>& cells) {
  std::string out;
  for (const Value& v : cells) out += v.ToString() + " | ";
  return out;
}

struct Mode {
  bool planner;
  size_t parallelism;
  size_t morsel;

  std::string ToString() const {
    return std::string(planner ? "planner" : "legacy") + " parallelism=" +
           std::to_string(parallelism) + " morsel=" + std::to_string(morsel);
  }
};

std::vector<Mode> AllModes() {
  std::vector<Mode> modes;
  for (bool planner : {false, true}) {
    for (size_t parallelism : {size_t{1}, size_t{3}}) {
      for (size_t morsel : {size_t{1}, size_t{1024}}) {
        modes.push_back({planner, parallelism, morsel});
      }
    }
  }
  return modes;
}

Result<QueryResult> RunIn(const Mode& mode, const std::string& query,
                          size_t persons = 40) {
  GraphCatalog catalog;
  Populate(&catalog, persons);
  QueryEngine engine(&catalog);
  engine.set_use_planner(mode.planner);
  engine.set_parallelism(mode.parallelism);
  engine.set_morsel_size(mode.morsel);
  return engine.Execute(query);
}

std::vector<std::string> SortedRows(const Table& table) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    rows.push_back(RenderRow(table.Row(r)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Bindings of `match` (legacy walk over a fresh catalog): an outer Ω or
/// an inner relation ⟦γ⟧G.
BindingTable Bindings(const std::string& match) {
  GraphCatalog catalog;
  Populate(&catalog);
  auto parsed = ParseQuery("CONSTRUCT () " + match);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return BindingTable();
  MatcherContext ctx;
  ctx.catalog = &catalog;
  ctx.default_graph = catalog.default_graph();
  ctx.use_planner = false;
  auto table = Matcher(ctx).EvalMatchClause(*(*parsed)->body->basic->match);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? *table : BindingTable();
}

/// The inner relation of an uncorrelated subquery: a nullary table with
/// one row iff it is non-empty.
BindingTable Nonempty(bool any) {
  return any ? BindingTable::Unit() : BindingTable();
}

/// The oracle: ⟦inner⟧ ⋉ {row of outer} ≠ ∅, one TableSemijoin per row.
/// TableSemijoin runs on the same SemijoinProbe as the engine, so each
/// answer is also checked against the definition, by a nested loop: some
/// inner row agrees with the outer row on every shared variable bound on
/// both sides.
std::vector<bool> Oracle(const BindingTable& outer,
                         const BindingTable& inner) {
  std::vector<std::string> shared;
  for (const auto& column : outer.columns()) {
    if (inner.ColumnIndex(column) != BindingTable::kNpos) {
      shared.push_back(column);
    }
  }
  std::vector<bool> out;
  for (size_t r = 0; r < outer.NumRows(); ++r) {
    bool any = false;
    for (size_t s = 0; s < inner.NumRows() && !any; ++s) {
      any = std::all_of(shared.begin(), shared.end(), [&](const auto& var) {
        const Datum a = outer.Get(r, var);
        const Datum b = inner.Get(s, var);
        return a.IsUnbound() || b.IsUnbound() || a == b;
      });
    }
    BindingTable one(outer.columns());
    one.AppendRowFrom(outer, r);
    EXPECT_EQ(!TableSemijoin(one, inner).Empty(), any) << "outer row " << r;
    out.push_back(any);
  }
  return out;
}

/// An uncorrelated side condition on every outer row, through the spec
/// evaluator.
std::vector<bool> Conds(const std::string& expr, const BindingTable& outer) {
  GraphCatalog catalog;
  Populate(&catalog);
  auto parsed = ParseQuery("CONSTRUCT () MATCH (z) WHERE " + expr);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<bool> out(outer.NumRows(), false);
  if (!parsed.ok()) return out;
  const Expr& where = *(*parsed)->body->basic->match->where;
  auto graph = catalog.Lookup("snb");
  ExprEvaluator eval(*graph, &catalog);
  for (size_t r = 0; r < outer.NumRows(); ++r) {
    auto keep = eval.EvalPredicate(where, outer, r);
    EXPECT_TRUE(keep.ok()) << keep.status().ToString();
    out[r] = keep.ok() && *keep;
  }
  return out;
}

/// Rendered SELECT rows of the outer rows `keep` admits: the `vars`
/// cells, then the `extra` cells of that row.
std::vector<std::string> Expected(
    const BindingTable& outer, const std::vector<std::string>& vars,
    const std::function<bool(size_t)>& keep,
    const std::function<std::vector<Value>(size_t)>& extra = nullptr) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < outer.NumRows(); ++r) {
    if (!keep(r)) continue;
    std::vector<Value> cells;
    for (const auto& var : vars) cells.push_back(CellOf(outer.Get(r, var)));
    if (extra) {
      for (Value& v : extra(r)) cells.push_back(std::move(v));
    }
    rows.push_back(RenderRow(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// `query` returns exactly `expected` in every mode.
void ExpectInEveryMode(const std::string& query,
                       const std::vector<std::string>& expected) {
  for (const Mode& mode : AllModes()) {
    auto result = RunIn(mode, query);
    ASSERT_TRUE(result.ok()) << mode.ToString() << ": "
                             << result.status().ToString();
    ASSERT_TRUE(result->IsTable());
    EXPECT_EQ(SortedRows(*result->table), expected) << mode.ToString();
  }
}

constexpr const char* kColocated =
    "(n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)";

TEST(CorrelatedPredicate, ColocationPatternPredicate) {
  const BindingTable outer = Bindings("MATCH (n:Person), (m:Person)");
  const auto b = Oracle(outer, Bindings(std::string("MATCH ") + kColocated));
  const auto expected =
      Expected(outer, {"n", "m"}, [&](size_t r) { return b[r]; });
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), outer.NumRows());
  ExpectInEveryMode(
      std::string("SELECT n AS n, m AS m MATCH (n:Person), (m:Person) "
                  "WHERE ") + kColocated,
      expected);
}

TEST(CorrelatedPredicate, ColocationExists) {
  const BindingTable outer = Bindings("MATCH (n:Person), (m:Person)");
  const auto b = Oracle(outer, Bindings(std::string("MATCH ") + kColocated));
  ExpectInEveryMode(
      std::string("SELECT n AS n, m AS m MATCH (n:Person), (m:Person) "
                  "WHERE EXISTS (CONSTRUCT () MATCH ") + kColocated + ")",
      Expected(outer, {"n", "m"}, [&](size_t r) { return b[r]; }));
}

// Inner rows whose shared cell OPTIONAL left unbound are compatible with
// every outer row.
TEST(CorrelatedPredicate, SharedCellUnboundInInner) {
  const std::string inner_match =
      "MATCH (n:Person) OPTIONAL (n)-[:worksAt]->(c)";
  const BindingTable inner = Bindings(inner_match);
  bool some_unbound = false;
  for (size_t r = 0; r < inner.NumRows(); ++r) {
    some_unbound = some_unbound || inner.Get(r, "c").IsUnbound();
  }
  ASSERT_TRUE(some_unbound);
  const BindingTable outer = Bindings("MATCH (n:Person), (c:Company)");
  const auto b = Oracle(outer, inner);
  ExpectInEveryMode(
      "SELECT n AS n, c AS c MATCH (n:Person), (c:Company) "
      "WHERE EXISTS (CONSTRUCT () " + inner_match + ")",
      Expected(outer, {"n", "c"}, [&](size_t r) { return b[r]; }));
}

// Outer rows whose shared cell OPTIONAL left unbound (an EXISTS in a
// SELECT projection) are compatible with every inner row.
TEST(CorrelatedPredicate, SharedCellUnboundInOuter) {
  const std::string outer_match =
      "MATCH (n:Person) OPTIONAL (n)-[:worksAt]->(c:Company)";
  const BindingTable outer = Bindings(outer_match);
  bool some_unbound = false;
  for (size_t r = 0; r < outer.NumRows(); ++r) {
    some_unbound = some_unbound || outer.Get(r, "c").IsUnbound();
  }
  ASSERT_TRUE(some_unbound);
  const std::string inner_match =
      "MATCH (c)<-[:worksAt]-(p:Person {lastName='Doe'})";
  const auto b = Oracle(outer, Bindings(inner_match));
  ExpectInEveryMode(
      "SELECT n AS n, c AS c, EXISTS (CONSTRUCT () " + inner_match +
          ") AS e " + outer_match,
      Expected(outer, {"n", "c"}, [](size_t) { return true; },
               [&](size_t r) {
                 return std::vector<Value>{Value::Bool(b[r])};
               }));
}

// With no shared column the predicate is true on every row iff the inner
// relation is non-empty.
TEST(CorrelatedPredicate, NoSharedColumns) {
  const BindingTable outer = Bindings("MATCH (n:Person)");
  struct Case {
    std::string predicate;
    std::string inner;
    bool nonempty;
  };
  const Case cases[] = {
      {"EXISTS (CONSTRUCT () MATCH (c:City)<-[:isLocatedIn]-"
       "(p:Person {firstName='John'}))",
       "MATCH (c:City)<-[:isLocatedIn]-(p:Person {firstName='John'})", true},
      {"(:Person)-[:isLocatedIn]->(:City)",
       "MATCH (:Person)-[:isLocatedIn]->(:City)", true},
      {"(:Tag {name='no such tag'})<-[:hasInterest]-()",
       "MATCH (:Tag {name='no such tag'})<-[:hasInterest]-()", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.predicate);
    const BindingTable inner = Bindings(c.inner);
    // Anonymous elements never correlate: no shared visible column.
    for (const auto& column : inner.columns()) {
      EXPECT_EQ(outer.ColumnIndex(column), BindingTable::kNpos);
    }
    ASSERT_EQ(!inner.Empty(), c.nonempty);
    const auto b = Oracle(outer, inner);
    const auto expected =
        Expected(outer, {"n"}, [&](size_t r) { return b[r]; });
    EXPECT_EQ(expected.size(), c.nonempty ? outer.NumRows() : 0u);
    ExpectInEveryMode(
        "SELECT n AS n MATCH (n:Person) WHERE " + c.predicate, expected);
  }
}

TEST(CorrelatedPredicate, NestedUnderNotOrCase) {
  const BindingTable pairs = Bindings("MATCH (n:Person), (m:Person)");
  const BindingTable colocated =
      Bindings(std::string("MATCH ") + kColocated);
  {
    SCOPED_TRACE("NOT");
    const auto b = Oracle(pairs, colocated);
    ExpectInEveryMode(
        std::string("SELECT n AS n, m AS m MATCH (n:Person), (m:Person) "
                    "WHERE NOT ") + kColocated,
        Expected(pairs, {"n", "m"}, [&](size_t r) { return !b[r]; }));
  }
  const BindingTable knows = Bindings("MATCH (n:Person)-[:knows]->(m:Person)");
  {
    SCOPED_TRACE("OR");
    const auto b = Oracle(knows, colocated);
    const auto john = Conds("n.firstName = 'John'", knows);
    ExpectInEveryMode(
        std::string("SELECT n AS n, m AS m "
                    "MATCH (n:Person)-[:knows]->(m:Person) "
                    "WHERE n.firstName = 'John' OR ") + kColocated,
        Expected(knows, {"n", "m"},
                 [&](size_t r) { return john[r] || b[r]; }));
  }
  {
    SCOPED_TRACE("CASE");
    const auto b = Oracle(knows, colocated);
    const auto interested =
        Oracle(knows, Bindings("MATCH (m)-[:hasInterest]->(t:Tag)"));
    const auto before = Conds("n.firstName < m.firstName", knows);
    ExpectInEveryMode(
        std::string("SELECT n AS n, m AS m "
                    "MATCH (n:Person)-[:knows]->(m:Person) "
                    "WHERE CASE WHEN ") + kColocated +
            " THEN n.firstName < m.firstName ELSE NOT EXISTS "
            "(CONSTRUCT () MATCH (m)-[:hasInterest]->(t:Tag)) END",
        Expected(knows, {"n", "m"}, [&](size_t r) {
          return b[r] ? before[r] : !interested[r];
        }));
  }
}

// Two AST sites with the same text are two predicates; each keeps its own
// inner relation and both agree with the oracle.
TEST(CorrelatedPredicate, SamePatternTextAtTwoSites) {
  const BindingTable knows = Bindings("MATCH (n:Person)-[:knows]->(m:Person)");
  const auto b = Oracle(knows, Bindings(std::string("MATCH ") + kColocated));
  const auto john = Conds("n.firstName = 'John'", knows);
  ExpectInEveryMode(
      std::string("SELECT n AS n, m AS m "
                  "MATCH (n:Person)-[:knows]->(m:Person) WHERE ") +
          kColocated + " OR NOT (" + kColocated +
          " OR n.firstName = 'John')",
      Expected(knows, {"n", "m"},
               [&](size_t r) { return b[r] || !john[r]; }));
}

TEST(CorrelatedPredicate, ExistsOverUnionAndGraphReference) {
  const BindingTable outer = Bindings("MATCH (n:Person)");
  GraphCatalog catalog;
  Populate(&catalog);
  struct Case {
    std::string predicate;
    bool nonempty;
  };
  const Case cases[] = {
      {"EXISTS (CONSTRUCT (x) MATCH (x:Person {firstName='Nobody'}) "
       "UNION CONSTRUCT (y) MATCH (y:City))",
       !Bindings("MATCH (x:Person {firstName='Nobody'})").Empty() ||
           !Bindings("MATCH (y:City)").Empty()},
      {"EXISTS (CONSTRUCT (x) MATCH (x:Person {firstName='Nobody'}) "
       "UNION CONSTRUCT (y) MATCH (y:City {name='Nowhere'}))",
       !Bindings("MATCH (x:Person {firstName='Nobody'})").Empty() ||
           !Bindings("MATCH (y:City {name='Nowhere'})").Empty()},
      {"EXISTS (company_graph)", !(*catalog.Lookup("company_graph"))->Empty()},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.predicate);
    const auto b = Oracle(outer, Nonempty(c.nonempty));
    for (const std::string prefix : {"", "NOT "}) {
      const bool negate = !prefix.empty();
      ExpectInEveryMode(
          "SELECT n AS n MATCH (n:Person) WHERE " + prefix + c.predicate,
          Expected(outer, {"n"}, [&](size_t r) { return b[r] != negate; }));
    }
  }
}

// The inner pattern binds a path variable: its fresh path ids are drawn
// once per evaluation, identically in both modes, so the ids of the paths
// CONSTRUCT stores afterwards agree across every mode.
TEST(CorrelatedPredicate, PathVariableInInnerPattern) {
  const std::string outer_match =
      "MATCH (n:Person {firstName='John'})-/p<:knows*>/->(m:Person)";
  const std::string inner_match =
      "MATCH (m)-/q<:knows*>/->(x:Person {firstName='Alice'})";
  const BindingTable outer = Bindings(outer_match);
  const BindingTable inner = Bindings(inner_match);
  ASSERT_NE(inner.ColumnIndex("q"), BindingTable::kNpos);
  const auto b = Oracle(outer, inner);
  std::set<std::string> pairs;
  for (const auto& row :
       Expected(outer, {"n", "m"}, [&](size_t r) { return b[r]; })) {
    pairs.insert(row);
  }
  const std::string where =
      " WHERE (m)-/q<:knows*>/->(x:Person {firstName='Alice'})";
  ExpectInEveryMode("SELECT DISTINCT n AS n, m AS m " + outer_match + where,
                    std::vector<std::string>(pairs.begin(), pairs.end()));

  const std::string construct =
      "CONSTRUCT (n)-/@p:reaches/->(m) " + outer_match + where;
  std::vector<PathId> reference;
  for (const Mode& mode : AllModes()) {
    auto result = RunIn(mode, construct);
    ASSERT_TRUE(result.ok()) << mode.ToString() << ": "
                             << result.status().ToString();
    ASSERT_TRUE(result->IsGraph());
    std::vector<PathId> ids = result->graph->PathIds();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.size(), pairs.size()) << mode.ToString();
    if (reference.empty()) reference = ids;
    EXPECT_EQ(ids, reference) << mode.ToString();
  }
}

// A plan-cache hit runs a plan whose generated names (here the outer
// anonymous edge) a fresh matcher issues again to the predicate's
// anonymous elements; those are existential and must not correlate.
TEST(CorrelatedPredicate, PlanCacheHitAgreesWithFirstRun) {
  const std::string query =
      std::string("SELECT n AS n, m AS m MATCH (n:Person)-[]->(m:Person) "
                  "WHERE ") + kColocated;
  GraphCatalog catalog;
  Populate(&catalog);
  QueryEngine engine(&catalog);
  auto first = engine.Execute(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->table->NumRows(), 0u);
  auto hit = engine.Execute(query);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(engine.plan_cache_counters().hits, 1u);
  EXPECT_EQ(SortedRows(*hit->table), SortedRows(*first->table));
}

// An inner relation no row reaches is never evaluated, so its error never
// surfaces; once a row reaches it, the query fails with the error's code.
TEST(CorrelatedPredicate, LazinessAndErrorContract) {
  // Pattern predicates carry no ON of their own: the unresolvable
  // reference is an undefined PATH view. The two-variable form stays in
  // the residual WHERE; the single-variable form is pushed into the scan
  // beside `n.firstName = 'Nobody'`.
  const std::string pushed = "(n)-/<~undefinedView*>/->()";
  const std::string predicates[] = {
      "(n)-/<~undefinedView*>/->(m)",
      pushed,
      "EXISTS (CONSTRUCT () MATCH (x) ON unregistered_graph)",
      "EXISTS (unregistered_graph)",
  };
  for (const std::string& predicate : predicates) {
    SCOPED_TRACE(predicate);
    const std::string never_reached[] = {
        "SELECT n AS n MATCH (n:Person {firstName='Nobody'}) WHERE " +
            predicate,
        "SELECT n AS n MATCH (n:Person) WHERE n.firstName = 'Nobody' AND " +
            predicate,
    };
    const std::string reached =
        "SELECT n AS n MATCH (n:Person) WHERE " + predicate;
    for (const Mode& mode : AllModes()) {
      for (const std::string& query : never_reached) {
        auto result = RunIn(mode, query);
        ASSERT_TRUE(result.ok()) << mode.ToString() << ": " << query << ": "
                                 << result.status().ToString();
        EXPECT_EQ(result->table->NumRows(), 0u);
      }
      auto result = RunIn(mode, reached);
      ASSERT_FALSE(result.ok()) << mode.ToString();
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
          << mode.ToString() << ": " << result.status().ToString();
    }
  }
  // A pushed list runs in the query's order: written first, the predicate
  // is reached by every scanned row, whatever the statistics say about the
  // selective conjunct after it.
  for (const Mode& mode : AllModes()) {
    auto result = RunIn(mode, "SELECT n AS n MATCH (n:Person) WHERE " +
                                  pushed + " AND n.firstName = 'Nobody'");
    ASSERT_FALSE(result.ok()) << mode.ToString();
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << mode.ToString() << ": " << result.status().ToString();
  }
  // EXISTS in a SELECT projection and in CONSTRUCT ... WHEN over an empty
  // binding table.
  const std::string exists =
      "EXISTS (CONSTRUCT () MATCH (x) ON unregistered_graph)";
  for (const Mode& mode : AllModes()) {
    auto select =
        RunIn(mode, "SELECT n AS n, " + exists +
                        " AS e MATCH (n:Person {firstName='Nobody'})");
    EXPECT_TRUE(select.ok()) << select.status().ToString();
    auto construct = RunIn(mode, "CONSTRUCT (n) WHEN " + exists +
                                     " MATCH (n:Person {firstName='Nobody'})");
    EXPECT_TRUE(construct.ok()) << construct.status().ToString();
    auto failing = RunIn(mode, "SELECT n AS n, " + exists +
                                   " AS e MATCH (n:Person)");
    ASSERT_FALSE(failing.ok());
    EXPECT_EQ(failing.status().code(), StatusCode::kNotFound);
  }
}

/// The EXPLAIN ANALYZE lines mentioning inner_evals=.
std::vector<std::string> InnerEvalLines(const std::string& query,
                                        size_t persons) {
  auto result = RunIn({true, 1, 0}, "EXPLAIN ANALYZE " + query, persons);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> lines;
  if (!result.ok()) return lines;
  for (size_t i = 0; i < result->table->NumRows(); ++i) {
    const std::string line = result->table->At(i, 0).AsString();
    if (line.find("inner_evals=") != std::string::npos) lines.push_back(line);
  }
  return lines;
}

// Each correlated predicate evaluates its inner relation once, however
// many rows reach it, and EXPLAIN ANALYZE reports that on the operator
// that ran it.
TEST(CorrelatedPredicate, ExplainAnalyzeCountsInnerEvaluations) {
  constexpr size_t kPersons = 150;
  const std::string reach =
      "MATCH (n:Person)-/<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe'";
  auto count = RunIn({true, 1, 0}, "SELECT COUNT(*) AS c " + reach, kPersons);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_GT(count->table->At(0, 0).AsInt(), 1);

  // Q7 shape: the pattern predicate on the reachability result.
  auto lines = InnerEvalLines(
      std::string("CONSTRUCT (m) ") + reach + " AND " + kColocated, kPersons);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("Filter"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("inner_evals=1)"), std::string::npos) << lines[0];

  // Q9 shape: the correlated EXISTS over a cross product.
  lines = InnerEvalLines(
      std::string("CONSTRUCT (m) MATCH (m:Person), (n:Person) "
                  "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
                  "AND EXISTS (CONSTRUCT () MATCH ") + kColocated + ")",
      kPersons);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("inner_evals=1)"), std::string::npos) << lines[0];

  // Two sites with the same text: one inner evaluation each.
  lines = InnerEvalLines(
      std::string("CONSTRUCT (m) MATCH (n:Person)-[:knows]->(m:Person) "
                  "WHERE ") + kColocated + " OR NOT (" + kColocated +
          " OR n.firstName = 'John')",
      kPersons);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("inner_evals=2)"), std::string::npos) << lines[0];
}

}  // namespace
}  // namespace gcore
