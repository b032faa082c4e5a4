// Differential suite pinning the vectorized expression kernels
// (eval/expr_vec.h) to the row-at-a-time ExprEvaluator — the executable
// spec — across every Value kind (null/absent, interned strings, dates
// including non-calendar literals, multi-valued sets, paths), the AND/OR
// short-circuit (including its error suppression), morsel sizes
// {1, 7, 1024}, and engine-level parallelism 1/2/8. At the engine level
// the use_planner=false spec mode (tree-walk MATCH, row evaluator for
// every filter and projection) is the baseline every configuration must
// reproduce.
#include "eval/expr_vec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/date.h"
#include "engine/engine.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

Date MkDate(int32_t y, int m, int d) {
  Date dt;
  dt.year = y;
  dt.month = static_cast<uint8_t>(m);
  dt.day = static_cast<uint8_t>(d);
  return dt;
}

const size_t kMorsels[] = {1, 7, 1024};

class ExprVecTest : public ::testing::Test {
 protected:
  ExprVecTest() {
    PathPropertyGraph g = snb::MakeSocialGraph(catalog.ids());
    // Typed columns over the persons, arranged so every PropKind appears:
    // ints, doubles, bools, dates (one non-calendar), a {null} cell, a
    // multi-valued overflow cell, and absences (Frank has no age).
    g.SetProperty(NodeId(snb::kJohnId), "age", ValueSet(Value::Int(42)));
    g.SetProperty(NodeId(snb::kPeterId), "age", ValueSet(Value::Int(17)));
    g.SetProperty(NodeId(snb::kAliceId), "age",
                  ValueSet(Value::Double(30.5)));
    g.SetProperty(NodeId(snb::kCelineId), "age", ValueSet(Value::Null()));
    g.SetProperty(NodeId(snb::kJohnId), "score",
                  ValueSet(Value::Double(1.5)));
    g.SetProperty(NodeId(snb::kPeterId), "score", ValueSet(Value::Int(3)));
    g.SetProperty(NodeId(snb::kFrankId), "score",
                  ValueSet({Value::Int(1), Value::Int(2)}));
    g.SetProperty(NodeId(snb::kJohnId), "active",
                  ValueSet(Value::Bool(true)));
    g.SetProperty(NodeId(snb::kPeterId), "active",
                  ValueSet(Value::Bool(false)));
    g.SetProperty(NodeId(snb::kJohnId), "birthday",
                  ValueSet(Value::OfDate(MkDate(1984, 2, 29))));
    g.SetProperty(NodeId(snb::kPeterId), "birthday",
                  ValueSet(Value::OfDate(MkDate(2009, 3, 2))));
    // Non-calendar date: the same epoch day as 2009-03-02 by day count,
    // but distinct field identity, which the packed kernels must keep.
    g.SetProperty(NodeId(snb::kAliceId), "birthday",
                  ValueSet(Value::OfDate(MkDate(2009, 2, 31))));
    // Edge column: knows edges carry `since` as ints, one double, one
    // multi-valued cell and one absence, in edge-id order.
    size_t knows = 0;
    for (EdgeId e : g.EdgeIds()) {
      if (!g.Labels(e).Contains("knows")) continue;
      switch (knows++ % 4) {
        case 0:
          g.SetProperty(e, "since",
                        ValueSet(Value::Int(2000 + static_cast<int64_t>(knows))));
          break;
        case 1:
          g.SetProperty(e, "since", ValueSet(Value::Double(2004.5)));
          break;
        case 2:
          g.SetProperty(e, "since",
                        ValueSet({Value::Int(2001), Value::Int(2010)}));
          break;
        default:
          break;  // absent
      }
    }
    catalog.RegisterGraph("social_graph", std::move(g));
    catalog.SetDefaultGraph("social_graph");
    graph = *catalog.Lookup("social_graph");
    snap = std::make_unique<GraphSnapshot>(*graph);
  }

  VecProgram::SnapshotFn SnapFn() {
    return [this](const PathPropertyGraph&) -> const GraphSnapshot& {
      return *snap;
    };
  }

  BindingTable PersonTable() const {
    BindingTable t({"n"});
    t.SetColumnGraph("n", "social_graph");
    for (uint64_t id : {snb::kJohnId, snb::kPeterId, snb::kAliceId,
                        snb::kCelineId, snb::kFrankId}) {
      Status st = t.AddRow({Datum::OfNode(NodeId(id))});
      (void)st;
    }
    return t;
  }

  /// One column of every Datum shape the kernels must load: singletons of
  /// each type, {null}, ∅, unbound, a multi-valued set, a node, a path.
  BindingTable MixedTable() const {
    PathValue pv;
    pv.id = PathId(9301);
    std::vector<Datum> cells = {
        Datum::OfValue(Value::Int(1)),
        Datum::OfValue(Value::Double(2.5)),
        Datum::OfValue(Value::String("a")),
        Datum::OfValue(Value::Bool(true)),
        Datum::OfValue(Value::OfDate(MkDate(2020, 1, 2))),
        Datum::OfValue(Value::Null()),
        Datum::Unbound(),
        Datum::OfValues(ValueSet()),
        Datum::OfValues(ValueSet({Value::Int(1), Value::Int(2)})),
        Datum::OfNode(NodeId(snb::kJohnId)),
        Datum::OfPath(std::make_shared<const PathValue>(std::move(pv))),
    };
    BindingTable t({"x"});
    t.SetColumnGraph("x", "social_graph");
    for (auto& c : cells) {
      Status st = t.AddRow({std::move(c)});
      (void)st;
    }
    return t;
  }

  /// Predicate differential: FilterRows over morsels {1, 7, 1024} must
  /// keep exactly the rows the serial EvalPredicate loop keeps, and
  /// error iff it errors — with the same message and the same kept
  /// prefix before the erroring row.
  void ExpectFilterDifferential(const Expr& expr, const BindingTable& table,
                                const std::string& label) {
    ExprEvaluator eval(graph, &catalog);
    auto prog = VecProgram::Compile(expr, table, eval, SnapFn());
    ASSERT_NE(prog, nullptr) << label;
    std::vector<size_t> want;
    Status want_status = Status::OK();
    for (size_t r = 0; r < table.NumRows(); ++r) {
      auto keep = eval.EvalPredicate(expr, table, r);
      if (!keep.ok()) {
        want_status = keep.status();
        break;
      }
      if (*keep) want.push_back(r);
    }
    for (size_t morsel : kMorsels) {
      std::vector<size_t> got;
      Status got_status = Status::OK();
      for (size_t lo = 0; lo < table.NumRows() && got_status.ok();
           lo += morsel) {
        const size_t hi = std::min(table.NumRows(), lo + morsel);
        std::vector<size_t> rows;
        for (size_t r = lo; r < hi; ++r) rows.push_back(r);
        got_status =
            prog->FilterRows(table, rows.data(), rows.size(), eval, &got);
      }
      EXPECT_EQ(got_status.ToString(), want_status.ToString())
          << label << " morsel=" << morsel;
      EXPECT_EQ(got, want) << label << " morsel=" << morsel;
    }
  }

  void ExpectFilterDifferential(const std::string& text,
                                const BindingTable& table) {
    auto parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ExpectFilterDifferential(**parsed, table, text);
  }

  /// Value differential: every row EvalValues decides must carry exactly
  /// the Datum the row evaluator produces; rows it cannot decide must be
  /// flagged (in particular every row whose serial evaluation errors).
  void ExpectValueDifferential(const Expr& expr, const BindingTable& table,
                               const std::string& label) {
    ExprEvaluator eval(graph, &catalog);
    auto prog = VecProgram::Compile(expr, table, eval, SnapFn());
    ASSERT_NE(prog, nullptr) << label;
    for (size_t morsel : kMorsels) {
      for (size_t lo = 0; lo < table.NumRows(); lo += morsel) {
        const size_t hi = std::min(table.NumRows(), lo + morsel);
        std::vector<size_t> rows;
        for (size_t r = lo; r < hi; ++r) rows.push_back(r);
        std::vector<Datum> out;
        std::vector<uint8_t> fb;
        prog->EvalValues(table, rows.data(), rows.size(), &out, &fb);
        ASSERT_EQ(out.size(), rows.size());
        ASSERT_EQ(fb.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          auto want = eval.Eval(expr, table, rows[i]);
          if (!want.ok()) {
            EXPECT_EQ(fb[i], 1) << label << " row " << rows[i];
            continue;
          }
          if (fb[i] == 0) {
            EXPECT_TRUE(out[i] == *want)
                << label << " row " << rows[i] << ": got " << out[i].ToString()
                << " want " << want->ToString();
          }
        }
      }
    }
  }

  void ExpectValueDifferential(const std::string& text,
                               const BindingTable& table) {
    auto parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ExpectValueDifferential(**parsed, table, text);
  }

  GraphCatalog catalog;
  const PathPropertyGraph* graph = nullptr;
  std::unique_ptr<GraphSnapshot> snap;
};

// --- predicate kernels over node property columns ---------------------------

TEST_F(ExprVecTest, PropertyComparisonsMatchRowEvaluator) {
  const char* exprs[] = {
      "n.firstName = 'John'",    "n.firstName <> 'John'",
      "n.age = 42",              "n.age <> 42",
      "n.age < 30",              "n.age <= 30.5",
      "n.age > 17",              "n.age >= 42",
      "n.age = null",            "n.age <> null",
      "n.score = 1.5",           "n.score < 2",
      "n.active = TRUE",         "n.active <> FALSE",
      "n.employer = 'Acme'",     "n.employer = 'MIT'",
      "'MIT' IN n.employer",     "'Acme' IN n.employer",
      "n.age IN n.age",          "n.employer SUBSET n.employer",
      "n.age SUBSET n.score",    "n.firstName < n.lastName",
      "n.birthday = n.birthday", "n.birthday <= n.birthday",
  };
  for (const char* e : exprs) ExpectFilterDifferential(e, PersonTable());
}

TEST_F(ExprVecTest, ArithmeticAndConnectivesMatchRowEvaluator) {
  const char* exprs[] = {
      "n.age + 1 > 18",
      "n.age - 10 >= 7",
      "n.age * 2 = 84",
      "n.age / 2 > 10",
      "n.age % 5 = 2",
      "-n.age < 0",
      "(n.age + n.score) * 2 > 40",
      "n.firstName + '!' = 'John!'",
      "NOT n.active",
      "NOT (n.age > 20)",
      "n.age > 20 AND n.score < 2",
      "n.age > 20 OR n.active",
      "n.age > 100 OR n.firstName = 'Peter'",
      "n:Person",
      "n:Company",
      "n:Company|Person",
      "n:Person AND n.age >= 17",
      "CASE WHEN n.age > 20 THEN TRUE ELSE FALSE END",
      "CASE WHEN n.age > 20 THEN 1 WHEN n.age > 10 THEN 2 ELSE 3 END = 2",
  };
  for (const char* e : exprs) ExpectFilterDifferential(e, PersonTable());
}

TEST_F(ExprVecTest, MixedDatumColumnMatchesRowEvaluator) {
  // Every loadable Datum shape flows through kLoadVar (paths fall back
  // per row); comparisons and arithmetic must agree with the spec on
  // each, including the unbound and ∅ rows.
  const char* exprs[] = {
      "x = 1",      "x <> 1",        "x < 2",    "x <= 2.5", "x > 'Z'",
      "x = null",   "1 IN x",        "x IN x",   "x SUBSET x",
      "x + 1 = 2",  "x * 2 = 5.0",   "NOT x",    "x AND x",  "x OR x = 1",
  };
  BindingTable t = MixedTable();
  // Connective/NOT shapes error on non-boolean rows; the differential
  // helper pins the error (message and position) either way.
  for (const char* e : exprs) ExpectFilterDifferential(e, t);
}

// --- dates (field identity, non-calendar literals) --------------------------

TEST_F(ExprVecTest, DateComparisonsIncludingNonCalendar) {
  // The parser has no date literals, so build the comparisons by hand.
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    for (Date lit : {MkDate(2000, 1, 1), MkDate(2009, 3, 2),
                     MkDate(2009, 2, 31), MkDate(1984, 2, 29)}) {
      auto cmp = Expr::Binary(op, Expr::Property("n", "birthday"),
                              Expr::Literal(Value::OfDate(lit)));
      ExpectFilterDifferential(
          *cmp, PersonTable(),
          "n.birthday op#" + std::to_string(static_cast<int>(op)) + " " +
              lit.ToString());
    }
  }
}

TEST_F(ExprVecTest, DateProjectionRoundTripsFields) {
  // Materialized dates keep (year, month, day) identity — in particular
  // Alice's non-calendar 2009-02-31 must not collapse to an epoch-day
  // renormalization.
  ExpectValueDifferential("n.birthday", PersonTable());
}

// --- short-circuit and error order ------------------------------------------

TEST_F(ExprVecTest, DivisionByZeroErrorMatchesSerialOrder) {
  // Every row errors in the serial loop at the first row; the vectorized
  // filter must surface the identical status with the identical kept
  // prefix.
  ExpectFilterDifferential("n.age % 0 = 1", PersonTable());
  ExpectFilterDifferential("n.age / 0 > 0", PersonTable());
}

TEST_F(ExprVecTest, AndOrShortCircuitSuppressesRhsErrors) {
  // The row path never evaluates the erroring right side when the left
  // side already decides; the kernel's selection-vector gather must
  // reproduce that suppression exactly.
  ExpectFilterDifferential("n.age < 0 AND n.age % 0 = 1", PersonTable());
  ExpectFilterDifferential("n.age >= 0 OR n.age % 0 = 1", PersonTable());
  // Positive control: rows that do reach the right side error in both.
  ExpectFilterDifferential("n.age >= 0 AND n.age % 0 = 1", PersonTable());
  ExpectFilterDifferential("n.firstName = 'John' AND n.age % 0 = 1",
                           PersonTable());
}

// --- value batches (computed projections) -----------------------------------

TEST_F(ExprVecTest, ComputedProjectionsMatchRowEvaluator) {
  const char* exprs[] = {
      "n.age",
      "n.employer",
      "n.age + n.score",
      "n.firstName + ' ' + n.lastName",
      "-n.age",
      "n.age / 4",
      "CASE WHEN n.age > 20 THEN n.firstName ELSE n.lastName END",
      "n.age > 20",
  };
  for (const char* e : exprs) ExpectValueDifferential(e, PersonTable());
  ExpectValueDifferential("x", MixedTable());
  ExpectValueDifferential("x + 1", MixedTable());
}

// --- compilation refusals ---------------------------------------------------

TEST_F(ExprVecTest, RefusesExpressionsNeedingTheFullEvaluator) {
  BindingTable t = PersonTable();
  ExprEvaluator eval(graph, &catalog);
  for (const char* text :
       {"SIZE(n.employer) = 2", "COUNT(n.age) > 1",
        "LABELS(n) = 'Person'"}) {
    auto parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(VecProgram::Compile(**parsed, t, eval, SnapFn()), nullptr)
        << text;
  }
}

// --- engine-level differential ----------------------------------------------

TEST_F(ExprVecTest, EngineResultsIdenticalAcrossKnobMorselsParallelism) {
  const char* queries[] = {
      // Residual WHERE with a non-specializable conjunct + computed
      // projection + ORDER BY keys (the FilterByConjuncts and FinishBasic
      // vectorized sites all fire). Arithmetic over the partially-absent
      // age column hides behind a CASE guard so the query is error-free
      // under ANY conjunct evaluation order.
      "SELECT n.firstName AS name, n.age + 1 AS a MATCH (n:Person) "
      "WHERE CASE WHEN n.age >= 17 THEN n.age + 0 >= 17 ELSE FALSE END "
      "ORDER BY n.firstName",
      // A pushed list: property-vs-literal + arithmetic.
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE n.age >= 17 AND "
      "(CASE WHEN n.age >= 17 THEN n.age * 2 < 100 ELSE FALSE END) AND "
      "n.firstName <> 'Alice' ORDER BY name",
      // Multi-valued and absent properties through WHERE.
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE 'MIT' IN n.employer OR n.employer = 'Acme' ORDER BY name",
      // Joins + WHERE across variables.
      "SELECT n.firstName AS name, c.name AS city "
      "MATCH (n:Person)-[:isLocatedIn]->(c:City) "
      "WHERE n.age >= 17 OR c.name = 'Austin' ORDER BY name",
      // Pushed `x.k CMP literal` conjuncts, literal on the left.
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE 'Alice' = n.firstName",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE 30 < n.age",
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE 17 >= n.age AND 'Acme' <> n.employer",
      // Comparisons against null (⟦null⟧ = ∅) over int, double, {null}
      // and absent cells.
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.age = null",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.age <> null",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.age < null",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE null = n.employer",
      // A key no object carries.
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.nickname = 'Jo'",
      "SELECT n.firstName AS name, n.nickname AS nick MATCH (n:Person) "
      "WHERE n.nickname <> 'Jo'",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.nickname = null",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.nickname >= 1",
      // Multi-valued cells under equality and order comparisons.
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.employer = 'MIT'",
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE n.employer <> 'Acme'",
      "SELECT n.firstName AS name MATCH (n:Person) WHERE n.score >= 1",
      // Edge-variable properties (ints, a double, a multi-valued cell, an
      // absence), pushed onto the expansion.
      "SELECT n.firstName AS a, m.firstName AS b "
      "MATCH (n:Person)-[e:knows]->(m:Person) WHERE e.since >= 2003",
      "SELECT n.firstName AS a, m.firstName AS b "
      "MATCH (n:Person)-[e:knows]->(m:Person) WHERE 2004.5 = e.since",
      "SELECT n.firstName AS a, m.firstName AS b, e.since AS s "
      "MATCH (n:Person)-[e:knows]->(m:Person) WHERE e.since <> 2001",
      "SELECT n.firstName AS a, m.firstName AS b "
      "MATCH (n:Person)-[e:knows]->(m:Person) WHERE e.since = null",
      // An OPTIONAL variable: absent from the main WHERE's bindings, and
      // unbound on some rows of the projections and ORDER BY keys.
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE t.name = null OPTIONAL (n)-[:hasInterest]->(t)",
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE t.name = 'Wagner' OPTIONAL (n)-[:hasInterest]->(t)",
      "SELECT n.firstName AS name, t.name AS tag, "
      "CASE WHEN t.name = 'Wagner' THEN 1 ELSE 0 END AS fan "
      "MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t) "
      "ORDER BY t.name, name",
      // Path-valued cells: the virtual cost/length properties need the row
      // evaluator, in pushed conjuncts, the residual WHERE and projections.
      "SELECT n.firstName AS a, m.firstName AS b, p.length AS len, "
      "p.cost AS cost MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->"
      "(m:Person) WHERE p.length >= 2 AND p.cost < 3 ORDER BY a, b",
      "SELECT n.firstName AS a, m.firstName AS b "
      "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) "
      "WHERE 1 = p.length OR n.firstName = 'Frank' ORDER BY a, b",
  };
  auto sorted = [](Table t) {
    t.SortRows();
    return t.ToString();
  };
  for (const char* q : queries) {
    // Spec baseline: tree-walk MATCH with the row evaluator everywhere.
    QueryEngine spec(&catalog);
    spec.set_use_planner(false);
    spec.set_parallelism(1);
    auto want = spec.Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    ASSERT_TRUE(want->table.has_value()) << q;
    const std::string want_s = sorted(*want->table);
    // Planner + kernels, serial: every degree and morsel size must also
    // reproduce its row order byte for byte.
    QueryEngine serial(&catalog);
    serial.set_parallelism(1);
    auto first = serial.Execute(q);
    ASSERT_TRUE(first.ok()) << q << ": " << first.status().ToString();
    ASSERT_TRUE(first->table.has_value()) << q;
    EXPECT_EQ(sorted(*first->table), want_s) << q;
    const std::string first_s = first->table->ToString();
    for (size_t par : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t morsel : kMorsels) {
        QueryEngine e(&catalog);
        e.set_parallelism(par);
        e.set_morsel_size(morsel);
        auto got = e.Execute(q);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
        ASSERT_TRUE(got->table.has_value()) << q;
        EXPECT_EQ(got->table->ToString(), first_s)
            << q << " par=" << par << " morsel=" << morsel;
      }
    }
  }
}

}  // namespace
}  // namespace gcore
