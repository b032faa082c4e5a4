#include "eval/expr_eval.h"

#include <cmath>

namespace gcore {

Result<bool> CorrelatedMemo::Any(const void* site, const BindingTable& outer,
                                 size_t row, const InnerFn& inner) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    ++inner_evals_;
    // The relation is computed before the site is entered: evaluating it
    // may reach other sites of this memo (nested predicates).
    GCORE_ASSIGN_OR_RETURN(BindingTable relation, inner());
    auto fresh = std::make_unique<Site>();
    fresh->inner = std::move(relation);
    it = sites_.emplace(site, std::move(fresh)).first;
  }
  Site& s = *it->second;
  for (const SemijoinProbe& probe : s.probes) {
    if (probe.outer_columns() == outer.columns()) return probe.Any(outer, row);
  }
  s.probes.emplace_back(outer, s.inner);
  return s.probes.back().Any(outer, row);
}

ExprEvaluator::ExprEvaluator(const PathPropertyGraph* default_graph,
                             const GraphCatalog* catalog)
    : default_graph_(default_graph) {
  if (catalog == nullptr) return;
  resolve_provenance_ = [catalog](const std::string& name) {
    auto g = catalog->Lookup(name);
    return g.ok() ? *g : nullptr;
  };
}

const PathPropertyGraph* ExprEvaluator::GraphFor(
    const BindingTable& table, const std::string& var) const {
  const std::string& provenance = table.ColumnGraph(var);
  if (provenance.empty() || !resolve_provenance_) return default_graph_;
  const PathPropertyGraph* g = resolve_provenance_(provenance);
  return g != nullptr ? g : default_graph_;
}

ValueSet DatumProperty(const Datum& datum, const std::string& key,
                       const PathPropertyGraph& graph) {
  switch (datum.kind()) {
    case Datum::Kind::kNode:
      return graph.Property(datum.node(), key);
    case Datum::Kind::kEdge:
      return graph.Property(datum.edge(), key);
    case Datum::Kind::kPath: {
      const PathValue& p = datum.path();
      if (p.from_graph && graph.HasPath(p.id)) {
        const ValueSet& stored = graph.Property(p.id, key);
        if (!stored.empty()) return stored;
      }
      // Built-in virtual properties of computed paths.
      if (key == "cost") {
        if (p.cost == std::floor(p.cost)) {
          return ValueSet(Value::Int(static_cast<int64_t>(p.cost)));
        }
        return ValueSet(Value::Double(p.cost));
      }
      if (key == "length") {
        return ValueSet(Value::Int(static_cast<int64_t>(p.body.edges.size())));
      }
      return ValueSet();
    }
    default:
      return ValueSet();
  }
}

LabelSet DatumLabels(const Datum& datum, const PathPropertyGraph& graph) {
  switch (datum.kind()) {
    case Datum::Kind::kNode:
      return graph.Labels(datum.node());
    case Datum::Kind::kEdge:
      return graph.Labels(datum.edge());
    case Datum::Kind::kPath: {
      const PathValue& p = datum.path();
      if (p.from_graph && graph.HasPath(p.id)) return graph.Labels(p.id);
      return LabelSet();
    }
    default:
      return LabelSet();
  }
}

namespace {

/// Coerces a datum to its literal set; non-value datums yield ∅.
const ValueSet& AsValues(const Datum& d) {
  static const ValueSet kEmpty;
  return d.kind() == Datum::Kind::kValues ? d.values() : kEmpty;
}

bool IsNumericSingleton(const Datum& d) {
  return d.kind() == Datum::Kind::kValues && d.values().is_singleton() &&
         d.values().single().is_numeric();
}

Result<double> NumericOf(const Datum& d, const char* what) {
  if (!IsNumericSingleton(d)) {
    return Status::TypeError(std::string("expected a numeric value for ") +
                             what + ", got " + d.ToString());
  }
  return d.values().single().NumericAsDouble();
}

Datum NumericResult(double v, bool prefer_int) {
  if (prefer_int && v == std::floor(v) && std::abs(v) < 9.2e18) {
    return Datum::OfValue(Value::Int(static_cast<int64_t>(v)));
  }
  return Datum::OfValue(Value::Double(v));
}

}  // namespace

Result<bool> ExprEvaluator::Truthy(const Datum& datum) {
  if (datum.IsUnbound()) return false;
  if (datum.kind() != Datum::Kind::kValues) {
    return Status::TypeError("condition did not evaluate to a boolean: " +
                             datum.ToString());
  }
  const ValueSet& values = datum.values();
  if (values.empty()) return false;  // absent data is falsy
  if (values.is_singleton() && values.single().is_bool()) {
    return values.single().AsBool();
  }
  return Status::TypeError("condition did not evaluate to a boolean: " +
                           values.ToString());
}

Result<bool> ExprEvaluator::EvalPredicate(const Expr& expr,
                                          const BindingTable& table,
                                          size_t row) const {
  GCORE_ASSIGN_OR_RETURN(Datum d, Eval(expr, table, row));
  return Truthy(d);
}

Result<Datum> ExprEvaluator::Eval(const Expr& expr, const BindingTable& table,
                                  size_t row) const {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      if (expr.value.is_null()) return Datum::OfValues(ValueSet());
      return Datum::OfValue(expr.value);

    case Expr::Kind::kVariable:
      return table.Get(row, expr.var);

    case Expr::Kind::kProperty: {
      const Datum& object = table.Get(row, expr.var);
      if (object.IsUnbound()) return Datum::OfValues(ValueSet());
      // A value variable (e.g. from {k=v} unrolling or FROM table) has no
      // graph properties — but allow `o.col` on nothing only as ∅.
      const PathPropertyGraph* graph = GraphFor(table, expr.var);
      if (graph == nullptr) return Datum::OfValues(ValueSet());
      return Datum::OfValues(DatumProperty(object, expr.key, *graph));
    }

    case Expr::Kind::kLabelTest: {
      const Datum& object = table.Get(row, expr.var);
      if (object.IsUnbound()) return Datum::OfBool(false);
      const PathPropertyGraph* graph_for = GraphFor(table, expr.var);
      if (graph_for == nullptr) return Datum::OfBool(false);
      const LabelSet labels = DatumLabels(object, *graph_for);
      for (const auto& l : expr.labels) {
        if (labels.Contains(l)) return Datum::OfBool(true);
      }
      return Datum::OfBool(false);
    }

    case Expr::Kind::kUnary: {
      GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
      if (expr.unary_op == UnaryOp::kNot) {
        GCORE_ASSIGN_OR_RETURN(bool b, Truthy(arg));
        return Datum::OfBool(!b);
      }
      GCORE_ASSIGN_OR_RETURN(double v, NumericOf(arg, "unary minus"));
      const bool is_int = arg.values().single().is_int();
      return NumericResult(-v, is_int);
    }

    case Expr::Kind::kBinary:
      return EvalBinary(expr, table, row);

    case Expr::Kind::kFunction:
      return EvalFunction(expr, table, row);

    case Expr::Kind::kAggregate:
      return Status::EvaluationError(
          "aggregate used outside a grouping context: " + expr.ToString());

    case Expr::Kind::kIndex: {
      GCORE_ASSIGN_OR_RETURN(Datum base, Eval(*expr.args[0], table, row));
      GCORE_ASSIGN_OR_RETURN(Datum index, Eval(*expr.args[1], table, row));
      GCORE_ASSIGN_OR_RETURN(double idx_d, NumericOf(index, "index"));
      const int64_t i = static_cast<int64_t>(idx_d);
      // Indexing is 0-based (Section 3: "G-CORE starts counting at 0").
      switch (base.kind()) {
        case Datum::Kind::kNodeList: {
          const auto& list = base.node_list();
          if (i < 0 || static_cast<size_t>(i) >= list.size()) {
            return Datum::Unbound();
          }
          return Datum::OfNode(list[static_cast<size_t>(i)]);
        }
        case Datum::Kind::kEdgeList: {
          const auto& list = base.edge_list();
          if (i < 0 || static_cast<size_t>(i) >= list.size()) {
            return Datum::Unbound();
          }
          return Datum::OfEdge(list[static_cast<size_t>(i)]);
        }
        case Datum::Kind::kValues: {
          const auto& values = base.values().values();
          if (i < 0 || static_cast<size_t>(i) >= values.size()) {
            return Datum::OfValues(ValueSet());
          }
          return Datum::OfValue(values[static_cast<size_t>(i)]);
        }
        default:
          return Status::TypeError("cannot index " + base.ToString());
      }
    }

    case Expr::Kind::kCase: {
      for (const auto& arm : expr.case_arms) {
        GCORE_ASSIGN_OR_RETURN(bool cond,
                               EvalPredicate(*arm.condition, table, row));
        if (cond) return Eval(*arm.result, table, row);
      }
      if (expr.case_else != nullptr) return Eval(*expr.case_else, table, row);
      return Datum::OfValues(ValueSet());
    }

    case Expr::Kind::kExists: {
      if (!exists_cb_) {
        return Status::EvaluationError(
            "EXISTS subquery 'EXISTS (" + expr.subquery->ToString() +
            ")' cannot be evaluated here: no subquery evaluator is wired "
            "into this context (engine-level evaluation required)");
      }
      const Query& subquery = *expr.subquery;
      GCORE_ASSIGN_OR_RETURN(
          bool nonempty,
          exists_memo_->Any(&subquery, table, row,
                            [&] { return exists_cb_(subquery); }));
      return Datum::OfBool(nonempty);
    }

    case Expr::Kind::kGraphPattern: {
      if (!pattern_cb_) {
        return Status::EvaluationError(
            "pattern predicate is not supported in this context");
      }
      const GraphPattern& pattern = *expr.pattern;
      GCORE_ASSIGN_OR_RETURN(
          bool matched,
          pattern_memo_->Any(&pattern, table, row,
                             [&] { return pattern_cb_(pattern); }));
      return Datum::OfBool(matched);
    }
  }
  return Status::EvaluationError("unhandled expression kind");
}

Result<Datum> ExprEvaluator::EvalBinary(const Expr& expr,
                                        const BindingTable& table,
                                        size_t row) const {
  const BinaryOp op = expr.binary_op;

  // Short-circuit booleans.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    GCORE_ASSIGN_OR_RETURN(bool lhs, EvalPredicate(*expr.args[0], table, row));
    if (op == BinaryOp::kAnd && !lhs) return Datum::OfBool(false);
    if (op == BinaryOp::kOr && lhs) return Datum::OfBool(true);
    GCORE_ASSIGN_OR_RETURN(bool rhs, EvalPredicate(*expr.args[1], table, row));
    return Datum::OfBool(rhs);
  }

  GCORE_ASSIGN_OR_RETURN(Datum lhs, Eval(*expr.args[0], table, row));
  GCORE_ASSIGN_OR_RETURN(Datum rhs, Eval(*expr.args[1], table, row));

  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      // Identity comparison for objects, set equality for literal sets
      // (pp. 8-9: "MIT" = {"CWI","MIT"} evaluates to FALSE). Comparisons
      // against an unbound operand are FALSE rather than an error so that
      // CASE can coalesce missing data.
      bool eq;
      if (lhs.IsUnbound() || rhs.IsUnbound()) {
        eq = false;
      } else if (lhs.kind() != rhs.kind()) {
        eq = false;
      } else {
        eq = lhs == rhs;
      }
      return Datum::OfBool(op == BinaryOp::kEq ? eq : !eq);
    }

    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      const ValueSet& l = AsValues(lhs);
      const ValueSet& r = AsValues(rhs);
      if (!l.is_singleton() || !r.is_singleton()) {
        return Datum::OfBool(false);  // absent or multi-valued: no order
      }
      const int cmp = l.single().Compare(r.single());
      bool result = false;
      switch (op) {
        case BinaryOp::kLt: result = cmp < 0; break;
        case BinaryOp::kLe: result = cmp <= 0; break;
        case BinaryOp::kGt: result = cmp > 0; break;
        default: result = cmp >= 0; break;
      }
      return Datum::OfBool(result);
    }

    case BinaryOp::kIn: {
      const ValueSet& l = AsValues(lhs);
      const ValueSet& r = AsValues(rhs);
      if (!l.is_singleton()) return Datum::OfBool(false);
      return Datum::OfBool(r.Contains(l.single()));
    }

    case BinaryOp::kSubsetOf: {
      return Datum::OfBool(AsValues(lhs).SubsetOf(AsValues(rhs)));
    }

    case BinaryOp::kAdd: {
      // String concatenation when either side is a string singleton
      // (line 72: m.lastName + ', ' + m.firstName).
      const ValueSet& l = AsValues(lhs);
      const ValueSet& r = AsValues(rhs);
      if (l.is_singleton() && r.is_singleton() &&
          (l.single().is_string() || r.single().is_string())) {
        return Datum::OfValue(
            Value::String(l.single().ToString() + r.single().ToString()));
      }
      GCORE_ASSIGN_OR_RETURN(double a, NumericOf(lhs, "+"));
      GCORE_ASSIGN_OR_RETURN(double b, NumericOf(rhs, "+"));
      const bool ints = l.single().is_int() && r.single().is_int();
      return NumericResult(a + b, ints);
    }

    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      GCORE_ASSIGN_OR_RETURN(double a, NumericOf(lhs, "arithmetic"));
      GCORE_ASSIGN_OR_RETURN(double b, NumericOf(rhs, "arithmetic"));
      const bool ints = AsValues(lhs).single().is_int() &&
                        AsValues(rhs).single().is_int();
      const double v = op == BinaryOp::kSub ? a - b : a * b;
      return NumericResult(v, ints);
    }

    case BinaryOp::kDiv: {
      // Division always yields a double: the paper's weighted-cost idiom
      // 1 / (1 + e.nr_messages) must not truncate to zero.
      GCORE_ASSIGN_OR_RETURN(double a, NumericOf(lhs, "/"));
      GCORE_ASSIGN_OR_RETURN(double b, NumericOf(rhs, "/"));
      if (b == 0.0) {
        return Status::EvaluationError("division by zero");
      }
      return Datum::OfValue(Value::Double(a / b));
    }

    case BinaryOp::kMod: {
      GCORE_ASSIGN_OR_RETURN(double a, NumericOf(lhs, "%"));
      GCORE_ASSIGN_OR_RETURN(double b, NumericOf(rhs, "%"));
      if (b == 0.0) {
        return Status::EvaluationError("modulo by zero");
      }
      return NumericResult(std::fmod(a, b), true);
    }

    default:
      return Status::EvaluationError("unhandled binary operator");
  }
}

Result<Datum> ExprEvaluator::EvalFunction(const Expr& expr,
                                          const BindingTable& table,
                                          size_t row) const {
  std::string lower = expr.name;
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }

  auto arity = [&](size_t n) -> Status {
    if (expr.args.size() != n) {
      return Status::TypeError(expr.name + " expects " + std::to_string(n) +
                               " argument(s)");
    }
    return Status::OK();
  };

  if (lower == "labels") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum obj, Eval(*expr.args[0], table, row));
    const std::string& var = expr.args[0]->kind == Expr::Kind::kVariable
                                 ? expr.args[0]->var
                                 : std::string();
    const PathPropertyGraph* graph = GraphFor(table, var);
    if (graph == nullptr) return Datum::OfValues(ValueSet());
    const LabelSet labels = DatumLabels(obj, *graph);
    ValueSet out;
    for (const auto& l : labels) out.Insert(Value::String(l));
    return Datum::OfValues(std::move(out));
  }

  if (lower == "nodes" || lower == "edges") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum obj, Eval(*expr.args[0], table, row));
    if (obj.kind() != Datum::Kind::kPath) {
      return Status::TypeError(expr.name + "() expects a path");
    }
    if (lower == "nodes") return Datum::OfNodeList(obj.path().body.nodes);
    return Datum::OfEdgeList(obj.path().body.edges);
  }

  if (lower == "strlen") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    const ValueSet& v = AsValues(arg);
    if (!v.is_singleton() || !v.single().is_string()) {
      return Status::TypeError("strlen() expects a single string");
    }
    return Datum::OfValue(
        Value::Int(static_cast<int64_t>(v.single().AsString().size())));
  }

  if (lower == "size" || lower == "length") {
    // SIZE is set cardinality / list length — the paper's "length test"
    // for absent (empty-set) properties. Use STRLEN for string length.
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    switch (arg.kind()) {
      case Datum::Kind::kValues:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.values().size())));
      case Datum::Kind::kNodeList:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.node_list().size())));
      case Datum::Kind::kEdgeList:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.edge_list().size())));
      case Datum::Kind::kPath:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.path().body.edges.size())));
      case Datum::Kind::kUnbound:
        return Datum::OfValue(Value::Int(0));
      default:
        return Status::TypeError("size() of unsupported operand");
    }
  }

  if (lower == "cost") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    if (arg.kind() != Datum::Kind::kPath) {
      return Status::TypeError("cost() expects a path");
    }
    const double c = arg.path().cost;
    if (c == std::floor(c)) {
      return Datum::OfValue(Value::Int(static_cast<int64_t>(c)));
    }
    return Datum::OfValue(Value::Double(c));
  }

  if (lower == "id") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    switch (arg.kind()) {
      case Datum::Kind::kNode:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.node().value())));
      case Datum::Kind::kEdge:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.edge().value())));
      case Datum::Kind::kPath:
        return Datum::OfValue(
            Value::Int(static_cast<int64_t>(arg.path().id.value())));
      default:
        return Status::TypeError("id() expects a node, edge or path");
    }
  }

  if (lower == "date") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    const ValueSet& v = AsValues(arg);
    if (!v.is_singleton() || !v.single().is_string()) {
      return Status::TypeError("date() expects a string");
    }
    GCORE_ASSIGN_OR_RETURN(Date date, Date::Parse(v.single().AsString()));
    return Datum::OfValue(Value::OfDate(date));
  }

  if (lower == "tostring") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    return Datum::OfValue(Value::String(AsValues(arg).ToString()));
  }

  if (lower == "tointeger") {
    GCORE_RETURN_NOT_OK(arity(1));
    GCORE_ASSIGN_OR_RETURN(Datum arg, Eval(*expr.args[0], table, row));
    const ValueSet& v = AsValues(arg);
    if (v.is_singleton() && v.single().is_numeric()) {
      return Datum::OfValue(
          Value::Int(static_cast<int64_t>(v.single().NumericAsDouble())));
    }
    if (v.is_singleton() && v.single().is_string()) {
      try {
        return Datum::OfValue(Value::Int(std::stoll(v.single().AsString())));
      } catch (...) {
        return Datum::OfValues(ValueSet());
      }
    }
    return Datum::OfValues(ValueSet());
  }

  if (lower == "coalesce") {
    for (const auto& arg : expr.args) {
      GCORE_ASSIGN_OR_RETURN(Datum d, Eval(*arg, table, row));
      if (d.IsBound() &&
          (d.kind() != Datum::Kind::kValues || !d.values().empty())) {
        return d;
      }
    }
    return Datum::OfValues(ValueSet());
  }

  if (lower == "property") {
    // Internal: property access on a computed object (nodes(p)[1].name).
    GCORE_RETURN_NOT_OK(arity(2));
    GCORE_ASSIGN_OR_RETURN(Datum obj, Eval(*expr.args[0], table, row));
    GCORE_ASSIGN_OR_RETURN(Datum key, Eval(*expr.args[1], table, row));
    const ValueSet& k = AsValues(key);
    if (!k.is_singleton() || !k.single().is_string()) {
      return Status::TypeError("property key must be a string");
    }
    if (default_graph_ == nullptr) return Datum::OfValues(ValueSet());
    return Datum::OfValues(
        DatumProperty(obj, k.single().AsString(), *default_graph_));
  }

  return Status::EvaluationError("unknown function: " + expr.name);
}

Result<Datum> ExprEvaluator::EvalWithGroup(
    const Expr& expr, const BindingTable& table,
    const std::vector<size_t>& group_rows) const {
  if (expr.kind == Expr::Kind::kAggregate) {
    return EvalAggregate(expr, table, group_rows);
  }
  if (!expr.ContainsAggregate()) {
    if (group_rows.empty()) return Datum::OfValues(ValueSet());
    return Eval(expr, table, group_rows.front());
  }
  // Mixed scalar/aggregate tree: rebuild bottom-up. Binary/unary/case over
  // aggregates is evaluated by recursing with the group.
  switch (expr.kind) {
    case Expr::Kind::kUnary: {
      GCORE_ASSIGN_OR_RETURN(Datum arg,
                             EvalWithGroup(*expr.args[0], table, group_rows));
      if (expr.unary_op == UnaryOp::kNot) {
        GCORE_ASSIGN_OR_RETURN(bool b, Truthy(arg));
        return Datum::OfBool(!b);
      }
      GCORE_ASSIGN_OR_RETURN(double v, NumericOf(arg, "unary minus"));
      return NumericResult(-v, arg.values().single().is_int());
    }
    case Expr::Kind::kBinary: {
      // Delegate to the scalar path by materializing both sides first.
      GCORE_ASSIGN_OR_RETURN(Datum lhs,
                             EvalWithGroup(*expr.args[0], table, group_rows));
      GCORE_ASSIGN_OR_RETURN(Datum rhs,
                             EvalWithGroup(*expr.args[1], table, group_rows));
      // Build a tiny literal expression to reuse EvalBinary semantics.
      Expr tmp;
      tmp.kind = Expr::Kind::kBinary;
      tmp.binary_op = expr.binary_op;
      BindingTable scratch({"_l", "_r"});
      Status st = scratch.AddRow({lhs, rhs});
      (void)st;
      tmp.args.push_back(Expr::Variable("_l"));
      tmp.args.push_back(Expr::Variable("_r"));
      return EvalBinary(tmp, scratch, 0);
    }
    default:
      return Status::EvaluationError(
          "unsupported aggregate expression shape: " + expr.ToString());
  }
}

Result<Datum> ExprEvaluator::EvalAggregate(
    const Expr& expr, const BindingTable& table,
    const std::vector<size_t>& group_rows) const {
  if (expr.aggregate_op == AggregateOp::kCount && expr.count_star) {
    // COUNT(*) counts *complete* bindings: a row produced by an OPTIONAL
    // block that did not match leaves the optional variables unbound and
    // does not count (Section 3: "people who know each other but never
    // exchanged a message still get a property e.nr_messages = 0").
    int64_t complete = 0;
    for (size_t r : group_rows) {
      bool all_bound = true;
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        if (!table.ColumnAt(c).BoundAt(r)) {
          all_bound = false;
          break;
        }
      }
      if (all_bound) ++complete;
    }
    return Datum::OfValue(Value::Int(complete));
  }
  if (expr.args.empty()) {
    return Status::TypeError("aggregate requires an argument");
  }

  std::vector<Value> inputs;
  int64_t bound_count = 0;
  for (size_t r : group_rows) {
    GCORE_ASSIGN_OR_RETURN(Datum d, Eval(*expr.args[0], table, r));
    if (d.IsUnbound()) continue;
    if (d.kind() == Datum::Kind::kValues) {
      if (d.values().empty()) continue;
      ++bound_count;
      for (const Value& v : d.values()) inputs.push_back(v);
    } else {
      ++bound_count;  // object-typed: counts but does not sum
    }
  }

  switch (expr.aggregate_op) {
    case AggregateOp::kCount:
      return Datum::OfValue(Value::Int(bound_count));
    case AggregateOp::kCollect:
      return Datum::OfValues(ValueSet(std::move(inputs)));
    case AggregateOp::kMin:
    case AggregateOp::kMax: {
      if (inputs.empty()) return Datum::OfValues(ValueSet());
      Value best = inputs.front();
      for (const Value& v : inputs) {
        const int cmp = v.Compare(best);
        if ((expr.aggregate_op == AggregateOp::kMin && cmp < 0) ||
            (expr.aggregate_op == AggregateOp::kMax && cmp > 0)) {
          best = v;
        }
      }
      return Datum::OfValue(best);
    }
    case AggregateOp::kSum:
    case AggregateOp::kAvg: {
      double sum = 0;
      bool all_int = true;
      int64_t n = 0;
      for (const Value& v : inputs) {
        if (!v.is_numeric()) {
          return Status::TypeError("SUM/AVG over non-numeric value");
        }
        if (!v.is_int()) all_int = false;
        sum += v.NumericAsDouble();
        ++n;
      }
      if (expr.aggregate_op == AggregateOp::kSum) {
        return NumericResult(sum, all_int);
      }
      if (n == 0) return Datum::OfValues(ValueSet());
      return Datum::OfValue(Value::Double(sum / static_cast<double>(n)));
    }
  }
  return Status::EvaluationError("unhandled aggregate");
}

}  // namespace gcore
