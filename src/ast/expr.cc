#include "ast/expr.h"

#include "ast/ast.h"
#include "ast/pattern.h"

namespace gcore {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kIn:
      return "IN";
    case BinaryOp::kSubsetOf:
      return "SUBSET";
  }
  return "?";
}

const char* AggregateOpToString(AggregateOp op) {
  switch (op) {
    case AggregateOp::kCount:
      return "COUNT";
    case AggregateOp::kSum:
      return "SUM";
    case AggregateOp::kMin:
      return "MIN";
    case AggregateOp::kMax:
      return "MAX";
    case AggregateOp::kAvg:
      return "AVG";
    case AggregateOp::kCollect:
      return "COLLECT";
  }
  return "?";
}

Expr::Expr() : kind(Kind::kLiteral) {}
Expr::~Expr() = default;
Expr::Expr(Expr&&) noexcept = default;
Expr& Expr::operator=(Expr&&) noexcept = default;

std::unique_ptr<Expr> Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->value = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::Variable(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVariable;
  e->var = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::Property(std::string var, std::string key) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kProperty;
  e->var = std::move(var);
  e->key = std::move(key);
  return e;
}

std::unique_ptr<Expr> Expr::LabelTest(std::string var,
                                      std::vector<std::string> labels) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLabelTest;
  e->var = std::move(var);
  e->labels = std::move(labels);
  return e;
}

std::unique_ptr<Expr> Expr::Unary(UnaryOp op, std::unique_ptr<Expr> arg) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->unary_op = op;
  e->args.push_back(std::move(arg));
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->binary_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> Expr::Function(std::string name,
                                     std::vector<std::unique_ptr<Expr>> a) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kFunction;
  e->name = std::move(name);
  e->args = std::move(a);
  return e;
}

std::unique_ptr<Expr> Expr::Aggregate(AggregateOp op,
                                      std::unique_ptr<Expr> arg) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAggregate;
  e->aggregate_op = op;
  if (arg != nullptr) e->args.push_back(std::move(arg));
  return e;
}

std::unique_ptr<Expr> Expr::CountStar() {
  auto e = Aggregate(AggregateOp::kCount, nullptr);
  e->count_star = true;
  return e;
}

std::unique_ptr<Expr> Expr::Index(std::unique_ptr<Expr> base,
                                  std::unique_ptr<Expr> index) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kIndex;
  e->args.push_back(std::move(base));
  e->args.push_back(std::move(index));
  return e;
}

std::unique_ptr<Expr> Expr::Exists(std::unique_ptr<Query> subquery) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kExists;
  e->subquery = std::move(subquery);
  return e;
}

std::unique_ptr<Expr> Expr::PatternPredicate(
    std::unique_ptr<GraphPattern> pattern) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kGraphPattern;
  e->pattern = std::move(pattern);
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind == Kind::kAggregate) return true;
  for (const auto& a : args) {
    if (a != nullptr && a->ContainsAggregate()) return true;
  }
  for (const auto& arm : case_arms) {
    if (arm.condition != nullptr && arm.condition->ContainsAggregate()) {
      return true;
    }
    if (arm.result != nullptr && arm.result->ContainsAggregate()) return true;
  }
  if (case_else != nullptr && case_else->ContainsAggregate()) return true;
  return false;
}

void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary &&
      expr.binary_op == BinaryOp::kAnd) {
    SplitConjuncts(*expr.args[0], out);
    SplitConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

void Expr::CollectVariables(std::vector<std::string>* out) const {
  auto add = [out](const std::string& v) {
    if (v.empty()) return;
    for (const auto& existing : *out) {
      if (existing == v) return;
    }
    out->push_back(v);
  };
  switch (kind) {
    case Kind::kVariable:
    case Kind::kProperty:
    case Kind::kLabelTest:
      add(var);
      break;
    case Kind::kGraphPattern:
      if (pattern != nullptr) {
        std::vector<std::string> bound;
        pattern->CollectBoundVariables(&bound);
        for (const auto& v : bound) add(v);
      }
      break;
    default:
      break;
  }
  for (const auto& a : args) {
    if (a != nullptr) a->CollectVariables(out);
  }
  for (const auto& arm : case_arms) {
    if (arm.condition != nullptr) arm.condition->CollectVariables(out);
    if (arm.result != nullptr) arm.result->CollectVariables(out);
  }
  if (case_else != nullptr) case_else->CollectVariables(out);
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return value.is_string() ? "'" + value.AsString() + "'"
                               : value.ToString();
    case Kind::kVariable:
      return var;
    case Kind::kProperty:
      return var + "." + key;
    case Kind::kLabelTest: {
      std::string out = var + ":";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) out += "|";
        out += labels[i];
      }
      return out;
    }
    case Kind::kUnary:
      return (unary_op == UnaryOp::kNot ? "NOT " : "-") +
             args[0]->ToString();
    case Kind::kBinary:
      return "(" + args[0]->ToString() + " " +
             BinaryOpToString(binary_op) + " " + args[1]->ToString() + ")";
    case Kind::kFunction: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kAggregate: {
      std::string out = AggregateOpToString(aggregate_op);
      out += "(";
      out += count_star ? "*" : (args.empty() ? "" : args[0]->ToString());
      return out + ")";
    }
    case Kind::kIndex:
      return args[0]->ToString() + "[" + args[1]->ToString() + "]";
    case Kind::kCase: {
      std::string out = "CASE";
      for (const auto& arm : case_arms) {
        out += " WHEN " + arm.condition->ToString() + " THEN " +
               arm.result->ToString();
      }
      if (case_else != nullptr) out += " ELSE " + case_else->ToString();
      return out + " END";
    }
    case Kind::kExists:
      return "EXISTS (...)";
    case Kind::kGraphPattern:
      return pattern != nullptr ? pattern->ToString() : "<pattern>";
  }
  return "?";
}

}  // namespace gcore
