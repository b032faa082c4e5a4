// Expression AST: the ξ grammar of Appendix A.1.
//
//   ξ ::= x | x.k | x:ℓ | ⋄ξ | ξ ⊙ ξ | f(ξ, ...) | Σ(ξ) | EXISTS q
//
// plus CASE (mentioned in Section 3 for coalescing missing data) and
// implicit existential graph patterns inside WHERE (lines 27/31/35).
#ifndef GCORE_AST_EXPR_H_
#define GCORE_AST_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace gcore {

struct GraphPattern;  // pattern.h
struct Query;         // ast.h

/// Binary operators ⊙.
enum class BinaryOp {
  kEq,        // =   (set equality; singletons unwrap)
  kNe,        // <>
  kLt,        // <
  kLe,        // <=
  kGt,        // >
  kGe,        // >=
  kAnd,       // AND
  kOr,        // OR
  kAdd,       // +   (numeric addition / string concatenation)
  kSub,       // -
  kMul,       // *
  kDiv,       // /
  kMod,       // %
  kIn,        // IN       (value ∈ set)
  kSubsetOf,  // SUBSET   (set ⊆ set)
};

/// Unary operators ⋄.
enum class UnaryOp {
  kNot,  // NOT
  kNeg,  // -ξ
};

/// Aggregation functions Σ.
enum class AggregateOp {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kCollect,
};

const char* BinaryOpToString(BinaryOp op);
const char* AggregateOpToString(AggregateOp op);

/// One WHEN/THEN arm of a searched CASE.
struct CaseArm;

/// Expression tree node. Tagged union; only the members relevant to `kind`
/// are populated.
struct Expr {
  enum class Kind {
    kLiteral,       // value
    kVariable,      // x
    kProperty,      // x.k                 (var, key)
    kLabelTest,     // x:ℓ1|ℓ2             (var, labels — disjunction)
    kUnary,         // ⋄ξ                  (unary_op, args[0])
    kBinary,        // ξ ⊙ ξ               (binary_op, args[0], args[1])
    kFunction,      // f(ξ, ...)            (name, args)
    kAggregate,     // Σ(ξ) / COUNT(*)      (aggregate_op, args maybe empty)
    kIndex,         // ξ[ξ]                 (args[0], args[1]) — nodes(p)[1]
    kCase,          // CASE WHEN..THEN.. ELSE.. END
    kExists,        // EXISTS (subquery)    (subquery)
    kGraphPattern,  // implicit existential pattern in WHERE (pattern)
  };

  Kind kind;

  Value value;                              // kLiteral
  std::string var;                          // kVariable/kProperty/kLabelTest
  std::string key;                          // kProperty
  std::vector<std::string> labels;          // kLabelTest (any-of)
  UnaryOp unary_op{};                       // kUnary
  BinaryOp binary_op{};                     // kBinary
  std::string name;                         // kFunction
  AggregateOp aggregate_op{};               // kAggregate
  bool count_star = false;                  // kAggregate: COUNT(*)
  std::vector<std::unique_ptr<Expr>> args;  // children
  std::vector<CaseArm> case_arms;           // kCase
  std::unique_ptr<Expr> case_else;          // kCase (may be null)
  std::unique_ptr<Query> subquery;          // kExists
  std::unique_ptr<GraphPattern> pattern;    // kGraphPattern

  Expr();
  ~Expr();
  Expr(Expr&&) noexcept;
  Expr& operator=(Expr&&) noexcept;

  // --- factories -----------------------------------------------------------
  static std::unique_ptr<Expr> Literal(Value v);
  static std::unique_ptr<Expr> Variable(std::string name);
  static std::unique_ptr<Expr> Property(std::string var, std::string key);
  static std::unique_ptr<Expr> LabelTest(std::string var,
                                         std::vector<std::string> labels);
  static std::unique_ptr<Expr> Unary(UnaryOp op, std::unique_ptr<Expr> arg);
  static std::unique_ptr<Expr> Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                      std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> Function(std::string name,
                                        std::vector<std::unique_ptr<Expr>> a);
  static std::unique_ptr<Expr> Aggregate(AggregateOp op,
                                         std::unique_ptr<Expr> arg);
  static std::unique_ptr<Expr> CountStar();
  static std::unique_ptr<Expr> Index(std::unique_ptr<Expr> base,
                                     std::unique_ptr<Expr> index);
  static std::unique_ptr<Expr> Exists(std::unique_ptr<Query> subquery);
  static std::unique_ptr<Expr> PatternPredicate(
      std::unique_ptr<GraphPattern> pattern);

  /// True when the subtree contains an aggregate (drives CONSTRUCT
  /// grouping, e.g. COUNT(*) in SET).
  bool ContainsAggregate() const;

  /// Collects variables referenced anywhere in the subtree.
  void CollectVariables(std::vector<std::string>* out) const;

  /// Query-text rendering.
  std::string ToString() const;
};

struct CaseArm {
  std::unique_ptr<Expr> condition;
  std::unique_ptr<Expr> result;
};

/// Appends the conjuncts of an AND tree to `out` in query-text order (a
/// non-AND expression is its own single conjunct). The one AND-splitter:
/// the pushdown rule and the estimator's residual-WHERE rule both use it,
/// so a pushed list runs and renders in the order the query writes it.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out);

}  // namespace gcore

#endif  // GCORE_AST_EXPR_H_
