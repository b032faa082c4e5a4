// Expression evaluation (Appendix A.1 "Expressions").
//
// ⟦ξ⟧ is computed per binding row; property access σ(x, k) yields a
// *set* of literals, and the comparison/membership semantics of pp. 8-9
// (singleton unwrap, `=` as set equality, `IN`, `SUBSET`, absent = ∅)
// are implemented here. EXISTS subqueries and implicit pattern
// predicates are correlated here too: callbacks wired by the engine and
// the matcher supply their uncorrelated inner relations, and a
// CorrelatedMemo owned by the enclosing evaluation answers each row.
//
// This row-at-a-time evaluator is the *executable spec* of expression
// semantics. The hot paths (WHERE conjuncts, residual filters, computed
// projections) run the vectorized kernel programs of eval/expr_vec.h
// instead, which are compiled from the same Expr trees and pinned to
// this evaluator cell-for-cell (including null/absent/multi-valued
// behavior and error precedence) by tests/eval/expr_vec_test.cc; rows
// the kernels can't decide replay through Eval/EvalPredicate here.
#ifndef GCORE_EVAL_EXPR_EVAL_H_
#define GCORE_EVAL_EXPR_EVAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "eval/binding.h"
#include "eval/binding_ops.h"
#include "graph/catalog.h"

namespace gcore {

/// The inner relations of correlated predicates for one evaluation.
/// Appendix A.2 defines ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω: the inner relation ⟦γ⟧G of an
/// EXISTS subquery or implicit pattern predicate does not depend on the
/// outer row. The memo evaluates it at most once per predicate site — on
/// the first row that reaches the predicate, so a predicate no row
/// reaches is never evaluated and its errors never surface — and answers
/// every row with one SemijoinProbe lookup, indexed once per outer
/// schema. A failed evaluation is not kept: the next row that reaches
/// the site evaluates again (and fails the same way). Not thread-safe:
/// the executor runs stages with correlated predicates serially
/// (ExprParallelSafe). Whatever the inner relations read must stay valid
/// for the memo's lifetime (its owner pins the graphs it resolves).
class CorrelatedMemo {
 public:
  using InnerFn = std::function<Result<BindingTable>()>;

  /// ⟦site⟧ ⋉ {row of outer} ≠ ∅. `inner` computes the site's relation
  /// when the memo has none yet.
  Result<bool> Any(const void* site, const BindingTable& outer, size_t row,
                   const InnerFn& inner);

  /// Inner relations evaluated so far (EXPLAIN ANALYZE's inner_evals).
  uint64_t inner_evals() const { return inner_evals_; }

 private:
  struct Site {
    BindingTable inner;
    /// One probe per outer schema that reached the site.
    std::vector<SemijoinProbe> probes;
  };
  std::unordered_map<const void*, std::unique_ptr<Site>> sites_;
  uint64_t inner_evals_ = 0;
};

class ExprEvaluator {
 public:
  /// Uncorrelated inner relation ⟦γ⟧G of an EXISTS subquery or implicit
  /// pattern predicate; the evaluator correlates it with the current row
  /// through the CorrelatedMemo passed next to the callback, so a
  /// callback runs at most once per site and memo. A subquery whose body
  /// is not a basic query answers with a nullary table: one row when its
  /// graph is non-empty, none otherwise.
  using ExistsCallback = std::function<Result<BindingTable>(const Query&)>;
  using PatternCallback =
      std::function<Result<BindingTable>(const GraphPattern&)>;

  /// Provenance graph name → graph; null falls back to the default graph.
  using ProvenanceResolver =
      std::function<const PathPropertyGraph*(const std::string&)>;

  /// `default_graph` resolves λ/σ lookups for columns without provenance;
  /// `catalog` (optional) resolves provenance graph names.
  ExprEvaluator(const PathPropertyGraph* default_graph,
                const GraphCatalog* catalog);

  /// Resolves provenance names through `resolve` instead of the catalog
  /// (a matcher's per-query graph pins).
  void set_provenance_resolver(ProvenanceResolver resolve) {
    resolve_provenance_ = std::move(resolve);
  }

  /// Wires EXISTS / pattern predicates. `memo` must outlive every use
  /// of this evaluator (and its copies); evaluators sharing a memo share
  /// the inner relations.
  void set_exists_callback(ExistsCallback cb, CorrelatedMemo* memo) {
    exists_cb_ = std::move(cb);
    exists_memo_ = memo;
  }
  void set_pattern_callback(PatternCallback cb, CorrelatedMemo* memo) {
    pattern_cb_ = std::move(cb);
    pattern_memo_ = memo;
  }

  /// ⟦expr⟧ on one row. Aggregates are errors here (use EvalWithGroup).
  Result<Datum> Eval(const Expr& expr, const BindingTable& table,
                     size_t row) const;

  /// ⟦expr⟧ where aggregates range over `group_rows` and scalar parts are
  /// evaluated on the group representative (first row).
  Result<Datum> EvalWithGroup(const Expr& expr, const BindingTable& table,
                              const std::vector<size_t>& group_rows) const;

  /// Two-valued truthiness of a WHERE/WHEN condition: TRUE only for the
  /// singleton {⊤}; the empty set (absent data) is falsy.
  Result<bool> EvalPredicate(const Expr& expr, const BindingTable& table,
                             size_t row) const;

  /// λ/σ source graph for variable `var` of `table` (provenance column
  /// graph when recorded, else the default graph).
  const PathPropertyGraph* GraphFor(const BindingTable& table,
                                    const std::string& var) const;

  /// Truthiness of an already-computed datum.
  static Result<bool> Truthy(const Datum& datum);

 private:
  Result<Datum> EvalAggregate(const Expr& expr, const BindingTable& table,
                              const std::vector<size_t>& group_rows) const;
  Result<Datum> EvalBinary(const Expr& expr, const BindingTable& table,
                           size_t row) const;
  Result<Datum> EvalFunction(const Expr& expr, const BindingTable& table,
                             size_t row) const;

  const PathPropertyGraph* default_graph_;
  ProvenanceResolver resolve_provenance_;
  ExistsCallback exists_cb_;
  CorrelatedMemo* exists_memo_ = nullptr;
  PatternCallback pattern_cb_;
  CorrelatedMemo* pattern_memo_ = nullptr;
};

/// Property lookup on whatever object `datum` denotes, against `graph`.
/// For computed (non-stored) paths, the only virtual property is "cost".
ValueSet DatumProperty(const Datum& datum, const std::string& key,
                       const PathPropertyGraph& graph);

/// Label set of the object `datum` denotes in `graph`.
LabelSet DatumLabels(const Datum& datum, const PathPropertyGraph& graph);

}  // namespace gcore

#endif  // GCORE_EVAL_EXPR_EVAL_H_
