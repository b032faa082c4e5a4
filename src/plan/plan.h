// Logical plan IR for MATCH evaluation.
//
// The planner (plan/planner.h) lowers a MatchClause AST into a tree of
// PlanNodes; the rule-based optimizer rewrites the tree (predicate
// pushdown into scans/expands — for the main WHERE and per OPTIONAL
// block — and chain ordering by estimated cardinality); the executor
// (plan/executor.h) runs it bottom-up, pulling BindingTable morsels
// through the operators, in parallel between pipeline breakers. EXPLAIN
// renders the optimized tree.
//
// Binding-level operators (executed):
//   NodeScan       — all admitted nodes of one graph into a fresh column
//   ExpandEdge     — one edge hop from a bound node column
//   MultiwayExpand — k pattern edges closing a cycle, evaluated by
//                    worst-case-optimal multiway intersection (wcoj.h)
//   PathSearch     — one path hop (stored / SHORTEST / ALL / reachability)
//   Filter         — residual WHERE predicate
//   HashJoin       — natural join of two subplans; join trees may be
//                    bushy (the planner's DP enumeration), not only
//                    left-deep chains
//   LeftOuterJoin  — OPTIONAL block chaining
//   Project        — drop internal columns, restore set semantics
//
// Graph-level operators (EXPLAIN rendering of full-query set operations):
//   GraphUnion / GraphIntersect / GraphMinus
#ifndef GCORE_PLAN_PLAN_H_
#define GCORE_PLAN_PLAN_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"

namespace gcore {

enum class PlanOp : uint8_t {
  kNodeScan,
  kExpandEdge,
  kMultiwayExpand,
  kPathSearch,
  kFilter,
  kHashJoin,
  kLeftOuterJoin,
  kProject,
  kGraphUnion,
  kGraphIntersect,
  kGraphMinus,
};

const char* PlanOpName(PlanOp op);

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// One pattern edge of a MultiwayExpand cycle (kMultiwayExpand). The
/// edge pattern pointer is non-owning into the query AST; `labels` is the
/// edge variable's effective label constraint (PlanNode::edge_labels).
struct MultiwayEdge {
  std::string from_var;
  const EdgePattern* edge = nullptr;
  std::string edge_var;
  std::string to_var;
  LabelGroups labels;
};

/// One node-pattern occurrence a MultiwayExpand absorbed: its variable,
/// its pattern (props) and the variable's effective label constraint.
struct MultiwayNode {
  std::string var;
  const NodePattern* node = nullptr;
  LabelGroups labels;
};

/// One operator of a logical plan. Pattern members are non-owning
/// pointers into the query AST, which outlives the plan.
struct PlanNode {
  PlanOp op{};
  std::vector<PlanPtr> children;

  /// Scans/expands: effective ON location (already combining pattern ON,
  /// clause-level ON and engine location overrides; empty = default
  /// graph). Filter: graph resolving λ/σ fallback lookups.
  std::string graph;

  // kNodeScan
  const NodePattern* node = nullptr;
  std::string var;

  // kExpandEdge / kPathSearch
  std::string from_var;
  const EdgePattern* edge = nullptr;  // kExpandEdge
  std::string edge_var;
  const PathPattern* path = nullptr;  // kPathSearch
  std::string path_var;
  const NodePattern* to = nullptr;
  std::string to_var;

  /// Effective label constraint of the node variable this operator binds
  /// (`var` of kNodeScan, `to_var` of kExpandEdge/kPathSearch) and of
  /// kExpandEdge's `edge_var`. Without the pushdown rule these are the
  /// pattern element's own label groups; with it, the conjunction over
  /// every occurrence of the variable in the MATCH block that reads the
  /// same graph, plus the block WHERE's folded `(x:ℓ)` conjuncts.
  /// Admission, estimates and EXPLAIN read these, not the AST's groups.
  LabelGroups node_labels;
  LabelGroups edge_labels;

  /// Pushed-down single-variable WHERE conjuncts applied by this operator
  /// as soon as their variable is bound (the optimizer's pushdown rule).
  std::vector<const Expr*> pushed;

  /// kFilter: the WHERE's top-level AND-conjuncts in query order, less
  /// those the pushdown rule folded into label admission. Evaluated left
  /// to right, each on the rows the earlier ones kept.
  std::vector<const Expr*> conjuncts;

  // kProject: visible output columns in legacy binding order. Projection
  // always deduplicates (bindings form a set, Appendix A.1).
  std::vector<std::string> output;

  /// kHashJoin: the joined chains share at least one variable (estimation
  /// treats the join as key-correlated rather than a cross product).
  bool join_correlated = false;
  /// kHashJoin: the shared variables (natural-join keys), sorted. The
  /// estimator derives per-key domain sizes from the operators binding
  /// them for its degree-aware join bound.
  std::vector<std::string> join_vars;
  /// kHashJoin: build over the left (accumulated) side instead of the
  /// right — set by the planner's build-side rule when statistics
  /// predict the right side is much larger. The executor re-merges the
  /// swapped join into canonical (left-first) column order, so schema and
  /// provenance are identical either way.
  bool swap_build = false;

  /// kMultiwayExpand: the cycle's pattern edges, in source order. The
  /// child subplan binds at least one of the cycle's node variables (the
  /// seed); the operator binds the remaining node variables by sorted
  /// adjacency-list intersection and every edge variable by enumeration.
  std::vector<MultiwayEdge> multi_edges;
  /// kMultiwayExpand: every node-pattern occurrence of the cycle's
  /// variables absorbed by the rewrite (admission checks for the new
  /// columns; entries for pre-bound variables re-check trivially).
  std::vector<MultiwayNode> multi_nodes;

  /// kProject (the plan root): resolved morsel-parallel execution degree
  /// the executor will use; 0 = not annotated (plans built outside a
  /// planner). Rendered by EXPLAIN.
  size_t parallelism = 0;

  /// Estimated output rows (plan/cost.h); negative = unknown.
  double est_rows = -1.0;
  /// Measured output rows of the operator's last execution, filled by
  /// EXPLAIN ANALYZE (ExecStats::AnnotateActuals); negative = not run.
  int64_t actual_rows = -1;
  /// Measured wall time (milliseconds) the operator spent producing those
  /// rows, filled next to actual_rows by EXPLAIN ANALYZE; negative = not
  /// run. Operators report their own work (their children's time is
  /// excluded at the recording sites); parallel stages sum the time their
  /// threads spent, so actual_ms can exceed the query's wall clock.
  double actual_ms = -1.0;
  /// Inner relations of correlated predicates (EXISTS, pattern
  /// predicates) the operator evaluated during EXPLAIN ANALYZE; each is
  /// computed once per evaluation and probed per row, so this stays at
  /// one per predicate however many rows reach it. Rendered when > 0.
  uint64_t inner_evals = 0;

  PlanNode() = default;
  explicit PlanNode(PlanOp o) : op(o) {}

  /// One-line description of this operator (no children).
  std::string Describe() const;

  /// Multi-line tree rendering (this node and its subtree).
  std::string ToString() const;

  /// Tree rendering as one string per output row.
  std::vector<std::string> RenderLines() const;
};

/// Creates a node of kind `op` with the given children.
PlanPtr MakePlan(PlanOp op, std::vector<PlanPtr> children = {});

/// Appends the label groups of `from` that `groups` does not hold yet, in
/// order: conjoining a variable's occurrences states each group once.
void AppendDistinctGroups(const LabelGroups& from, LabelGroups* groups);

/// Distinct node variables of a MultiwayExpand cycle, in first-appearance
/// order over multi_edges (from before to, edge by edge).
std::vector<std::string> MultiwayNodeVars(const PlanNode& node);

/// Deterministic elimination order of the cycle's node variables outside
/// `bound`: repeatedly the free variable with the most pattern edges into
/// the bound/placed set, ties broken by first appearance. The executor
/// and the cost model's degree bound walk the same order.
std::vector<std::string> MultiwayEliminationOrder(
    const PlanNode& node, const std::set<std::string>& bound);

/// Appends a rendered child subtree to `lines` with the box-drawing
/// prefixes of PlanNode::RenderLines (shared with the EXPLAIN wrappers).
void AppendChildLines(const std::vector<std::string>& child, bool last,
                      std::vector<std::string>* lines);

}  // namespace gcore

#endif  // GCORE_PLAN_PLAN_H_
