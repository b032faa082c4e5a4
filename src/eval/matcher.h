// The MATCH evaluator: Appendix A.2.
//
// Evaluates full graph patterns (chains of node/edge/path patterns over
// possibly different graphs) into binding tables, applies WHERE filters
// (including EXISTS subqueries and implicit pattern predicates), and
// chains OPTIONAL blocks with left outer joins in source order.
//
// Since the planner refactor, `EvalMatchClause` lowers the clause to a
// logical plan (plan/planner.h), optimizes it, and runs it through the
// morsel-pipeline executor (plan/executor.h). The pre-planner recursive
// tree-walk is kept as a reference implementation (`use_planner = false`)
// for differential testing; both paths share the pattern-element
// primitives below, so their semantics cannot drift apart.
#ifndef GCORE_EVAL_MATCHER_H_
#define GCORE_EVAL_MATCHER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ast/ast.h"
#include "common/options.h"
#include "eval/binding.h"
#include "eval/expr_eval.h"
#include "eval/expr_vec.h"
#include "graph/adjacency.h"
#include "graph/catalog.h"
#include "graph/snapshot.h"
#include "paths/k_shortest.h"
#include "paths/path_view.h"

namespace gcore {

class ExecStats;  // plan/executor.h
struct PlanNode;  // plan/plan.h

/// Everything a match evaluation needs from its surroundings. The
/// evaluation knobs (planner on/off, optimizer rules, parallelism —
/// see common/options.h) are the inherited EngineOptions fields: the
/// engine assigns one frozen options struct in a single statement
/// instead of forwarding field by field.
struct MatcherContext : EngineOptions {
  GraphCatalog* catalog = nullptr;
  /// PATH views in scope (query head clauses). May be null.
  const PathViewRegistry* views = nullptr;
  /// Graph used when a pattern has no ON clause.
  std::string default_graph;
  /// Correlated-EXISTS hook (wired by the engine; may be empty — EXISTS
  /// then errors, naming the subquery). It returns the subquery's
  /// uncorrelated bindings; evaluators from MakeEvaluator correlate them
  /// through the matcher's memo, so each EXISTS site runs at most once
  /// per matcher.
  ExprEvaluator::ExistsCallback exists_cb;
  /// Resolved ON-(subquery) locations: the engine evaluates each
  /// pattern's subquery to a temporary catalog graph and records its name
  /// here before matching. May be null.
  const std::map<const GraphPattern*, std::string>* location_overrides =
      nullptr;
};

/// Result of evaluating one pattern chain with full element detail; used
/// by the engine to assemble PATH-view segment bodies.
struct ChainResult {
  BindingTable table;
  /// Column name of every chain element in order: node, connector, node,
  /// connector, ... (anonymous elements get generated "__anonN" names).
  std::vector<std::string> element_columns;
};

/// Pattern admission compiled once against a GraphSnapshot: label groups
/// are resolved to interned ids and literal kFilter props to (typed
/// column, literal) pairs, so the per-candidate test touches only dense
/// arrays — no string lookup, no std::map walk, no ValueSet
/// materialization. An object admits when every label group has a member
/// among its labels and every literal filter's value is among its values
/// for the key (non-literal and bind-mode props stay the caller's
/// business).
class SnapshotPred {
 public:
  /// Admission by the label groups `labels` and the literal kFilter
  /// entries of `props` (a pattern element's own groups, or a plan
  /// operator's effective constraint).
  static SnapshotPred ForNode(const GraphSnapshot& snap,
                              const LabelGroups& labels,
                              const std::vector<PropPattern>& props);
  /// Without `props`: labels only — the edge-side test ExpandEdgeHop
  /// applies inline (literal edge props are re-checked by
  /// ApplyPropPatterns with expression semantics, as before).
  static SnapshotPred ForEdge(const GraphSnapshot& snap,
                              const LabelGroups& labels,
                              const std::vector<PropPattern>& props = {});

  /// Admission of a member object by dense node/edge index.
  bool Admits(uint32_t idx) const;
  /// True when no member can match (a label group with no interned label,
  /// or a filtered key no object carries): callers skip the scan.
  bool never() const { return never_; }
  /// True when the pattern constrains nothing — every object admits,
  /// including ids outside the snapshot (whose λ/σ are empty).
  bool unconstrained() const {
    return !never_ && groups_.empty() && filters_.empty();
  }
  /// A label every match must carry (some singleton label group), chosen
  /// with the smallest per-label index span — node scans iterate
  /// NodesWithLabel(scan_label()) instead of every node. kNoLabel when
  /// the pattern has no singleton group.
  uint32_t scan_label() const { return scan_label_; }

 private:
  SnapshotPred(const GraphSnapshot& snap, bool node_side,
               const LabelGroups& label_groups,
               const std::vector<PropPattern>& props);

  const GraphSnapshot* snap_;
  bool node_side_;
  /// Interned label ids per group (any-of within, all-of across).
  std::vector<std::vector<uint32_t>> groups_;
  /// (column, literal) of each literal kFilter prop; the Value pointers
  /// alias the pattern AST, which outlives the predicate.
  std::vector<std::pair<const GraphSnapshot::PropertyColumn*, const Value*>>
      filters_;
  bool never_ = false;
  uint32_t scan_label_ = GraphSnapshot::kNoLabel;
};

/// The match runtime: pattern-element primitives plus per-evaluation
/// caches (graph snapshots, anonymous-column counter). Shared by the
/// legacy tree-walk and the plan executor.
class Matcher {
 public:
  explicit Matcher(MatcherContext ctx);

  /// ⟦MATCH γ WHERE ξ OPTIONAL ...⟧. Internal (anonymous) columns are
  /// dropped from the result. Plans + executes unless
  /// `ctx.use_planner = false`.
  Result<BindingTable> EvalMatchClause(const MatchClause& match);

  /// EvalMatchClause through the instrumented planner pipeline (EXPLAIN
  /// ANALYZE; always plans, regardless of ctx.use_planner): estimates
  /// are annotated, every operator records its actual output rows into
  /// `stats`, and the executed plan is handed out through `plan_out` for
  /// rendering (it references the match AST and this matcher's context).
  Result<BindingTable> EvalMatchClauseAnalyzed(
      const MatchClause& match, ExecStats* stats,
      std::unique_ptr<PlanNode>* plan_out);

  /// EvalMatchClause that hands the optimized plan out through `plan_out`
  /// after executing it (the plan-cache fill path). Planner mode only:
  /// with ctx.use_planner = false the legacy walk runs and `plan_out`
  /// stays null. The plan holds non-owning pointers into the match AST;
  /// the engine keeps the parsed query alive next to the cached tree.
  Result<BindingTable> EvalMatchClausePlanning(
      const MatchClause& match, std::unique_ptr<PlanNode>* plan_out);

  /// Executes `match` against an already-optimized plan (a plan-cache
  /// hit): no planning, no optimizer walk — straight to the executor.
  /// `plan` is shared, concurrently executed and never mutated; `match`
  /// must be the clause the plan was built from (same AST object, kept
  /// alive by the cache entry).
  Result<BindingTable> EvalMatchClauseWithPlan(const MatchClause& match,
                                               const PlanNode& plan);

  /// Joined evaluation of comma-separated patterns (no WHERE).
  Result<BindingTable> EvalPatterns(
      const std::vector<GraphPattern>& patterns);

  /// Chain evaluation preserving anonymous element columns.
  Result<ChainResult> EvalChainDetailed(const GraphPattern& pattern);

  /// Inner relations evaluated so far by this matcher's correlated
  /// predicates (EXISTS subqueries and pattern predicates): the executor
  /// attributes the growth across a stage to its operator.
  uint64_t inner_evals() const { return correlated_.inner_evals(); }

  /// Resolves a graph name (or the default when empty); a registered
  /// *table* of that name is interpreted as a graph of isolated nodes
  /// (Section 5, "Interpreting tables as graphs").
  Result<const PathPropertyGraph*> ResolveGraph(const std::string& name);

  /// Columnar snapshot of `graph` (cached per graph pointer for the
  /// matcher's lifetime; shared with the catalog's cache when `graph` is
  /// the registered instance). Thread-safe: executor stages pre-warm the
  /// cache from the coordinator, but worker-thread lookups (and stray
  /// builds) serialize on an internal mutex.
  const GraphSnapshot& Snapshot(const PathPropertyGraph& graph) const;

  const MatcherContext& context() const { return ctx_; }

  // --- pattern-element primitives ------------------------------------------
  // Used by both evaluation paths; they extend/filter `table` in place.
  // Admission reads the label groups passed next to each pattern element:
  // the element's own (legacy walk) or the plan operator's effective
  // constraint (PlanNode::node_labels / edge_labels).

  Result<BindingTable> MatchStartNode(const NodePattern& node,
                                      const LabelGroups& labels,
                                      const PathPropertyGraph& graph,
                                      const std::string& graph_name,
                                      const std::string& var);
  Result<BindingTable> ExpandEdgeHop(
      BindingTable table, const std::string& from_var,
      const EdgePattern& edge, const LabelGroups& edge_labels,
      const std::string& edge_var, const NodePattern& to,
      const LabelGroups& to_labels, const std::string& to_var,
      const PathPropertyGraph& graph, const std::string& graph_name);
  /// Batch-oriented: the source column is deduplicated and each distinct
  /// source answered by one batched kernel launch — multi-source product
  /// BFS waves for reachable sets, batched k-shortest, bidirectional pair
  /// probes for prebound targets — then a serial emission loop replays
  /// the rows in input order against the caches. Output rows, row order and fresh path ids are exactly those
  /// of per-row serial evaluation at every MatcherContext::parallelism
  /// degree (the kernels are degree-invariant and ids are drawn in
  /// row-emission order).
  Result<BindingTable> ExpandPathHop(
      BindingTable table, const std::string& from_var,
      const PathPattern& path, const std::string& path_var,
      const NodePattern& to, const LabelGroups& to_labels,
      const std::string& to_var, const PathPropertyGraph& graph,
      const std::string& graph_name);

  /// Keeps the rows of `table` on which every conjunct holds: a pushed
  /// list, or a whole WHERE passed as a one-element list. Conjuncts run
  /// left to right in list order — the query's own order — each on the
  /// rows the earlier ones kept. A conjunct runs its VecProgram when it
  /// compiles, the row evaluator otherwise and always under
  /// `ctx.use_planner = false` (the spec mode).
  Result<BindingTable> FilterByConjuncts(
      BindingTable table, const std::vector<const Expr*>& conjuncts,
      const PathPropertyGraph* graph);

  /// Drops matcher-internal columns (restoring `output` order when given)
  /// and re-establishes set semantics. The shared tail of both paths;
  /// duplicate elimination is fused into row construction.
  BindingTable ProjectResult(const BindingTable& table,
                             const std::vector<std::string>* output) const;

  /// Column slicing of ProjectResult without the dedup: used by the
  /// executor's per-morsel projection stage, whose chunks merge through
  /// one fused dedup sink afterwards. Thread-safe.
  BindingTable ProjectChunk(const BindingTable& table,
                            const std::vector<std::string>* output) const;

  std::string FreshAnonName();
  /// Row evaluator wired with this matcher's correlated predicates: a
  /// pattern predicate's inner relation is its chain evaluated once
  /// (PatternRelation), an EXISTS subquery's comes from ctx.exists_cb,
  /// and both are kept for the matcher's lifetime — which pins every
  /// graph image they read — in one CorrelatedMemo shared by every
  /// evaluator this matcher makes. Column provenance resolves through
  /// this matcher's graph pins (ResolveGraph), not the live catalog.
  ExprEvaluator MakeEvaluator(const PathPropertyGraph* graph);

  /// Vectorized program for `expr` over `table`'s schema (eval/expr_vec.h),
  /// or null when the expression needs the row evaluator. Compiled once
  /// and cached for the matcher's lifetime per (expression, schema,
  /// default graph); the snapshot cache pins every snapshot a program
  /// gathers from. Thread-safe; `expr` must outlive the matcher's use of
  /// the program (plan/AST lifetime — both outlive the evaluation).
  std::shared_ptr<const VecProgram> VecProgramFor(
      const Expr& expr, const BindingTable& table, const ExprEvaluator& eval,
      const PathPropertyGraph* default_graph) const;

 private:
  Result<BindingTable> LegacyEvalMatchClause(const MatchClause& match);
  /// The one authoritative plan-and-run sequence; `stats`/`plan_out` are
  /// the (nullable) EXPLAIN ANALYZE hooks.
  Result<BindingTable> PlanAndRunMatchClause(
      const MatchClause& match, ExecStats* stats,
      std::unique_ptr<PlanNode>* plan_out);
  Result<BindingTable> EvalChainInternal(const GraphPattern& pattern,
                                         ChainResult* detail);
  /// Uncorrelated inner relation of an implicit pattern predicate: the
  /// chain's matches over its named variables (duplicates kept — the
  /// semijoin probe needs existence, not set semantics).
  Result<BindingTable> PatternRelation(const GraphPattern& pattern);

  /// Label-group test: every group must have at least one matching label.
  static bool LabelsMatch(const LabelSet& labels, const LabelGroups& groups);

  /// Applies `{k = ...}` entries of a node/edge to rows of `table` whose
  /// column `var` holds the object; filters and unrolls bind-variables.
  Result<BindingTable> ApplyPropPatterns(BindingTable table,
                                         const std::string& var,
                                         const std::vector<PropPattern>& props,
                                         const PathPropertyGraph& graph);

  /// Applies pushed-down single-variable WHERE conjuncts for `var` (no-op
  /// when none are registered; legacy path only).
  Result<BindingTable> ApplyPushdownFilters(BindingTable table,
                                            const std::string& var,
                                            const PathPropertyGraph* graph);

  MatcherContext ctx_;
  /// When a MATCH clause names exactly one distinct ON graph, patterns
  /// without their own ON use it (the paper writes clause-level ON, e.g.
  /// line 70: `MATCH (n)-/@p:toWagner/->(), (m:Person) ON social_graph2`).
  std::string clause_on_override_;
  /// Selection pushdown (legacy path): single-variable conjuncts of the
  /// clause's WHERE, applied as soon as their variable is bound during
  /// chain evaluation — essential so `WHERE n.firstName = 'John'`
  /// restricts the *sources* of an expensive path hop instead of
  /// filtering afterwards. The full WHERE still runs afterwards
  /// (re-checking is harmless). In planner mode the same conjuncts live
  /// in the plan's scan/expand nodes instead.
  std::map<std::string, std::vector<const Expr*>> pushdown_filters_;
  mutable std::mutex adj_mu_;
  /// Per-query snapshot cache keyed by graph pointer; entries hold shared
  /// ownership so a catalog re-register cannot pull a snapshot out from
  /// under an in-flight evaluation.
  mutable std::map<const PathPropertyGraph*,
                   std::shared_ptr<const GraphSnapshot>>
      snapshot_cache_;
  /// Per-query graph pins keyed by resolved name: the first ResolveGraph
  /// of a name takes shared ownership, so every later resolution within
  /// this evaluation returns the same image even if the catalog
  /// re-registered the name mid-flight — an in-progress reader finishes
  /// on the graph version it started with.
  mutable std::map<std::string, std::shared_ptr<const PathPropertyGraph>>
      graph_pins_;
  /// Compiled vectorized programs keyed by (expression identity, schema
  /// signature): the same conjunct is compiled once per schema even
  /// though morsels arrive chunk by chunk. Negative results (null) are
  /// cached too, so uncompilable expressions pay the walk only once.
  mutable std::mutex vec_mu_;
  mutable std::map<std::pair<const Expr*, std::string>,
                   std::shared_ptr<const VecProgram>>
      vec_cache_;
  int anon_counter_ = 0;
  /// Inner relations of the correlated predicates this matcher evaluates.
  CorrelatedMemo correlated_;
};

/// True for matcher-internal generated column names.
bool IsInternalColumn(const std::string& name);

/// Splits `where` into AND-conjuncts (SplitConjuncts, query-text order)
/// and registers every pushdown-safe single-variable conjunct under its
/// variable, keeping that order within each list (the pushdown rewrite
/// rule; shared by the legacy walk and the planner).
void CollectSingleVarConjuncts(
    const Expr& where,
    std::map<std::string, std::vector<const Expr*>>* out);

/// The single distinct ON graph named by the clause's patterns, or ""
/// (clause-level ON inference shared by both evaluation paths).
std::string ClauseOnOverride(const MatchClause& match);

/// The syntactic restriction of [31] (end of Section 3): variables shared
/// between OPTIONAL blocks must appear in the main pattern, making the
/// evaluation order immaterial.
Status CheckOptionalVariableSharing(const MatchClause& match);

}  // namespace gcore

#endif  // GCORE_EVAL_MATCHER_H_
