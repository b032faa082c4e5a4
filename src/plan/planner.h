// The logical planner: lowers a MatchClause AST into the plan IR of
// plan/plan.h and applies the rule-based optimizer.
//
// Rules (pushdown and the cycle rewrite are gated by PlannerOptions
// flags; join enumeration always runs, over the one cost model of
// plan/cost.h):
//   * Predicate pushdown — single-variable WHERE conjuncts are attached
//     to the scan/expand operator that binds their variable, so they run
//     as soon as the variable exists (generalizes the matcher's old
//     ad-hoc pushdown map). Label and property predicates written inside
//     the pattern are inherently part of NodeScan/ExpandEdge admission.
//     Labels become one constraint per variable and MATCH block (the main
//     patterns, or one OPTIONAL block): a variable is bound to one object,
//     so the label groups of all its occurrences that read the same graph,
//     plus the block WHERE's top-level `(x:ℓ1|ℓ2)` conjuncts (when all its
//     occurrences read one graph), are admitted at every occurrence
//     (PlanNode::node_labels / edge_labels). Folded conjuncts leave the
//     WHERE; NOT, OR and tests on path, cost or `{k = v}` variables stay.
//   * Join enumeration — comma-separated pattern chains are combined by a
//     DP over subsets (plan/cost.h estimates over GraphCatalog::Stats)
//     that minimizes the summed intermediate cardinality (C_out) and may
//     emit *bushy* HashJoin trees; with unknown estimates the plan stays
//     the source-order left-deep chain.
//   * Cycle rewrite — when the chains close a cycle (triangle, diamond)
//     whose estimated enumeration undercuts the binary alternative's
//     C_out (one estimator prices both), the cycle collapses into one
//     MultiwayExpand node evaluated by worst-case-optimal multiway
//     intersection (plan/wcoj.h).
//   * Build-side choice — a HashJoin whose right side is predicted much
//     larger than the accumulated left gets swap_build: the executor
//     builds over the left and re-merges in canonical column order.
//
// The WHERE's conjuncts not folded into label admission are kept as a
// residual Filter above the joins (re-checking pushed conjuncts is
// harmless and keeps the filter semantics of Appendix A.2 literal); a
// final Project drops matcher-internal columns in the source-binding
// order the legacy evaluator produced, so downstream consumers see
// identical schemas regardless of join order.
#ifndef GCORE_PLAN_PLANNER_H_
#define GCORE_PLAN_PLANNER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/options.h"
#include "common/result.h"
#include "plan/plan.h"

namespace gcore {

class CardinalityEstimator;
class Matcher;
struct MatcherContext;

/// The planner's knobs are the shared EngineOptions fields
/// (common/options.h): enable_pushdown gates the pushdown rewrite (main
/// WHERE and per OPTIONAL block), enable_multiway the cycle →
/// MultiwayExpand rewrite (priced, never unconditional), and parallelism
/// is annotated on the plan root for EXPLAIN. use_planner/morsel_size ride
/// along unused — the struct exists so MatcherContext → PlannerOptions
/// is one slice assignment.
struct PlannerOptions : EngineOptions {
  static PlannerOptions FromContext(const MatcherContext& ctx);
};

class Planner {
 public:
  /// `runtime` supplies graph resolution, catalog stats, location
  /// overrides and fresh anonymous column names; it must outlive the
  /// planner and the produced plan executes against it.
  Planner(Matcher* runtime, PlannerOptions options);

  /// Full clause: chains ⋈ … ⋈ chains, σ(WHERE), left-outer-joined
  /// OPTIONAL blocks, final projection.
  Result<PlanPtr> PlanMatch(const MatchClause& match);

  /// Annotates `plan` with cardinality estimates (EXPLAIN display;
  /// execution skips this — the chain-ordering rule estimates the
  /// chains it compares internally, and full-tree annotation would
  /// force a statistics scan per executed MATCH). Call after PlanMatch
  /// on the same planner (uses its resolved default location).
  void AnnotateEstimates(PlanNode* plan) const;

 private:
  /// What the pushdown rule derives from one MATCH block's patterns and
  /// WHERE.
  struct BlockRules {
    /// Single-variable conjuncts by variable (folded label tests left out).
    std::map<std::string, std::vector<const Expr*>> pushdown;
    /// Label constraint by (variable, LabelScope of its occurrence).
    std::map<std::pair<std::string, std::string>, LabelGroups> labels;
    /// The WHERE's top-level conjuncts the residual Filter keeps.
    std::vector<const Expr*> residual;
  };
  BlockRules DeriveBlockRules(const std::vector<GraphPattern>& patterns,
                              const Expr* where) const;

  /// One block: its joined chains under the residual Filter.
  Result<PlanPtr> PlanBlock(const std::vector<GraphPattern>& patterns,
                            const Expr* where);

  /// One pattern chain: NodeScan followed by Expand operators.
  Result<PlanPtr> PlanChain(const GraphPattern& pattern,
                            const BlockRules& rules);

  /// One joinable subplan of the enumeration: a pattern chain or the
  /// MultiwayExpand unit a cycle rewrite produced.
  struct JoinUnit {
    PlanPtr plan;
    std::set<std::string> vars;
    double est = -1.0;
    /// Smallest source chain index inside the unit (deterministic
    /// tie-breaks).
    size_t min_source = 0;
  };

  /// Joined plan over comma-separated chains: builds the chain units,
  /// attempts the cycle rewrite, then enumerates the join tree.
  Result<PlanPtr> PlanPatternsJoined(
      const std::vector<GraphPattern>& patterns, const BlockRules& rules);

  /// Collapses a priced-favorable cycle among the units into one
  /// MultiwayExpand unit (in place); no-op when no eligible cycle wins.
  void TryMultiwayRewrite(std::vector<JoinUnit>* units);

  /// The greedy smallest-first left-deep fold over `members` (indices
  /// into `units`): the join order and the estimate of each successive
  /// join. One implementation prices the binary alternative of the cycle
  /// rewrite *and* builds the beyond-DP-size fallback plan, so the two
  /// cost models cannot drift apart.
  struct GreedyFold {
    std::vector<size_t> order;
    std::vector<double> join_ests;  // one per fold step (order.size()-1)
  };
  GreedyFold GreedyJoinFold(const std::vector<JoinUnit>& units,
                            std::vector<size_t> members,
                            CardinalityEstimator* estimator) const;

  /// DP join enumeration over `units` (all estimates known): minimizes
  /// summed intermediate cardinality, emits possibly-bushy HashJoin
  /// trees, and marks swap_build per the build-side rule. Falls back to
  /// greedy smallest-first left-deep beyond kMaxDpUnits.
  PlanPtr EnumerateJoins(std::vector<JoinUnit> units);

  static constexpr size_t kMaxDpUnits = 12;

  /// Effective ON location of a pattern (override > pattern ON > clause
  /// ON > default); "" means the default graph.
  std::string EffectiveLocation(const GraphPattern& pattern) const;
  /// The graph a pattern's occurrences read, as the label rule compares
  /// them: the effective location, made unique per pattern while an ON
  /// subquery is unmaterialized (EXPLAIN), since each evaluates to its
  /// own graph.
  std::string LabelScope(const GraphPattern& pattern) const;

  /// Appends the chain's visible output columns in binding order.
  void CollectOutputColumns(const GraphPattern& pattern,
                            std::vector<std::string>* out) const;

  static void AttachPushed(PlanNode* node, const std::string& var,
                           const BlockRules& rules);

  Matcher* runtime_;
  PlannerOptions options_;
  std::string clause_override_;
  /// Graph used by operators with an empty location (clause override or
  /// the context default).
  std::string default_location_;
};

}  // namespace gcore

#endif  // GCORE_PLAN_PLANNER_H_
