// Cardinality estimation over GraphCatalog statistics (graph/stats.h).
//
// Estimates are heuristic row counts whose job is to rank alternatives
// (the planner's DP join enumeration compares bushy trees and prices
// MultiwayExpand against the binary alternative); they are not used for
// admission or limits. Unknown inputs — unregistered graphs, ON-subquery
// locations, table-as-graph names — degrade to "unknown" (negative),
// which disables ordering decisions that would depend on them.
//
// The statistics block of a graph drives these estimator rules:
//   * Equality — `x.k = literal` (a pattern `{k = v}` filter or a pushed
//     WHERE conjunct) selects carrying-fraction × 1/distinct(k). When the
//     pattern pins a label, the (label, key) bucket replaces the global
//     distribution, removing the carrying-fraction × label-fraction
//     independence double-charge.
//   * Range — `x.k < c` (and <=, >, >=) interpolates c into the measured
//     numeric [min, max] of k (label-restricted when a bucket exists).
//   * Expansion — an edge hop multiplies by the measured average degree
//     of the (source label, edge label) pair, directional (out-degree
//     for `-[]->`, in-degree for `<-[]-`, their sum undirected).
//   * Join — a correlated HashJoin is bounded by |L|·|R| / Π max(V_L(v),
//     V_R(v)) over the shared variables (PlanNode::join_vars), where
//     V(v) is the side's distinct-key estimate. The same formula is
//     exposed as JoinEstimate for the planner's DP enumeration.
//   * Closing edge — an expansion whose target variable is already bound
//     below intersects instead: its fanout divides by the bound
//     variable's domain (VarDomain).
//   * Multiway — a MultiwayExpand cycle walks the executor's elimination
//     order from the child estimate with the expansion and closing-edge
//     rules above, so the rewrite and the binary plan it replaces are
//     priced by one estimator; the AGM bound Π √|E_i| (the fractional
//     edge cover of a cycle) caps the result.
// This is the one cost model: every production plan, the DP join
// enumeration and the cycle rewrite's pricing read these rules. Each rule
// falls back to a constant selectivity when the statistic it needs is
// absent (unknown property key, degenerate range, no measurable join
// domain).
//
// EXPLAIN renders est_rows per operator; EXPLAIN ANALYZE additionally
// runs the query and prints actual_rows next to every estimate
// (plan/executor.h ExecStats), which is what the estimator-accuracy test
// suite asserts q-error bounds against.
#ifndef GCORE_PLAN_COST_H_
#define GCORE_PLAN_COST_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/catalog.h"
#include "plan/plan.h"

namespace gcore {

class CardinalityEstimator {
 public:
  /// `default_graph` names the graph used by operators whose location is
  /// empty (the clause-level/default ON resolution result).
  CardinalityEstimator(GraphCatalog* catalog, std::string default_graph);

  /// Annotates `node` and its subtree with estimated output rows
  /// (PlanNode::est_rows); returns the root estimate, negative when
  /// unknown.
  double Annotate(PlanNode* node);

  /// Fraction of objects admitted by conjunctive label groups, given the
  /// per-label counts; 1.0 for an unconstrained pattern. A group is a
  /// disjunction whose selectivity combines per-label fractions with the
  /// independence union formula 1 - Π(1 - fᵢ) — summing raw counts would
  /// double-count objects carrying several of the group's labels.
  static double LabelSelectivity(
      const LabelGroups& groups,
      const std::map<std::string, size_t>& label_counts, size_t total);

  /// Distinct-key domain `tree` can bind `var` to (the binder pattern's
  /// admitted object count); negative when unknown. Shared by the
  /// HashJoin rule and the planner's DP join enumeration.
  double VarDomain(const PlanNode& tree, const std::string& var);

  /// The degree-aware correlated-join bound over precomputed inputs:
  /// `key_domains` holds one (left domain, right domain) pair per shared
  /// variable (negative = unknown). Mirrors the kHashJoin rule so the DP
  /// enumeration prices candidate joins without materializing trees. A
  /// correlated join with no measurable domain estimates max(left, right).
  static double JoinEstimate(
      double left, double right, bool correlated,
      const std::vector<std::pair<double, double>>& key_domains);

  /// Estimate of a MultiwayExpand node given its child estimate: `rows`
  /// is its output, `enumerated` the rows the operator produces on the
  /// way — the partial bindings after every elimination step before the
  /// last, plus the output. Both negative when unknown.
  struct MultiwayEstimate {
    double rows = -1.0;
    double enumerated = -1.0;
  };
  /// Public so the planner can price a candidate rewrite before
  /// committing to it.
  MultiwayEstimate EstimateMultiway(const PlanNode& node, double child_est);

 private:
  const GraphStats* StatsFor(const std::string& location);

  double EstimateScan(const PlanNode& node);
  double EstimateExpand(const PlanNode& node, double child_est);
  double EstimatePathSearch(const PlanNode& node, double child_est);
  double EstimateJoin(const PlanNode& node);

  /// Selectivity of the literal `{k = v}` filters of a pattern element:
  /// 1/distinct per key when measured — against the (anchor_label, key)
  /// bucket when present, the global distribution otherwise — and a
  /// constant when neither exists.
  double PropSelectivity(const std::vector<PropPattern>& props,
                         const GraphStats& stats, bool edge_props,
                         const std::string& anchor_label) const;
  /// Combined selectivity of an operator's pushed-down WHERE conjuncts;
  /// equality and range conjuncts on `var`'s properties use the measured
  /// distributions (label-restricted via the anchors), everything else
  /// a constant.
  double PushedSelectivity(const PlanNode& node, const GraphStats& stats,
                           const std::string& node_var,
                           const std::string& edge_var,
                           const std::string& node_anchor,
                           const std::string& edge_anchor) const;

  GraphCatalog* catalog_;
  std::string default_graph_;
  /// Pinned statistics per location: StatsFor hands out raw pointers into
  /// these shared images, so a concurrent catalog re-registration cannot
  /// invalidate them mid-estimation (and one estimation run prices every
  /// candidate against one consistent statistics version per graph).
  std::map<std::string, std::shared_ptr<const GraphStats>> pinned_stats_;
};

}  // namespace gcore

#endif  // GCORE_PLAN_COST_H_
