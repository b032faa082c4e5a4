#include "plan/cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "ast/pattern.h"

namespace gcore {

namespace {

/// Constant selectivities: the fallbacks whenever the statistic a rule
/// needs is missing (unknown property key, no numeric range).
constexpr double kPropFilterSelectivity = 0.1;
constexpr double kPushedPredicateSelectivity = 0.25;
constexpr double kResidualFilterSelectivity = 0.25;

/// One pushed conjunct decomposed into `x.k ⊙ literal` when it has that
/// shape (either operand order); kind kOther for everything else.
struct PredicateShape {
  enum class Kind { kOther, kEquality, kRange };
  Kind kind = Kind::kOther;
  std::string var;
  std::string key;
  /// Range only: the comparison rewritten as `x.k op literal`.
  BinaryOp op{};
  Value literal;
};

PredicateShape ClassifyPredicate(const Expr& expr) {
  PredicateShape shape;
  if (expr.kind != Expr::Kind::kBinary || expr.args.size() != 2) return shape;
  const Expr* lhs = expr.args[0].get();
  const Expr* rhs = expr.args[1].get();
  const Expr* prop = nullptr;
  const Expr* literal = nullptr;
  bool flipped = false;
  if (lhs->kind == Expr::Kind::kProperty &&
      rhs->kind == Expr::Kind::kLiteral) {
    prop = lhs;
    literal = rhs;
  } else if (rhs->kind == Expr::Kind::kProperty &&
             lhs->kind == Expr::Kind::kLiteral) {
    prop = rhs;
    literal = lhs;
    flipped = true;
  } else {
    return shape;
  }
  switch (expr.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kIn:  // literal IN x.k / x.k IN set: one value of k
      shape.kind = PredicateShape::Kind::kEquality;
      break;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      shape.kind = PredicateShape::Kind::kRange;
      BinaryOp op = expr.binary_op;
      if (flipped) {
        // `c < x.k` is `x.k > c`, etc.
        switch (op) {
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      }
      shape.op = op;
      break;
    }
    default:
      return shape;
  }
  shape.var = prop->var;
  shape.key = prop->key;
  shape.literal = literal->value;
  return shape;
}

/// Fraction of objects with `stats.count` carriers of a key (out of
/// `total` objects) expected to satisfy `k = <one value>`: carrying
/// fraction × uniform 1/distinct.
double EqualitySelectivity(const PropertyStats& stats, size_t total) {
  if (total == 0 || stats.distinct == 0) return 0.0;
  const double carrying =
      static_cast<double>(stats.count) / static_cast<double>(total);
  return carrying / static_cast<double>(stats.distinct);
}

/// Min/max interpolation of `x.k op c` into the measured numeric range;
/// negative when the range cannot answer (non-numeric, degenerate span).
double RangeSelectivity(const PropertyStats& stats, size_t total,
                        BinaryOp op, const Value& literal) {
  if (!stats.has_range || !literal.is_numeric() || total == 0) return -1.0;
  const double span = stats.max - stats.min;
  if (span <= 0.0) return -1.0;
  const double c = literal.NumericAsDouble();
  double fraction;
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      fraction = (c - stats.min) / span;
      break;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      fraction = (stats.max - c) / span;
      break;
    default:
      return -1.0;
  }
  fraction = std::min(1.0, std::max(0.0, fraction));
  const double carrying =
      static_cast<double>(stats.count) / static_cast<double>(total);
  return fraction * carrying;
}

/// True when `expr` (a conjunct of a residual WHERE) also appears in a
/// pushed list below `node` — the pushdown rule shares the Expr nodes, so
/// pointer identity suffices.
bool IsPushedBelow(const PlanNode& node, const Expr* expr) {
  for (const Expr* pushed : node.pushed) {
    if (pushed == expr) return true;
  }
  for (const auto& child : node.children) {
    if (IsPushedBelow(*child, expr)) return true;
  }
  return false;
}

/// The operator of `node`'s subtree that binds `var`, or null.
const PlanNode* FindBinder(const PlanNode& node, const std::string& var) {
  switch (node.op) {
    case PlanOp::kNodeScan:
      if (node.var == var) return &node;
      break;
    case PlanOp::kExpandEdge:
      if (node.to_var == var || node.edge_var == var) return &node;
      break;
    case PlanOp::kPathSearch:
      if (node.to_var == var || node.path_var == var) return &node;
      break;
    case PlanOp::kMultiwayExpand:
      // Pre-bound cycle variables (the seed) belong to the child's
      // binder — its pattern is more informative than the absorbed
      // occurrences; the multiway node claims only what the child does
      // not bind (free node variables and every edge variable).
      for (const auto& child : node.children) {
        const PlanNode* binder = FindBinder(*child, var);
        if (binder != nullptr) return binder;
      }
      for (const MultiwayEdge& me : node.multi_edges) {
        if (me.to_var == var || me.from_var == var ||
            me.edge_var == var) {
          return &node;
        }
      }
      return nullptr;
    default:
      break;
  }
  for (const auto& child : node.children) {
    const PlanNode* binder = FindBinder(*child, var);
    if (binder != nullptr) return binder;
  }
  return nullptr;
}

/// Most selective single-label group of a node pattern element (the label
/// anchor of degree lookups and per-label property buckets); "" when no
/// single-label group pins one.
std::string AnchorNodeLabel(const LabelGroups& groups,
                            const GraphStats& stats) {
  std::string anchor;
  size_t best = std::numeric_limits<size_t>::max();
  for (const auto& group : groups) {
    if (group.size() != 1) continue;
    const size_t count = stats.NodesWithLabel(group[0]);
    if (count < best) {
      best = count;
      anchor = group[0];
    }
  }
  return anchor;
}

std::string AnchorEdgeLabel(const LabelGroups& groups,
                            const GraphStats& stats) {
  std::string anchor;
  size_t best = std::numeric_limits<size_t>::max();
  for (const auto& group : groups) {
    if (group.size() != 1) continue;
    const size_t count = stats.EdgesWithLabel(group[0]);
    if (count < best) {
      best = count;
      anchor = group[0];
    }
  }
  return anchor;
}

/// Measured average number of `edge`-matching edges at one node anchored
/// at `label`, walking the pattern from its from-side (`forward`) or from
/// its to-side: out-degree along `-[]->` walked forward, in-degree along
/// it walked backward, their sum undirected. A disjunctive label group's
/// degree is the sum of its labels' degrees (an upper bound); a
/// conjunction of groups takes the most selective group.
double AvgFanout(const GraphStats& stats, const std::string& label,
                 const EdgePattern& edge, const LabelGroups& edge_labels,
                 bool forward) {
  auto degree_of = [&](const std::string& edge_label) {
    switch (edge.direction) {
      case EdgePattern::Direction::kRight:
        return forward ? stats.AvgOutDegree(label, edge_label)
                       : stats.AvgInDegree(label, edge_label);
      case EdgePattern::Direction::kLeft:
        return forward ? stats.AvgInDegree(label, edge_label)
                       : stats.AvgOutDegree(label, edge_label);
      case EdgePattern::Direction::kUndirected:
        return stats.AvgOutDegree(label, edge_label) +
               stats.AvgInDegree(label, edge_label);
    }
    return 0.0;
  };
  if (edge_labels.empty()) return degree_of("");
  double fanout = std::numeric_limits<double>::infinity();
  for (const auto& group : edge_labels) {
    double group_degree = 0.0;
    for (const auto& label_of_edge : group) {
      group_degree += degree_of(label_of_edge);
    }
    fanout = std::min(fanout, group_degree);
  }
  return fanout;
}

/// Label groups of every pattern occurrence a MultiwayExpand absorbed for
/// cycle variable `var`, each distinct group once.
LabelGroups AbsorbedLabelGroups(const PlanNode& node, const std::string& var) {
  LabelGroups groups;
  for (const MultiwayNode& absorbed : node.multi_nodes) {
    if (absorbed.var == var) AppendDistinctGroups(absorbed.labels, &groups);
  }
  return groups;
}

/// The label constraint a binder operator admits node variable `var`
/// with, or null.
const LabelGroups* BinderNodeLabels(const PlanNode& binder,
                                    const std::string& var) {
  switch (binder.op) {
    case PlanOp::kNodeScan:
      return binder.var == var ? &binder.node_labels : nullptr;
    case PlanOp::kExpandEdge:
    case PlanOp::kPathSearch:
      return binder.to_var == var ? &binder.node_labels : nullptr;
    default:
      return nullptr;
  }
}

}  // namespace

CardinalityEstimator::CardinalityEstimator(GraphCatalog* catalog,
                                           std::string default_graph)
    : catalog_(catalog), default_graph_(std::move(default_graph)) {}

const GraphStats* CardinalityEstimator::StatsFor(
    const std::string& location) {
  const std::string& name = location.empty() ? default_graph_ : location;
  if (name.empty() || catalog_ == nullptr) return nullptr;
  auto pinned = pinned_stats_.find(name);
  if (pinned != pinned_stats_.end()) return pinned->second.get();
  auto stats = catalog_->Stats(name);
  if (!stats.ok()) return nullptr;
  return pinned_stats_.emplace(name, std::move(*stats)).first->second.get();
}

double CardinalityEstimator::LabelSelectivity(
    const LabelGroups& groups,
    const std::map<std::string, size_t>& label_counts, size_t total) {
  if (total == 0) return 0.0;
  double selectivity = 1.0;
  for (const auto& group : groups) {
    // A group is a disjunction: combine the per-label fractions with the
    // independence union 1 - Π(1 - fᵢ). Summing raw counts (the seed
    // formula) double-counts multi-label objects and saturates the
    // pre-clamp value past 1.
    double none_match = 1.0;
    for (const auto& label : group) {
      auto it = label_counts.find(label);
      const size_t count = it != label_counts.end() ? it->second : 0;
      const double fraction =
          std::min(1.0, static_cast<double>(count) /
                            static_cast<double>(total));
      none_match *= 1.0 - fraction;
    }
    selectivity *= 1.0 - none_match;
  }
  return selectivity;
}

double CardinalityEstimator::PropSelectivity(
    const std::vector<PropPattern>& props, const GraphStats& stats,
    bool edge_props, const std::string& anchor_label) const {
  const auto& global = edge_props ? stats.edge_props : stats.node_props;
  const size_t global_total = edge_props ? stats.num_edges : stats.num_nodes;
  const size_t anchor_total =
      anchor_label.empty()
          ? global_total
          : (edge_props ? stats.EdgesWithLabel(anchor_label)
                        : stats.NodesWithLabel(anchor_label));
  double s = 1.0;
  for (const auto& p : props) {
    if (p.mode != PropPattern::Mode::kFilter) continue;
    // (label, key) bucket first — the carrying fraction is then relative
    // to the label's objects, so the label fraction already charged by
    // LabelSelectivity is not re-paid.
    const PropertyStats* bucket =
        edge_props ? stats.EdgePropStatsFor(anchor_label, p.key)
                   : stats.NodePropStatsFor(anchor_label, p.key);
    if (bucket != nullptr && bucket->distinct > 0) {
      s *= EqualitySelectivity(*bucket, anchor_total);
      continue;
    }
    auto it = global.find(p.key);
    if (it != global.end() && it->second.distinct > 0) {
      s *= EqualitySelectivity(it->second, global_total);
    } else {
      s *= kPropFilterSelectivity;
    }
  }
  return s;
}

double CardinalityEstimator::PushedSelectivity(
    const PlanNode& node, const GraphStats& stats,
    const std::string& node_var, const std::string& edge_var,
    const std::string& node_anchor, const std::string& edge_anchor) const {
  double s = 1.0;
  for (const Expr* expr : node.pushed) {
    double conjunct = -1.0;
    const PredicateShape shape = ClassifyPredicate(*expr);
    if (shape.kind != PredicateShape::Kind::kOther &&
        (shape.var == node_var || shape.var == edge_var)) {
      const bool on_edge = !edge_var.empty() && shape.var == edge_var;
      const std::string& anchor = on_edge ? edge_anchor : node_anchor;
      const auto& global = on_edge ? stats.edge_props : stats.node_props;
      const size_t global_total = on_edge ? stats.num_edges : stats.num_nodes;
      const size_t anchor_total =
          anchor.empty() ? global_total
                         : (on_edge ? stats.EdgesWithLabel(anchor)
                                    : stats.NodesWithLabel(anchor));
      auto selectivity_from = [&](const PropertyStats& dist, size_t total) {
        return shape.kind == PredicateShape::Kind::kEquality
                   ? EqualitySelectivity(dist, total)
                   : RangeSelectivity(dist, total, shape.op, shape.literal);
      };
      // (label, key) bucket first; an absent — or unusable (degenerate
      // range, no distinct values) — bucket falls through to the global
      // distribution, exactly like PropSelectivity.
      const PropertyStats* bucket =
          on_edge ? stats.EdgePropStatsFor(anchor, shape.key)
                  : stats.NodePropStatsFor(anchor, shape.key);
      if (bucket != nullptr) {
        conjunct = selectivity_from(*bucket, anchor_total);
      }
      if (conjunct < 0.0) {
        auto it = global.find(shape.key);
        if (it != global.end()) {
          conjunct = selectivity_from(it->second, global_total);
        }
      }
    }
    s *= conjunct >= 0.0 ? conjunct : kPushedPredicateSelectivity;
  }
  return s;
}

double CardinalityEstimator::EstimateScan(const PlanNode& node) {
  const GraphStats* stats = StatsFor(node.graph);
  if (stats == nullptr) return -1.0;
  const std::string anchor = AnchorNodeLabel(node.node_labels, *stats);
  return static_cast<double>(stats->num_nodes) *
         LabelSelectivity(node.node_labels, stats->node_label_counts,
                          stats->num_nodes) *
         PropSelectivity(node.node->props, *stats, /*edge_props=*/false,
                         anchor) *
         PushedSelectivity(node, *stats, node.var, "", anchor, "");
}

double CardinalityEstimator::EstimateExpand(const PlanNode& node,
                                            double child_est) {
  const GraphStats* stats = StatsFor(node.graph);
  if (stats == nullptr || child_est < 0.0) return -1.0;

  // Measured average degree of the (source label, edge label) pair. The
  // source anchor is the most selective single-label group of the pattern
  // element binding from_var (a disjunctive group does not pin one
  // label); "" anchors on all nodes.
  const PlanNode& child = *node.children[0];
  std::string src_label;
  const PlanNode* binder = FindBinder(child, node.from_var);
  const LabelGroups* from_labels =
      binder == nullptr ? nullptr : BinderNodeLabels(*binder, node.from_var);
  if (from_labels != nullptr) {
    src_label = AnchorNodeLabel(*from_labels, *stats);
  }
  double fanout = AvgFanout(*stats, src_label, *node.edge, node.edge_labels,
                            /*forward=*/true);
  // A closing edge (to_var already bound below) intersects instead of
  // expanding: each of the fanout edges lands on the bound node with
  // probability 1 / its domain.
  if (FindBinder(child, node.to_var) != nullptr) {
    const double domain = VarDomain(child, node.to_var);
    if (domain > 0.0) fanout /= std::max(1.0, domain);
  }
  const std::string to_anchor = AnchorNodeLabel(node.node_labels, *stats);
  const std::string edge_anchor = AnchorEdgeLabel(node.edge_labels, *stats);

  return child_est * fanout *
         LabelSelectivity(node.node_labels, stats->node_label_counts,
                          stats->num_nodes) *
         PropSelectivity(node.to->props, *stats, /*edge_props=*/false,
                         to_anchor) *
         PropSelectivity(node.edge->props, *stats, /*edge_props=*/true,
                         edge_anchor) *
         PushedSelectivity(node, *stats, node.to_var, node.edge_var,
                           to_anchor, edge_anchor);
}

double CardinalityEstimator::EstimatePathSearch(const PlanNode& node,
                                                double child_est) {
  const GraphStats* stats = StatsFor(node.graph);
  if (stats == nullptr || child_est < 0.0) return -1.0;
  double per_source;
  if (node.path->mode == PathPattern::Mode::kStoredMatch) {
    per_source = static_cast<double>(stats->num_paths);
  } else {
    // Reachability-style searches can touch most of the graph.
    per_source = static_cast<double>(stats->num_nodes) *
                 LabelSelectivity(node.node_labels,
                                  stats->node_label_counts,
                                  stats->num_nodes);
    if (node.path->mode == PathPattern::Mode::kShortest) {
      per_source *= static_cast<double>(std::max<int64_t>(1, node.path->k));
    }
  }
  const std::string to_anchor = AnchorNodeLabel(node.node_labels, *stats);
  return child_est * std::max(1.0, per_source) *
         PropSelectivity(node.to->props, *stats, /*edge_props=*/false,
                         to_anchor) *
         PushedSelectivity(node, *stats, node.to_var, "", to_anchor, "");
}

double CardinalityEstimator::VarDomain(const PlanNode& tree,
                                       const std::string& var) {
  const PlanNode* binder = FindBinder(tree, var);
  if (binder == nullptr) return -1.0;
  const GraphStats* stats = StatsFor(binder->graph);
  if (stats == nullptr) return -1.0;
  switch (binder->op) {
    case PlanOp::kNodeScan:
      return static_cast<double>(stats->num_nodes) *
             LabelSelectivity(binder->node_labels,
                              stats->node_label_counts, stats->num_nodes);
    case PlanOp::kExpandEdge:
      if (var == binder->edge_var) {
        return static_cast<double>(stats->num_edges) *
               LabelSelectivity(binder->edge_labels,
                                stats->edge_label_counts, stats->num_edges);
      }
      return static_cast<double>(stats->num_nodes) *
             LabelSelectivity(binder->node_labels,
                              stats->node_label_counts, stats->num_nodes);
    case PlanOp::kPathSearch:
      if (var == binder->path_var) return -1.0;  // fresh path ids
      return static_cast<double>(stats->num_nodes) *
             LabelSelectivity(binder->node_labels,
                              stats->node_label_counts, stats->num_nodes);
    case PlanOp::kMultiwayExpand: {
      for (const MultiwayEdge& me : binder->multi_edges) {
        if (var == me.edge_var) {
          return static_cast<double>(stats->num_edges) *
                 LabelSelectivity(me.labels, stats->edge_label_counts,
                                  stats->num_edges);
        }
      }
      // A cycle node variable: conjoin the label groups of every pattern
      // occurrence the rewrite absorbed.
      return static_cast<double>(stats->num_nodes) *
             LabelSelectivity(AbsorbedLabelGroups(*binder, var),
                              stats->node_label_counts, stats->num_nodes);
    }
    default:
      return -1.0;
  }
}

double CardinalityEstimator::JoinEstimate(
    double left, double right, bool correlated,
    const std::vector<std::pair<double, double>>& key_domains) {
  if (left < 0.0 || right < 0.0) return -1.0;
  if (!correlated) return left * right;
  const double cross = left * right;

  // Degree-aware bound: per shared key v, each side holds at most
  // V(v) = min(side rows, domain(v)) distinct keys, so matches per key on
  // the denser side average side/V — the join is bounded by
  // |L|·|R| / Π max(V_L, V_R). Falls back to the max-of-inputs guess
  // below when no shared key has a measurable domain.
  double est = cross;
  bool any_domain = false;
  for (const auto& [dl, dr] : key_domains) {
    if (dl < 0.0 && dr < 0.0) continue;
    any_domain = true;
    const double vl = dl < 0.0 ? left : std::min(left, dl);
    const double vr = dr < 0.0 ? right : std::min(right, dr);
    est /= std::max(1.0, std::max(vl, vr));
  }
  if (any_domain) return std::min(est, cross);

  // Correlated chains, no usable key domain: assume the join keys are
  // close to keys of the larger side.
  return std::max(left, right);
}

double CardinalityEstimator::EstimateJoin(const PlanNode& node) {
  std::vector<std::pair<double, double>> key_domains;
  key_domains.reserve(node.join_vars.size());
  for (const auto& var : node.join_vars) {
    key_domains.emplace_back(VarDomain(*node.children[0], var),
                             VarDomain(*node.children[1], var));
  }
  return JoinEstimate(node.children[0]->est_rows,
                      node.children[1]->est_rows, node.join_correlated,
                      key_domains);
}

CardinalityEstimator::MultiwayEstimate
CardinalityEstimator::EstimateMultiway(const PlanNode& node,
                                       double child_est) {
  MultiwayEstimate est;
  const GraphStats* stats = StatsFor(node.graph);
  if (stats == nullptr || child_est < 0.0 || node.children.empty() ||
      node.multi_edges.empty()) {
    return est;
  }
  const PlanNode& child = *node.children[0];

  // AGM bound with the cycle's optimal fractional edge cover (1/2 per
  // edge), Π √|E_i| over each pattern edge's matching-edge count (labels
  // + literal props; an undirected pattern can cross each edge both
  // ways). It caps the estimate below.
  double agm = 1.0;
  for (const MultiwayEdge& me : node.multi_edges) {
    double edges = static_cast<double>(stats->num_edges) *
                   LabelSelectivity(me.labels, stats->edge_label_counts,
                                    stats->num_edges) *
                   PropSelectivity(me.edge->props, *stats, /*edge_props=*/true,
                                   AnchorEdgeLabel(me.labels, *stats));
    if (me.edge->direction == EdgePattern::Direction::kUndirected) {
      edges *= 2.0;
    }
    agm *= std::sqrt(std::max(0.0, edges));
  }

  std::set<std::string> bound;
  for (const std::string& v : MultiwayNodeVars(node)) {
    if (FindBinder(child, v) != nullptr) bound.insert(v);
  }
  if (bound.empty()) return est;

  // Label groups of a cycle variable: every absorbed pattern occurrence,
  // plus the child binder's pattern for pre-bound variables.
  auto groups_of = [&](const std::string& var) {
    LabelGroups groups = AbsorbedLabelGroups(node, var);
    const PlanNode* binder = FindBinder(child, var);
    const LabelGroups* bound_labels =
        binder == nullptr ? nullptr : BinderNodeLabels(*binder, var);
    if (bound_labels != nullptr) AppendDistinctGroups(*bound_labels, &groups);
    return groups;
  };
  auto anchor_of = [&](const std::string& var) {
    return AnchorNodeLabel(groups_of(var), *stats);
  };

  // Walk the executor's elimination order with the binary plan's rules:
  // a variable's first edge to a bound variable expands (average fanout
  // × the new variable's label selectivity), every further edge to a
  // bound variable w closes (average fanout from the new variable /
  // VarDomain(w)), exactly as EstimateExpand prices a closing edge.
  const std::vector<std::string> order =
      MultiwayEliminationOrder(node, bound);
  double rows = child_est;
  double partials = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& v = order[i];
    bool expanded = false;
    for (const MultiwayEdge& me : node.multi_edges) {
      const std::string& other = me.from_var == v ? me.to_var
                                 : me.to_var == v ? me.from_var
                                                  : std::string();
      if (other.empty() || other == v || bound.count(other) == 0) continue;
      if (!expanded) {
        rows *= AvgFanout(*stats, anchor_of(other), *me.edge, me.labels,
                          /*forward=*/me.from_var == other) *
                LabelSelectivity(groups_of(v), stats->node_label_counts,
                                 stats->num_nodes);
        expanded = true;
      } else {
        rows *= AvgFanout(*stats, anchor_of(v), *me.edge, me.labels,
                          /*forward=*/me.from_var == v) /
                std::max(1.0, VarDomain(node, other));
      }
    }
    if (!expanded) return est;  // disconnected cycle edge
    bound.insert(v);
    if (i + 1 < order.size()) partials += rows;
  }

  est.rows = std::max(0.0, std::min(agm, rows));
  est.enumerated = partials + est.rows;
  return est;
}

double CardinalityEstimator::Annotate(PlanNode* node) {
  double child_est = -1.0;
  for (auto& child : node->children) {
    child_est = Annotate(child.get());
  }
  // A single-child operator uses its child's estimate; joins re-read both.
  double est = -1.0;
  switch (node->op) {
    case PlanOp::kNodeScan:
      est = EstimateScan(*node);
      break;
    case PlanOp::kExpandEdge:
      est = EstimateExpand(*node, child_est);
      break;
    case PlanOp::kMultiwayExpand:
      est = EstimateMultiway(*node, child_est).rows;
      break;
    case PlanOp::kPathSearch:
      est = EstimatePathSearch(*node, child_est);
      break;
    case PlanOp::kFilter:
      if (child_est >= 0.0) {
        // The residual WHERE re-checks conjuncts the pushdown rule
        // already applied inside the subtree; those filter nothing
        // further. Only genuinely residual conjuncts charge the constant.
        est = child_est;
        for (const Expr* conjunct : node->conjuncts) {
          if (!IsPushedBelow(*node->children[0], conjunct)) {
            est *= kResidualFilterSelectivity;
          }
        }
      }
      break;
    case PlanOp::kHashJoin:
      est = EstimateJoin(*node);
      break;
    case PlanOp::kLeftOuterJoin:
      // Every left row survives at least once.
      est = node->children[0]->est_rows;
      break;
    case PlanOp::kProject:
      est = child_est;
      break;
    case PlanOp::kGraphUnion:
    case PlanOp::kGraphIntersect:
    case PlanOp::kGraphMinus: {
      const double left = node->children.empty()
                              ? -1.0
                              : node->children[0]->est_rows;
      est = left;
      break;
    }
  }
  node->est_rows = est;
  return est;
}

}  // namespace gcore
