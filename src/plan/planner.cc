#include "plan/planner.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "eval/matcher.h"
#include "paths/frontier.h"
#include "plan/cost.h"

namespace gcore {

PlannerOptions PlannerOptions::FromContext(const MatcherContext& ctx) {
  // MatcherContext and PlannerOptions share the EngineOptions base: one
  // slice assignment, no field-by-field forwarding to drift.
  PlannerOptions options;
  static_cast<EngineOptions&>(options) = ctx;
  return options;
}

Planner::Planner(Matcher* runtime, PlannerOptions options)
    : runtime_(runtime), options_(options) {}

std::string Planner::EffectiveLocation(const GraphPattern& pattern) const {
  const auto* overrides = runtime_->context().location_overrides;
  if (overrides != nullptr) {
    auto it = overrides->find(&pattern);
    if (it != overrides->end()) return it->second;
  }
  if (pattern.on_subquery != nullptr) {
    // Only reachable in EXPLAIN mode: execution materializes subquery
    // locations into overrides before planning.
    return "(subquery)";
  }
  if (!pattern.on_graph.empty()) return pattern.on_graph;
  return clause_override_;
}

std::string Planner::LabelScope(const GraphPattern& pattern) const {
  std::string scope = EffectiveLocation(pattern);
  if (scope == "(subquery)") {
    scope += std::to_string(reinterpret_cast<uintptr_t>(&pattern));
  }
  return scope;
}

void Planner::AttachPushed(PlanNode* node, const std::string& var,
                           const BlockRules& rules) {
  auto it = rules.pushdown.find(var);
  if (it == rules.pushdown.end()) return;
  node->pushed.insert(node->pushed.end(), it->second.begin(),
                      it->second.end());
}

Result<PlanPtr> Planner::PlanChain(const GraphPattern& pattern,
                                   const BlockRules& rules) {
  const std::string location = EffectiveLocation(pattern);
  const std::string scope = LabelScope(pattern);
  // A named variable's block-wide constraint at its first occurrence in
  // the chain. Anonymous elements, elements without the pushdown rule and
  // repeat occurrences (a closing edge re-checks a variable the chain
  // already bound) keep their own groups.
  std::set<std::string> bound;
  auto labels_of = [&](const std::string& var, const LabelGroups& own) {
    auto it = rules.labels.find({var, scope});
    if (!bound.insert(var).second || it == rules.labels.end()) return own;
    return it->second;
  };

  auto scan = MakePlan(PlanOp::kNodeScan);
  scan->graph = location;
  scan->node = &pattern.start;
  scan->var = pattern.start.var.empty() ? runtime_->FreshAnonName()
                                        : pattern.start.var;
  scan->node_labels = labels_of(pattern.start.var, pattern.start.label_groups);
  AttachPushed(scan.get(), scan->var, rules);

  PlanPtr plan = std::move(scan);
  std::string prev_var = plan->var;
  for (const auto& hop : pattern.hops) {
    const std::string to_var =
        hop.to.var.empty() ? runtime_->FreshAnonName() : hop.to.var;
    if (hop.kind == PatternHop::Kind::kEdge) {
      auto expand = MakePlan(PlanOp::kExpandEdge);
      expand->graph = location;
      expand->from_var = prev_var;
      expand->edge = &hop.edge;
      expand->edge_var = hop.edge.var.empty() ? runtime_->FreshAnonName()
                                              : hop.edge.var;
      expand->to = &hop.to;
      expand->to_var = to_var;
      expand->edge_labels = labels_of(hop.edge.var, hop.edge.label_groups);
      expand->node_labels = labels_of(hop.to.var, hop.to.label_groups);
      // Same application order as the legacy walk: the edge variable's
      // conjuncts run before the target node's.
      AttachPushed(expand.get(), expand->edge_var, rules);
      AttachPushed(expand.get(), to_var, rules);
      expand->children.push_back(std::move(plan));
      plan = std::move(expand);
    } else {
      auto search = MakePlan(PlanOp::kPathSearch);
      search->graph = location;
      search->from_var = prev_var;
      search->path = &hop.path;
      search->path_var =
          hop.path.var.empty()
              ? (hop.path.mode == PathPattern::Mode::kReachability
                     ? std::string()
                     : runtime_->FreshAnonName())
              : hop.path.var;
      search->to = &hop.to;
      search->to_var = to_var;
      search->node_labels = labels_of(hop.to.var, hop.to.label_groups);
      AttachPushed(search.get(), to_var, rules);
      search->children.push_back(std::move(plan));
      plan = std::move(search);
    }
    prev_var = to_var;
  }
  return plan;
}

namespace {

void CollectChainVars(const GraphPattern& pattern,
                      std::set<std::string>* out) {
  std::vector<std::string> vars;
  pattern.CollectBoundVariables(&vars);
  out->insert(vars.begin(), vars.end());
}

/// True when a pattern element's props are all literal filters — the
/// shapes a SnapshotPred checks without a row context, which is what the
/// multiway operator's admission can evaluate.
bool LiteralFilterPropsOnly(const std::vector<PropPattern>& props) {
  for (const auto& p : props) {
    if (p.mode != PropPattern::Mode::kFilter) return false;
    if (p.value == nullptr || p.value->kind != Expr::Kind::kLiteral) {
      return false;
    }
  }
  return true;
}

/// A chain unit decomposed for the cycle rewrite: its NodeScan and the
/// ExpandEdge nodes in chain (bottom-up) order; eligible only when the
/// whole chain is scan + edge expansions with literal-only props.
struct ChainShape {
  bool eligible = false;
  PlanNode* scan = nullptr;
  std::vector<PlanNode*> expands;  // in chain order (scan outwards)
};

ChainShape AnalyzeChain(PlanNode* root) {
  ChainShape shape;
  PlanNode* node = root;
  std::vector<PlanNode*> top_down;
  while (node->op == PlanOp::kExpandEdge) {
    top_down.push_back(node);
    node = node->children[0].get();
  }
  if (node->op != PlanOp::kNodeScan) return shape;
  shape.scan = node;
  shape.expands.assign(top_down.rbegin(), top_down.rend());
  if (!LiteralFilterPropsOnly(node->node->props)) return shape;
  for (const PlanNode* expand : shape.expands) {
    if (!LiteralFilterPropsOnly(expand->edge->props) ||
        !LiteralFilterPropsOnly(expand->to->props) ||
        expand->from_var == expand->to_var) {
      return shape;
    }
  }
  shape.eligible = true;
  return shape;
}

/// Mention count of every bound variable name over a chain plan (scan
/// var, edge vars, target vars, path vars) — the edge-var uniqueness
/// check of the rewrite.
void CountVarMentions(const PlanNode& node,
                      std::map<std::string, size_t>* counts) {
  switch (node.op) {
    case PlanOp::kNodeScan:
      ++(*counts)[node.var];
      break;
    case PlanOp::kExpandEdge:
      ++(*counts)[node.edge_var];
      ++(*counts)[node.to_var];
      break;
    case PlanOp::kPathSearch:
      if (!node.path_var.empty()) ++(*counts)[node.path_var];
      ++(*counts)[node.to_var];
      break;
    default:
      break;
  }
  for (const auto& child : node.children) CountVarMentions(*child, counts);
}

/// Pulls the NodeScan leaf out of a fully-consumed chain, discarding the
/// expansion nodes above it (their patterns live on in the MultiwayExpand
/// node, which points into the query AST).
PlanPtr TakeScan(PlanPtr root) {
  while (root->op != PlanOp::kNodeScan) {
    root = std::move(root->children[0]);
  }
  return root;
}

/// Leaf copy of a NodeScan for rewrite pricing (children excluded; the
/// pattern pointers are non-owning into the AST).
PlanPtr CopyScanLeaf(const PlanNode& scan) {
  auto copy = std::make_unique<PlanNode>(PlanOp::kNodeScan);
  copy->graph = scan.graph;
  copy->node = scan.node;
  copy->var = scan.var;
  copy->node_labels = scan.node_labels;
  copy->pushed = scan.pushed;
  return copy;
}

/// Sum of est_rows over every operator of an annotated plan (C_out).
double SumEstimates(const PlanNode& node) {
  double sum = node.est_rows;
  for (const auto& child : node.children) sum += SumEstimates(*child);
  return sum;
}

/// One candidate cycle: edges are (unit index, expand index) pairs.
struct CycleCandidate {
  std::vector<std::pair<size_t, size_t>> edges;
};

/// The right side of a join is predicted "much larger" than the left at
/// this factor — the build-side swap threshold.
constexpr double kSwapBuildFactor = 4.0;

}  // namespace

Planner::GreedyFold Planner::GreedyJoinFold(
    const std::vector<JoinUnit>& units, std::vector<size_t> members,
    CardinalityEstimator* estimator) const {
  GreedyFold fold;
  std::stable_sort(members.begin(), members.end(), [&](size_t a, size_t b) {
    return units[a].est < units[b].est;
  });
  fold.order = std::move(members);
  double acc_est = -1.0;
  std::set<std::string> acc_vars;
  std::vector<size_t> acc_members;
  for (size_t u : fold.order) {
    const JoinUnit& unit = units[u];
    if (acc_est < 0.0) {
      acc_est = unit.est;
    } else {
      std::vector<std::pair<double, double>> key_domains;
      bool correlated = false;
      for (const auto& v : unit.vars) {
        if (acc_vars.count(v) == 0) continue;
        correlated = true;
        double dl = -1.0;
        for (size_t prior : acc_members) {
          const double d = estimator->VarDomain(*units[prior].plan, v);
          if (d >= 0.0 && (dl < 0.0 || d < dl)) dl = d;
        }
        key_domains.emplace_back(dl,
                                 estimator->VarDomain(*unit.plan, v));
      }
      acc_est = CardinalityEstimator::JoinEstimate(acc_est, unit.est,
                                                   correlated, key_domains);
      fold.join_ests.push_back(acc_est);
    }
    acc_members.push_back(u);
    acc_vars.insert(unit.vars.begin(), unit.vars.end());
  }
  return fold;
}

void Planner::TryMultiwayRewrite(std::vector<JoinUnit>* units) {
  // Decompose chains and count variable mentions across the clause.
  std::vector<ChainShape> shapes(units->size());
  std::map<std::string, size_t> mentions;
  for (size_t i = 0; i < units->size(); ++i) {
    shapes[i] = AnalyzeChain((*units)[i].plan.get());
    CountVarMentions(*(*units)[i].plan, &mentions);
  }

  // Eligible pattern edges over node variables.
  struct EdgeRec {
    size_t unit;
    size_t expand;
    const PlanNode* node;
  };
  std::vector<EdgeRec> edges;
  for (size_t i = 0; i < units->size(); ++i) {
    if (!shapes[i].eligible) continue;
    for (size_t e = 0; e < shapes[i].expands.size(); ++e) {
      const PlanNode* expand = shapes[i].expands[e];
      // The edge variable must be bound nowhere else: the operator
      // enumerates it fresh, with no pre-bound column to respect.
      if (mentions[expand->edge_var] != 1) continue;
      edges.push_back({i, e, expand});
    }
  }
  if (edges.size() < 3) return;

  // Smallest simple cycle per base edge: BFS from one endpoint to the
  // other over the remaining eligible edges (girth-style).
  std::vector<CycleCandidate> candidates;
  for (size_t base = 0; base < edges.size(); ++base) {
    const std::string& src = edges[base].node->from_var;
    const std::string& dst = edges[base].node->to_var;
    std::map<std::string, std::pair<std::string, size_t>> parent;
    std::deque<std::string> frontier{src};
    parent[src] = {src, edges.size()};
    while (!frontier.empty() && parent.count(dst) == 0) {
      const std::string at = frontier.front();
      frontier.pop_front();
      for (size_t j = 0; j < edges.size(); ++j) {
        if (j == base) continue;
        const PlanNode* n = edges[j].node;
        const std::string* next = nullptr;
        if (n->from_var == at) {
          next = &n->to_var;
        } else if (n->to_var == at) {
          next = &n->from_var;
        } else {
          continue;
        }
        if (parent.count(*next) > 0) continue;
        parent[*next] = {at, j};
        frontier.push_back(*next);
      }
    }
    if (parent.count(dst) == 0) continue;
    CycleCandidate cand;
    cand.edges.emplace_back(edges[base].unit, edges[base].expand);
    std::set<size_t> used;
    for (std::string at = dst; at != src;) {
      const auto& [prev, via] = parent[at];
      if (used.count(via) > 0) break;  // defensive
      used.insert(via);
      cand.edges.emplace_back(edges[via].unit, edges[via].expand);
      at = prev;
    }
    if (cand.edges.size() >= 3) candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return;
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CycleCandidate& a, const CycleCandidate& b) {
                     return a.edges.size() < b.edges.size();
                   });

  CardinalityEstimator estimator(runtime_->context().catalog,
                                 default_location_);

  for (const CycleCandidate& cand : candidates) {
    // Consumed units: every expansion of a touched chain must be a cycle
    // edge (the rewrite replaces whole chains), and all on one graph.
    std::set<size_t> consumed;
    std::set<std::pair<size_t, size_t>> cycle_edges(cand.edges.begin(),
                                                    cand.edges.end());
    for (const auto& [u, e] : cand.edges) {
      (void)e;
      consumed.insert(u);
    }
    bool covered = true;
    const std::string& location =
        shapes[*consumed.begin()].scan->graph;
    for (size_t u : consumed) {
      if (shapes[u].scan->graph != location) covered = false;
      for (size_t e = 0; e < shapes[u].expands.size() && covered; ++e) {
        if (cycle_edges.count({u, e}) == 0) covered = false;
      }
      if (!covered) break;
    }
    if (!covered) continue;

    // Seed: the most selective consumed scan (estimates were annotated by
    // the caller; unknown estimates abort the rewrite).
    size_t seed_unit = *consumed.begin();
    for (size_t u : consumed) {
      if (shapes[u].scan->est_rows < 0.0) {
        seed_unit = units->size();
        break;
      }
      if (shapes[u].scan->est_rows < shapes[seed_unit].scan->est_rows) {
        seed_unit = u;
      }
    }
    if (seed_unit == units->size()) continue;

    // Assemble the candidate node (source order: units ascending, chain
    // order within).
    auto node = MakePlan(PlanOp::kMultiwayExpand);
    node->graph = location;
    for (size_t u : consumed) {
      const ChainShape& shape = shapes[u];
      if (u != seed_unit) {
        node->multi_nodes.push_back(MultiwayNode{
            shape.scan->var, shape.scan->node, shape.scan->node_labels});
        node->pushed.insert(node->pushed.end(), shape.scan->pushed.begin(),
                            shape.scan->pushed.end());
      }
      for (const PlanNode* expand : shape.expands) {
        node->multi_edges.push_back(
            MultiwayEdge{expand->from_var, expand->edge, expand->edge_var,
                         expand->to_var, expand->edge_labels});
        node->multi_nodes.push_back(
            MultiwayNode{expand->to_var, expand->to, expand->node_labels});
        node->pushed.insert(node->pushed.end(), expand->pushed.begin(),
                            expand->pushed.end());
      }
    }

    // Price the rewrite by C_out on both sides, with one estimator: the
    // seed scan plus every row the operator enumerates, against every
    // operator of the consumed chains plus their greedy smallest-first
    // join intermediates.
    node->children.push_back(CopyScanLeaf(*shapes[seed_unit].scan));
    const double seed_est = estimator.Annotate(node->children[0].get());
    const CardinalityEstimator::MultiwayEstimate multiway =
        estimator.EstimateMultiway(*node, seed_est);
    if (multiway.rows < 0.0) continue;  // also an unknown seed estimate
    node->est_rows = multiway.rows;
    const double multiway_cost = seed_est + multiway.enumerated;

    const GreedyFold fold = GreedyJoinFold(
        *units, std::vector<size_t>(consumed.begin(), consumed.end()),
        &estimator);
    double binary_cost = 0.0;
    for (size_t u : fold.order) {
      binary_cost += SumEstimates(*(*units)[u].plan);
    }
    for (double join_est : fold.join_ests) binary_cost += join_est;
    if (!(multiway_cost < binary_cost)) continue;

    // Commit: the real seed scan becomes the child; consumed units merge
    // into one multiway unit.
    node->children.clear();
    node->children.push_back(
        TakeScan(std::move((*units)[seed_unit].plan)));
    JoinUnit merged;
    merged.est = multiway.rows;
    merged.min_source = *consumed.begin();
    for (size_t u : consumed) {
      merged.vars.insert((*units)[u].vars.begin(), (*units)[u].vars.end());
    }
    merged.plan = std::move(node);
    std::vector<JoinUnit> next;
    next.reserve(units->size() - consumed.size() + 1);
    bool placed = false;
    for (size_t i = 0; i < units->size(); ++i) {
      if (consumed.count(i) > 0) {
        if (!placed) {
          next.push_back(std::move(merged));
          placed = true;
        }
        continue;
      }
      next.push_back(std::move((*units)[i]));
    }
    *units = std::move(next);
    return;  // one cycle per clause; nested rewrites are future work
  }
}

PlanPtr Planner::EnumerateJoins(std::vector<JoinUnit> units) {
  const size_t n = units.size();
  CardinalityEstimator estimator(runtime_->context().catalog,
                                 default_location_);

  // Per-unit key domains (shared by DP pricing and swap marking).
  std::vector<std::map<std::string, double>> domains(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& v : units[i].vars) {
      domains[i][v] = estimator.VarDomain(*units[i].plan, v);
    }
  }

  auto make_join = [&](PlanPtr left, PlanPtr right,
                       const std::set<std::string>& shared, double left_est,
                       double right_est) {
    auto join = MakePlan(PlanOp::kHashJoin);
    join->join_vars.assign(shared.begin(), shared.end());
    join->join_correlated = !join->join_vars.empty();
    // Build-side rule: HashJoin builds over its right input; when the
    // right (fresh) side dwarfs the accumulated left, building over the
    // left is cheaper. The executor re-merges canonically, so this is
    // invisible to schema, provenance and the result set.
    join->swap_build =
        left_est >= 0.0 && right_est > kSwapBuildFactor * left_est;
    join->children.push_back(std::move(left));
    join->children.push_back(std::move(right));
    return join;
  };

  auto side_domain = [&](const std::vector<size_t>& members,
                         const std::string& v) {
    double dom = -1.0;
    for (size_t u : members) {
      auto it = domains[u].find(v);
      if (it == domains[u].end() || it->second < 0.0) continue;
      if (dom < 0.0 || it->second < dom) dom = it->second;
    }
    return dom;
  };

  if (n > kMaxDpUnits) {
    // Greedy smallest-first left-deep — the pre-DP rule, for pathological
    // clause sizes where 3^n subset splits would not pay off. The fold
    // (order + join estimates) is the same computation the cycle rewrite
    // prices its binary alternative with.
    std::vector<size_t> members(n);
    std::iota(members.begin(), members.end(), size_t{0});
    const GreedyFold fold =
        GreedyJoinFold(units, std::move(members), &estimator);
    PlanPtr plan = std::move(units[fold.order[0]].plan);
    double acc_est = units[fold.order[0]].est;
    std::set<std::string> bound = units[fold.order[0]].vars;
    for (size_t i = 1; i < fold.order.size(); ++i) {
      JoinUnit& unit = units[fold.order[i]];
      std::set<std::string> shared;
      for (const auto& v : unit.vars) {
        if (bound.count(v) > 0) shared.insert(v);
      }
      plan = make_join(std::move(plan), std::move(unit.plan), shared,
                       acc_est, unit.est);
      acc_est = fold.join_ests[i - 1];
      bound.insert(unit.vars.begin(), unit.vars.end());
    }
    return plan;
  }

  // DP over subsets, minimizing C_out (the summed intermediate join
  // cardinality). Cross-product splits participate too — their estimates
  // price them out unless nothing connected exists.
  const size_t full = (size_t{1} << n) - 1;
  std::vector<double> cost(full + 1,
                           std::numeric_limits<double>::infinity());
  std::vector<double> est(full + 1, -1.0);
  std::vector<size_t> left_of(full + 1, 0);  // 0 = leaf
  std::vector<std::set<std::string>> mask_vars(full + 1);
  std::vector<std::vector<size_t>> members(full + 1);
  std::vector<size_t> min_source(full + 1, 0);

  for (size_t i = 0; i < n; ++i) {
    const size_t m = size_t{1} << i;
    cost[m] = 0.0;
    est[m] = units[i].est;
    mask_vars[m] = units[i].vars;
    members[m] = {i};
    min_source[m] = units[i].min_source;
  }

  for (size_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) {
        members[mask].push_back(i);
        mask_vars[mask].insert(units[i].vars.begin(), units[i].vars.end());
      }
    }
    min_source[mask] = units[members[mask].front()].min_source;
    for (size_t i : members[mask]) {
      min_source[mask] = std::min(min_source[mask], units[i].min_source);
    }
    for (size_t s = (mask - 1) & mask; s > 0; s = (s - 1) & mask) {
      const size_t t = mask ^ s;
      if (s > t) continue;  // each unordered split once
      std::set<std::string> shared;
      std::vector<std::pair<double, double>> key_domains;
      for (const auto& v : mask_vars[s]) {
        if (mask_vars[t].count(v) == 0) continue;
        shared.insert(v);
        key_domains.emplace_back(side_domain(members[s], v),
                                 side_domain(members[t], v));
      }
      const double join_est = CardinalityEstimator::JoinEstimate(
          est[s], est[t], !shared.empty(), key_domains);
      const double c = cost[s] + cost[t] + join_est;
      // Always record the first split: with astronomically large
      // estimates every candidate cost can overflow to +inf, and a
      // multi-unit mask must still reconstruct as a join, not a leaf.
      if (left_of[mask] == 0 || c < cost[mask]) {
        cost[mask] = c;
        est[mask] = join_est;
        // Orientation: the smaller side accumulates on the left (what the
        // greedy smallest-first rule produced for two units); ties go to
        // the side appearing first in the source.
        const bool s_left =
            est[s] < est[t] ||
            (est[s] == est[t] && min_source[s] <= min_source[t]);
        left_of[mask] = s_left ? s : t;
      }
    }
  }

  std::function<PlanPtr(size_t)> build = [&](size_t mask) -> PlanPtr {
    if (left_of[mask] == 0) {
      size_t i = 0;
      while ((size_t{1} << i) != mask) ++i;
      return std::move(units[i].plan);
    }
    const size_t l = left_of[mask];
    const size_t r = mask ^ l;
    std::set<std::string> shared;
    for (const auto& v : mask_vars[l]) {
      if (mask_vars[r].count(v) > 0) shared.insert(v);
    }
    PlanPtr left = build(l);
    PlanPtr right = build(r);
    return make_join(std::move(left), std::move(right), shared, est[l],
                     est[r]);
  };
  return build(full);
}

Result<PlanPtr> Planner::PlanPatternsJoined(
    const std::vector<GraphPattern>& patterns, const BlockRules& rules) {
  std::vector<PlanPtr> chains;
  chains.reserve(patterns.size());
  for (const auto& pattern : patterns) {
    GCORE_ASSIGN_OR_RETURN(PlanPtr chain, PlanChain(pattern, rules));
    chains.push_back(std::move(chain));
  }
  if (chains.empty()) {
    return Status::BindError("MATCH clause has no pattern");
  }

  std::vector<JoinUnit> units(chains.size());
  for (size_t i = 0; i < chains.size(); ++i) {
    units[i].plan = std::move(chains[i]);
    CollectChainVars(patterns[i], &units[i].vars);
    units[i].min_source = i;
  }

  // A lone chain can still hold a cycle (a closed walk re-using its start
  // variable); only then is single-chain estimation worth the scan.
  auto single_chain_cycle = [&]() {
    if (patterns.size() != 1) return false;
    size_t edge_hops = 0;
    std::map<std::string, size_t> node_var_uses;
    ++node_var_uses[patterns[0].start.var];
    for (const auto& hop : patterns[0].hops) {
      if (hop.kind == PatternHop::Kind::kEdge) ++edge_hops;
      ++node_var_uses[hop.to.var];
    }
    if (edge_hops < 3) return false;
    for (const auto& [v, uses] : node_var_uses) {
      if (!v.empty() && uses > 1) return true;
    }
    return false;
  };

  // Estimation rule: estimate when the join enumeration needs to compare
  // alternatives (several chains) or when a single chain might close a
  // rewritable cycle. Stays in source order when any estimate is unknown
  // (keeping the plan deterministic under missing statistics).
  bool all_known = false;
  const bool want_estimates =
      units.size() > 1 || (options_.enable_multiway && single_chain_cycle());
  if (want_estimates) {
    CardinalityEstimator estimator(runtime_->context().catalog,
                                   default_location_);
    all_known = true;
    for (auto& unit : units) {
      unit.est = estimator.Annotate(unit.plan.get());
      if (unit.est < 0.0) all_known = false;
    }
  }

  if (all_known && options_.enable_multiway) {
    TryMultiwayRewrite(&units);
  }

  if (units.size() == 1) return std::move(units[0].plan);

  if (!all_known) {
    // Source-order left-deep fold — the plan under missing statistics.
    PlanPtr plan = std::move(units[0].plan);
    std::set<std::string> bound = units[0].vars;
    for (size_t i = 1; i < units.size(); ++i) {
      auto join = MakePlan(PlanOp::kHashJoin);
      for (const auto& v : units[i].vars) {
        if (bound.count(v) > 0) join->join_vars.push_back(v);
      }
      join->join_correlated = !join->join_vars.empty();
      join->children.push_back(std::move(plan));
      join->children.push_back(std::move(units[i].plan));
      bound.insert(units[i].vars.begin(), units[i].vars.end());
      plan = std::move(join);
    }
    return plan;
  }

  return EnumerateJoins(std::move(units));
}

void Planner::CollectOutputColumns(const GraphPattern& pattern,
                                   std::vector<std::string>* out) const {
  auto add = [out](const std::string& name) {
    if (name.empty()) return;
    if (std::find(out->begin(), out->end(), name) == out->end()) {
      out->push_back(name);
    }
  };
  auto add_bind_props = [&](const std::vector<PropPattern>& props) {
    for (const auto& p : props) {
      if (p.mode == PropPattern::Mode::kBindVariable) add(p.bind_var);
    }
  };
  // Mirrors the column-creation order of chain evaluation: element
  // variable(s) first, then the bind-variables of their property maps.
  add(pattern.start.var);
  add_bind_props(pattern.start.props);
  for (const auto& hop : pattern.hops) {
    if (hop.kind == PatternHop::Kind::kEdge) {
      add(hop.edge.var);
      add(hop.to.var);
      add_bind_props(hop.edge.props);
      add_bind_props(hop.to.props);
    } else {
      add(hop.path.var);
      add(hop.to.var);
      if (!hop.path.cost_var.empty()) add(hop.path.cost_var);
      add_bind_props(hop.to.props);
    }
  }
}

Planner::BlockRules Planner::DeriveBlockRules(
    const std::vector<GraphPattern>& patterns, const Expr* where) const {
  BlockRules rules;
  if (where != nullptr) SplitConjuncts(*where, &rules.residual);
  if (!options_.enable_pushdown) return rules;
  if (where != nullptr) CollectSingleVarConjuncts(*where, &rules.pushdown);

  // Every named node/edge occurrence contributes its groups to the
  // constraint of (variable, scope), in source order.
  std::map<std::string, std::set<std::string>> scopes;
  auto occurrence = [&](const std::string& var, const std::string& scope,
                        const LabelGroups& groups) {
    if (var.empty()) return;
    scopes[var].insert(scope);
    AppendDistinctGroups(groups, &rules.labels[{var, scope}]);
  };
  for (const auto& pattern : patterns) {
    const std::string scope = LabelScope(pattern);
    occurrence(pattern.start.var, scope, pattern.start.label_groups);
    for (const auto& hop : pattern.hops) {
      if (hop.kind == PatternHop::Kind::kEdge) {
        occurrence(hop.edge.var, scope, hop.edge.label_groups);
      }
      occurrence(hop.to.var, scope, hop.to.label_groups);
    }
  }

  // A top-level `(x:ℓ1|ℓ2)` conjunct folds into x's constraint when the
  // block binds x as a node or edge on one graph — the graph the WHERE
  // reads x's labels from. It then leaves the WHERE and the pushed lists.
  std::vector<const Expr*> residual;
  for (const Expr* conjunct : rules.residual) {
    auto it = conjunct->kind == Expr::Kind::kLabelTest
                  ? scopes.find(conjunct->var)
                  : scopes.end();
    if (it == scopes.end() || it->second.size() != 1) {
      residual.push_back(conjunct);
      continue;
    }
    LabelGroups& labels = rules.labels[{it->first, *it->second.begin()}];
    AppendDistinctGroups({conjunct->labels}, &labels);
    auto& pushed = rules.pushdown[it->first];
    pushed.erase(std::remove(pushed.begin(), pushed.end(), conjunct),
                 pushed.end());
  }
  rules.residual = std::move(residual);
  return rules;
}

Result<PlanPtr> Planner::PlanBlock(const std::vector<GraphPattern>& patterns,
                                   const Expr* where) {
  const BlockRules rules = DeriveBlockRules(patterns, where);
  GCORE_ASSIGN_OR_RETURN(PlanPtr plan, PlanPatternsJoined(patterns, rules));
  if (rules.residual.empty()) return plan;
  auto filter = MakePlan(PlanOp::kFilter);
  filter->conjuncts = rules.residual;
  filter->children.push_back(std::move(plan));
  return filter;
}

Result<PlanPtr> Planner::PlanMatch(const MatchClause& match) {
  clause_override_ = ClauseOnOverride(match);
  default_location_ = clause_override_.empty()
                          ? runtime_->context().default_graph
                          : clause_override_;

  GCORE_RETURN_NOT_OK(CheckOptionalVariableSharing(match));

  GCORE_ASSIGN_OR_RETURN(PlanPtr plan,
                         PlanBlock(match.patterns, match.where.get()));

  // OPTIONAL blocks chain with left outer joins in source order
  // (Appendix A.2); block WHEREs filter the block before the join, so
  // the pushdown rule applies to each block on its own, exactly like the
  // main block above (the residual block filter re-checks pushed
  // conjuncts, keeping the ⟕ semantics literal). Main-block labels are
  // not carried into a block: the ⟕ keys enforce them anyway.
  for (const auto& block : match.optionals) {
    GCORE_ASSIGN_OR_RETURN(PlanPtr block_plan,
                           PlanBlock(block.patterns, block.where.get()));
    auto outer = MakePlan(PlanOp::kLeftOuterJoin);
    outer->children.push_back(std::move(plan));
    outer->children.push_back(std::move(block_plan));
    plan = std::move(outer);
  }

  auto project = MakePlan(PlanOp::kProject);
  project->parallelism = ResolveParallelism(options_.parallelism);
  for (const auto& pattern : match.patterns) {
    CollectOutputColumns(pattern, &project->output);
  }
  for (const auto& block : match.optionals) {
    for (const auto& pattern : block.patterns) {
      CollectOutputColumns(pattern, &project->output);
    }
  }
  project->output.erase(
      std::remove_if(project->output.begin(), project->output.end(),
                     IsInternalColumn),
      project->output.end());
  project->children.push_back(std::move(plan));
  return project;
}

void Planner::AnnotateEstimates(PlanNode* plan) const {
  CardinalityEstimator estimator(runtime_->context().catalog,
                                 default_location_);
  estimator.Annotate(plan);
}

}  // namespace gcore
