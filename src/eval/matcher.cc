#include "eval/matcher.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>

#include "engine/tabular.h"
#include "eval/binding_ops.h"
#include "paths/all_paths.h"
#include "paths/batched_bfs.h"
#include "paths/frontier.h"
#include "paths/product_bfs.h"
#include "paths/rpq.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace gcore {

namespace {
constexpr const char* kAnonPrefix = "__anon";
}  // namespace

bool IsInternalColumn(const std::string& name) {
  return name.rfind(kAnonPrefix, 0) == 0;
}

void CollectSingleVarConjuncts(
    const Expr& where,
    std::map<std::string, std::vector<const Expr*>>* out) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->ContainsAggregate()) continue;
    if (conjunct->kind == Expr::Kind::kExists) continue;
    std::vector<std::string> vars;
    conjunct->CollectVariables(&vars);
    if (vars.size() == 1) {
      (*out)[vars.front()].push_back(conjunct);
    }
  }
}

std::string ClauseOnOverride(const MatchClause& match) {
  std::set<std::string> named;
  for (const auto& p : match.patterns) {
    if (!p.on_graph.empty()) named.insert(p.on_graph);
  }
  for (const auto& block : match.optionals) {
    for (const auto& p : block.patterns) {
      if (!p.on_graph.empty()) named.insert(p.on_graph);
    }
  }
  return named.size() == 1 ? *named.begin() : std::string();
}

Status CheckOptionalVariableSharing(const MatchClause& match) {
  if (match.optionals.size() <= 1) return Status::OK();
  std::vector<std::string> main_vars;
  for (const auto& p : match.patterns) p.CollectBoundVariables(&main_vars);
  std::set<std::string> main_set(main_vars.begin(), main_vars.end());
  std::vector<std::set<std::string>> block_vars;
  for (const auto& block : match.optionals) {
    std::vector<std::string> vars;
    for (const auto& p : block.patterns) p.CollectBoundVariables(&vars);
    block_vars.emplace_back(vars.begin(), vars.end());
  }
  for (size_t i = 0; i < block_vars.size(); ++i) {
    for (size_t j = i + 1; j < block_vars.size(); ++j) {
      for (const auto& v : block_vars[i]) {
        if (block_vars[j].count(v) > 0 && main_set.count(v) == 0) {
          return Status::BindError(
              "variable '" + v +
              "' is shared by OPTIONAL blocks but absent from the "
              "enclosing pattern (evaluation-order ambiguity)");
        }
      }
    }
  }
  return Status::OK();
}

SnapshotPred::SnapshotPred(const GraphSnapshot& snap, bool node_side,
                           const LabelGroups& label_groups,
                           const std::vector<PropPattern>& props)
    : snap_(&snap), node_side_(node_side) {
  for (const auto& group : label_groups) {
    std::vector<uint32_t> ids;
    for (const auto& name : group) {
      const uint32_t id = snap.LabelId(name);
      if (id != GraphSnapshot::kNoLabel) ids.push_back(id);
    }
    if (ids.empty()) {
      // No object in the graph carries any label of this group.
      never_ = true;
      return;
    }
    groups_.push_back(std::move(ids));
  }
  for (const auto& p : props) {
    if (p.mode != PropPattern::Mode::kFilter) continue;
    if (p.value->kind != Expr::Kind::kLiteral) continue;  // row-dependent
    const GraphSnapshot::PropertyColumn* col =
        node_side ? snap.NodeColumn(p.key) : snap.EdgeColumn(p.key);
    if (col == nullptr) {
      // σ(x, key) = ∅ for every member: Contains can never hold.
      never_ = true;
      return;
    }
    filters_.emplace_back(col, &p.value->value);
  }
  if (node_side) {
    size_t best = ~size_t{0};
    for (const auto& ids : groups_) {
      if (ids.size() != 1) continue;  // a disjunction can't drive the scan
      const size_t span = snap.NodesWithLabel(ids[0]).size();
      if (span < best) {
        best = span;
        scan_label_ = ids[0];
      }
    }
  }
}

SnapshotPred SnapshotPred::ForNode(const GraphSnapshot& snap,
                                   const LabelGroups& labels,
                                   const std::vector<PropPattern>& props) {
  return SnapshotPred(snap, /*node_side=*/true, labels, props);
}

SnapshotPred SnapshotPred::ForEdge(const GraphSnapshot& snap,
                                   const LabelGroups& labels,
                                   const std::vector<PropPattern>& props) {
  return SnapshotPred(snap, /*node_side=*/false, labels, props);
}

bool SnapshotPred::Admits(uint32_t idx) const {
  if (never_) return false;
  for (const auto& ids : groups_) {
    bool any = false;
    for (const uint32_t l : ids) {
      if (node_side_ ? snap_->NodeHasLabel(idx, l)
                     : snap_->EdgeHasLabel(idx, l)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  for (const auto& [col, v] : filters_) {
    if (!snap_->CellContains(*col, idx, *v)) return false;
  }
  return true;
}

Matcher::Matcher(MatcherContext ctx) : ctx_(std::move(ctx)) {}

std::string Matcher::FreshAnonName() {
  return kAnonPrefix + std::to_string(anon_counter_++);
}

ExprEvaluator Matcher::MakeEvaluator(const PathPropertyGraph* graph) {
  ExprEvaluator eval(graph, /*catalog=*/nullptr);
  eval.set_provenance_resolver([this](const std::string& name) {
    auto g = ResolveGraph(name);
    return g.ok() ? *g : nullptr;
  });
  eval.set_pattern_callback(
      [this](const GraphPattern& pattern) { return PatternRelation(pattern); },
      &correlated_);
  if (ctx_.exists_cb) eval.set_exists_callback(ctx_.exists_cb, &correlated_);
  return eval;
}

std::shared_ptr<const VecProgram> Matcher::VecProgramFor(
    const Expr& expr, const BindingTable& table, const ExprEvaluator& eval,
    const PathPropertyGraph* default_graph) const {
  // Schema signature: default-graph identity plus every column name and
  // every per-column provenance entry, in order. Equal signatures mean
  // Compile would resolve the same column indices against the same
  // property columns, so the cached program is exactly the one a fresh
  // compilation would produce.
  std::string sig =
      std::to_string(reinterpret_cast<uintptr_t>(default_graph));
  for (const auto& name : table.columns()) {
    sig += '|';
    sig += name;
  }
  for (const auto& [var, graph_name] : table.column_graphs()) {
    sig += ';';
    sig += var;
    sig += '=';
    sig += graph_name;
  }
  std::pair<const Expr*, std::string> key(&expr, std::move(sig));
  {
    std::lock_guard<std::mutex> lock(vec_mu_);
    auto it = vec_cache_.find(key);
    if (it != vec_cache_.end()) return it->second;
  }
  // Compile outside the lock (it walks the expression and may freeze a
  // snapshot); a racing duplicate compilation is harmless — emplace keeps
  // the first program and drops ours.
  std::shared_ptr<const VecProgram> prog = VecProgram::Compile(
      expr, table, eval,
      [this](const PathPropertyGraph& g) -> const GraphSnapshot& {
        return Snapshot(g);
      });
  std::lock_guard<std::mutex> lock(vec_mu_);
  return vec_cache_.emplace(std::move(key), std::move(prog)).first->second;
}

Result<const PathPropertyGraph*> Matcher::ResolveGraph(
    const std::string& name) {
  const std::string& fallback =
      clause_on_override_.empty() ? ctx_.default_graph : clause_on_override_;
  const std::string& resolved = name.empty() ? fallback : name;
  if (resolved.empty()) {
    return Status::BindError(
        "no ON graph given and no default graph is set");
  }
  // Pin on first resolution: the name maps to one graph image for this
  // matcher's whole lifetime, so a concurrent catalog re-registration
  // cannot swap the graph out mid-evaluation (new sessions see the new
  // version; we finish on ours).
  {
    std::lock_guard<std::mutex> lock(adj_mu_);
    auto pinned = graph_pins_.find(resolved);
    if (pinned != graph_pins_.end()) return pinned->second.get();
  }
  auto shared = ctx_.catalog->LookupShared(resolved);
  if (!shared.ok()) {
    // Section 5: a table name after ON denotes a graph of isolated nodes.
    // The synthesized graph is registered in the catalog (under the
    // table's name) so provenance-based λ/σ lookups resolve during
    // CONSTRUCT.
    if (!ctx_.catalog->HasTable(resolved)) {
      return Status::NotFound("graph '" + resolved +
                              "' is not in the catalog");
    }
    GCORE_ASSIGN_OR_RETURN(const Table* table,
                           ctx_.catalog->LookupTable(resolved));
    PathPropertyGraph graph = TableAsGraph(*table, ctx_.catalog->ids());
    ctx_.catalog->RegisterGraphFromTable(resolved, std::move(graph));
    shared = ctx_.catalog->LookupShared(resolved);
    if (!shared.ok()) return shared.status();
  }
  std::lock_guard<std::mutex> lock(adj_mu_);
  auto [it, inserted] = graph_pins_.emplace(resolved, std::move(*shared));
  return it->second.get();
}

const GraphSnapshot& Matcher::Snapshot(const PathPropertyGraph& graph) const {
  std::lock_guard<std::mutex> lock(adj_mu_);
  auto it = snapshot_cache_.find(&graph);
  if (it == snapshot_cache_.end()) {
    std::shared_ptr<const GraphSnapshot> snap;
    // When `graph` is the catalog-registered instance, share (and seed)
    // the catalog's snapshot cache instead of freezing a second copy.
    if (ctx_.catalog != nullptr && !graph.name().empty()) {
      auto registered = ctx_.catalog->Lookup(graph.name());
      if (registered.ok() && *registered == &graph) {
        auto cached = ctx_.catalog->Snapshot(graph.name());
        if (cached.ok()) snap = *cached;
      }
    }
    if (snap == nullptr) snap = std::make_shared<const GraphSnapshot>(graph);
    it = snapshot_cache_.emplace(&graph, std::move(snap)).first;
  }
  return *it->second;
}

bool Matcher::LabelsMatch(const LabelSet& labels,
                          const LabelGroups& groups) {
  for (const auto& group : groups) {
    bool any = false;
    for (const auto& l : group) {
      if (labels.Contains(l)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

Result<BindingTable> Matcher::MatchStartNode(const NodePattern& node,
                                             const LabelGroups& labels,
                                             const PathPropertyGraph& graph,
                                             const std::string& graph_name,
                                             const std::string& var) {
  BindingTable table({var});
  table.SetColumnGraph(var, graph_name);
  const GraphSnapshot& snap = Snapshot(graph);
  const SnapshotPred pred = SnapshotPred::ForNode(snap, labels, node.props);
  const AdjacencyIndex& adj = snap.adjacency();
  auto emit = [&](DenseNodeIndex n) {
    if (!pred.Admits(n)) return;
    // Dense append straight into the node column (no per-row
    // BindingRow allocation).
    table.MutableColumn(0).Append(Datum::OfNode(adj.IdOf(n)));
    table.CommitRow();
  };
  if (pred.never()) {
    // Fall through with no rows.
  } else if (pred.scan_label() != GraphSnapshot::kNoLabel) {
    // Label-span scan: only the nodes carrying a required label, already
    // in ascending id order (the order ForEachNode would visit).
    for (const DenseNodeIndex n : snap.NodesWithLabel(pred.scan_label())) {
      emit(n);
    }
  } else {
    for (size_t n = 0; n < snap.num_nodes(); ++n) {
      emit(static_cast<DenseNodeIndex>(n));
    }
  }
  return ApplyPropPatterns(std::move(table), var, node.props, graph);
}

Result<BindingTable> Matcher::ApplyPropPatterns(
    BindingTable table, const std::string& var,
    const std::vector<PropPattern>& props, const PathPropertyGraph& graph) {
  ExprEvaluator eval = MakeEvaluator(&graph);
  for (const auto& p : props) {
    const size_t obj_col = table.ColumnIndex(var);
    if (obj_col == BindingTable::kNpos) {
      return Status::BindError("property pattern on unbound variable " + var);
    }
    if (p.mode == PropPattern::Mode::kAssign) {
      return Status::BindError(
          "':=' assignment is only valid in CONSTRUCT patterns");
    }
    BindingTable next(table.columns());
    for (const auto& [v, g] : table.column_graphs()) next.SetColumnGraph(v, g);
    size_t bind_col = BindingTable::kNpos;
    if (p.mode == PropPattern::Mode::kBindVariable) {
      bind_col = next.AddColumn(p.bind_var);
    }
    const size_t existing = table.ColumnIndex(p.bind_var);
    for (size_t r = 0; r < table.NumRows(); ++r) {
      const Datum obj = table.At(r, obj_col);
      const ValueSet stored = DatumProperty(obj, p.key, graph);
      if (p.mode == PropPattern::Mode::kFilter) {
        GCORE_ASSIGN_OR_RETURN(Datum want, eval.Eval(*p.value, table, r));
        if (want.kind() != Datum::Kind::kValues) continue;
        const ValueSet& w = want.values();
        const bool ok = w.is_singleton() ? stored.Contains(w.single())
                                         : stored == w;
        if (ok) next.AppendRowFrom(table, r);
        continue;
      }
      // kBindVariable: unroll each stored value into its own binding
      // (p.9); an existing binding of the variable acts as a filter
      // (natural-join semantics).
      const Datum bound = existing != BindingTable::kNpos
                              ? table.At(r, existing)
                              : Datum::Unbound();
      for (const Value& value : stored) {
        if (bound.IsBound()) {
          if (bound.kind() != Datum::Kind::kValues ||
              !(bound.values() == ValueSet(value))) {
            continue;
          }
        }
        next.AppendRowFrom(table, r);
        next.SetCell(next.NumRows() - 1, bind_col, Datum::OfValue(value));
      }
    }
    table = std::move(next);
  }
  return table;
}

Result<BindingTable> Matcher::ExpandEdgeHop(
    BindingTable table, const std::string& from_var, const EdgePattern& edge,
    const LabelGroups& edge_labels, const std::string& edge_var,
    const NodePattern& to, const LabelGroups& to_labels,
    const std::string& to_var, const PathPropertyGraph& graph,
    const std::string& graph_name) {
  if (edge.is_copy) {
    return Status::BindError(
        "copy syntax -[=y]- is only valid in CONSTRUCT patterns");
  }
  const GraphSnapshot& snap = Snapshot(graph);
  const AdjacencyIndex& adj = snap.adjacency();
  // Labels only, matching the pre-snapshot inline check: literal edge
  // props are applied by ApplyPropPatterns below with expression
  // semantics (null literal = ∅), which are not Contains semantics.
  const SnapshotPred edge_pred = SnapshotPred::ForEdge(snap, edge_labels);
  const SnapshotPred to_pred = SnapshotPred::ForNode(snap, to_labels, to.props);

  BindingTable next(table.columns());
  for (const auto& [v, g] : table.column_graphs()) next.SetColumnGraph(v, g);
  const size_t edge_col = next.AddColumn(edge_var);
  const size_t to_col = next.AddColumn(to_var);
  next.SetColumnGraph(edge_var, graph_name);
  next.SetColumnGraph(to_var, graph_name);

  const size_t from_col = table.ColumnIndex(from_var);
  const size_t to_existing = table.ColumnIndex(to_var);
  const size_t edge_existing = table.ColumnIndex(edge_var);

  // Columnar fast path: the source/constraint columns are read through
  // the typed accessors (one kind byte + one id per cell) and surviving
  // rows are emitted column-wise — no BindingRow is materialized.
  const Column& from_cells = table.ColumnAt(from_col);
  const Column* edge_cells = edge_existing != BindingTable::kNpos
                                 ? &table.ColumnAt(edge_existing)
                                 : nullptr;
  const Column* to_cells = to_existing != BindingTable::kNpos
                               ? &table.ColumnAt(to_existing)
                               : nullptr;

  const bool nothing_admits = edge_pred.never() || to_pred.never();
  for (size_t r = 0; !nothing_admits && r < table.NumRows(); ++r) {
    if (from_cells.KindAt(r) != Datum::Kind::kNode) continue;
    const NodeId from_node = from_cells.NodeAt(r);
    const DenseNodeIndex n = adj.Find(from_node);
    if (n == adj.num_nodes()) continue;

    auto try_entry = [&](const AdjacencyEntry& entry) {
      if (!edge_pred.Admits(entry.edge_dense)) return;
      if (edge_cells != nullptr && edge_cells->BoundAt(r) &&
          !(edge_cells->KindAt(r) == Datum::Kind::kEdge &&
            edge_cells->EdgeAt(r) == entry.edge)) {
        return;
      }
      if (to_cells != nullptr && to_cells->BoundAt(r) &&
          !(to_cells->KindAt(r) == Datum::Kind::kNode &&
            to_cells->NodeAt(r) == adj.IdOf(entry.neighbor))) {
        return;
      }
      if (!to_pred.Admits(entry.neighbor)) return;
      next.AppendRowFrom(table, r);
      next.SetCell(next.NumRows() - 1, edge_col, Datum::OfEdge(entry.edge));
      next.SetCell(next.NumRows() - 1, to_col,
                   Datum::OfNode(adj.IdOf(entry.neighbor)));
    };

    if (edge.direction == EdgePattern::Direction::kRight ||
        edge.direction == EdgePattern::Direction::kUndirected) {
      auto [b, e] = adj.Out(n);
      for (const AdjacencyEntry* it = b; it != e; ++it) try_entry(*it);
    }
    if (edge.direction == EdgePattern::Direction::kLeft ||
        edge.direction == EdgePattern::Direction::kUndirected) {
      auto [b, e] = adj.In(n);
      for (const AdjacencyEntry* it = b; it != e; ++it) try_entry(*it);
    }
  }

  GCORE_ASSIGN_OR_RETURN(
      next, ApplyPropPatterns(std::move(next), edge_var, edge.props, graph));
  return ApplyPropPatterns(std::move(next), to_var, to.props, graph);
}

Result<BindingTable> Matcher::ExpandPathHop(
    BindingTable table, const std::string& from_var, const PathPattern& path,
    const std::string& path_var, const NodePattern& to,
    const LabelGroups& to_labels, const std::string& to_var,
    const PathPropertyGraph& graph, const std::string& graph_name) {
  const GraphSnapshot& snap = Snapshot(graph);
  const AdjacencyIndex& adj = snap.adjacency();
  const SnapshotPred to_pred = SnapshotPred::ForNode(snap, to_labels, to.props);
  auto to_admits = [&](NodeId target) {
    const DenseNodeIndex n = adj.Find(target);
    if (n == adj.num_nodes()) return to_pred.unconstrained();
    return to_pred.Admits(n);
  };
  BindingTable next(table.columns());
  for (const auto& [v, g] : table.column_graphs()) next.SetColumnGraph(v, g);
  const bool has_var = !path_var.empty();
  const size_t path_col = has_var ? next.AddColumn(path_var)
                                  : BindingTable::kNpos;
  const size_t to_col = next.AddColumn(to_var);
  next.SetColumnGraph(to_var, graph_name);
  const bool has_cost = !path.cost_var.empty();
  const size_t cost_col =
      has_cost ? next.AddColumn(path.cost_var) : BindingTable::kNpos;

  const size_t from_col = table.ColumnIndex(from_var);
  const size_t to_existing = table.ColumnIndex(to_var);
  const Column& from_cells = table.ColumnAt(from_col);
  const Column* to_cells = to_existing != BindingTable::kNpos
                               ? &table.ColumnAt(to_existing)
                               : nullptr;
  auto target_prebound_elsewhere = [&](size_t r, NodeId target) {
    return to_cells != nullptr && to_cells->BoundAt(r) &&
           !(to_cells->KindAt(r) == Datum::Kind::kNode &&
             to_cells->NodeAt(r) == target);
  };

  // --- stored-path matching: -/@p[:label][<regex>]/-> ---------------------------
  if (path.mode == PathPattern::Mode::kStoredMatch) {
    if (has_var) next.SetColumnGraph(path_var, graph_name);
    std::optional<Nfa> conform_nfa;
    if (path.rpq != nullptr) conform_nfa = Nfa::Compile(*path.rpq);
    for (size_t r = 0; r < table.NumRows(); ++r) {
      if (from_cells.KindAt(r) != Datum::Kind::kNode) continue;
      const NodeId from_node = from_cells.NodeAt(r);
      graph.ForEachPath([&](PathId pid, const PathBody& body) {
        if (body.nodes.empty() || body.nodes.front() != from_node) return;
        if (!LabelsMatch(graph.Labels(pid), path.label_groups)) return;
        if (conform_nfa.has_value() &&
            !BodyConformsToRegex(body, *conform_nfa, graph)) {
          return;
        }
        const NodeId target = body.nodes.back();
        if (target_prebound_elsewhere(r, target)) return;
        if (!to_admits(target)) return;
        next.AppendRowFrom(table, r);
        const size_t out_row = next.NumRows() - 1;
        if (has_var) {
          auto pv = std::make_shared<PathValue>();
          pv->id = pid;
          pv->body = body;
          pv->cost = static_cast<double>(body.edges.size());
          pv->from_graph = true;
          next.SetCell(out_row, path_col, Datum::OfPath(std::move(pv)));
        }
        next.SetCell(out_row, to_col, Datum::OfNode(target));
        if (has_cost) {
          next.SetCell(out_row, cost_col,
                       Datum::OfValue(
                           Value::Int(static_cast<int64_t>(body.edges.size()))));
        }
      });
    }
    return next;
  }

  if (path.rpq == nullptr) {
    return Status::BindError("path pattern requires a regular expression");
  }
  const Nfa nfa = Nfa::Compile(*path.rpq);
  PathSearchContext ctx;
  ctx.snap = &snap;
  ctx.nfa = &nfa;
  ctx.views = ctx_.views;
  ctx.parallelism = ctx_.parallelism;

  // --- batch phase --------------------------------------------------------
  // One kernel launch per *distinct* source instead of one traversal per
  // row: sources are deduplicated in first-appearance order, answered by
  // the batched kernels (internally parallel, degree-invariant), and the
  // serial emission loop replays the rows in input order against the
  // caches — rows, row order and fresh path ids match per-row serial
  // evaluation exactly.
  std::map<NodeId, size_t> src_slot;
  std::vector<NodeId> sources;
  auto slot_of = [&](NodeId src) {
    auto [it, inserted] = src_slot.try_emplace(src, sources.size());
    if (inserted) sources.push_back(src);
    return it->second;
  };
  auto valid_src = [&](size_t r, NodeId* src) {
    if (from_cells.KindAt(r) != Datum::Kind::kNode) return false;
    *src = from_cells.NodeAt(r);
    return adj.Contains(*src);
  };
  auto target_bound_to_node = [&](size_t r) {
    return to_cells != nullptr && to_cells->BoundAt(r) &&
           to_cells->KindAt(r) == Datum::Kind::kNode;
  };
  auto target_bound_to_other = [&](size_t r) {
    return to_cells != nullptr && to_cells->BoundAt(r) &&
           to_cells->KindAt(r) != Datum::Kind::kNode;
  };

  switch (path.mode) {
    case PathPattern::Mode::kReachability: {
      // A row with an unbound target needs its source's full reachable
      // set (one lane of a multi-source wave); a row whose target is
      // prebound to a node only needs a membership bit, which the
      // bidirectional meet-in-the-middle probe answers without computing
      // either full fixpoint.
      std::vector<char> needs_full;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src)) continue;
        const size_t slot = slot_of(src);
        needs_full.resize(sources.size(), 0);
        if (!target_bound_to_node(r) && !target_bound_to_other(r)) {
          needs_full[slot] = 1;
        }
      }
      std::vector<NodeId> full_sources;
      std::vector<size_t> full_idx(sources.size(), 0);
      for (size_t s = 0; s < sources.size(); ++s) {
        if (!needs_full[s]) continue;
        full_idx[s] = full_sources.size();
        full_sources.push_back(sources[s]);
      }
      GCORE_ASSIGN_OR_RETURN(const std::vector<std::set<NodeId>> full_sets,
                             BatchedReachableFrom(ctx, full_sources));
      auto full_of = [&](size_t slot) -> const std::set<NodeId>* {
        return needs_full[slot] ? &full_sets[full_idx[slot]] : nullptr;
      };

      // Distinct (source, bound target) pairs not covered by a full set.
      std::map<std::pair<NodeId, NodeId>, size_t> pair_idx;
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src) || !target_bound_to_node(r)) continue;
        if (needs_full[src_slot.at(src)]) continue;
        const NodeId target = to_cells->NodeAt(r);
        if (pair_idx.try_emplace({src, target}, pairs.size()).second) {
          pairs.emplace_back(src, target);
        }
      }
      std::vector<char> pair_reach(pairs.size(), 0);
      std::vector<Status> pair_status(pairs.size(), Status::OK());
      ParallelFor(ctx.parallelism, pairs.size(), [&](size_t i) {
        auto reach = IsReachable(ctx, pairs[i].first, pairs[i].second);
        if (reach.ok()) {
          pair_reach[i] = *reach ? 1 : 0;
        } else {
          pair_status[i] = reach.status();
        }
      });
      for (const Status& st : pair_status) {
        if (!st.ok()) return st;
      }

      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src)) continue;
        const size_t slot = src_slot.at(src);
        if (target_bound_to_other(r)) continue;
        if (target_bound_to_node(r)) {
          const NodeId target = to_cells->NodeAt(r);
          const std::set<NodeId>* full = full_of(slot);
          const bool reachable =
              full != nullptr ? full->count(target) > 0
                              : pair_reach[pair_idx.at({src, target})] != 0;
          if (!reachable || !to_admits(target)) continue;
          next.AppendRowFrom(table, r);
          next.SetCell(next.NumRows() - 1, to_col, Datum::OfNode(target));
        } else {
          for (NodeId target : *full_of(slot)) {
            if (!to_admits(target)) continue;
            next.AppendRowFrom(table, r);
            next.SetCell(next.NumRows() - 1, to_col, Datum::OfNode(target));
          }
        }
      }
      break;
    }

    case PathPattern::Mode::kShortest: {
      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (valid_src(r, &src)) slot_of(src);
      }
      const size_t k = static_cast<size_t>(path.k);
      std::vector<std::map<NodeId, std::vector<FoundPath>>> per_src;
      if (!sources.empty()) {
        GCORE_ASSIGN_OR_RETURN(per_src, BatchedKShortestFrom(ctx, sources, k));
      }

      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src)) continue;
        const auto& per_dst = per_src[src_slot.at(src)];
        for (const auto& [target, paths] : per_dst) {
          if (target_prebound_elsewhere(r, target)) continue;
          if (!to_admits(target)) continue;
          for (const FoundPath& found : paths) {
            next.AppendRowFrom(table, r);
            const size_t out_row = next.NumRows() - 1;
            if (has_var) {
              auto pv = std::make_shared<PathValue>();
              pv->id = ctx_.catalog->ids()->NextPath();
              pv->body = found.body;  // copy: the cache is shared by rows
              pv->cost = found.cost;
              pv->from_graph = false;
              next.SetCell(out_row, path_col, Datum::OfPath(std::move(pv)));
            }
            next.SetCell(out_row, to_col, Datum::OfNode(target));
            if (has_cost) {
              const double c = found.cost;
              next.SetCell(
                  out_row, cost_col,
                  c == static_cast<int64_t>(c)
                      ? Datum::OfValue(Value::Int(static_cast<int64_t>(c)))
                      : Datum::OfValue(Value::Double(c)));
            }
          }
        }
      }
      break;
    }

    case PathPattern::Mode::kAll: {
      // ALL with a bound path variable is only legal when the variable
      // is used for graph projection (Section 3); the binding carries
      // the projection sets, not materialized walks. A source projects
      // onto every admitted target it reaches unless all its rows
      // prebind the target, in which case only those targets.
      std::vector<char> any_free;
      std::vector<std::set<NodeId>> bound_targets;
      std::vector<size_t> rows_left;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src)) continue;
        const size_t slot = slot_of(src);
        any_free.resize(sources.size(), 0);
        bound_targets.resize(sources.size());
        rows_left.resize(sources.size(), 0);
        ++rows_left[slot];
        if (target_bound_to_node(r)) {
          bound_targets[slot].insert(to_cells->NodeAt(r));
        } else if (!target_bound_to_other(r)) {
          any_free[slot] = 1;
        }
      }
      GCORE_ASSIGN_OR_RETURN(
          std::vector<AllPathsFrom> per_src,
          BatchedAllPathsProjection(
              ctx, sources, [&](size_t slot, NodeId target) {
                return (any_free[slot] ||
                        bound_targets[slot].count(target) > 0) &&
                       to_admits(target);
              }));

      for (size_t r = 0; r < table.NumRows(); ++r) {
        NodeId src;
        if (!valid_src(r, &src)) continue;
        const size_t slot = src_slot.at(src);
        // The source's last row takes the vectors; earlier rows copy.
        const bool last_use = --rows_left[slot] == 0;
        AllPathsFrom& from = per_src[slot];
        for (size_t i = 0; i < from.targets.size(); ++i) {
          const NodeId target = from.targets[i];
          if (target_prebound_elsewhere(r, target)) continue;
          next.AppendRowFrom(table, r);
          const size_t out_row = next.NumRows() - 1;
          if (has_var) {
            SortedProjection& proj = from.projections[i];
            auto pv = std::make_shared<PathValue>();
            pv->id = ctx_.catalog->ids()->NextPath();
            pv->from_graph = false;
            pv->projection =
                last_use ? std::make_pair(std::move(proj.nodes),
                                          std::move(proj.edges))
                         : std::make_pair(proj.nodes, proj.edges);
            next.SetCell(out_row, path_col, Datum::OfPath(std::move(pv)));
          }
          next.SetCell(out_row, to_col, Datum::OfNode(target));
        }
      }
      break;
    }

    case PathPattern::Mode::kStoredMatch:
      break;  // handled above
  }
  return next;
}

Result<BindingTable> Matcher::ApplyPushdownFilters(
    BindingTable table, const std::string& var,
    const PathPropertyGraph* graph) {
  auto it = pushdown_filters_.find(var);
  if (it == pushdown_filters_.end()) return table;
  return FilterByConjuncts(std::move(table), it->second, graph);
}

Result<BindingTable> Matcher::FilterByConjuncts(
    BindingTable table, const std::vector<const Expr*>& conjuncts,
    const PathPropertyGraph* graph) {
  if (conjuncts.empty()) return table;
  ExprEvaluator eval = MakeEvaluator(graph);
  // Conjunct-at-a-time in list order (the query's own order), only on
  // rows still alive (short-circuit). Each conjunct runs its vectorized
  // program when it compiles (eval/expr_vec.h) and the row evaluator
  // otherwise — the only path under use_planner = false. Either way the
  // result is row-for-row identical, including which row's error surfaces
  // first (kernel-undecidable rows replay through the same EvalPredicate
  // in the same order). Programs are looked up once per call: compaction
  // below keeps the schema, so they stay valid for the whole loop.
  // One program per conjunct; null = row evaluator.
  std::vector<std::shared_ptr<const VecProgram>> progs(conjuncts.size());
  if (ctx_.use_planner) {
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      progs[ci] = VecProgramFor(*conjuncts[ci], table, eval, graph);
    }
  }
  auto gather = [](const BindingTable& t, const std::vector<size_t>& rows) {
    BindingTable g(t.columns());
    for (const auto& [v, gr] : t.column_graphs()) g.SetColumnGraph(v, gr);
    g.AppendRowsFrom(t, rows);
    return g;
  };
  // Surviving rows of `table`, ascending.
  std::vector<size_t> kept(table.NumRows());
  std::iota(kept.begin(), kept.end(), size_t{0});
  for (size_t ci = 0; ci < conjuncts.size() && !kept.empty(); ++ci) {
    std::vector<size_t> next;
    next.reserve(kept.size());
    if (progs[ci] != nullptr) {
      GCORE_RETURN_NOT_OK(progs[ci]->FilterRows(table, kept.data(),
                                                kept.size(), eval, &next));
    } else {
      for (const size_t r : kept) {
        GCORE_ASSIGN_OR_RETURN(bool keep,
                               eval.EvalPredicate(*conjuncts[ci], table, r));
        if (keep) next.push_back(r);
      }
    }
    kept = std::move(next);
    // Compaction pre-pass: later conjuncts read rows through the
    // kept-index indirection; once the live set drops below half, gather
    // the survivors column-at-a-time into a dense table so the remaining
    // conjuncts scan contiguously. The gather keeps row order, so the
    // final output is unchanged.
    if (ci + 1 < conjuncts.size() && kept.size() * 2 < table.NumRows()) {
      table = gather(table, kept);
      kept.resize(table.NumRows());
      std::iota(kept.begin(), kept.end(), size_t{0});
    }
  }
  // Nothing dropped since the last compaction: the table is already the
  // answer (the common case for re-checked WHERE conjuncts).
  if (kept.size() == table.NumRows()) return table;
  return gather(table, kept);
}

Result<BindingTable> Matcher::EvalChainInternal(const GraphPattern& pattern,
                                                ChainResult* detail) {
  std::string location = pattern.on_graph;
  if (ctx_.location_overrides != nullptr) {
    auto it = ctx_.location_overrides->find(&pattern);
    if (it != ctx_.location_overrides->end()) location = it->second;
  }
  GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* graph,
                         ResolveGraph(location));
  const std::string graph_name = graph->name();

  const std::string start_var =
      pattern.start.var.empty() ? FreshAnonName() : pattern.start.var;
  if (detail != nullptr) detail->element_columns.push_back(start_var);

  GCORE_ASSIGN_OR_RETURN(
      BindingTable table,
      MatchStartNode(pattern.start, pattern.start.label_groups, *graph,
                     graph_name, start_var));
  GCORE_ASSIGN_OR_RETURN(
      table, ApplyPushdownFilters(std::move(table), start_var, graph));

  std::string prev_var = start_var;
  for (const auto& hop : pattern.hops) {
    const std::string to_var =
        hop.to.var.empty() ? FreshAnonName() : hop.to.var;
    if (hop.kind == PatternHop::Kind::kEdge) {
      const std::string edge_var =
          hop.edge.var.empty() ? FreshAnonName() : hop.edge.var;
      if (detail != nullptr) {
        detail->element_columns.push_back(edge_var);
        detail->element_columns.push_back(to_var);
      }
      GCORE_ASSIGN_OR_RETURN(
          table, ExpandEdgeHop(std::move(table), prev_var, hop.edge,
                               hop.edge.label_groups, edge_var, hop.to,
                               hop.to.label_groups, to_var, *graph,
                               graph_name));
      GCORE_ASSIGN_OR_RETURN(
          table, ApplyPushdownFilters(std::move(table), edge_var, graph));
      GCORE_ASSIGN_OR_RETURN(
          table, ApplyPushdownFilters(std::move(table), to_var, graph));
    } else {
      const std::string path_var =
          hop.path.var.empty() ? (hop.path.mode == PathPattern::Mode::kReachability
                                      ? std::string()
                                      : FreshAnonName())
                               : hop.path.var;
      if (detail != nullptr) {
        detail->element_columns.push_back(
            path_var.empty() ? FreshAnonName() : path_var);
        detail->element_columns.push_back(to_var);
      }
      GCORE_ASSIGN_OR_RETURN(
          table, ExpandPathHop(std::move(table), prev_var, hop.path, path_var,
                               hop.to, hop.to.label_groups, to_var, *graph,
                               graph_name));
      GCORE_ASSIGN_OR_RETURN(
          table, ApplyPushdownFilters(std::move(table), to_var, graph));
    }
    prev_var = to_var;
  }
  return table;
}

Result<ChainResult> Matcher::EvalChainDetailed(const GraphPattern& pattern) {
  ChainResult detail;
  GCORE_ASSIGN_OR_RETURN(detail.table, EvalChainInternal(pattern, &detail));
  return detail;
}

Result<BindingTable> Matcher::EvalPatterns(
    const std::vector<GraphPattern>& patterns) {
  BindingTable result = BindingTable::Unit();
  for (const auto& pattern : patterns) {
    GCORE_ASSIGN_OR_RETURN(BindingTable t,
                           EvalChainInternal(pattern, nullptr));
    result = TableJoin(result, t);
  }
  return result;
}

Result<BindingTable> Matcher::EvalMatchClause(const MatchClause& match) {
  // Clause-level ON: when the patterns name exactly one distinct graph,
  // patterns without their own ON run on it too.
  clause_on_override_ = ClauseOnOverride(match);
  if (ctx_.use_planner) {
    return PlanAndRunMatchClause(match, nullptr, nullptr);
  }
  return LegacyEvalMatchClause(match);
}

Result<BindingTable> Matcher::EvalMatchClauseAnalyzed(
    const MatchClause& match, ExecStats* stats,
    std::unique_ptr<PlanNode>* plan_out) {
  clause_on_override_ = ClauseOnOverride(match);
  return PlanAndRunMatchClause(match, stats, plan_out);
}

Result<BindingTable> Matcher::EvalMatchClausePlanning(
    const MatchClause& match, std::unique_ptr<PlanNode>* plan_out) {
  clause_on_override_ = ClauseOnOverride(match);
  if (!ctx_.use_planner) return LegacyEvalMatchClause(match);
  return PlanAndRunMatchClause(match, nullptr, plan_out);
}

Result<BindingTable> Matcher::EvalMatchClauseWithPlan(const MatchClause& match,
                                                      const PlanNode& plan) {
  clause_on_override_ = ClauseOnOverride(match);
  // Keep the legacy up-front default-graph contract (a clause with no
  // resolvable default fails wholesale), exactly like the planning path.
  GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* default_graph,
                         ResolveGraph(""));
  (void)default_graph;
  ExecContext exec;
  exec.parallelism = ctx_.parallelism;
  exec.morsel_size = ctx_.morsel_size;
  Executor executor(this, exec, nullptr);
  return executor.Run(plan);
}

Result<BindingTable> Matcher::PlanAndRunMatchClause(
    const MatchClause& match, ExecStats* stats,
    std::unique_ptr<PlanNode>* plan_out) {
  // The legacy walk resolves the default graph up front and fails the
  // whole clause when none exists; keep that contract (differential
  // equivalence) even though scans resolve their own locations.
  GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* default_graph,
                         ResolveGraph(""));
  (void)default_graph;
  Planner planner(this, PlannerOptions::FromContext(ctx_));
  GCORE_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanMatch(match));
  // Execution itself skips estimation (the chain-ordering rule already
  // estimated what it compared); EXPLAIN ANALYZE wants the annotations.
  if (stats != nullptr) planner.AnnotateEstimates(plan.get());
  ExecContext exec;
  exec.parallelism = ctx_.parallelism;
  exec.morsel_size = ctx_.morsel_size;
  Executor executor(this, exec, stats);
  auto result = executor.Run(*plan);
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return result;
}

Result<BindingTable> Matcher::LegacyEvalMatchClause(const MatchClause& match) {
  GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* default_graph,
                         ResolveGraph(""));

  // Selection pushdown: register single-variable AND-conjuncts of the
  // WHERE clause so chain evaluation filters as early as possible.
  pushdown_filters_.clear();
  if (match.where != nullptr && ctx_.enable_pushdown) {
    CollectSingleVarConjuncts(*match.where, &pushdown_filters_);
  }

  GCORE_ASSIGN_OR_RETURN(BindingTable table, EvalPatterns(match.patterns));
  pushdown_filters_.clear();
  if (match.where != nullptr) {
    GCORE_ASSIGN_OR_RETURN(
        table,
        FilterByConjuncts(std::move(table), {match.where.get()}, default_graph));
  }

  GCORE_RETURN_NOT_OK(CheckOptionalVariableSharing(match));

  for (const auto& block : match.optionals) {
    GCORE_ASSIGN_OR_RETURN(BindingTable block_table,
                           EvalPatterns(block.patterns));
    if (block.where != nullptr) {
      GCORE_ASSIGN_OR_RETURN(
          block_table,
          FilterByConjuncts(std::move(block_table), {block.where.get()},
                            default_graph));
    }
    table = TableLeftOuterJoin(table, block_table);
  }

  return ProjectResult(table, nullptr);
}

namespace {

/// Visible columns of a projection: the requested order (planner mode,
/// which records the source-binding order before join reordering) or
/// table order (legacy). Fills `kept` with source column indices and
/// returns the empty result table with schema and provenance set.
BindingTable ProjectionSchema(const BindingTable& table,
                              const std::vector<std::string>* output,
                              std::vector<size_t>* kept) {
  std::vector<std::string> columns;
  if (output != nullptr) {
    for (const auto& name : *output) {
      const size_t c = table.ColumnIndex(name);
      if (c != BindingTable::kNpos && !IsInternalColumn(name)) {
        kept->push_back(c);
        columns.push_back(name);
      }
    }
  } else {
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (!IsInternalColumn(table.columns()[c])) {
        kept->push_back(c);
        columns.push_back(table.columns()[c]);
      }
    }
  }
  BindingTable result(std::move(columns));
  for (const auto& [v, g] : table.column_graphs()) {
    if (!IsInternalColumn(v) &&
        result.ColumnIndex(v) != BindingTable::kNpos) {
      result.SetColumnGraph(v, g);
    }
  }
  return result;
}

}  // namespace

BindingTable Matcher::ProjectResult(
    const BindingTable& table, const std::vector<std::string>* output) const {
  std::vector<size_t> kept;
  BindingTable result = ProjectionSchema(table, output, &kept);
  // Set semantics restored as rows are selected (no trailing dedup
  // pass); first occurrences survive, as before. Hash and equality walk
  // the kept columns only — nothing row-shaped is built until the final
  // column-wise gather of the surviving row indices.
  RowIndexSet seen;
  seen.Reserve(table.NumRows());
  std::vector<size_t> fresh_rows;
  fresh_rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    size_t h = 0;
    for (size_t c : kept) h = HashCombine(h, table.ColumnAt(c).HashAt(r));
    const bool fresh =
        seen.InsertIfNew(h, fresh_rows.size(), [&](size_t j) {
          for (size_t c : kept) {
            if (!Column::CellsEqual(table.ColumnAt(c), r, table.ColumnAt(c),
                                    fresh_rows[j])) {
              return false;
            }
          }
          return true;
        });
    if (fresh) fresh_rows.push_back(r);
  }
  for (size_t k = 0; k < kept.size(); ++k) {
    result.MutableColumn(k).AppendIndexed(table.ColumnAt(kept[k]),
                                          fresh_rows);
  }
  for (size_t i = 0; i < fresh_rows.size(); ++i) result.CommitRow();
  return result;
}

BindingTable Matcher::ProjectChunk(
    const BindingTable& table, const std::vector<std::string>* output) const {
  std::vector<size_t> kept;
  BindingTable result = ProjectionSchema(table, output, &kept);
  // Pure column slicing: each kept column is copied wholesale (memcpy
  // for dense cells); no per-row work at all.
  result.AdoptProjectedColumns(table, kept);
  return result;
}

Result<BindingTable> Matcher::PatternRelation(const GraphPattern& pattern) {
  // Pattern predicates may themselves be pushdown filters; disable
  // pushdown while evaluating them to avoid re-entering ourselves.
  std::map<std::string, std::vector<const Expr*>> saved;
  saved.swap(pushdown_filters_);
  auto chain = EvalChainInternal(pattern, nullptr);
  pushdown_filters_.swap(saved);
  if (!chain.ok()) return chain.status();
  // Anonymous elements are existential: only named variables correlate
  // with the outer row, so the generated columns go (a plan-cache hit
  // runs a plan whose generated names this matcher's counter re-issues).
  return ProjectChunk(*chain, nullptr);
}

}  // namespace gcore
