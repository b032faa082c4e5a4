#include "plan/wcoj.h"

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "eval/matcher.h"
#include "graph/adjacency.h"
#include "graph/snapshot.h"

namespace gcore {

namespace {

using EntrySpan = AdjacencyIndex::EntrySpan;

constexpr size_t kNpos = BindingTable::kNpos;

/// Chunk-lifetime admission test for one pattern edge, compiled once
/// against the snapshot's interned labels and typed property columns.
/// The per-edge test is a span probe plus inline cell compares — cheap
/// enough for the intersection hot path without a verdict memo.
class EdgePred {
 public:
  EdgePred(const GraphSnapshot& snap, const MultiwayEdge& me)
      : snap_(&snap),
        pred_(SnapshotPred::ForEdge(snap, me.labels, me.edge->props)) {}

  bool Admits(EdgeId id) const {
    // Unconstrained patterns admit everything — skip the index lookup.
    if (pred_.unconstrained()) return true;
    return pred_.Admits(snap_->EdgeIndexOf(id));
  }

  /// Span-entry form: the CSR entry carries its dense edge index, so no
  /// binary search is needed.
  bool Admits(const AdjacencyEntry& e) const {
    if (pred_.unconstrained()) return true;
    return pred_.Admits(e.edge_dense);
  }

 private:
  const GraphSnapshot* snap_;
  SnapshotPred pred_;
};

/// Appends the label/prop-admitted neighbors of `u` along pattern edge
/// `me` to `out`. `away` is true when `u` is the edge's from-endpoint
/// (the pattern arrow leaves u). Each span is (neighbor, edge)-sorted, so
/// the result is sorted; parallel edges leave duplicates for the caller's
/// unique pass.
void CollectNeighbors(const AdjacencyIndex& adj, const MultiwayEdge& me,
                      const EdgePred& pred, bool away, DenseNodeIndex u,
                      std::vector<DenseNodeIndex>* out) {
  auto collect = [&](EntrySpan span) {
    for (const AdjacencyEntry* it = span.begin; it != span.end; ++it) {
      if (pred.Admits(*it)) {
        out->push_back(it->neighbor);
      }
    }
  };
  switch (me.edge->direction) {
    case EdgePattern::Direction::kRight:
      collect(away ? adj.OutSorted(u) : adj.InSorted(u));
      break;
    case EdgePattern::Direction::kLeft:
      collect(away ? adj.InSorted(u) : adj.OutSorted(u));
      break;
    case EdgePattern::Direction::kUndirected:
      collect(adj.OutSorted(u));
      collect(adj.InSorted(u));
      std::sort(out->begin(), out->end());
      break;
  }
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

/// Admitted edges between the bound endpoints of `me` (from at dense
/// index `from`, to at `to`) into `out` (cleared), ascending by edge id.
void MatchingEdges(const AdjacencyIndex& adj, const MultiwayEdge& me,
                   const EdgePred& pred, DenseNodeIndex from,
                   DenseNodeIndex to, std::vector<EdgeId>* out) {
  out->clear();
  auto collect = [&](EntrySpan span) {
    const EntrySpan hits = AdjacencyIndex::EdgesTo(span, to);
    for (const AdjacencyEntry* it = hits.begin; it != hits.end; ++it) {
      if (pred.Admits(*it)) {
        out->push_back(it->edge);
      }
    }
  };
  switch (me.edge->direction) {
    case EdgePattern::Direction::kRight:
      collect(adj.OutSorted(from));
      break;
    case EdgePattern::Direction::kLeft:
      collect(adj.InSorted(from));
      break;
    case EdgePattern::Direction::kUndirected:
      collect(adj.OutSorted(from));
      collect(adj.InSorted(from));
      std::sort(out->begin(), out->end());
      out->erase(std::unique(out->begin(), out->end()), out->end());
      break;
  }
}

/// Progressive sorted intersection into `acc`, smallest list first (the
/// leapfrog step: total work tracks the smallest incident adjacency
/// list). `tmp` is caller-owned scratch.
void IntersectSorted(std::vector<std::vector<DenseNodeIndex>>* lists,
                     std::vector<DenseNodeIndex>* acc,
                     std::vector<DenseNodeIndex>* tmp) {
  std::sort(lists->begin(), lists->end(),
            [](const std::vector<DenseNodeIndex>& a,
               const std::vector<DenseNodeIndex>& b) {
              return a.size() < b.size();
            });
  acc->swap((*lists)[0]);
  for (size_t i = 1; i < lists->size() && !acc->empty(); ++i) {
    tmp->clear();
    std::set_intersection(acc->begin(), acc->end(), (*lists)[i].begin(),
                          (*lists)[i].end(), std::back_inserter(*tmp));
    acc->swap(*tmp);
  }
}

/// One elimination step: the variable it places (kNpos for the initial
/// bound-only step), the admission patterns of that variable, and the
/// pattern edges whose endpoints are all bound once it is placed.
struct Step {
  size_t var_slot = kNpos;
  std::vector<SnapshotPred> checks;
  std::vector<size_t> edges;
};

}  // namespace

Result<BindingTable> MultiwayExpandChunk(Matcher* rt, const PlanNode& plan,
                                         const PathPropertyGraph& graph,
                                         const std::string& graph_name,
                                         const BindingTable& input) {
  const GraphSnapshot& snap = rt->Snapshot(graph);
  const AdjacencyIndex& adj = snap.adjacency();
  const std::vector<std::string> vars = MultiwayNodeVars(plan);
  const size_t nvars = vars.size();
  const size_t nedges = plan.multi_edges.size();
  auto slot_of = [&](const std::string& v) {
    return static_cast<size_t>(
        std::find(vars.begin(), vars.end(), v) - vars.begin());
  };

  std::vector<size_t> input_col(nvars, kNpos);
  std::set<std::string> bound;
  for (size_t i = 0; i < nvars; ++i) {
    input_col[i] = input.ColumnIndex(vars[i]);
    if (input_col[i] != kNpos) bound.insert(vars[i]);
  }
  if (bound.empty()) {
    return Status::EvaluationError(
        "MultiwayExpand child binds no cycle variable");
  }
  const std::vector<std::string> order =
      MultiwayEliminationOrder(plan, bound);

  // Output schema: the input prefix, then the eliminated node variables
  // in order, then every edge variable in cycle order.
  BindingTable out(input.columns());
  for (const auto& [v, g] : input.column_graphs()) out.SetColumnGraph(v, g);
  std::vector<size_t> var_out_col(nvars, kNpos);
  for (const std::string& v : order) {
    var_out_col[slot_of(v)] = out.AddColumn(v);
    out.SetColumnGraph(v, graph_name);
  }
  std::vector<size_t> edge_out_col(nedges, kNpos);
  for (size_t e = 0; e < nedges; ++e) {
    edge_out_col[e] = out.AddColumn(plan.multi_edges[e].edge_var);
    out.SetColumnGraph(plan.multi_edges[e].edge_var, graph_name);
  }

  // Per-edge endpoint slots, resolved once — the inner loops must not
  // re-scan variable names.
  std::vector<size_t> from_slot(nedges);
  std::vector<size_t> to_slot(nedges);
  for (size_t e = 0; e < nedges; ++e) {
    from_slot[e] = slot_of(plan.multi_edges[e].from_var);
    to_slot[e] = slot_of(plan.multi_edges[e].to_var);
  }

  // Step of each variable (0 = bound by the child) and of each edge (the
  // later of its endpoints' steps).
  std::vector<size_t> var_step(nvars, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    var_step[slot_of(order[i])] = i + 1;
  }
  std::vector<Step> steps(order.size() + 1);
  for (size_t i = 0; i < order.size(); ++i) {
    steps[i + 1].var_slot = slot_of(order[i]);
  }
  for (size_t e = 0; e < nedges; ++e) {
    const size_t s = std::max(var_step[from_slot[e]], var_step[to_slot[e]]);
    steps[s].edges.push_back(e);
  }
  // Admission checks: free variables check at their own step; absorbed
  // occurrences of pre-bound variables re-check in step 0. Compiled to
  // snapshot predicates once per chunk; candidates arrive as dense
  // indices, so the per-candidate test never resolves an id.
  std::vector<std::pair<size_t, SnapshotPred>> bound_checks;
  for (const auto& [v, pattern, labels] : plan.multi_nodes) {
    if (pattern == nullptr) continue;
    const size_t slot = slot_of(v);
    if (slot >= nvars) continue;  // not a cycle node variable
    SnapshotPred check = SnapshotPred::ForNode(snap, labels, pattern->props);
    if (var_step[slot] == 0) {
      bound_checks.emplace_back(slot, std::move(check));
    } else {
      steps[var_step[slot]].checks.push_back(std::move(check));
    }
  }

  std::vector<EdgePred> preds;
  preds.reserve(nedges);
  for (size_t e = 0; e < nedges; ++e) {
    preds.emplace_back(snap, plan.multi_edges[e]);
  }

  // Chunk-lifetime scratch, reused across rows: each pattern edge owns
  // its parallel-edge-id buffer (an edge is enumerated at exactly one
  // step, and deeper recursion only touches other edges), and each step
  // owns its candidate-list/intersection buffers (deeper steps own their
  // own) — the inner loops allocate nothing once warm.
  std::vector<std::vector<EdgeId>> edge_ids(nedges);
  struct StepScratch {
    std::vector<std::vector<DenseNodeIndex>> lists;
    std::vector<DenseNodeIndex> candidates;
    std::vector<DenseNodeIndex> tmp;
  };
  std::vector<StepScratch> scratch(steps.size());
  for (size_t s = 0; s < steps.size(); ++s) {
    scratch[s].lists.resize(steps[s].edges.size());
  }

  std::vector<DenseNodeIndex> cur_node(nvars, 0);
  std::vector<EdgeId> cur_edge(nedges, EdgeId(0));
  size_t input_row = 0;
  Status st = Status::OK();

  std::function<void(size_t)> run_step;
  // Binds the step's edges (cross product of parallel-edge choices, each
  // list ascending by edge id) and descends.
  auto bind_edges = [&](size_t s, size_t k, auto&& self) -> void {
    if (!st.ok()) return;
    const Step& step = steps[s];
    if (k == step.edges.size()) {
      run_step(s + 1);
      return;
    }
    const size_t e = step.edges[k];
    const MultiwayEdge& me = plan.multi_edges[e];
    MatchingEdges(adj, me, preds[e], cur_node[from_slot[e]],
                  cur_node[to_slot[e]], &edge_ids[e]);
    for (EdgeId id : edge_ids[e]) {
      cur_edge[e] = id;
      self(s, k + 1, self);
      if (!st.ok()) return;
    }
  };

  run_step = [&](size_t s) {
    if (!st.ok()) return;
    if (s == steps.size()) {
      out.AppendRowFrom(input, input_row);
      const size_t row = out.NumRows() - 1;
      for (size_t i = 0; i < nvars; ++i) {
        if (var_out_col[i] != kNpos) {
          out.SetCell(row, var_out_col[i],
                      Datum::OfNode(adj.IdOf(cur_node[i])));
        }
      }
      for (size_t e = 0; e < nedges; ++e) {
        out.SetCell(row, edge_out_col[e], Datum::OfEdge(cur_edge[e]));
      }
      return;
    }
    const Step& step = steps[s];
    if (step.var_slot == kNpos) {
      bind_edges(s, 0, bind_edges);
      return;
    }
    // Candidate set of the step's variable: intersect the sorted
    // admitted-neighbor lists of its already-bound endpoints.
    StepScratch& sc = scratch[s];
    if (sc.lists.empty()) {
      st = Status::EvaluationError(
          "MultiwayExpand cycle variable has no bound neighbor");
      return;
    }
    for (size_t k = 0; k < step.edges.size(); ++k) {
      const size_t e = step.edges[k];
      const MultiwayEdge& me = plan.multi_edges[e];
      const bool v_is_from = from_slot[e] == step.var_slot;
      const size_t other = v_is_from ? to_slot[e] : from_slot[e];
      sc.lists[k].clear();
      CollectNeighbors(adj, me, preds[e], /*away=*/!v_is_from,
                       cur_node[other], &sc.lists[k]);
    }
    IntersectSorted(&sc.lists, &sc.candidates, &sc.tmp);
    for (const DenseNodeIndex candidate : sc.candidates) {
      bool admitted = true;
      for (const SnapshotPred& check : step.checks) {
        if (!check.Admits(candidate)) {
          admitted = false;
          break;
        }
      }
      if (!admitted) continue;
      cur_node[step.var_slot] = candidate;
      bind_edges(s, 0, bind_edges);
      if (!st.ok()) return;
    }
  };

  for (input_row = 0; input_row < input.NumRows(); ++input_row) {
    bool row_ok = true;
    for (size_t i = 0; i < nvars && row_ok; ++i) {
      if (input_col[i] == kNpos) continue;
      const Column& c = input.ColumnAt(input_col[i]);
      if (c.KindAt(input_row) != Datum::Kind::kNode ||
          !adj.Contains(c.NodeAt(input_row))) {
        row_ok = false;
        break;
      }
      cur_node[i] = adj.IndexOf(c.NodeAt(input_row));
    }
    if (!row_ok) continue;
    for (const auto& [slot, check] : bound_checks) {
      if (!check.Admits(cur_node[slot])) {
        row_ok = false;
        break;
      }
    }
    if (!row_ok) continue;
    run_step(0);
    GCORE_RETURN_NOT_OK(st);
  }
  return out;
}

}  // namespace gcore
