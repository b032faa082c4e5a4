#include "baselines.h"

#include <vector>

namespace gcore {
namespace bench {

SeedRows MaterializeRows(const BindingTable& table) {
  SeedRows rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) rows.push_back(table.Row(r));
  return rows;
}

namespace {

/// NFA states reachable from `states` via zero-width transitions at
/// `node`.
void ZeroWidthClosure(const Nfa& nfa, const PathPropertyGraph& graph,
                      NodeId node, std::vector<bool>* states) {
  const LabelSet& labels = graph.Labels(node);
  bool changed = true;
  while (changed) {
    changed = false;
    for (NfaStateId s = 0; s < nfa.num_states(); ++s) {
      if (!(*states)[s]) continue;
      for (const NfaTransition& t : nfa.TransitionsFrom(s)) {
        const bool zero_width =
            t.type == NfaTransition::Type::kEpsilon ||
            (t.type == NfaTransition::Type::kNodeTest &&
             labels.Contains(t.label));
        if (zero_width && !(*states)[t.target]) {
          (*states)[t.target] = true;
          changed = true;
        }
      }
    }
  }
}

struct WalkEnumerator {
  const PathPropertyGraph& graph;
  const AdjacencyIndex& adj;
  const Nfa& nfa;
  NodeId dst;
  size_t max_hops;
  uint64_t budget;
  EnumerationStats stats;

  void Recurse(DenseNodeIndex node, const std::vector<bool>& states,
               size_t hops) {
    if (stats.expansions >= budget) {
      stats.budget_exhausted = true;
      return;
    }
    ++stats.expansions;
    if (adj.IdOf(node) == dst && states[nfa.accept()]) {
      ++stats.walks_found;
    }
    if (hops == max_hops) return;
    // Expand every edge transition from every live state.
    for (NfaStateId q = 0; q < nfa.num_states(); ++q) {
      if (!states[q]) continue;
      for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
        auto follow = [&](const AdjacencyEntry* begin,
                          const AdjacencyEntry* end) {
          for (const AdjacencyEntry* e = begin; e != end; ++e) {
            if (t.type != NfaTransition::Type::kAnyEdge &&
                !graph.Labels(e->edge).Contains(t.label)) {
              continue;
            }
            std::vector<bool> next(nfa.num_states(), false);
            next[t.target] = true;
            ZeroWidthClosure(nfa, graph, adj.IdOf(e->neighbor), &next);
            Recurse(e->neighbor, next, hops + 1);
            if (stats.budget_exhausted) return;
          }
        };
        if (t.type == NfaTransition::Type::kAnyEdge ||
            t.type == NfaTransition::Type::kEdgeForward) {
          auto [b, e] = adj.Out(node);
          follow(b, e);
        }
        if (t.type == NfaTransition::Type::kAnyEdge ||
            t.type == NfaTransition::Type::kEdgeBackward) {
          auto [b, e] = adj.In(node);
          follow(b, e);
        }
        if (stats.budget_exhausted) return;
      }
    }
  }
};

struct SimplePathSearch {
  const PathPropertyGraph& graph;
  const AdjacencyIndex& adj;
  const Nfa& nfa;
  NodeId dst;
  uint64_t budget;
  EnumerationStats stats;
  std::vector<bool> visited;
  std::optional<size_t> best;

  void Recurse(DenseNodeIndex node, const std::vector<bool>& states,
               size_t hops) {
    if (stats.expansions >= budget) {
      stats.budget_exhausted = true;
      return;
    }
    ++stats.expansions;
    if (best.has_value() && hops >= *best) return;  // branch and bound
    if (adj.IdOf(node) == dst && states[nfa.accept()]) {
      best = hops;
      return;
    }
    visited[node] = true;
    for (NfaStateId q = 0; q < nfa.num_states() && !stats.budget_exhausted;
         ++q) {
      if (!states[q]) continue;
      for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
        auto follow = [&](const AdjacencyEntry* begin,
                          const AdjacencyEntry* end) {
          for (const AdjacencyEntry* e = begin; e != end; ++e) {
            if (visited[e->neighbor]) continue;  // simple-path restriction
            if (t.type != NfaTransition::Type::kAnyEdge &&
                !graph.Labels(e->edge).Contains(t.label)) {
              continue;
            }
            std::vector<bool> next(nfa.num_states(), false);
            next[t.target] = true;
            ZeroWidthClosure(nfa, graph, adj.IdOf(e->neighbor), &next);
            Recurse(e->neighbor, next, hops + 1);
            if (stats.budget_exhausted) return;
          }
        };
        if (t.type == NfaTransition::Type::kAnyEdge ||
            t.type == NfaTransition::Type::kEdgeForward) {
          auto [b, e] = adj.Out(node);
          follow(b, e);
        }
        if (t.type == NfaTransition::Type::kAnyEdge ||
            t.type == NfaTransition::Type::kEdgeBackward) {
          auto [b, e] = adj.In(node);
          follow(b, e);
        }
        if (stats.budget_exhausted) break;
      }
    }
    visited[node] = false;
  }
};

std::vector<bool> StartStates(const Nfa& nfa, const PathPropertyGraph& graph,
                              NodeId src) {
  std::vector<bool> states(nfa.num_states(), false);
  states[nfa.start()] = true;
  ZeroWidthClosure(nfa, graph, src, &states);
  return states;
}

}  // namespace

EnumerationStats EnumerateConformingWalks(const PathPropertyGraph& graph,
                                          const AdjacencyIndex& adj,
                                          const Nfa& nfa, NodeId src,
                                          NodeId dst, size_t max_hops,
                                          uint64_t budget) {
  WalkEnumerator enumerator{graph, adj, nfa, dst, max_hops, budget, {}};
  enumerator.Recurse(adj.IndexOf(src), StartStates(nfa, graph, src), 0);
  return enumerator.stats;
}

std::optional<size_t> ShortestSimplePath(const PathPropertyGraph& graph,
                                         const AdjacencyIndex& adj,
                                         const Nfa& nfa, NodeId src,
                                         NodeId dst, uint64_t budget,
                                         EnumerationStats* stats) {
  SimplePathSearch search{graph, adj, nfa, dst, budget, {}, {}, {}};
  search.visited.assign(adj.num_nodes(), false);
  search.Recurse(adj.IndexOf(src), StartStates(nfa, graph, src), 0);
  if (stats != nullptr) *stats = search.stats;
  return search.best;
}

}  // namespace bench
}  // namespace gcore
