#include "paths/product_bfs.h"

#include <deque>

#include "graph/snapshot.h"
#include "paths/frontier.h"

namespace gcore {

Status ProductReachability(const PathSearchContext& ctx, NodeId src,
                           std::vector<bool>* marks) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const DenseNodeIndex s = adj.Find(src);
  if (s == adj.num_nodes()) {
    return Status::InvalidArgument("source node is not in the graph");
  }
  const CompiledNfa nfa(*ctx.nfa, *ctx.snap);
  const size_t num_states = nfa.num_states();
  marks->assign(adj.num_nodes() * num_states, false);

  std::deque<std::pair<DenseNodeIndex, NfaStateId>> queue;
  auto push = [&](DenseNodeIndex n, NfaStateId q) {
    const size_t idx = static_cast<size_t>(n) * num_states + q;
    if ((*marks)[idx]) return;
    (*marks)[idx] = true;
    queue.emplace_back(n, q);
  };

  push(s, nfa.start());

  ViewResolver resolver(ctx.views);
  while (!queue.empty()) {
    auto [n, q] = queue.front();
    queue.pop_front();
    for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
      switch (t.type) {
        case NfaTransition::Type::kEpsilon:
          push(n, t.target);
          break;
        case NfaTransition::Type::kNodeTest:
          if (nfa.NodeAdmitted(t, n)) push(n, t.target);
          break;
        case NfaTransition::Type::kAnyEdge:
        case NfaTransition::Type::kEdgeForward:
        case NfaTransition::Type::kEdgeBackward: {
          auto try_entries = [&](const AdjacencyEntry* begin,
                                 const AdjacencyEntry* end) {
            for (const AdjacencyEntry* e = begin; e != end; ++e) {
              if (nfa.EdgeAdmitted(t, *e)) push(e->neighbor, t.target);
            }
          };
          if (t.type != NfaTransition::Type::kEdgeBackward) {
            auto [b, e] = adj.Out(n);
            try_entries(b, e);
          }
          if (t.type != NfaTransition::Type::kEdgeForward) {
            auto [b, e] = adj.In(n);
            try_entries(b, e);
          }
          break;
        }
        case NfaTransition::Type::kViewRef: {
          GCORE_ASSIGN_OR_RETURN(const PathViewRelation* rel,
                                 resolver.Resolve(*t.label));
          for (const PathViewSegment& seg : rel->SegmentsFrom(adj.IdOf(n))) {
            const DenseNodeIndex dst = adj.Find(seg.dst);
            if (dst != adj.num_nodes()) push(dst, t.target);
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

bool BodyConformsToRegex(const PathBody& body, const Nfa& nfa,
                         const PathPropertyGraph& graph) {
  if (body.nodes.empty()) return false;
  // Zero-width closure at a node: epsilon transitions plus node tests
  // satisfied by the node's labels.
  auto closure_at = [&](std::vector<bool>& states, NodeId node) {
    const LabelSet& labels = graph.Labels(node);
    bool changed = true;
    while (changed) {
      changed = false;
      for (NfaStateId s = 0; s < nfa.num_states(); ++s) {
        if (!states[s]) continue;
        for (const NfaTransition& t : nfa.TransitionsFrom(s)) {
          const bool zero_width =
              t.type == NfaTransition::Type::kEpsilon ||
              (t.type == NfaTransition::Type::kNodeTest &&
               labels.Contains(t.label));
          if (zero_width && !states[t.target]) {
            states[t.target] = true;
            changed = true;
          }
        }
      }
    }
  };

  std::vector<bool> states(nfa.num_states(), false);
  states[nfa.start()] = true;
  closure_at(states, body.nodes.front());

  for (size_t i = 0; i < body.edges.size(); ++i) {
    const EdgeId edge = body.edges[i];
    const auto [s, d] = graph.EdgeEndpoints(edge);
    const bool forward = s == body.nodes[i] && d == body.nodes[i + 1];
    const LabelSet& labels = graph.Labels(edge);
    std::vector<bool> next(nfa.num_states(), false);
    for (NfaStateId q = 0; q < nfa.num_states(); ++q) {
      if (!states[q]) continue;
      for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
        const bool matches =
            t.type == NfaTransition::Type::kAnyEdge ||
            (t.type == NfaTransition::Type::kEdgeForward && forward &&
             labels.Contains(t.label)) ||
            (t.type == NfaTransition::Type::kEdgeBackward && !forward &&
             labels.Contains(t.label));
        if (matches) next[t.target] = true;
      }
    }
    states = std::move(next);
    closure_at(states, body.nodes[i + 1]);
  }
  return states[nfa.accept()];
}

Result<std::set<NodeId>> ReachableFrom(const PathSearchContext& ctx,
                                       NodeId src) {
  std::vector<bool> marks;
  GCORE_RETURN_NOT_OK(ProductReachability(ctx, src, &marks));
  const size_t num_states = ctx.nfa->num_states();
  const NfaStateId accept = ctx.nfa->accept();
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  std::set<NodeId> out;
  // Dense indices ascend with node id: end-hinted insertion is O(1).
  for (size_t n = 0; n < adj.num_nodes(); ++n) {
    if (marks[n * num_states + accept]) {
      out.emplace_hint(out.end(), adj.IdOf(static_cast<DenseNodeIndex>(n)));
    }
  }
  return out;
}

namespace {

/// One side of the bidirectional search: marks, the current BFS level and
/// the expansion rule (forward product moves vs. reversed-NFA backward
/// moves — backward edge transitions scan the opposite adjacency spans,
/// and view refs consume segments dst-to-src via ViewBackIndex).
class BidirSide {
 public:
  BidirSide(const PathSearchContext& ctx, const Nfa& nfa, bool backward)
      : adj_(ctx.snap->adjacency()),
        nfa_(nfa, *ctx.snap),
        resolver_(ctx.views),
        backward_(backward),
        marks_(adj_.num_nodes() * nfa.num_states(), false) {}

  const std::vector<bool>& marks() const { return marks_; }
  size_t frontier_size() const { return frontier_.size(); }
  bool exhausted() const { return frontier_.empty(); }

  /// Seeds (n, q); returns true when the other side already marked it.
  bool Seed(DenseNodeIndex n, NfaStateId q, const BidirSide& other) {
    return Mark(n, q, other);
  }

  /// Expands one BFS level; returns true on a meet with `other`, sets
  /// `error` (and stops) on a view-resolution failure.
  bool ExpandLevel(const BidirSide& other, Status* error) {
    std::vector<std::pair<DenseNodeIndex, NfaStateId>> level;
    level.swap(frontier_);
    for (auto [n, q] : level) {
      for (const CompiledTransition& t : nfa_.TransitionsFrom(q)) {
        switch (t.type) {
          case NfaTransition::Type::kEpsilon:
            if (Mark(n, t.target, other)) return true;
            break;
          case NfaTransition::Type::kNodeTest:
            if (nfa_.NodeAdmitted(t, n) && Mark(n, t.target, other)) {
              return true;
            }
            break;
          case NfaTransition::Type::kAnyEdge:
          case NfaTransition::Type::kEdgeForward:
          case NfaTransition::Type::kEdgeBackward: {
            // Forward side: kEdgeForward scans Out, kEdgeBackward scans
            // In, kAnyEdge both. The reversed automaton's transitions
            // mean "this edge was crossed towards me", so the backward
            // side swaps the spans.
            const bool scan_out =
                t.type != (backward_ ? NfaTransition::Type::kEdgeForward
                                     : NfaTransition::Type::kEdgeBackward);
            const bool scan_in =
                t.type != (backward_ ? NfaTransition::Type::kEdgeBackward
                                     : NfaTransition::Type::kEdgeForward);
            if (scan_out) {
              auto [b, e] = adj_.Out(n);
              for (const AdjacencyEntry* it = b; it != e; ++it) {
                if (nfa_.EdgeAdmitted(t, *it) &&
                    Mark(it->neighbor, t.target, other)) {
                  return true;
                }
              }
            }
            if (scan_in) {
              auto [b, e] = adj_.In(n);
              for (const AdjacencyEntry* it = b; it != e; ++it) {
                if (nfa_.EdgeAdmitted(t, *it) &&
                    Mark(it->neighbor, t.target, other)) {
                  return true;
                }
              }
            }
            break;
          }
          case NfaTransition::Type::kViewRef: {
            auto rel = resolver_.Resolve(*t.label);
            if (!rel.ok()) {
              *error = rel.status();
              return false;
            }
            if (backward_) {
              for (const PathViewSegment* seg :
                   back_index_.SegmentsInto(**rel, adj_.IdOf(n))) {
                const DenseNodeIndex src = adj_.Find(seg->src);
                if (src != adj_.num_nodes() && Mark(src, t.target, other)) {
                  return true;
                }
              }
            } else {
              for (const PathViewSegment& seg :
                   (*rel)->SegmentsFrom(adj_.IdOf(n))) {
                const DenseNodeIndex dst = adj_.Find(seg.dst);
                if (dst != adj_.num_nodes() && Mark(dst, t.target, other)) {
                  return true;
                }
              }
            }
            break;
          }
        }
      }
    }
    return false;
  }

 private:
  bool Mark(DenseNodeIndex n, NfaStateId q, const BidirSide& other) {
    const size_t idx = static_cast<size_t>(n) * nfa_.num_states() + q;
    if (!marks_[idx]) {
      marks_[idx] = true;
      frontier_.emplace_back(n, q);
    }
    // State ids are shared between the automaton and its reversal, so a
    // pair marked on both sides splices a conforming prefix and suffix.
    return other.marks_[idx];
  }

  const AdjacencyIndex& adj_;
  CompiledNfa nfa_;
  ViewResolver resolver_;
  ViewBackIndex back_index_;
  bool backward_;
  std::vector<bool> marks_;
  std::vector<std::pair<DenseNodeIndex, NfaStateId>> frontier_;
};

}  // namespace

Result<bool> IsReachable(const PathSearchContext& ctx, NodeId src,
                         NodeId dst) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const DenseNodeIndex s = adj.Find(src);
  if (s == adj.num_nodes()) {
    return Status::InvalidArgument("source node is not in the graph");
  }
  const DenseNodeIndex d = adj.Find(dst);
  if (d == adj.num_nodes()) return false;

  const Nfa reversed = ctx.nfa->Reversed();
  BidirSide fwd(ctx, *ctx.nfa, /*backward=*/false);
  BidirSide bwd(ctx, reversed, /*backward=*/true);
  if (fwd.Seed(s, ctx.nfa->start(), bwd)) return true;
  if (bwd.Seed(d, reversed.start(), fwd)) return true;

  // Alternate expanding the smaller frontier; a side running dry has
  // computed its full fixpoint, so no meet means no conforming walk.
  Status error = Status::OK();
  while (!fwd.exhausted() && !bwd.exhausted()) {
    const bool meet = fwd.frontier_size() <= bwd.frontier_size()
                          ? fwd.ExpandLevel(bwd, &error)
                          : bwd.ExpandLevel(fwd, &error);
    if (!error.ok()) return error;
    if (meet) return true;
  }
  return false;
}

}  // namespace gcore
