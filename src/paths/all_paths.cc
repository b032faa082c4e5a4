#include "paths/all_paths.h"

#include <deque>

#include "graph/snapshot.h"
#include "paths/frontier.h"
#include "paths/product_bfs.h"

namespace gcore {

namespace {

/// Backward product reachability: marks (node, state) pairs from which
/// (dst, accept) is reachable. Implemented as forward reachability over
/// the reversed NFA with flipped edge-direction semantics; view segments
/// are consumed dst-to-src through a ViewBackIndex instead of rescanning
/// every segment per visited node.
Status BackwardProductReachability(const PathSearchContext& ctx, NodeId dst,
                                   std::vector<bool>* marks) {
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const Nfa rev = ctx.nfa->Reversed();
  const CompiledNfa nfa(rev, *ctx.snap);
  const size_t num_states = nfa.num_states();
  marks->assign(adj.num_nodes() * num_states, false);

  std::deque<std::pair<DenseNodeIndex, NfaStateId>> queue;
  auto push = [&](DenseNodeIndex n, NfaStateId q) {
    const size_t idx = static_cast<size_t>(n) * num_states + q;
    if ((*marks)[idx]) return;
    (*marks)[idx] = true;
    queue.emplace_back(n, q);
  };
  push(adj.IndexOf(dst), rev.start());  // rev.start == original accept

  ViewBackIndex back_index;
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
          // Walking backwards: a forward-label transition was taken along
          // an edge *into* the current node, so scan In(); a backward-label
          // transition scans Out().
          auto try_entries = [&](const AdjacencyEntry* begin,
                                 const AdjacencyEntry* end) {
            for (const AdjacencyEntry* e = begin; e != end; ++e) {
              if (nfa.EdgeAdmitted(t, *e)) push(e->neighbor, t.target);
            }
          };
          if (t.type != NfaTransition::Type::kEdgeBackward) {
            auto [b, e] = adj.In(n);
            try_entries(b, e);
          }
          if (t.type != NfaTransition::Type::kEdgeForward) {
            auto [b, e] = adj.Out(n);
            try_entries(b, e);
          }
          break;
        }
        case NfaTransition::Type::kViewRef: {
          if (ctx.views == nullptr) {
            return Status::EvaluationError(
                "regex references PATH view '~" + *t.label +
                "' but no views are in scope");
          }
          auto rel = ctx.views->Lookup(*t.label);
          if (!rel.ok()) return rel.status();
          for (const PathViewSegment* seg :
               back_index.SegmentsInto(**rel, adj.IdOf(n))) {
            const DenseNodeIndex src = adj.Find(seg->src);
            if (src != adj.num_nodes()) push(src, t.target);
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<PathProjection> AllPathsProjection(const PathSearchContext& ctx,
                                          NodeId src, NodeId dst) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  if (!adj.Contains(src) || !adj.Contains(dst)) {
    return Status::InvalidArgument("endpoints are not in the graph");
  }

  std::vector<bool> fwd;
  GCORE_RETURN_NOT_OK(ProductReachability(ctx, src, &fwd));
  std::vector<bool> bwd;
  GCORE_RETURN_NOT_OK(BackwardProductReachability(ctx, dst, &bwd));

  const CompiledNfa nfa(*ctx.nfa, *ctx.snap);
  const size_t num_states = nfa.num_states();
  auto useful = [&](DenseNodeIndex n, NfaStateId q) {
    const size_t idx = static_cast<size_t>(n) * num_states + q;
    return fwd[idx] && bwd[idx];
  };

  PathProjection out;

  // An edge participates in a conforming walk iff some edge transition
  // (v, q) -> (u, q') crosses it with (v, q) forward-reachable and
  // (u, q') backward-reachable.
  for (size_t ni = 0; ni < adj.num_nodes(); ++ni) {
    const DenseNodeIndex n = static_cast<DenseNodeIndex>(ni);
    const NodeId here = adj.IdOf(n);
    for (NfaStateId q = 0; q < num_states; ++q) {
      if (!fwd[ni * num_states + q]) continue;
      for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
        switch (t.type) {
          case NfaTransition::Type::kEpsilon:
            if (bwd[ni * num_states + t.target] && useful(n, q)) {
              out.nodes.insert(here);
            }
            break;
          case NfaTransition::Type::kNodeTest:
            if (nfa.NodeAdmitted(t, n) && bwd[ni * num_states + t.target]) {
              out.nodes.insert(here);
            }
            break;
          case NfaTransition::Type::kAnyEdge:
          case NfaTransition::Type::kEdgeForward:
          case NfaTransition::Type::kEdgeBackward: {
            auto try_entries = [&](const AdjacencyEntry* begin,
                                   const AdjacencyEntry* end) {
              for (const AdjacencyEntry* e = begin; e != end; ++e) {
                if (!nfa.EdgeAdmitted(t, *e)) continue;
                if (!bwd[static_cast<size_t>(e->neighbor) * num_states +
                         t.target]) {
                  continue;
                }
                out.edges.insert(e->edge);
                out.nodes.insert(here);
                out.nodes.insert(adj.IdOf(e->neighbor));
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
            if (ctx.views == nullptr) break;
            auto rel = ctx.views->Lookup(*t.label);
            if (!rel.ok()) break;
            for (const PathViewSegment& seg : (*rel)->SegmentsFrom(here)) {
              const DenseNodeIndex d = adj.Find(seg.dst);
              if (d == adj.num_nodes() ||
                  !bwd[static_cast<size_t>(d) * num_states + t.target]) {
                continue;
              }
              out.nodes.insert(seg.body.nodes.begin(), seg.body.nodes.end());
              out.edges.insert(seg.body.edges.begin(), seg.body.edges.end());
            }
            break;
          }
        }
      }
    }
  }

  // The endpoints themselves participate when any walk exists at all —
  // read off the forward sweep directly instead of a third traversal.
  const bool reachable =
      fwd[static_cast<size_t>(adj.IndexOf(dst)) * num_states +
          ctx.nfa->accept()];
  if (reachable) {
    out.nodes.insert(src);
    out.nodes.insert(dst);
  } else {
    out.nodes.clear();
    out.edges.clear();
  }
  return out;
}

}  // namespace gcore
