#include "paths/k_shortest.h"

#include <cstdint>
#include <queue>

#include "graph/snapshot.h"
#include "paths/frontier.h"

namespace gcore {

namespace {

/// What a label consumed to reach its (node, state).
struct TraversalStep {
  enum class Kind : uint8_t { kNone, kEdge, kViewSegment };
  Kind kind = Kind::kNone;
  EdgeId edge;                              // kEdge
  const PathViewSegment* segment = nullptr;  // kViewSegment
};

/// One Dijkstra label in the product space.
struct Label {
  double cost = 0.0;
  DenseNodeIndex node = 0;
  NfaStateId state = 0;
  int32_t parent = -1;  // index into the label arena
  TraversalStep step;
};

/// Min-heap entry; ties broken by insertion order for determinism.
struct HeapEntry {
  double cost;
  uint32_t seq;
  uint32_t label;
  friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.seq > b.seq;
  }
};

class ProductDijkstra {
 public:
  ProductDijkstra(const PathSearchContext& ctx, NodeId src, size_t k,
                  std::optional<NodeId> single_dst)
      : ctx_(ctx),
        adj_(ctx.snap->adjacency()),
        nfa_(*ctx.nfa, *ctx.snap),
        k_(k),
        single_dst_(single_dst),
        num_states_(ctx.nfa->num_states()),
        src_idx_(adj_.IndexOf(src)) {}

  Result<std::map<NodeId, std::vector<FoundPath>>> Run() {
    const size_t product_size = adj_.num_nodes() * num_states_;
    pops_.assign(product_size, 0);

    PushLabel(Label{0.0, src_idx_, ctx_.nfa->start(), -1, {}});

    std::map<NodeId, std::vector<FoundPath>> results;
    size_t single_dst_found = 0;

    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      heap_.pop();
      const Label lab = labels_[top.label];
      uint8_t& pop_count = pops_[ProductIndex(lab.node, lab.state)];
      if (pop_count >= k_) continue;
      ++pop_count;

      if (lab.state == ctx_.nfa->accept()) {
        const NodeId dst = adj_.IdOf(lab.node);
        std::vector<FoundPath>& found = results[dst];
        if (found.size() < k_) {
          FoundPath path = Reconstruct(top.label);
          // NFA ambiguity can reach the same walk through different state
          // sequences; keep distinct bodies only.
          bool duplicate = false;
          for (const FoundPath& existing : found) {
            if (existing.body == path.body) {
              duplicate = true;
              break;
            }
          }
          if (!duplicate) {
            found.push_back(std::move(path));
            if (single_dst_ && dst == *single_dst_ &&
                ++single_dst_found >= k_) {
              break;
            }
          }
        }
      }

      GCORE_RETURN_NOT_OK(Expand(top.label));
    }
    return results;
  }

 private:
  size_t ProductIndex(DenseNodeIndex node, NfaStateId state) const {
    return static_cast<size_t>(node) * num_states_ + state;
  }

  void PushLabel(Label lab) {
    labels_.push_back(lab);
    const uint32_t idx = static_cast<uint32_t>(labels_.size() - 1);
    heap_.push(HeapEntry{lab.cost, idx, idx});
  }

  /// True if following zero-width steps from `label_idx` upward revisits
  /// (node, state) — prevents epsilon cycles from flooding the pop budget.
  bool ZeroWidthCycle(int32_t label_idx, DenseNodeIndex node,
                      NfaStateId state) const {
    int32_t cur = label_idx;
    while (cur >= 0) {
      const Label& l = labels_[cur];
      if (l.node == node && l.state == state) return true;
      if (l.step.kind != TraversalStep::Kind::kNone) break;  // consumed input
      cur = l.parent;
    }
    return false;
  }

  Status Expand(uint32_t label_idx) {
    // Copy: pushing labels may reallocate the arena.
    const Label lab = labels_[label_idx];
    const NodeId here = adj_.IdOf(lab.node);

    for (const CompiledTransition& t : nfa_.TransitionsFrom(lab.state)) {
      switch (t.type) {
        case NfaTransition::Type::kEpsilon: {
          if (ZeroWidthCycle(label_idx, lab.node, t.target)) break;
          PushLabel(Label{lab.cost, lab.node, t.target,
                          static_cast<int32_t>(label_idx), {}});
          break;
        }
        case NfaTransition::Type::kNodeTest: {
          if (!nfa_.NodeAdmitted(t, lab.node)) break;
          if (ZeroWidthCycle(label_idx, lab.node, t.target)) break;
          PushLabel(Label{lab.cost, lab.node, t.target,
                          static_cast<int32_t>(label_idx), {}});
          break;
        }
        case NfaTransition::Type::kAnyEdge:
        case NfaTransition::Type::kEdgeForward:
        case NfaTransition::Type::kEdgeBackward: {
          ExpandEdges(label_idx, lab, t);
          break;
        }
        case NfaTransition::Type::kViewRef: {
          if (ctx_.views == nullptr) {
            return Status::EvaluationError(
                "regex references PATH view '~" + *t.label +
                "' but no views are in scope");
          }
          GCORE_ASSIGN_OR_RETURN(const PathViewRelation* rel,
                                 ctx_.views->Lookup(*t.label));
          for (const PathViewSegment& seg : rel->SegmentsFrom(here)) {
            const DenseNodeIndex dst = adj_.Find(seg.dst);
            if (dst == adj_.num_nodes()) continue;
            TraversalStep step;
            step.kind = TraversalStep::Kind::kViewSegment;
            step.segment = &seg;
            PushLabel(Label{lab.cost + seg.cost, dst, t.target,
                            static_cast<int32_t>(label_idx), step});
          }
          break;
        }
      }
    }
    return Status::OK();
  }

  void ExpandEdges(uint32_t label_idx, const Label& lab,
                   const CompiledTransition& t) {
    auto try_entries = [&](const AdjacencyEntry* begin,
                           const AdjacencyEntry* end) {
      for (const AdjacencyEntry* e = begin; e != end; ++e) {
        if (!nfa_.EdgeAdmitted(t, *e)) continue;
        TraversalStep step;
        step.kind = TraversalStep::Kind::kEdge;
        step.edge = e->edge;
        PushLabel(Label{lab.cost + 1.0, e->neighbor, t.target,
                        static_cast<int32_t>(label_idx), step});
      }
    };
    if (t.type == NfaTransition::Type::kAnyEdge ||
        t.type == NfaTransition::Type::kEdgeForward) {
      auto [b, e] = adj_.Out(lab.node);
      try_entries(b, e);
    }
    if (t.type == NfaTransition::Type::kAnyEdge ||
        t.type == NfaTransition::Type::kEdgeBackward) {
      auto [b, e] = adj_.In(lab.node);
      try_entries(b, e);
    }
  }

  FoundPath Reconstruct(uint32_t label_idx) const {
    std::vector<const Label*> chain;
    for (int32_t cur = static_cast<int32_t>(label_idx); cur >= 0;
         cur = labels_[cur].parent) {
      chain.push_back(&labels_[cur]);
    }
    FoundPath out;
    out.cost = labels_[label_idx].cost;
    out.body.nodes.push_back(adj_.IdOf(src_idx_));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Label& l = **it;
      switch (l.step.kind) {
        case TraversalStep::Kind::kNone:
          break;
        case TraversalStep::Kind::kEdge:
          // The label sits at the neighbor the edge was crossed to.
          out.body.edges.push_back(l.step.edge);
          out.body.nodes.push_back(adj_.IdOf(l.node));
          break;
        case TraversalStep::Kind::kViewSegment: {
          const PathBody& seg = l.step.segment->body;
          // Junction node is already present; append the rest.
          for (size_t i = 0; i < seg.edges.size(); ++i) {
            out.body.edges.push_back(seg.edges[i]);
            out.body.nodes.push_back(seg.nodes[i + 1]);
          }
          break;
        }
      }
    }
    return out;
  }

  const PathSearchContext& ctx_;
  const AdjacencyIndex& adj_;
  const CompiledNfa nfa_;
  const size_t k_;
  const std::optional<NodeId> single_dst_;
  const size_t num_states_;
  const DenseNodeIndex src_idx_;

  std::vector<Label> labels_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::vector<uint8_t> pops_;
};

Status ValidateContext(const PathSearchContext& ctx, NodeId src, size_t k) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1 for k-shortest search");
  }
  if (k > 255) {
    return Status::InvalidArgument("k-shortest supports k <= 255");
  }
  if (!ctx.snap->adjacency().Contains(src)) {
    return Status::InvalidArgument("source node is not in the graph");
  }
  return Status::OK();
}

}  // namespace

Result<std::map<NodeId, std::vector<FoundPath>>> KShortestPathsFrom(
    const PathSearchContext& ctx, NodeId src, size_t k) {
  GCORE_RETURN_NOT_OK(ValidateContext(ctx, src, k));
  ProductDijkstra search(ctx, src, k, std::nullopt);
  return search.Run();
}

Result<std::vector<FoundPath>> KShortestPaths(const PathSearchContext& ctx,
                                              NodeId src, NodeId dst,
                                              size_t k) {
  GCORE_RETURN_NOT_OK(ValidateContext(ctx, src, k));
  if (!ctx.snap->adjacency().Contains(dst)) {
    return Status::InvalidArgument("destination node is not in the graph");
  }
  ProductDijkstra search(ctx, src, k, dst);
  GCORE_ASSIGN_OR_RETURN(auto all, search.Run());
  auto it = all.find(dst);
  if (it == all.end()) return std::vector<FoundPath>{};
  return std::move(it->second);
}

Result<std::optional<FoundPath>> ShortestPath(const PathSearchContext& ctx,
                                              NodeId src, NodeId dst) {
  GCORE_ASSIGN_OR_RETURN(auto paths, KShortestPaths(ctx, src, dst, 1));
  if (paths.empty()) return std::optional<FoundPath>{};
  return std::optional<FoundPath>{std::move(paths.front())};
}

Result<std::map<NodeId, FoundPath>> ShortestPathsFrom(
    const PathSearchContext& ctx, NodeId src) {
  GCORE_ASSIGN_OR_RETURN(auto all, KShortestPathsFrom(ctx, src, 1));
  std::map<NodeId, FoundPath> out;
  for (auto& [dst, paths] : all) {
    out.emplace(dst, std::move(paths.front()));
  }
  return out;
}

}  // namespace gcore
