#include "graph/adjacency.h"

#include <algorithm>
#include <unordered_map>

namespace gcore {

AdjacencyIndex::AdjacencyIndex(const PathPropertyGraph& graph) {
  node_ids_ = graph.NodeIds();  // already ascending (map iteration)
  std::unordered_map<NodeId, DenseNodeIndex> index_of;
  index_of.reserve(node_ids_.size());
  for (size_t i = 0; i < node_ids_.size(); ++i) {
    index_of.emplace(node_ids_[i], static_cast<DenseNodeIndex>(i));
  }

  const size_t n = node_ids_.size();
  std::vector<uint32_t> out_deg(n, 0);
  std::vector<uint32_t> in_deg(n, 0);
  graph.ForEachEdge([&](EdgeId, NodeId src, NodeId dst) {
    ++out_deg[index_of[src]];
    ++in_deg[index_of[dst]];
  });

  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    out_offsets_[i + 1] = out_offsets_[i] + out_deg[i];
    in_offsets_[i + 1] = in_offsets_[i] + in_deg[i];
  }
  out_entries_.resize(out_offsets_[n]);
  in_entries_.resize(in_offsets_[n]);

  // Dense edge numbering: ascending edge-id order, the same rule
  // GraphSnapshot::BuildEdges applies — the two numberings must agree so
  // entry.edge_dense indexes snapshot label spans and property columns.
  std::vector<EdgeId> edge_ids;
  edge_ids.reserve(graph.NumEdges());
  graph.ForEachEdge([&](EdgeId e, NodeId, NodeId) { edge_ids.push_back(e); });
  std::sort(edge_ids.begin(), edge_ids.end());
  auto dense_edge = [&](EdgeId e) {
    return static_cast<DenseEdgeIndex>(
        std::lower_bound(edge_ids.begin(), edge_ids.end(), e) -
        edge_ids.begin());
  };

  std::vector<uint32_t> out_pos(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<uint32_t> in_pos(in_offsets_.begin(), in_offsets_.end() - 1);
  graph.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    const DenseNodeIndex s = index_of[src];
    const DenseNodeIndex d = index_of[dst];
    const DenseEdgeIndex de = dense_edge(e);
    out_entries_[out_pos[s]++] = AdjacencyEntry{d, de, e, /*forward=*/true};
    in_entries_[in_pos[d]++] = AdjacencyEntry{s, de, e, /*forward=*/false};
  });

  // Deterministic neighbor order: by neighbor index, then edge id. This is
  // what makes "the" shortest path well-defined across runs (Appendix A.1
  // footnote 4 allows any fixed criterion).
  auto cmp = [](const AdjacencyEntry& a, const AdjacencyEntry& b) {
    if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
    return a.edge < b.edge;
  };
  for (size_t i = 0; i < n; ++i) {
    std::sort(out_entries_.begin() + out_offsets_[i],
              out_entries_.begin() + out_offsets_[i + 1], cmp);
    std::sort(in_entries_.begin() + in_offsets_[i],
              in_entries_.begin() + in_offsets_[i + 1], cmp);
  }

  view_.node_ids = node_ids_.data();
  view_.num_nodes = n;
  view_.num_edges = graph.NumEdges();
  view_.out_offsets = out_offsets_.data();
  view_.out_entries = out_entries_.data();
  view_.in_offsets = in_offsets_.data();
  view_.in_entries = in_entries_.data();
}

DenseNodeIndex AdjacencyIndex::IndexOf(NodeId id) const {
  const NodeId* begin = view_.node_ids;
  const NodeId* end = begin + view_.num_nodes;
  return static_cast<DenseNodeIndex>(std::lower_bound(begin, end, id) - begin);
}

DenseNodeIndex AdjacencyIndex::Find(NodeId id) const {
  const DenseNodeIndex idx = IndexOf(id);
  return idx < view_.num_nodes && view_.node_ids[idx] == id
             ? idx
             : static_cast<DenseNodeIndex>(view_.num_nodes);
}

bool AdjacencyIndex::Contains(NodeId id) const {
  const NodeId* begin = view_.node_ids;
  const NodeId* end = begin + view_.num_nodes;
  return std::binary_search(begin, end, id);
}

AdjacencyIndex::EntrySpan AdjacencyIndex::EdgesTo(EntrySpan span,
                                                  DenseNodeIndex neighbor) {
  const AdjacencyEntry* lo = std::lower_bound(
      span.begin, span.end, neighbor,
      [](const AdjacencyEntry& e, DenseNodeIndex n) { return e.neighbor < n; });
  const AdjacencyEntry* hi = std::upper_bound(
      lo, span.end, neighbor,
      [](DenseNodeIndex n, const AdjacencyEntry& e) { return n < e.neighbor; });
  return {lo, hi};
}

}  // namespace gcore
