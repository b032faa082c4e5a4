// CSR adjacency topology of a PPG. GraphSnapshot (snapshot.h) embeds one
// and layers label spans and typed property columns over its dense
// numbering; the matcher, the multiway join and the path kernels reach it
// through the snapshot.
//
// Path evaluation (Appendix A.1) is defined over graph traversal in both
// edge directions (an edge e with ρ(e) = (a, b) may be crossed a→b as ℓ or
// b→a as ℓ⁻), so the index stores forward and backward lists. The index
// also fixes the dense node numbering that realizes the paper's "fixed
// lexicographical order on nodes" used to pick deterministic shortest
// paths.
//
// Storage comes in two modes behind one accessor surface:
//   * owned  — built from a PPG; the CSR arrays live in this object's
//     vectors (the freeze builds one and packs it into the arena);
//   * borrowed — a View over arrays that live elsewhere, in practice the
//     flat arena of a GraphSnapshot (freshly frozen or loaded from disk).
// Either way the accessors read raw pointer + count members, so the read
// path is identical; node lookup is a binary search over the ascending
// node-id array (no per-node hash map to serialize).
#ifndef GCORE_GRAPH_ADJACENCY_H_
#define GCORE_GRAPH_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "graph/ppg.h"

namespace gcore {

/// Dense index of a node inside an AdjacencyIndex.
using DenseNodeIndex = uint32_t;

/// Dense index of an edge (ascending edge-id order). The numbering is
/// shared with GraphSnapshot — both number edges by ascending id — so an
/// entry's `edge_dense` indexes directly into the snapshot's label spans
/// and typed property columns.
using DenseEdgeIndex = uint32_t;

/// One traversable half-edge.
struct AdjacencyEntry {
  DenseNodeIndex neighbor;
  /// Dense index of `edge` (fills the alignment hole before `edge`, so
  /// carrying it is free). Path kernels and the multiway join use it for
  /// snapshot label/column admission without a per-edge binary search.
  DenseEdgeIndex edge_dense;
  EdgeId edge;
  /// True when the traversal follows ρ(e) = (here, neighbor); false when it
  /// crosses the edge against its direction (matches ℓ⁻ in path regexes).
  bool forward;
};

/// Immutable CSR over one PPG. Invalidated by any mutation of the graph.
class AdjacencyIndex {
 public:
  /// The raw CSR storage: pointers + counts, either into this index's own
  /// vectors (owned mode) or into a GraphSnapshot arena (borrowed mode).
  /// GraphSnapshot packs an owned index into its arena through this view
  /// and re-attaches one over the arena on load.
  struct View {
    const NodeId* node_ids = nullptr;  // dense -> id, sorted ascending
    size_t num_nodes = 0;
    size_t num_edges = 0;
    const uint32_t* out_offsets = nullptr;  // num_nodes + 1 entries
    const AdjacencyEntry* out_entries = nullptr;
    const uint32_t* in_offsets = nullptr;  // num_nodes + 1 entries
    const AdjacencyEntry* in_entries = nullptr;
  };

  /// Empty index (no nodes); assign a real one before use.
  AdjacencyIndex() = default;
  /// Builds and owns the CSR arrays for the current state of `graph`.
  explicit AdjacencyIndex(const PathPropertyGraph& graph);
  /// Borrows CSR arrays owned elsewhere; `view`'s pointers must outlive
  /// this index (GraphSnapshot guarantees that via its arena buffer).
  explicit AdjacencyIndex(const View& view) : view_(view) {}

  // Moving transfers the owned vectors; the view pointers keep aiming at
  // the vectors' (stable) heap buffers, so defaults are correct. Copying
  // would alias owned storage and is disallowed.
  AdjacencyIndex(AdjacencyIndex&&) = default;
  AdjacencyIndex& operator=(AdjacencyIndex&&) = default;
  AdjacencyIndex(const AdjacencyIndex&) = delete;
  AdjacencyIndex& operator=(const AdjacencyIndex&) = delete;

  /// The raw storage (GraphSnapshot serializes through this).
  const View& view() const { return view_; }

  size_t num_nodes() const { return view_.num_nodes; }
  size_t num_edges() const { return view_.num_edges; }

  /// Dense index of `id`; nodes are numbered in increasing id order.
  /// Binary search over the ascending id array; requires membership.
  DenseNodeIndex IndexOf(NodeId id) const;
  bool Contains(NodeId id) const;
  /// Dense index of `id`, or num_nodes() when it is not a member: one
  /// binary search where Contains + IndexOf take two.
  DenseNodeIndex Find(NodeId id) const;
  NodeId IdOf(DenseNodeIndex idx) const { return view_.node_ids[idx]; }

  /// Outgoing half-edges of `n` in forward direction.
  std::pair<const AdjacencyEntry*, const AdjacencyEntry*> Out(
      DenseNodeIndex n) const {
    return {view_.out_entries + view_.out_offsets[n],
            view_.out_entries + view_.out_offsets[n + 1]};
  }
  /// Incoming half-edges of `n` (traversals against edge direction).
  std::pair<const AdjacencyEntry*, const AdjacencyEntry*> In(
      DenseNodeIndex n) const {
    return {view_.in_entries + view_.in_offsets[n],
            view_.in_entries + view_.in_offsets[n + 1]};
  }

  // --- sorted-neighbor view -------------------------------------------------
  // The CSR entries of each node are ordered by (neighbor, edge), and the
  // dense numbering is ascending in node id, so every Out/In span doubles
  // as a sorted adjacency list keyed by neighbor. The worst-case-optimal
  // multiway join (plan/wcoj.h) intersects these spans directly.

  /// Half-open, (neighbor, edge)-sorted span of half-edges.
  struct EntrySpan {
    const AdjacencyEntry* begin = nullptr;
    const AdjacencyEntry* end = nullptr;
    size_t size() const { return static_cast<size_t>(end - begin); }
    bool empty() const { return begin == end; }
  };

  /// Sorted out-/in-neighbor list of `n` (same storage as Out/In).
  EntrySpan OutSorted(DenseNodeIndex n) const {
    return {view_.out_entries + view_.out_offsets[n],
            view_.out_entries + view_.out_offsets[n + 1]};
  }
  EntrySpan InSorted(DenseNodeIndex n) const {
    return {view_.in_entries + view_.in_offsets[n],
            view_.in_entries + view_.in_offsets[n + 1]};
  }

  /// Entries of `span` connecting to `neighbor` (binary search — the
  /// parallel-edge enumeration step of the multiway intersection).
  static EntrySpan EdgesTo(EntrySpan span, DenseNodeIndex neighbor);

  /// Both traversable half-edge spans of one node, Out before In — the
  /// unconstrained-direction view. Borrowed from the CSR arrays; nothing
  /// is copied or allocated.
  struct NeighborSpans {
    EntrySpan out;
    EntrySpan in;
    size_t size() const { return out.size() + in.size(); }
    bool empty() const { return out.empty() && in.empty(); }
  };

  /// All traversable half-edges of `n` — use when direction is
  /// unconstrained.
  NeighborSpans AllNeighbors(DenseNodeIndex n) const {
    return {OutSorted(n), InSorted(n)};
  }

 private:
  View view_;
  // Owned storage of the PPG-built mode; empty in borrowed mode. view_
  // points into these when non-empty.
  std::vector<NodeId> node_ids_;
  std::vector<uint32_t> out_offsets_;
  std::vector<AdjacencyEntry> out_entries_;
  std::vector<uint32_t> in_offsets_;
  std::vector<AdjacencyEntry> in_entries_;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_ADJACENCY_H_
