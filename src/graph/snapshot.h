// The immutable columnar snapshot the read path executes against.
//
// A PathPropertyGraph stores Definition 2.1 directly — ordered maps from
// ids to label sets and per-key ValueSets — which is the right shape for
// construction and CONSTRUCT-time mutation, but pointer-chases on every
// admission check. A GraphSnapshot freezes one PPG into scan-friendly
// arrays (the Katana PropertyGraph layout: compact CSR topology plus
// typed property columns):
//
//   * dense node/edge numbering (ascending id order, shared with the
//     embedded AdjacencyIndex, so path finders and the snapshot agree on
//     dense indices);
//   * interned label ids with per-object sorted label-id spans, and a
//     per-label sorted node/edge index list — NodeScan (a:Person)
//     iterates one contiguous span instead of filtering every node;
//   * one typed property column per (object class, key): a kind tag plus
//     a 64-bit slot per object, mirroring BindingTable's column layout,
//     with multi-valued / non-inlinable ValueSets out of line in an
//     overflow region (the FSET(V) semantics of Section 2 survive
//     unchanged — a column cell *is* σ(x, k), just stored columnar).
//
// Storage: one flat arena. Every array above lives as an offset-addressed
// region inside a single contiguous byte buffer, described by a versioned
// header + region table at the buffer's head (see snapshot.cc for the
// layout and ROADMAP.md for the format policy). The freeze builds the
// regions and packs them once; accessors read raw pointer + count members
// aimed into the buffer. Name lookups that used to hash (label names,
// interned strings, column keys) binary-search sorted offset tables in
// place. Because the arena is self-contained and position-independent,
// the image is directly serializable: snapshot_io.h writes it to disk
// with a checksummed file header and re-attaches a GraphSnapshot over
// either a read-back buffer or a zero-copy mmap — through the same
// accessor surface, so the matcher, the multiway join, the path kernels
// and the pushed filters never see the difference. Stored paths (δ, path
// labels/properties) ride along in an encoded region so a loaded image
// can reconstruct the full PPG.
//
// Invalidation: a snapshot is valid for exactly the graph state it was
// built from. GraphCatalog caches one snapshot per registered graph next
// to its GraphStats and drops both on RegisterGraph/DropGraph; the
// Matcher's per-query cache keys by graph pointer and dies with the
// query. CONSTRUCT and the builder APIs keep mutating the PPG — they
// never see a snapshot.
#ifndef GCORE_GRAPH_SNAPSHOT_H_
#define GCORE_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.h"
#include "graph/adjacency.h"
#include "graph/ppg.h"

namespace gcore {

// DenseEdgeIndex (adjacency.h) is the snapshot's edge numbering too:
// both number edges by ascending id, and AdjacencyEntry::edge_dense is
// built by the same rule, so entries index snapshot arrays directly.

/// The backing bytes of a GraphSnapshot's flat arena: a pointer + size
/// over storage kept alive by a type-erased owner (a heap buffer for
/// freshly frozen or read-back images, an mmap'ed file for zero-copy
/// loads — the owner's deleter unmaps). Copies share the owner.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  ArenaBuffer(std::shared_ptr<const void> owner, const uint8_t* data,
              size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  /// Wraps a heap buffer, taking ownership.
  static ArenaBuffer Own(std::vector<uint8_t> bytes) {
    auto owner = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
    const uint8_t* data = owner->data();
    const size_t size = owner->size();
    return ArenaBuffer(std::move(owner), data, size);
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

class GraphSnapshot {
 public:
  /// Sentinel for "label/string not interned in this snapshot".
  static constexpr uint32_t kNoLabel = ~uint32_t{0};
  static constexpr uint32_t kNoString = ~uint32_t{0};
  /// Sentinel for "edge id not a member of this snapshot".
  static constexpr DenseEdgeIndex kNoEdge = ~DenseEdgeIndex{0};

  /// Cell tag of a property column. kAbsent is σ(x, k) = ∅; the middle
  /// kinds inline a singleton set into the 64-bit slot; kOverflow points
  /// the slot at an out-of-line ValueSet (multi-valued sets, plus rare
  /// singletons the slot cannot encode, e.g. non-calendar dates).
  enum class PropKind : uint8_t {
    kAbsent = 0,
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,  // slot = interned string-pool id
    kDate,    // slot = days since epoch
    kOverflow,
  };

  /// Borrowed view over a snapshot-owned array.
  template <typename T>
  struct Span {
    const T* data = nullptr;
    size_t count = 0;
    const T* begin() const { return data; }
    const T* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    T operator[](size_t i) const { return data[i]; }
  };

  /// One property key over one object class: a kind tag and a 64-bit
  /// slot per dense object index (BindingTable's column layout), heavy
  /// cells out of line. The kind/slot arrays live in the arena; the
  /// overflow ValueSets are decoded from their arena region at attach
  /// time (rare cells, kept materialized so OverflowAt stays a
  /// reference).
  class PropertyColumn {
   public:
    size_t size() const { return size_; }
    PropKind KindAt(size_t i) const {
      return static_cast<PropKind>(kinds_[i]);
    }
    bool AbsentAt(size_t i) const { return KindAt(i) == PropKind::kAbsent; }
    uint64_t SlotAt(size_t i) const { return slots_[i]; }
    bool BoolAt(size_t i) const { return slots_[i] != 0; }
    int64_t IntAt(size_t i) const { return static_cast<int64_t>(slots_[i]); }
    double DoubleAt(size_t i) const;
    int64_t DateDaysAt(size_t i) const {
      return static_cast<int64_t>(slots_[i]);
    }
    uint32_t StringIdAt(size_t i) const {
      return static_cast<uint32_t>(slots_[i]);
    }
    const ValueSet& OverflowAt(size_t i) const {
      return overflow_[slots_[i]];
    }
    /// Cells with a non-empty value set.
    size_t num_carriers() const { return num_carriers_; }

   private:
    friend class GraphSnapshot;
    const uint8_t* kinds_ = nullptr;   // arena region, size_ entries
    const uint64_t* slots_ = nullptr;  // arena region, size_ entries
    size_t size_ = 0;
    std::vector<ValueSet> overflow_;
    size_t num_carriers_ = 0;
  };

  /// Freezes the current state of `graph` into a newly packed arena.
  /// O(graph payload).
  explicit GraphSnapshot(const PathPropertyGraph& graph);

  /// Attaches a snapshot over an existing arena image (the snapshot_io.h
  /// loaders produce these). Validates the header, region table and
  /// intra-region invariants; InvalidArgument on a malformed image. The
  /// image is self-contained: column reads, label spans, topology and the
  /// path kernels need no PPG, and ReconstructGraph rebuilds one for the
  /// evaluation tail that still reads PPGs.
  static Result<std::shared_ptr<GraphSnapshot>> FromArena(ArenaBuffer arena);

  /// The packed image (snapshot_io.h serializes these bytes verbatim).
  const ArenaBuffer& arena() const { return arena_; }

  /// Rebuilds a full PathPropertyGraph — nodes, edges, stored paths,
  /// labels, properties — from the arena. Exact inverse of the freeze:
  /// freezing the reconstruction yields a byte-identical image.
  PathPropertyGraph ReconstructGraph(std::string name = "") const;

  /// The CSR out/in topology (same dense node numbering as the rest of
  /// the snapshot); path finders keep consuming this type directly.
  const AdjacencyIndex& adjacency() const { return adj_; }

  size_t num_nodes() const { return adj_.num_nodes(); }
  size_t num_edges() const { return num_edges_; }
  /// Stored paths carried in the arena's path region (σ/λ/δ of P);
  /// available without a bound PPG.
  size_t num_paths() const { return num_paths_; }

  // --- labels ----------------------------------------------------------------

  /// Labels of nodes, edges and stored paths, interned. Ids are assigned
  /// in sorted name order, so a translated label list is sorted iff the
  /// name list was.
  size_t num_labels() const { return label_names_.size(); }
  const std::string& LabelName(uint32_t id) const { return label_names_[id]; }
  /// kNoLabel when the name occurs nowhere in the graph (binary search
  /// over the sorted name table).
  uint32_t LabelId(const std::string& name) const;

  /// Sorted interned-label ids of one object.
  Span<uint32_t> NodeLabelIds(DenseNodeIndex n) const {
    return {node_label_ids_ + node_label_offsets_[n],
            node_label_offsets_[n + 1] - node_label_offsets_[n]};
  }
  Span<uint32_t> EdgeLabelIds(DenseEdgeIndex e) const {
    return {edge_label_ids_ + edge_label_offsets_[e],
            edge_label_offsets_[e + 1] - edge_label_offsets_[e]};
  }
  bool NodeHasLabel(DenseNodeIndex n, uint32_t label) const;
  bool EdgeHasLabel(DenseEdgeIndex e, uint32_t label) const;

  /// All dense node indices carrying `label`, ascending (== ascending
  /// node id — the order ForEachNode visits); label scans iterate this
  /// span instead of the whole node range. An out-of-range id (kNoLabel,
  /// the LabelId miss sentinel, or a path-only label) yields the empty
  /// span — no node carries it.
  Span<DenseNodeIndex> NodesWithLabel(uint32_t label) const {
    if (label >= num_labels()) return {};
    return {label_nodes_ + label_node_offsets_[label],
            label_node_offsets_[label + 1] - label_node_offsets_[label]};
  }
  Span<DenseEdgeIndex> EdgesWithLabel(uint32_t label) const {
    if (label >= num_labels()) return {};
    return {label_edges_ + label_edge_offsets_[label],
            label_edge_offsets_[label + 1] - label_edge_offsets_[label]};
  }

  // --- edges -----------------------------------------------------------------

  EdgeId EdgeIdOf(DenseEdgeIndex e) const { return edge_ids_[e]; }
  /// Dense index of `id` (binary search over the ascending id array —
  /// no per-edge hash map); requires the edge to be a member.
  DenseEdgeIndex EdgeIndexOf(EdgeId id) const;
  /// Dense index of `id`, or kNoEdge when the edge is not a member.
  DenseEdgeIndex FindEdge(EdgeId id) const;
  DenseNodeIndex EdgeSrc(DenseEdgeIndex e) const { return edge_src_[e]; }
  DenseNodeIndex EdgeDst(DenseEdgeIndex e) const { return edge_dst_[e]; }

  // --- property columns ------------------------------------------------------

  /// Column of `key` over nodes/edges; null when no object carries the
  /// key (σ(x, key) = ∅ for every x). Binary search over the sorted
  /// column directory.
  const PropertyColumn* NodeColumn(const std::string& key) const;
  const PropertyColumn* EdgeColumn(const std::string& key) const;
  /// All columns, sorted by key.
  const std::vector<std::pair<std::string, PropertyColumn>>& node_columns()
      const {
    return node_columns_;
  }
  const std::vector<std::pair<std::string, PropertyColumn>>& edge_columns()
      const {
    return edge_columns_;
  }

  // --- string pool -----------------------------------------------------------
  // The pool is sorted by content (ids are assigned at pack time), so
  // InternedString is a binary search over the offset table — no hash map
  // survives into the arena image.

  size_t num_strings() const { return num_strings_; }
  std::string_view StringAt(uint32_t id) const {
    return {string_blob_ + string_offsets_[id],
            static_cast<size_t>(string_offsets_[id + 1] -
                                string_offsets_[id])};
  }
  /// Pool id of `s`, or kNoString when no cell holds it (pushed
  /// string-equality filters pre-resolve their literal once and then
  /// compare 32-bit ids per row).
  uint32_t InternedString(std::string_view s) const;

  // --- cell semantics --------------------------------------------------------
  // These reproduce ValueSet/Value semantics over encoded cells so the
  // matcher's admission checks and the vectorized pushed filters never
  // materialize a ValueSet.

  /// σ(x, k).Contains(v) on cell `i` of `col`.
  bool CellContains(const PropertyColumn& col, size_t i,
                    const Value& v) const;
  /// σ(x, k) == {v}: true only for a singleton cell equal to `v`.
  bool CellEqualsSingleton(const PropertyColumn& col, size_t i,
                           const Value& v) const;
  /// Value::Compare of the cell's singleton against `v`; `ok` is set
  /// false (and 0 returned) when the cell is not a singleton.
  int CompareCellSingleton(const PropertyColumn& col, size_t i,
                           const Value& v, bool* ok) const;
  /// Materializes the cell as a ValueSet (tests and slow paths only).
  ValueSet CellValues(const PropertyColumn& col, size_t i) const;

  // Copying would duplicate the attach bookkeeping for no caller; moving
  // transfers the arena (pointer members stay valid — they aim at the
  // arena buffer, whose address the move preserves).
  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

 private:
  GraphSnapshot() = default;

  /// Points every accessor member into arena_ (and decodes the small
  /// materialized side tables: label names, column directory, overflow
  /// sets). `trusted` skips the structural validation for freshly packed
  /// arenas.
  Status Attach(bool trusted);

  ArenaBuffer arena_;

  AdjacencyIndex adj_;  // borrowed mode, over the arena

  std::vector<std::string> label_names_;  // id -> name, sorted (decoded)

  // Per-object sorted label-id lists (CSR over objects) — arena regions.
  const uint32_t* node_label_offsets_ = nullptr;
  const uint32_t* node_label_ids_ = nullptr;
  const uint32_t* edge_label_offsets_ = nullptr;
  const uint32_t* edge_label_ids_ = nullptr;

  // Per-label sorted object-index lists (CSR over labels) — arena regions.
  const uint32_t* label_node_offsets_ = nullptr;
  const DenseNodeIndex* label_nodes_ = nullptr;
  const uint32_t* label_edge_offsets_ = nullptr;
  const DenseEdgeIndex* label_edges_ = nullptr;

  const EdgeId* edge_ids_ = nullptr;  // dense -> id, ascending
  const DenseNodeIndex* edge_src_ = nullptr;
  const DenseNodeIndex* edge_dst_ = nullptr;
  size_t num_edges_ = 0;

  // Column directory: sorted by key; kind/slot pointers into the arena.
  std::vector<std::pair<std::string, PropertyColumn>> node_columns_;
  std::vector<std::pair<std::string, PropertyColumn>> edge_columns_;

  // String pool: sorted-content offset table + byte blob.
  const uint64_t* string_offsets_ = nullptr;
  const char* string_blob_ = nullptr;
  size_t num_strings_ = 0;

  // Encoded stored-path region (decoded only by ReconstructGraph).
  const uint8_t* paths_data_ = nullptr;
  size_t paths_size_ = 0;
  size_t num_paths_ = 0;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_SNAPSHOT_H_
