#include "graph/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <numeric>
#include <unordered_map>

namespace gcore {

namespace {

/// Ranks mirroring Value::Compare's TypeRank so encoded cells order
/// exactly as materialized Values would.
int RankOfKind(GraphSnapshot::PropKind k) {
  switch (k) {
    case GraphSnapshot::PropKind::kNull:
      return 0;
    case GraphSnapshot::PropKind::kBool:
      return 1;
    case GraphSnapshot::PropKind::kInt:
    case GraphSnapshot::PropKind::kDouble:
      return 2;
    case GraphSnapshot::PropKind::kString:
      return 3;
    case GraphSnapshot::PropKind::kDate:
      return 4;
    default:
      return 5;  // kAbsent/kOverflow never reach the rank comparison
  }
}

int RankOfType(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
    case ValueType::kDate:
      return 4;
  }
  return 5;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

uint64_t EncodeInt(int64_t v) { return static_cast<uint64_t>(v); }

uint64_t EncodeDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// --- arena layout -------------------------------------------------------------
//
// The arena is one contiguous buffer: an ArenaHeader, a region table of
// kNumRegions (offset, size) pairs, then the regions themselves, each
// 8-byte aligned. Fixed-stride regions are raw little-endian arrays read
// in place; the *Blob/Overflow/Paths regions are byte-encoded and decoded
// by the bounds-checked ByteReader below. Bump kArenaVersion on any
// layout change — there is no cross-version migration, a mismatched image
// is rejected and must be re-frozen from its source graph.

enum Region : uint32_t {
  kRNodeIds = 0,       // NodeId[num_nodes], ascending
  kROutOffsets,        // uint32[num_nodes + 1]
  kROutEntries,        // AdjacencyEntry[out_offsets[num_nodes]]
  kRInOffsets,         // uint32[num_nodes + 1]
  kRInEntries,         // AdjacencyEntry[in_offsets[num_nodes]]
  kREdgeIds,           // EdgeId[num_edges], ascending
  kREdgeSrc,           // uint32[num_edges]
  kREdgeDst,           // uint32[num_edges]
  kRLabelNameOffsets,  // uint64[num_labels + 1] into kRLabelNameBlob
  kRLabelNameBlob,     // label names, sorted, concatenated
  kRNodeLabelOffsets,  // uint32[num_nodes + 1]
  kRNodeLabelIds,      // uint32[...], per-object sorted label ids
  kREdgeLabelOffsets,  // uint32[num_edges + 1]
  kREdgeLabelIds,      // uint32[...]
  kRLabelNodeOffsets,  // uint32[num_labels + 1]
  kRLabelNodes,        // uint32[...], per-label ascending node indices
  kRLabelEdgeOffsets,  // uint32[num_labels + 1]
  kRLabelEdges,        // uint32[...]
  kRStringOffsets,     // uint64[num_strings + 1] into kRStringBlob
  kRStringBlob,        // pool strings, sorted by content, concatenated
  kRNodeColKeyOffsets, // uint64[num_node_columns + 1] into the key blob
  kRNodeColKeyBlob,    // column keys, sorted, concatenated
  kRNodeColKinds,      // uint8[num_node_columns * num_nodes]
  kRNodeColSlots,      // uint64[num_node_columns * num_nodes]
  kRNodeColCarriers,   // uint64[num_node_columns]
  kRNodeOverflow,      // byte-encoded per-column ValueSet lists
  kREdgeColKeyOffsets, // uint64[num_edge_columns + 1]
  kREdgeColKeyBlob,    // column keys, sorted, concatenated
  kREdgeColKinds,      // uint8[num_edge_columns * num_edges]
  kREdgeColSlots,      // uint64[num_edge_columns * num_edges]
  kREdgeColCarriers,   // uint64[num_edge_columns]
  kREdgeOverflow,      // byte-encoded per-column ValueSet lists
  kRPaths,             // byte-encoded stored paths (δ, labels, properties)
  kNumRegions,
};

constexpr uint64_t kArenaMagic = 0x31'50414E534347ULL;  // "GCSNAP1\0"
constexpr uint32_t kArenaVersion = 1;

struct ArenaRegionEntry {
  uint64_t offset = 0;
  uint64_t size = 0;
};

struct ArenaHeader {
  uint64_t magic = kArenaMagic;
  uint32_t version = kArenaVersion;
  uint32_t region_count = kNumRegions;
  uint64_t total_size = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t num_labels = 0;
  uint64_t num_strings = 0;
  uint64_t num_paths = 0;
  uint64_t num_node_columns = 0;
  uint64_t num_edge_columns = 0;
  ArenaRegionEntry regions[kNumRegions];
};

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

// --- byte codec for the variable-encoded regions ------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Raw(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  size_t size() const { return bytes_.size(); }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked sequential reader: every accessor returns 0 and latches
/// ok() == false on overrun, so decoding a corrupt region degrades into a
/// detectable failure instead of an out-of-bounds read.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : p_(data), end_(data + size) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  void Raw(void* out, size_t size) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < size) {
      ok_ = false;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, p_, size);
    p_ += size;
  }
  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- freeze-time state --------------------------------------------------------

/// Everything the freeze gathers from the PPG before packing the arena.
struct FreezeState {
  AdjacencyIndex adj;  // owned mode; packed through adj.view()

  std::vector<EdgeId> edge_ids;
  std::vector<uint32_t> edge_src;
  std::vector<uint32_t> edge_dst;

  std::map<std::string, uint32_t> label_index;
  std::vector<std::string> label_names;
  std::vector<uint32_t> node_label_offsets, node_label_ids;
  std::vector<uint32_t> edge_label_offsets, edge_label_ids;
  std::vector<uint32_t> label_node_offsets, label_nodes;
  std::vector<uint32_t> label_edge_offsets, label_edges;

  struct Column {
    std::vector<uint8_t> kinds;
    std::vector<uint64_t> slots;
    std::vector<ValueSet> overflow;
    uint64_t num_carriers = 0;
  };
  std::map<std::string, Column> node_columns;
  std::map<std::string, Column> edge_columns;

  // String pool in first-encounter order; ids are remapped into sorted
  // order at pack time (the arena's InternedString is a binary search).
  std::vector<std::string> strings;
  std::unordered_map<std::string, uint32_t> string_index;

  struct PathRec {
    PathId id;
    const PathBody* body = nullptr;
    std::vector<uint32_t> label_ids;  // sorted (ids follow name order)
    std::vector<std::pair<uint32_t, const ValueSet*>> props;  // key pool id
  };
  std::vector<PathRec> paths;

  uint32_t Intern(const std::string& s) {
    auto [it, fresh] =
        string_index.emplace(s, static_cast<uint32_t>(strings.size()));
    if (fresh) strings.push_back(s);
    return it->second;
  }
};

/// Fills the two CSRs linking objects and labels: per-object sorted
/// label-id spans, and per-label ascending object-index lists.
template <typename ForEachLabels>
void BuildLabelCsr(size_t num_objects, size_t num_labels,
                   ForEachLabels for_each_labels,
                   std::vector<uint32_t>* obj_offsets,
                   std::vector<uint32_t>* obj_ids,
                   std::vector<uint32_t>* label_offsets,
                   std::vector<uint32_t>* label_objs) {
  obj_offsets->assign(num_objects + 1, 0);
  std::vector<uint32_t> label_counts(num_labels, 0);
  for_each_labels([&](size_t obj, uint32_t label) {
    ++(*obj_offsets)[obj + 1];
    ++label_counts[label];
  });
  for (size_t i = 0; i < num_objects; ++i) {
    (*obj_offsets)[i + 1] += (*obj_offsets)[i];
  }
  obj_ids->assign(obj_offsets->back(), 0);
  label_offsets->assign(num_labels + 1, 0);
  for (size_t l = 0; l < num_labels; ++l) {
    (*label_offsets)[l + 1] = (*label_offsets)[l] + label_counts[l];
  }
  label_objs->assign(label_offsets->back(), 0);
  std::vector<uint32_t> obj_fill(num_objects, 0);
  std::vector<uint32_t> label_fill(num_labels, 0);
  for_each_labels([&](size_t obj, uint32_t label) {
    // Objects are visited in ascending dense order and labels in
    // ascending id order, so both CSRs come out sorted.
    (*obj_ids)[(*obj_offsets)[obj] + obj_fill[obj]++] = label;
    (*label_objs)[(*label_offsets)[label] + label_fill[label]++] =
        static_cast<uint32_t>(obj);
  });
}

/// Encodes one value set into (kind, slot), appending heavy sets to the
/// column's overflow list and interning strings into the pool.
void EncodeCell(const ValueSet& values, FreezeState* fs,
                FreezeState::Column* col, size_t i) {
  if (values.empty()) return;  // kAbsent (PropertyMap erases empties)
  using PropKind = GraphSnapshot::PropKind;
  ++col->num_carriers;
  if (values.is_singleton()) {
    const Value& v = values.single();
    switch (v.type()) {
      case ValueType::kNull:
        col->kinds[i] = static_cast<uint8_t>(PropKind::kNull);
        return;
      case ValueType::kBool:
        col->kinds[i] = static_cast<uint8_t>(PropKind::kBool);
        col->slots[i] = v.AsBool() ? 1 : 0;
        return;
      case ValueType::kInt:
        col->kinds[i] = static_cast<uint8_t>(PropKind::kInt);
        col->slots[i] = EncodeInt(v.AsInt());
        return;
      case ValueType::kDouble:
        col->kinds[i] = static_cast<uint8_t>(PropKind::kDouble);
        col->slots[i] = EncodeDouble(v.AsDouble());
        return;
      case ValueType::kString:
        col->kinds[i] = static_cast<uint8_t>(PropKind::kString);
        col->slots[i] = fs->Intern(v.AsString());
        return;
      case ValueType::kDate:
        // Epoch days round-trip only for real calendar dates; anything
        // else keeps its exact Value out of line.
        if (v.AsDate().IsValid()) {
          col->kinds[i] = static_cast<uint8_t>(PropKind::kDate);
          col->slots[i] = EncodeInt(v.AsDate().ToEpochDays());
          return;
        }
        break;
    }
  }
  // Overflow strings join the pool too: they serialize as pool ids, and
  // string-literal pre-resolution (InternedString) stays conservative —
  // extra pool members can only turn a miss into a valid id.
  for (const Value& v : values) {
    if (v.is_string()) fs->Intern(v.AsString());
  }
  col->kinds[i] = static_cast<uint8_t>(PropKind::kOverflow);
  col->slots[i] = col->overflow.size();
  col->overflow.push_back(values);
}

void GatherFromGraph(const PathPropertyGraph& graph, FreezeState* fs) {
  fs->adj = AdjacencyIndex(graph);
  const size_t num_nodes = fs->adj.num_nodes();

  fs->edge_ids.reserve(graph.NumEdges());
  fs->edge_src.reserve(graph.NumEdges());
  fs->edge_dst.reserve(graph.NumEdges());
  graph.ForEachEdge([&](EdgeId id, NodeId src, NodeId dst) {
    fs->edge_ids.push_back(id);  // ForEachEdge visits ascending by id
    fs->edge_src.push_back(fs->adj.IndexOf(src));
    fs->edge_dst.push_back(fs->adj.IndexOf(dst));
  });
  const size_t num_edges = fs->edge_ids.size();

  // Label ids in sorted-name order: a LabelSet (sorted by name) then
  // translates to a sorted id list, so per-object spans stay
  // binary-searchable. Path labels intern too (they serialize with the
  // path region); path-only labels simply have empty node/edge spans.
  graph.ForEachNode([&](NodeId id) {
    for (const auto& l : graph.Labels(id)) fs->label_index.emplace(l, 0);
  });
  graph.ForEachEdge([&](EdgeId id, NodeId, NodeId) {
    for (const auto& l : graph.Labels(id)) fs->label_index.emplace(l, 0);
  });
  graph.ForEachPath([&](PathId id, const PathBody&) {
    for (const auto& l : graph.Labels(id)) fs->label_index.emplace(l, 0);
  });
  fs->label_names.reserve(fs->label_index.size());
  for (auto& [name, id] : fs->label_index) {
    id = static_cast<uint32_t>(fs->label_names.size());
    fs->label_names.push_back(name);
  }
  const size_t num_labels = fs->label_names.size();

  BuildLabelCsr(
      num_nodes, num_labels,
      [&](auto emit) {
        for (size_t n = 0; n < num_nodes; ++n) {
          for (const auto& l : graph.Labels(fs->adj.IdOf(
                   static_cast<DenseNodeIndex>(n)))) {
            emit(n, fs->label_index.at(l));
          }
        }
      },
      &fs->node_label_offsets, &fs->node_label_ids, &fs->label_node_offsets,
      &fs->label_nodes);
  BuildLabelCsr(
      num_edges, num_labels,
      [&](auto emit) {
        for (size_t e = 0; e < num_edges; ++e) {
          for (const auto& l : graph.Labels(fs->edge_ids[e])) {
            emit(e, fs->label_index.at(l));
          }
        }
      },
      &fs->edge_label_offsets, &fs->edge_label_ids, &fs->label_edge_offsets,
      &fs->label_edges);

  auto column_of = [](std::map<std::string, FreezeState::Column>* columns,
                      const std::string& key,
                      size_t num_objects) -> FreezeState::Column* {
    auto [it, fresh] = columns->try_emplace(key);
    if (fresh) {
      it->second.kinds.assign(num_objects, 0);  // kAbsent
      it->second.slots.assign(num_objects, 0);
    }
    return &it->second;
  };
  for (size_t n = 0; n < num_nodes; ++n) {
    const auto& props =
        graph.Properties(fs->adj.IdOf(static_cast<DenseNodeIndex>(n)));
    for (const auto& [key, values] : props.entries()) {
      EncodeCell(values, fs, column_of(&fs->node_columns, key, num_nodes), n);
    }
  }
  for (size_t e = 0; e < num_edges; ++e) {
    for (const auto& [key, values] :
         graph.Properties(fs->edge_ids[e]).entries()) {
      EncodeCell(values, fs, column_of(&fs->edge_columns, key, num_edges), e);
    }
  }

  graph.ForEachPath([&](PathId id, const PathBody& body) {
    FreezeState::PathRec rec;
    rec.id = id;
    rec.body = &body;
    for (const auto& l : graph.Labels(id)) {
      rec.label_ids.push_back(fs->label_index.at(l));
    }
    for (const auto& [key, values] : graph.Properties(id).entries()) {
      rec.props.emplace_back(fs->Intern(key), &values);
      for (const Value& v : values) {
        if (v.is_string()) fs->Intern(v.AsString());
      }
    }
    fs->paths.push_back(std::move(rec));
  });
}

// --- packing ------------------------------------------------------------------

/// Serializes one ValueSet. Strings reference the *final* (sorted) pool
/// ids; dates keep their raw (year, month, day) triple so non-calendar
/// dates — which epoch days cannot represent injectively — round-trip
/// exactly.
void EncodeValueSet(const ValueSet& values, const FreezeState& fs,
                    const std::vector<uint32_t>& remap, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(values.size()));
  for (const Value& v : values) {
    w->U8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        w->U8(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt:
        w->U64(EncodeInt(v.AsInt()));
        break;
      case ValueType::kDouble:
        w->U64(EncodeDouble(v.AsDouble()));
        break;
      case ValueType::kString:
        w->U64(remap[fs.string_index.at(v.AsString())]);
        break;
      case ValueType::kDate: {
        const Date& d = v.AsDate();
        w->U32(static_cast<uint32_t>(d.year));
        w->U8(d.month);
        w->U8(d.day);
        break;
      }
    }
  }
}

std::vector<uint8_t> EncodeOverflow(
    const std::map<std::string, FreezeState::Column>& columns,
    const FreezeState& fs, const std::vector<uint32_t>& remap) {
  ByteWriter w;
  w.U64(columns.size());
  for (const auto& [key, col] : columns) {
    w.U64(col.overflow.size());
    for (const ValueSet& set : col.overflow) {
      EncodeValueSet(set, fs, remap, &w);
    }
  }
  return w.Take();
}

std::vector<uint8_t> EncodePaths(const FreezeState& fs,
                                 const std::vector<uint32_t>& remap) {
  ByteWriter w;
  for (const auto& rec : fs.paths) {
    w.U64(rec.id.value());
    w.U32(static_cast<uint32_t>(rec.label_ids.size()));
    for (const uint32_t l : rec.label_ids) w.U32(l);
    w.U64(rec.body->nodes.size());
    for (const NodeId n : rec.body->nodes) w.U64(n.value());
    w.U64(rec.body->edges.size());
    for (const EdgeId e : rec.body->edges) w.U64(e.value());
    w.U32(static_cast<uint32_t>(rec.props.size()));
    for (const auto& [key_id, values] : rec.props) {
      w.U64(remap[key_id]);
      EncodeValueSet(*values, fs, remap, &w);
    }
  }
  return w.Take();
}

/// Offsets + concatenated blob for a list of strings (label names, pool
/// strings, column keys).
void StringTableSizes(const std::vector<std::string>& strings,
                      size_t* offsets_bytes, size_t* blob_bytes) {
  *offsets_bytes = (strings.size() + 1) * sizeof(uint64_t);
  size_t total = 0;
  for (const auto& s : strings) total += s.size();
  *blob_bytes = total;
}

std::vector<uint8_t> PackArena(const FreezeState& fs) {
  const AdjacencyIndex::View adj = fs.adj.view();
  const size_t num_nodes = adj.num_nodes;
  const size_t num_edges = fs.edge_ids.size();
  const size_t num_labels = fs.label_names.size();
  const size_t num_strings = fs.strings.size();

  // Final string-pool ids: sorted by content, so the attached image can
  // binary-search the offset table instead of carrying a hash map.
  std::vector<uint32_t> order(num_strings);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return fs.strings[a] < fs.strings[b];
  });
  std::vector<uint32_t> remap(num_strings);
  std::vector<std::string> sorted_strings(num_strings);
  for (uint32_t new_id = 0; new_id < num_strings; ++new_id) {
    remap[order[new_id]] = new_id;
    sorted_strings[new_id] = fs.strings[order[new_id]];
  }

  std::vector<std::string> node_keys, edge_keys;
  node_keys.reserve(fs.node_columns.size());
  for (const auto& [key, col] : fs.node_columns) node_keys.push_back(key);
  edge_keys.reserve(fs.edge_columns.size());
  for (const auto& [key, col] : fs.edge_columns) edge_keys.push_back(key);

  const std::vector<uint8_t> node_overflow =
      EncodeOverflow(fs.node_columns, fs, remap);
  const std::vector<uint8_t> edge_overflow =
      EncodeOverflow(fs.edge_columns, fs, remap);
  const std::vector<uint8_t> paths = EncodePaths(fs, remap);

  ArenaHeader header;
  header.num_nodes = num_nodes;
  header.num_edges = num_edges;
  header.num_labels = num_labels;
  header.num_strings = num_strings;
  header.num_paths = fs.paths.size();
  header.num_node_columns = fs.node_columns.size();
  header.num_edge_columns = fs.edge_columns.size();

  size_t label_off_bytes, label_blob_bytes;
  StringTableSizes(fs.label_names, &label_off_bytes, &label_blob_bytes);
  size_t string_off_bytes, string_blob_bytes;
  StringTableSizes(sorted_strings, &string_off_bytes, &string_blob_bytes);
  size_t node_key_off_bytes, node_key_blob_bytes;
  StringTableSizes(node_keys, &node_key_off_bytes, &node_key_blob_bytes);
  size_t edge_key_off_bytes, edge_key_blob_bytes;
  StringTableSizes(edge_keys, &edge_key_off_bytes, &edge_key_blob_bytes);

  const size_t sizes[kNumRegions] = {
      /*kRNodeIds=*/num_nodes * sizeof(NodeId),
      /*kROutOffsets=*/(num_nodes + 1) * sizeof(uint32_t),
      /*kROutEntries=*/adj.out_offsets[num_nodes] * sizeof(AdjacencyEntry),
      /*kRInOffsets=*/(num_nodes + 1) * sizeof(uint32_t),
      /*kRInEntries=*/adj.in_offsets[num_nodes] * sizeof(AdjacencyEntry),
      /*kREdgeIds=*/num_edges * sizeof(EdgeId),
      /*kREdgeSrc=*/num_edges * sizeof(uint32_t),
      /*kREdgeDst=*/num_edges * sizeof(uint32_t),
      /*kRLabelNameOffsets=*/label_off_bytes,
      /*kRLabelNameBlob=*/label_blob_bytes,
      /*kRNodeLabelOffsets=*/fs.node_label_offsets.size() * sizeof(uint32_t),
      /*kRNodeLabelIds=*/fs.node_label_ids.size() * sizeof(uint32_t),
      /*kREdgeLabelOffsets=*/fs.edge_label_offsets.size() * sizeof(uint32_t),
      /*kREdgeLabelIds=*/fs.edge_label_ids.size() * sizeof(uint32_t),
      /*kRLabelNodeOffsets=*/fs.label_node_offsets.size() * sizeof(uint32_t),
      /*kRLabelNodes=*/fs.label_nodes.size() * sizeof(uint32_t),
      /*kRLabelEdgeOffsets=*/fs.label_edge_offsets.size() * sizeof(uint32_t),
      /*kRLabelEdges=*/fs.label_edges.size() * sizeof(uint32_t),
      /*kRStringOffsets=*/string_off_bytes,
      /*kRStringBlob=*/string_blob_bytes,
      /*kRNodeColKeyOffsets=*/node_key_off_bytes,
      /*kRNodeColKeyBlob=*/node_key_blob_bytes,
      /*kRNodeColKinds=*/fs.node_columns.size() * num_nodes,
      /*kRNodeColSlots=*/fs.node_columns.size() * num_nodes * sizeof(uint64_t),
      /*kRNodeColCarriers=*/fs.node_columns.size() * sizeof(uint64_t),
      /*kRNodeOverflow=*/node_overflow.size(),
      /*kREdgeColKeyOffsets=*/edge_key_off_bytes,
      /*kREdgeColKeyBlob=*/edge_key_blob_bytes,
      /*kREdgeColKinds=*/fs.edge_columns.size() * num_edges,
      /*kREdgeColSlots=*/fs.edge_columns.size() * num_edges * sizeof(uint64_t),
      /*kREdgeColCarriers=*/fs.edge_columns.size() * sizeof(uint64_t),
      /*kREdgeOverflow=*/edge_overflow.size(),
      /*kRPaths=*/paths.size(),
  };

  size_t cursor = Align8(sizeof(ArenaHeader));
  for (uint32_t r = 0; r < kNumRegions; ++r) {
    header.regions[r].offset = cursor;
    header.regions[r].size = sizes[r];
    cursor = Align8(cursor + sizes[r]);
  }
  header.total_size = cursor;

  std::vector<uint8_t> arena(cursor, 0);
  auto at = [&](Region r) { return arena.data() + header.regions[r].offset; };
  auto copy = [&](Region r, const void* data, size_t size) {
    if (size > 0) std::memcpy(at(r), data, size);
  };
  auto copy_entries = [&](Region r, const AdjacencyEntry* entries,
                          size_t count) {
    // Field-wise stores into the zeroed buffer keep the struct's padding
    // bytes deterministic (memcpy would carry over whatever the builder's
    // heap held), so identical graphs pack byte-identical arenas.
    AdjacencyEntry* dst = reinterpret_cast<AdjacencyEntry*>(at(r));
    for (size_t i = 0; i < count; ++i) {
      dst[i].neighbor = entries[i].neighbor;
      dst[i].edge_dense = entries[i].edge_dense;
      dst[i].edge = entries[i].edge;
      dst[i].forward = entries[i].forward;
    }
  };
  auto copy_string_table = [&](Region off_r, Region blob_r,
                               const std::vector<std::string>& strings) {
    uint64_t* offsets = reinterpret_cast<uint64_t*>(at(off_r));
    char* blob = reinterpret_cast<char*>(at(blob_r));
    uint64_t pos = 0;
    for (size_t i = 0; i < strings.size(); ++i) {
      offsets[i] = pos;
      std::memcpy(blob + pos, strings[i].data(), strings[i].size());
      pos += strings[i].size();
    }
    offsets[strings.size()] = pos;
  };

  copy(kRNodeIds, adj.node_ids, sizes[kRNodeIds]);
  copy(kROutOffsets, adj.out_offsets, sizes[kROutOffsets]);
  copy_entries(kROutEntries, adj.out_entries, adj.out_offsets[num_nodes]);
  copy(kRInOffsets, adj.in_offsets, sizes[kRInOffsets]);
  copy_entries(kRInEntries, adj.in_entries, adj.in_offsets[num_nodes]);
  copy(kREdgeIds, fs.edge_ids.data(), sizes[kREdgeIds]);
  copy(kREdgeSrc, fs.edge_src.data(), sizes[kREdgeSrc]);
  copy(kREdgeDst, fs.edge_dst.data(), sizes[kREdgeDst]);
  copy_string_table(kRLabelNameOffsets, kRLabelNameBlob, fs.label_names);
  copy(kRNodeLabelOffsets, fs.node_label_offsets.data(),
       sizes[kRNodeLabelOffsets]);
  copy(kRNodeLabelIds, fs.node_label_ids.data(), sizes[kRNodeLabelIds]);
  copy(kREdgeLabelOffsets, fs.edge_label_offsets.data(),
       sizes[kREdgeLabelOffsets]);
  copy(kREdgeLabelIds, fs.edge_label_ids.data(), sizes[kREdgeLabelIds]);
  copy(kRLabelNodeOffsets, fs.label_node_offsets.data(),
       sizes[kRLabelNodeOffsets]);
  copy(kRLabelNodes, fs.label_nodes.data(), sizes[kRLabelNodes]);
  copy(kRLabelEdgeOffsets, fs.label_edge_offsets.data(),
       sizes[kRLabelEdgeOffsets]);
  copy(kRLabelEdges, fs.label_edges.data(), sizes[kRLabelEdges]);
  copy_string_table(kRStringOffsets, kRStringBlob, sorted_strings);

  auto copy_columns = [&](const std::map<std::string, FreezeState::Column>&
                              columns,
                          size_t num_objects, Region key_off_r,
                          Region key_blob_r, Region kinds_r, Region slots_r,
                          Region carriers_r,
                          const std::vector<std::string>& keys) {
    copy_string_table(key_off_r, key_blob_r, keys);
    uint8_t* kinds = at(kinds_r);
    uint64_t* slots = reinterpret_cast<uint64_t*>(at(slots_r));
    uint64_t* carriers = reinterpret_cast<uint64_t*>(at(carriers_r));
    size_t c = 0;
    for (const auto& [key, col] : columns) {
      std::memcpy(kinds + c * num_objects, col.kinds.data(), num_objects);
      uint64_t* col_slots = slots + c * num_objects;
      std::memcpy(col_slots, col.slots.data(),
                  num_objects * sizeof(uint64_t));
      // Inline string cells carry pool ids assigned in first-encounter
      // order during the gather; rewrite them to the sorted-pool ids.
      for (size_t i = 0; i < num_objects; ++i) {
        if (col.kinds[i] ==
            static_cast<uint8_t>(GraphSnapshot::PropKind::kString)) {
          col_slots[i] = remap[col_slots[i]];
        }
      }
      carriers[c] = col.num_carriers;
      ++c;
    }
  };
  copy_columns(fs.node_columns, num_nodes, kRNodeColKeyOffsets,
               kRNodeColKeyBlob, kRNodeColKinds, kRNodeColSlots,
               kRNodeColCarriers, node_keys);
  copy_columns(fs.edge_columns, num_edges, kREdgeColKeyOffsets,
               kREdgeColKeyBlob, kREdgeColKinds, kREdgeColSlots,
               kREdgeColCarriers, edge_keys);
  copy(kRNodeOverflow, node_overflow.data(), node_overflow.size());
  copy(kREdgeOverflow, edge_overflow.data(), edge_overflow.size());
  copy(kRPaths, paths.data(), paths.size());

  std::memcpy(arena.data(), &header, sizeof(header));
  return arena;
}

}  // namespace

// --- attach -------------------------------------------------------------------

double GraphSnapshot::PropertyColumn::DoubleAt(size_t i) const {
  double v = 0;
  std::memcpy(&v, &slots_[i], sizeof(v));
  return v;
}

GraphSnapshot::GraphSnapshot(const PathPropertyGraph& graph) {
  FreezeState fs;
  GatherFromGraph(graph, &fs);
  arena_ = ArenaBuffer::Own(PackArena(fs));
  const Status st = Attach(/*trusted=*/true);
  assert(st.ok() && "freshly packed arena must attach");
  (void)st;
}

Result<std::shared_ptr<GraphSnapshot>> GraphSnapshot::FromArena(
    ArenaBuffer arena) {
  std::shared_ptr<GraphSnapshot> snap(new GraphSnapshot());
  snap->arena_ = std::move(arena);
  const Status st = snap->Attach(/*trusted=*/false);
  if (!st.ok()) return st;
  return snap;
}

namespace {

/// Decodes one ValueSet written by EncodeValueSet. Returns false (via
/// reader state / bounds checks) on malformed input.
bool DecodeValueSet(ByteReader* r, const GraphSnapshot& snap,
                    ValueSet* out) {
  const uint32_t count = r->U32();
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    const uint8_t tag = r->U8();
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull:
        values.push_back(Value::Null());
        break;
      case ValueType::kBool:
        values.push_back(Value::Bool(r->U8() != 0));
        break;
      case ValueType::kInt:
        values.push_back(Value::Int(static_cast<int64_t>(r->U64())));
        break;
      case ValueType::kDouble: {
        const uint64_t bits = r->U64();
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        values.push_back(Value::Double(d));
        break;
      }
      case ValueType::kString: {
        const uint64_t id = r->U64();
        if (id >= snap.num_strings()) return false;
        values.push_back(
            Value::String(std::string(snap.StringAt(
                static_cast<uint32_t>(id)))));
        break;
      }
      case ValueType::kDate: {
        Date d;
        d.year = static_cast<int32_t>(r->U32());
        d.month = r->U8();
        d.day = r->U8();
        values.push_back(Value::OfDate(d));
        break;
      }
      default:
        return false;
    }
  }
  if (!r->ok()) return false;
  *out = ValueSet(std::move(values));
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("snapshot arena: " + what);
}

/// Checks that `offsets` (count+1 entries) is monotone and ends at
/// `limit` — the shared shape invariant of every CSR / string table.
template <typename T>
bool OffsetsWellFormed(const T* offsets, size_t count, uint64_t limit) {
  if (offsets[0] != 0) return false;
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  return offsets[count] == limit;
}

}  // namespace

Status GraphSnapshot::Attach(bool trusted) {
  const uint8_t* base = arena_.data();
  if (arena_.size() < sizeof(ArenaHeader)) {
    return Corrupt("buffer smaller than the header");
  }
  ArenaHeader h;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != kArenaMagic) return Corrupt("bad magic");
  if (h.version != kArenaVersion) {
    return Corrupt("format version " + std::to_string(h.version) +
                   " (expected " + std::to_string(kArenaVersion) + ")");
  }
  if (h.region_count != kNumRegions) return Corrupt("bad region count");
  if (h.total_size != arena_.size()) return Corrupt("size mismatch");

  for (uint32_t r = 0; r < kNumRegions; ++r) {
    const ArenaRegionEntry& e = h.regions[r];
    if (e.offset % 8 != 0 || e.offset > arena_.size() ||
        e.size > arena_.size() - e.offset) {
      return Corrupt("region " + std::to_string(r) + " out of bounds");
    }
  }
  auto data = [&](Region r) { return base + h.regions[r].offset; };
  auto size = [&](Region r) { return h.regions[r].size; };
  auto expect = [&](Region r, uint64_t bytes) {
    return size(r) == bytes;
  };

  const size_t num_nodes = h.num_nodes;
  num_edges_ = h.num_edges;
  num_strings_ = h.num_strings;
  num_paths_ = h.num_paths;
  const size_t num_labels = h.num_labels;
  const size_t n_cols = h.num_node_columns;
  const size_t e_cols = h.num_edge_columns;

  if (!expect(kRNodeIds, num_nodes * sizeof(NodeId)) ||
      !expect(kROutOffsets, (num_nodes + 1) * sizeof(uint32_t)) ||
      !expect(kRInOffsets, (num_nodes + 1) * sizeof(uint32_t)) ||
      !expect(kREdgeIds, num_edges_ * sizeof(EdgeId)) ||
      !expect(kREdgeSrc, num_edges_ * sizeof(uint32_t)) ||
      !expect(kREdgeDst, num_edges_ * sizeof(uint32_t)) ||
      !expect(kRLabelNameOffsets, (num_labels + 1) * sizeof(uint64_t)) ||
      !expect(kRNodeLabelOffsets, (num_nodes + 1) * sizeof(uint32_t)) ||
      !expect(kREdgeLabelOffsets, (num_edges_ + 1) * sizeof(uint32_t)) ||
      !expect(kRLabelNodeOffsets, (num_labels + 1) * sizeof(uint32_t)) ||
      !expect(kRLabelEdgeOffsets, (num_labels + 1) * sizeof(uint32_t)) ||
      !expect(kRStringOffsets, (num_strings_ + 1) * sizeof(uint64_t)) ||
      !expect(kRNodeColKeyOffsets, (n_cols + 1) * sizeof(uint64_t)) ||
      !expect(kRNodeColKinds, n_cols * num_nodes) ||
      !expect(kRNodeColSlots, n_cols * num_nodes * sizeof(uint64_t)) ||
      !expect(kRNodeColCarriers, n_cols * sizeof(uint64_t)) ||
      !expect(kREdgeColKeyOffsets, (e_cols + 1) * sizeof(uint64_t)) ||
      !expect(kREdgeColKinds, e_cols * num_edges_) ||
      !expect(kREdgeColSlots, e_cols * num_edges_ * sizeof(uint64_t)) ||
      !expect(kREdgeColCarriers, e_cols * sizeof(uint64_t))) {
    return Corrupt("region size disagrees with header counts");
  }

  const uint32_t* out_offsets =
      reinterpret_cast<const uint32_t*>(data(kROutOffsets));
  const uint32_t* in_offsets =
      reinterpret_cast<const uint32_t*>(data(kRInOffsets));
  if (!trusted) {
    if (!OffsetsWellFormed(out_offsets, num_nodes,
                           size(kROutEntries) / sizeof(AdjacencyEntry)) ||
        size(kROutEntries) % sizeof(AdjacencyEntry) != 0 ||
        !OffsetsWellFormed(in_offsets, num_nodes,
                           size(kRInEntries) / sizeof(AdjacencyEntry)) ||
        size(kRInEntries) % sizeof(AdjacencyEntry) != 0) {
      return Corrupt("adjacency CSR malformed");
    }
  }

  AdjacencyIndex::View view;
  view.node_ids = reinterpret_cast<const NodeId*>(data(kRNodeIds));
  view.num_nodes = num_nodes;
  view.num_edges = num_edges_;
  view.out_offsets = out_offsets;
  view.out_entries =
      reinterpret_cast<const AdjacencyEntry*>(data(kROutEntries));
  view.in_offsets = in_offsets;
  view.in_entries = reinterpret_cast<const AdjacencyEntry*>(data(kRInEntries));
  adj_ = AdjacencyIndex(view);

  edge_ids_ = reinterpret_cast<const EdgeId*>(data(kREdgeIds));
  edge_src_ = reinterpret_cast<const uint32_t*>(data(kREdgeSrc));
  edge_dst_ = reinterpret_cast<const uint32_t*>(data(kREdgeDst));

  // Label names materialize into a small vector (LabelName returns a
  // std::string& to callers building LabelSets).
  const uint64_t* label_offsets =
      reinterpret_cast<const uint64_t*>(data(kRLabelNameOffsets));
  const char* label_blob = reinterpret_cast<const char*>(data(kRLabelNameBlob));
  if (!trusted &&
      !OffsetsWellFormed(label_offsets, num_labels, size(kRLabelNameBlob))) {
    return Corrupt("label name table malformed");
  }
  label_names_.clear();
  label_names_.reserve(num_labels);
  for (size_t l = 0; l < num_labels; ++l) {
    label_names_.emplace_back(label_blob + label_offsets[l],
                              label_offsets[l + 1] - label_offsets[l]);
    if (!trusted && l > 0 && !(label_names_[l - 1] < label_names_[l])) {
      return Corrupt("label names not sorted");
    }
  }

  node_label_offsets_ =
      reinterpret_cast<const uint32_t*>(data(kRNodeLabelOffsets));
  node_label_ids_ = reinterpret_cast<const uint32_t*>(data(kRNodeLabelIds));
  edge_label_offsets_ =
      reinterpret_cast<const uint32_t*>(data(kREdgeLabelOffsets));
  edge_label_ids_ = reinterpret_cast<const uint32_t*>(data(kREdgeLabelIds));
  label_node_offsets_ =
      reinterpret_cast<const uint32_t*>(data(kRLabelNodeOffsets));
  label_nodes_ = reinterpret_cast<const uint32_t*>(data(kRLabelNodes));
  label_edge_offsets_ =
      reinterpret_cast<const uint32_t*>(data(kRLabelEdgeOffsets));
  label_edges_ = reinterpret_cast<const uint32_t*>(data(kRLabelEdges));
  if (!trusted) {
    if (!OffsetsWellFormed(node_label_offsets_, num_nodes,
                           size(kRNodeLabelIds) / sizeof(uint32_t)) ||
        !OffsetsWellFormed(edge_label_offsets_, num_edges_,
                           size(kREdgeLabelIds) / sizeof(uint32_t)) ||
        !OffsetsWellFormed(label_node_offsets_, num_labels,
                           size(kRLabelNodes) / sizeof(uint32_t)) ||
        !OffsetsWellFormed(label_edge_offsets_, num_labels,
                           size(kRLabelEdges) / sizeof(uint32_t))) {
      return Corrupt("label CSR malformed");
    }
    for (size_t i = 0; i < size(kRNodeLabelIds) / sizeof(uint32_t); ++i) {
      if (node_label_ids_[i] >= num_labels) return Corrupt("label id range");
    }
    for (size_t i = 0; i < size(kREdgeLabelIds) / sizeof(uint32_t); ++i) {
      if (edge_label_ids_[i] >= num_labels) return Corrupt("label id range");
    }
    for (size_t i = 0; i < size(kRLabelNodes) / sizeof(uint32_t); ++i) {
      if (label_nodes_[i] >= num_nodes) return Corrupt("node index range");
    }
    for (size_t i = 0; i < size(kRLabelEdges) / sizeof(uint32_t); ++i) {
      if (label_edges_[i] >= num_edges_) return Corrupt("edge index range");
    }
    for (size_t e = 0; e < num_edges_; ++e) {
      if (edge_src_[e] >= num_nodes || edge_dst_[e] >= num_nodes) {
        return Corrupt("edge endpoint range");
      }
    }
  }

  string_offsets_ = reinterpret_cast<const uint64_t*>(data(kRStringOffsets));
  string_blob_ = reinterpret_cast<const char*>(data(kRStringBlob));
  if (!trusted) {
    if (!OffsetsWellFormed(string_offsets_, num_strings_,
                           size(kRStringBlob))) {
      return Corrupt("string pool malformed");
    }
    for (size_t s = 1; s < num_strings_; ++s) {
      if (!(StringAt(static_cast<uint32_t>(s - 1)) <
            StringAt(static_cast<uint32_t>(s)))) {
        return Corrupt("string pool not sorted");
      }
    }
  }

  auto attach_columns =
      [&](size_t n_columns, size_t num_objects, Region key_off_r,
          Region key_blob_r, Region kinds_r, Region slots_r,
          Region carriers_r, Region overflow_r,
          std::vector<std::pair<std::string, PropertyColumn>>* out) -> Status {
    const uint64_t* key_offsets =
        reinterpret_cast<const uint64_t*>(data(key_off_r));
    const char* key_blob = reinterpret_cast<const char*>(data(key_blob_r));
    if (!trusted &&
        !OffsetsWellFormed(key_offsets, n_columns, size(key_blob_r))) {
      return Corrupt("column key table malformed");
    }
    const uint8_t* kinds = data(kinds_r);
    const uint64_t* slots = reinterpret_cast<const uint64_t*>(data(slots_r));
    const uint64_t* carriers =
        reinterpret_cast<const uint64_t*>(data(carriers_r));
    ByteReader overflow(data(overflow_r), size(overflow_r));
    if (overflow.U64() != n_columns) {
      return Corrupt("overflow directory count");
    }
    out->clear();
    out->reserve(n_columns);
    for (size_t c = 0; c < n_columns; ++c) {
      std::string key(key_blob + key_offsets[c],
                      key_offsets[c + 1] - key_offsets[c]);
      if (!trusted && c > 0 && !((*out)[c - 1].first < key)) {
        return Corrupt("column keys not sorted");
      }
      PropertyColumn col;
      col.kinds_ = kinds + c * num_objects;
      col.slots_ = slots + c * num_objects;
      col.size_ = num_objects;
      col.num_carriers_ = carriers[c];
      const uint64_t n_sets = overflow.U64();
      col.overflow_.reserve(n_sets);
      for (uint64_t s = 0; s < n_sets; ++s) {
        ValueSet set;
        if (!DecodeValueSet(&overflow, *this, &set)) {
          return Corrupt("overflow set malformed");
        }
        col.overflow_.push_back(std::move(set));
      }
      if (!trusted) {
        for (size_t i = 0; i < num_objects; ++i) {
          const PropKind k = col.KindAt(i);
          if (k == PropKind::kString && col.slots_[i] >= num_strings_) {
            return Corrupt("string slot range");
          }
          if (k == PropKind::kOverflow &&
              col.slots_[i] >= col.overflow_.size()) {
            return Corrupt("overflow slot range");
          }
        }
      }
      out->emplace_back(std::move(key), std::move(col));
    }
    if (!overflow.ok()) return Corrupt("overflow region truncated");
    return Status::OK();
  };
  Status st = attach_columns(n_cols, num_nodes, kRNodeColKeyOffsets,
                             kRNodeColKeyBlob, kRNodeColKinds, kRNodeColSlots,
                             kRNodeColCarriers, kRNodeOverflow,
                             &node_columns_);
  if (!st.ok()) return st;
  st = attach_columns(e_cols, num_edges_, kREdgeColKeyOffsets,
                      kREdgeColKeyBlob, kREdgeColKinds, kREdgeColSlots,
                      kREdgeColCarriers, kREdgeOverflow, &edge_columns_);
  if (!st.ok()) return st;

  paths_data_ = data(kRPaths);
  paths_size_ = size(kRPaths);
  return Status::OK();
}

PathPropertyGraph GraphSnapshot::ReconstructGraph(std::string name) const {
  PathPropertyGraph g(std::move(name));
  for (size_t n = 0; n < num_nodes(); ++n) {
    const NodeId id = adj_.IdOf(static_cast<DenseNodeIndex>(n));
    g.AddNode(id);
    LabelSet labels;
    for (const uint32_t l : NodeLabelIds(static_cast<DenseNodeIndex>(n))) {
      labels.Insert(LabelName(l));
    }
    if (!labels.empty()) g.SetLabels(id, std::move(labels));
    for (const auto& [key, col] : node_columns_) {
      if (col.AbsentAt(n)) continue;
      g.SetProperty(id, key, CellValues(col, n));
    }
  }
  for (size_t e = 0; e < num_edges(); ++e) {
    const EdgeId id = edge_ids_[e];
    const Status st = g.AddEdge(id, adj_.IdOf(edge_src_[e]),
                                adj_.IdOf(edge_dst_[e]));
    assert(st.ok());
    (void)st;
    LabelSet labels;
    for (const uint32_t l : EdgeLabelIds(static_cast<DenseEdgeIndex>(e))) {
      labels.Insert(LabelName(l));
    }
    if (!labels.empty()) g.SetLabels(id, std::move(labels));
    for (const auto& [key, col] : edge_columns_) {
      if (col.AbsentAt(e)) continue;
      g.SetProperty(id, key, CellValues(col, e));
    }
  }
  ByteReader r(paths_data_, paths_size_);
  for (size_t p = 0; p < num_paths_ && r.ok(); ++p) {
    const PathId id(r.U64());
    const uint32_t n_labels = r.U32();
    LabelSet labels;
    for (uint32_t i = 0; i < n_labels; ++i) {
      const uint32_t l = r.U32();
      if (l < num_labels()) labels.Insert(LabelName(l));
    }
    PathBody body;
    const uint64_t n_nodes = r.U64();
    body.nodes.reserve(n_nodes);
    for (uint64_t i = 0; i < n_nodes && r.ok(); ++i) {
      body.nodes.push_back(NodeId(r.U64()));
    }
    const uint64_t n_edges = r.U64();
    body.edges.reserve(n_edges);
    for (uint64_t i = 0; i < n_edges && r.ok(); ++i) {
      body.edges.push_back(EdgeId(r.U64()));
    }
    const uint32_t n_props = r.U32();
    PropertyMap props;
    for (uint32_t i = 0; i < n_props && r.ok(); ++i) {
      const uint64_t key_id = r.U64();
      ValueSet values;
      if (!DecodeValueSet(&r, *this, &values)) break;
      if (key_id < num_strings_) {
        props.Set(std::string(StringAt(static_cast<uint32_t>(key_id))),
                  std::move(values));
      }
    }
    if (!r.ok()) break;
    const Status st = g.AddPath(id, std::move(body));
    assert(st.ok());
    (void)st;
    if (!labels.empty()) g.SetLabels(id, std::move(labels));
    if (!props.empty()) g.SetProperties(id, std::move(props));
  }
  return g;
}

// --- lookups ------------------------------------------------------------------

uint32_t GraphSnapshot::LabelId(const std::string& name) const {
  const auto it =
      std::lower_bound(label_names_.begin(), label_names_.end(), name);
  if (it == label_names_.end() || *it != name) return kNoLabel;
  return static_cast<uint32_t>(it - label_names_.begin());
}

DenseEdgeIndex GraphSnapshot::EdgeIndexOf(EdgeId id) const {
  const EdgeId* end = edge_ids_ + num_edges_;
  const EdgeId* it = std::lower_bound(edge_ids_, end, id);
  return static_cast<DenseEdgeIndex>(it - edge_ids_);
}

DenseEdgeIndex GraphSnapshot::FindEdge(EdgeId id) const {
  const EdgeId* end = edge_ids_ + num_edges_;
  const EdgeId* it = std::lower_bound(edge_ids_, end, id);
  if (it == end || !(*it == id)) return kNoEdge;
  return static_cast<DenseEdgeIndex>(it - edge_ids_);
}

bool GraphSnapshot::NodeHasLabel(DenseNodeIndex n, uint32_t label) const {
  const auto span = NodeLabelIds(n);
  return std::binary_search(span.begin(), span.end(), label);
}

bool GraphSnapshot::EdgeHasLabel(DenseEdgeIndex e, uint32_t label) const {
  const auto span = EdgeLabelIds(e);
  return std::binary_search(span.begin(), span.end(), label);
}

const GraphSnapshot::PropertyColumn* GraphSnapshot::NodeColumn(
    const std::string& key) const {
  const auto it = std::lower_bound(
      node_columns_.begin(), node_columns_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == node_columns_.end() || it->first != key) return nullptr;
  return &it->second;
}

const GraphSnapshot::PropertyColumn* GraphSnapshot::EdgeColumn(
    const std::string& key) const {
  const auto it = std::lower_bound(
      edge_columns_.begin(), edge_columns_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == edge_columns_.end() || it->first != key) return nullptr;
  return &it->second;
}

uint32_t GraphSnapshot::InternedString(std::string_view s) const {
  // The pool is sorted by content — binary search over the offset table.
  size_t lo = 0, hi = num_strings_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (StringAt(static_cast<uint32_t>(mid)) < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == num_strings_ || StringAt(static_cast<uint32_t>(lo)) != s) {
    return kNoString;
  }
  return static_cast<uint32_t>(lo);
}

// --- cell semantics -----------------------------------------------------------

int GraphSnapshot::CompareCellSingleton(const PropertyColumn& col, size_t i,
                                        const Value& v, bool* ok) const {
  const PropKind kind = col.KindAt(i);
  switch (kind) {
    case PropKind::kAbsent:
      *ok = false;
      return 0;
    case PropKind::kOverflow: {
      const ValueSet& s = col.OverflowAt(i);
      if (!s.is_singleton()) {
        *ok = false;
        return 0;
      }
      *ok = true;
      return s.single().Compare(v);
    }
    default:
      break;
  }
  *ok = true;
  const int rl = RankOfKind(kind);
  const int rr = RankOfType(v.type());
  if (rl != rr) return rl < rr ? -1 : 1;
  switch (kind) {
    case PropKind::kNull:
      return 0;
    case PropKind::kBool:
      return Cmp(col.BoolAt(i), v.AsBool());
    case PropKind::kInt:
      // Int-int compares exactly; mixed numerics through double, as
      // Value::Compare does.
      if (v.is_int()) return Cmp(col.IntAt(i), v.AsInt());
      return Cmp(static_cast<double>(col.IntAt(i)), v.NumericAsDouble());
    case PropKind::kDouble:
      return Cmp(col.DoubleAt(i), v.NumericAsDouble());
    case PropKind::kString: {
      const int c = StringAt(col.StringIdAt(i)).compare(v.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case PropKind::kDate: {
      // Epoch days order dates chronologically but are not injective over
      // non-calendar literals (2020-01-40 aliases 2020-02-09), so a tied
      // day count falls back to the field-wise tie-break — exactly what
      // Value::Compare does, keeping this differential with the
      // materialized path. Inline cells hold valid dates (EncodeCell
      // routes the rest out of line), so the cell's canonical fields come
      // from FromEpochDays.
      const int c = Cmp(col.DateDaysAt(i), v.AsDate().ToEpochDays());
      if (c != 0) return c;
      const Date cell = Date::FromEpochDays(col.DateDaysAt(i));
      const Date& lit = v.AsDate();
      if (!(cell == lit)) return cell < lit ? -1 : 1;
      return 0;
    }
    default:
      return 0;  // unreachable
  }
}

bool GraphSnapshot::CellEqualsSingleton(const PropertyColumn& col, size_t i,
                                        const Value& v) const {
  // String equality short-circuits on pool ids (the common pushed-filter
  // case): equal strings share one id by construction.
  if (col.KindAt(i) == PropKind::kString && v.is_string()) {
    return StringAt(col.StringIdAt(i)) == v.AsString();
  }
  bool ok = false;
  const int cmp = CompareCellSingleton(col, i, v, &ok);
  return ok && cmp == 0;
}

bool GraphSnapshot::CellContains(const PropertyColumn& col, size_t i,
                                 const Value& v) const {
  if (col.KindAt(i) == PropKind::kOverflow) {
    return col.OverflowAt(i).Contains(v);
  }
  return CellEqualsSingleton(col, i, v);
}

ValueSet GraphSnapshot::CellValues(const PropertyColumn& col,
                                   size_t i) const {
  switch (col.KindAt(i)) {
    case PropKind::kAbsent:
      return ValueSet();
    case PropKind::kNull:
      return ValueSet(Value::Null());
    case PropKind::kBool:
      return ValueSet(Value::Bool(col.BoolAt(i)));
    case PropKind::kInt:
      return ValueSet(Value::Int(col.IntAt(i)));
    case PropKind::kDouble:
      return ValueSet(Value::Double(col.DoubleAt(i)));
    case PropKind::kString:
      return ValueSet(
          Value::String(std::string(StringAt(col.StringIdAt(i)))));
    case PropKind::kDate:
      return ValueSet(Value::OfDate(Date::FromEpochDays(col.DateDaysAt(i))));
    case PropKind::kOverflow:
      return col.OverflowAt(i);
  }
  return ValueSet();
}

}  // namespace gcore
