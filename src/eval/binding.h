// Bindings and binding tables: the Ω of Appendix A.1.
//
// A binding µ is a partial function from variables to graph objects and
// literal sets; a BindingTable is a finite set of bindings with a shared
// column schema (a cell holds kUnbound for variables outside dom(µ),
// which is how OPTIONAL's left outer join represents missing matches).
//
// Storage is COLUMN-MAJOR (vectorized Ω, introduced behind the executor's
// morsel protocol): each Column keeps one kind-tag byte and one 64-bit
// slot per row in dense arrays. For the common kinds — kUnbound, kNode,
// kEdge — the slot *is* the raw object id, so scanning a column touches
// 9 bytes per row instead of a heap-allocated ~50-byte Datum. Heavy kinds
// (paths, value sets, node/edge lists) live out of line in the column's
// `overflow_` vector of Datums; the slot is the overflow index. The
// row-oriented API (`Row`, `At`, `Get`, `AddRow`, RowDedupSink::Insert)
// is preserved as materializing adapters, while the hot operators use the
// column-wise fast paths:
//
//   * key hashing / row hashing: `RowHash(r)` and `Column::HashAt` walk
//     the dense arrays and reproduce `HashRow` over a materialized row
//     bit-for-bit (the dedup sinks depend on that equivalence);
//   * TableJoin and the streaming hash join (StreamingJoinProbe) build,
//     probe and merge on typed key columns (eval/binding_ops.cc) without
//     materializing BindingRows;
//   * Matcher::FilterByConjuncts gathers surviving row indices
//     column-at-a-time (`AppendRowsFrom`);
//   * Matcher::ExpandEdgeHop / ExpandPathHop read the source node column
//     through `Column::NodeAt` and emit rows with `AppendRowFrom`;
//   * ProjectChunk adopts whole columns (`AdoptProjectedColumns`) — the
//     executor's per-morsel projection stage does no per-row work at all;
//   * the executor slices morsels as column ranges (`Slice`,
//     `AppendSlice`) instead of copying rows;
//   * the vectorized expression kernels (eval/expr_vec.h) read predicate
//     and projection inputs straight from the kind/slot arrays (node and
//     edge columns feed property gathers against GraphSnapshot typed
//     columns), producing selection vectors over row indices instead of
//     materialized Datums.
//
// Datum itself is slim: dense kinds are stored inline, heavy payloads sit
// behind one immutable shared pointer, so copying a Datum never allocates.
#ifndef GCORE_EVAL_BINDING_H_
#define GCORE_EVAL_BINDING_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/id.h"
#include "common/result.h"
#include "common/value.h"
#include "graph/ppg.h"

namespace gcore {

/// A path bound to a variable. MATCH allocates *fresh* path identifiers
/// for computed paths (Appendix A.2, "µ(w) is a fresh path identifier
/// associated to the shortest path L"); stored paths keep their graph
/// identity. ALL-mode bindings carry the projection sets instead of a
/// single body.
struct PathValue {
  PathId id;
  PathBody body;
  double cost = 0.0;
  /// True when `id` identifies a stored path of the matched graph.
  bool from_graph = false;
  /// ALL-paths projection (mode kAll): every node/edge on some conforming
  /// walk. When set, `body` is empty.
  std::optional<std::pair<std::vector<NodeId>, std::vector<EdgeId>>>
      projection;
};

/// What one variable is bound to. Cheap to copy: node/edge ids are
/// inline, every heavy payload is behind one immutable shared pointer
/// (payloads are never mutated after construction, so sharing is safe).
class Datum {
 public:
  enum class Kind : uint8_t {
    kUnbound,
    kNode,
    kEdge,
    kPath,
    kValues,    // a finite set of literals (singleton for scalars)
    kNodeList,  // nodes(p)
    kEdgeList,  // edges(p)
  };

  Datum() : kind_(Kind::kUnbound) {}
  static Datum Unbound() { return Datum(); }
  static Datum OfNode(NodeId id);
  static Datum OfEdge(EdgeId id);
  static Datum OfPath(std::shared_ptr<const PathValue> path);
  static Datum OfValues(ValueSet values);
  static Datum OfValue(Value value) { return OfValues(ValueSet(value)); }
  static Datum OfBool(bool b) { return OfValue(Value::Bool(b)); }
  static Datum OfNodeList(std::vector<NodeId> nodes);
  static Datum OfEdgeList(std::vector<EdgeId> edges);

  Kind kind() const { return kind_; }
  bool IsUnbound() const { return kind_ == Kind::kUnbound; }
  bool IsBound() const { return kind_ != Kind::kUnbound; }

  NodeId node() const { return NodeId(id_); }
  EdgeId edge() const { return EdgeId(id_); }
  const PathValue& path() const { return *path_; }
  std::shared_ptr<const PathValue> path_ptr() const { return path_; }
  const ValueSet& values() const { return heavy_->values; }
  const std::vector<NodeId>& node_list() const { return heavy_->nodes; }
  const std::vector<EdgeId>& edge_list() const { return heavy_->edges; }

  /// Compatibility equality (µ1 ∼ µ2 on a shared variable). Paths compare
  /// by identifier.
  friend bool operator==(const Datum& a, const Datum& b);
  friend bool operator!=(const Datum& a, const Datum& b) { return !(a == b); }

  size_t Hash() const;
  std::string ToString() const;

 private:
  /// Out-of-line payload for kValues/kNodeList/kEdgeList.
  struct Heavy {
    ValueSet values;
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
  };

  Kind kind_;
  uint64_t id_ = 0;  // raw node/edge id for the dense kinds
  std::shared_ptr<const PathValue> path_;
  std::shared_ptr<const Heavy> heavy_;
};

/// One row = one binding µ (the materialized row-API view).
using BindingRow = std::vector<Datum>;

/// Order-sensitive hash mixing (the one formula every row/key hash in
/// the engine uses — the dedup sinks rely on reproducing row hashes
/// from row *parts*, so there must be exactly one mix).
inline size_t HashCombine(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b9 + (h << 6) + (h >> 2));
}

/// Column-major storage for one variable: one kind byte + one 64-bit slot
/// per row. Dense kinds (kUnbound/kNode/kEdge) store the raw id in the
/// slot; heavy kinds store an index into the out-of-line `overflow_`
/// Datum vector. `HashAt`/`CellsEqual`/`EqualsAt` reproduce Datum::Hash
/// and Datum::operator== exactly, so column-wise dedup and join probing
/// agree with the row-walk formulas bit-for-bit.
class Column {
 public:
  using Kind = Datum::Kind;

  size_t size() const { return kinds_.size(); }
  Kind KindAt(size_t i) const { return static_cast<Kind>(kinds_[i]); }
  bool BoundAt(size_t i) const { return KindAt(i) != Kind::kUnbound; }
  /// Valid only when KindAt(i) is the matching kind.
  NodeId NodeAt(size_t i) const { return NodeId(slots_[i]); }
  EdgeId EdgeAt(size_t i) const { return EdgeId(slots_[i]); }
  /// The out-of-line Datum of a heavy cell.
  const Datum& HeavyAt(size_t i) const { return overflow_[slots_[i]]; }

  /// Materializes cell `i` (the row-API adapter).
  Datum DatumAt(size_t i) const;
  /// == DatumAt(i).Hash(), computed without materializing.
  size_t HashAt(size_t i) const;
  /// == (DatumAt(i) == d), computed without materializing.
  bool EqualsAt(size_t i, const Datum& d) const;
  /// == (a.DatumAt(i) == b.DatumAt(j)).
  static bool CellsEqual(const Column& a, size_t i, const Column& b,
                         size_t j);

  void Append(Datum d);
  void AppendUnbound() {
    kinds_.push_back(static_cast<uint8_t>(Kind::kUnbound));
    slots_.push_back(0);
  }
  /// Appends a copy of src's cell `i` (heavy cells copy the slim Datum —
  /// a shared-pointer bump, no payload allocation).
  void AppendFrom(const Column& src, size_t i);
  /// Appends src's cells [begin, end) — bulk vector inserts when the
  /// source column has no heavy cells.
  void AppendRange(const Column& src, size_t begin, size_t end);
  /// Appends src's cells at `rows`, in order (the filter/dedup gather).
  void AppendIndexed(const Column& src, const std::vector<size_t>& rows);
  /// Overwrites cell `i`.
  void Set(size_t i, Datum d);
  void Reserve(size_t rows) {
    kinds_.reserve(rows);
    slots_.reserve(rows);
  }

 private:
  static bool IsDense(Kind k) {
    return k == Kind::kUnbound || k == Kind::kNode || k == Kind::kEdge;
  }

  std::vector<uint8_t> kinds_;
  std::vector<uint64_t> slots_;
  std::vector<Datum> overflow_;
};

/// A set of bindings over a fixed column schema, stored column-major.
class BindingTable {
 public:
  BindingTable() = default;
  explicit BindingTable(std::vector<std::string> columns);

  /// The canonical singleton {µ∅}: one row, no columns — the identity for
  /// the join operator.
  static BindingTable Unit();

  const std::vector<std::string>& columns() const { return columns_; }
  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return num_rows_; }
  bool Empty() const { return num_rows_ == 0; }

  static constexpr size_t kNpos = ~size_t{0};
  /// O(1): a name→index map is kept in sync by the constructor and
  /// AddColumn (per-cell Get/provenance lookups used to re-scan the
  /// column names linearly).
  size_t ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const {
    return ColumnIndex(name) != kNpos;
  }
  /// Appends a column (existing rows get kUnbound); returns its index.
  size_t AddColumn(const std::string& name);

  // --- row-oriented adapters -----------------------------------------------

  Status AddRow(BindingRow row);
  /// Materializes row `i`.
  BindingRow Row(size_t i) const;
  /// Materializes one cell (dense kinds are allocation-free; heavy kinds
  /// bump a shared pointer).
  Datum At(size_t row, size_t col) const { return cols_[col].DatumAt(row); }
  /// Datum of `var` in row `row`; kUnbound when the column is absent.
  Datum Get(size_t row, const std::string& var) const;

  // --- column-oriented fast paths ------------------------------------------

  const Column& ColumnAt(size_t c) const { return cols_[c]; }
  /// Overwrites one cell (CONSTRUCT's variable extension).
  void SetCell(size_t row, size_t col, Datum d) {
    cols_[col].Set(row, std::move(d));
  }

  /// == HashRow(Row(i)), computed column-wise.
  size_t RowHash(size_t i) const;
  /// == (Row(i) == row).
  bool RowEquals(size_t i, const BindingRow& row) const;
  /// == (a.Row(i) == b.Row(j)); requires equal arity.
  static bool RowsEqual(const BindingTable& a, size_t i,
                        const BindingTable& b, size_t j);

  /// Appends a copy of src's row `r`. src's columns must be a positional
  /// prefix of this table's (the operators build outputs as
  /// input-schema + appended columns); missing columns pad with kUnbound.
  void AppendRowFrom(const BindingTable& src, size_t r);
  /// Gathers src's rows at `rows` column-at-a-time (same prefix rule).
  void AppendRowsFrom(const BindingTable& src,
                      const std::vector<size_t>& rows);
  /// Appends src's rows [begin, end); requires identical arity.
  void AppendSlice(const BindingTable& src, size_t begin, size_t end);
  /// Appends every row of src (chunk concatenation).
  void AppendTable(const BindingTable& src) {
    AppendSlice(src, 0, src.NumRows());
  }
  /// Rows [begin, end) as a new table with this schema and provenance —
  /// the executor's morsel slicing (column-range copies, no row walks).
  BindingTable Slice(size_t begin, size_t end) const;
  /// Steals src's columns for projection: column `k` of this table
  /// becomes a copy of src's column kept[k]. Requires an empty table with
  /// kept.size() == NumColumns().
  void AdoptProjectedColumns(const BindingTable& src,
                             const std::vector<size_t>& kept);
  /// AdoptProjectedColumns over an expiring source: columns *move* out of
  /// src (left unspecified) instead of deep-copying their dense arrays; a
  /// kept index repeated for several positions copies from the first
  /// adopted one. The swapped-join canonical re-merge uses this so the
  /// large join result is never materialized twice.
  void AdoptProjectedColumnsMove(BindingTable&& src,
                                 const std::vector<size_t>& kept);
  void ReserveRows(size_t rows) {
    for (auto& c : cols_) c.Reserve(rows);
  }

  /// Low-level columnar writers for the join/union merge loops: append
  /// one cell into each column (in any order), then CommitRow() exactly
  /// once per assembled row.
  Column& MutableColumn(size_t c) { return cols_[c]; }
  void CommitRow() { ++num_rows_; }

  /// Which graph each object column was matched on; used by CONSTRUCT to
  /// copy λ/σ of bound objects (Section 3, "labels and properties ... are
  /// preserved in the returned result graph").
  void SetColumnGraph(const std::string& var, const std::string& graph);
  /// Empty string when unknown.
  const std::string& ColumnGraph(const std::string& var) const;
  const std::map<std::string, std::string>& column_graphs() const {
    return column_graphs_;
  }

  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
  std::vector<Column> cols_;
  size_t num_rows_ = 0;
  std::map<std::string, std::string> column_graphs_;
  /// name → column index, kept in sync with columns_ (first index wins
  /// for duplicate names, matching the old linear scan).
  std::unordered_map<std::string, size_t> name_index_;
};

/// Combined hash of a full binding row (order-sensitive over columns).
/// BindingTable::RowHash(i) reproduces this over columnar storage.
size_t HashRow(const BindingRow& row);

/// Open-addressed (hash, row index) set shared by the fused dedup sinks:
/// linear probing over power-of-two slots, grown below ~70% load, no
/// per-insert allocation.
class RowIndexSet {
 public:
  RowIndexSet();
  /// Pre-sizes for `entries` insertions.
  void Reserve(size_t entries);

  /// Inserts `index` under `hash` unless `eq(stored_index)` is true for
  /// some already-stored index with an equal hash. Returns true when
  /// inserted.
  template <typename EqFn>
  bool InsertIfNew(size_t hash, size_t index, EqFn eq) {
    if ((used_ + 1) * 10 > slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    size_t pos = Home(hash) & mask;
    while (slots_[pos].second != 0) {
      if (slots_[pos].first == hash && eq(slots_[pos].second - 1)) {
        return false;
      }
      pos = (pos + 1) & mask;
    }
    slots_[pos] = {hash, index + 1};
    ++used_;
    return true;
  }

  /// True when `eq(stored_index)` holds for some stored index with an
  /// equal hash.
  template <typename EqFn>
  bool Contains(size_t hash, EqFn eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = Home(hash) & mask; slots_[pos].second != 0;
         pos = (pos + 1) & mask) {
      if (slots_[pos].first == hash && eq(slots_[pos].second - 1)) {
        return true;
      }
    }
    return false;
  }

 private:
  void Grow();

  /// Home slot of `hash` before masking. Row hashes combine raw ids,
  /// whose low bits cluster (co-located pairs of nearby ids land on
  /// runs of neighbouring slots); the 64-bit finalizer of MurmurHash3
  /// spreads them over the table so linear probes stay short.
  static size_t Home(size_t hash) {
    uint64_t h = hash;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  /// (hash, row index + 1); second == 0 marks an empty slot.
  std::vector<std::pair<size_t, size_t>> slots_;
  size_t used_ = 0;
};

/// Fused duplicate elimination: rows are tested against the sink's seen
/// set *as they are constructed*, so the target table is duplicate-free
/// by construction — no trailing dedup pass and no re-hash of
/// already-stored rows. The seen set holds row *indices* into the target
/// table; stored rows are compared column-wise, never materialized.
///
/// The target table must not gain rows behind the sink's back while the
/// sink is live (indices would go stale); starting from a non-empty
/// table is fine — existing rows are indexed on construction.
class RowDedupSink {
 public:
  explicit RowDedupSink(BindingTable* out);

  /// Appends `row` unless an equal row is already in the table. Returns
  /// true if appended.
  bool Insert(BindingRow row);

  /// Columnar insert: appends a copy of src's row `r` (same positional
  /// schema as the target) unless an equal row is present. No BindingRow
  /// is materialized either way.
  bool InsertFrom(const BindingTable& src, size_t r);

 private:
  BindingTable* out_;
  RowIndexSet seen_;
};

}  // namespace gcore

#endif  // GCORE_EVAL_BINDING_H_
