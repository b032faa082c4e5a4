#include "eval/binding.h"

#include <algorithm>
#include <sstream>

namespace gcore {

namespace {
const std::string kEmptyString;

/// Datum::Hash of a kUnbound cell; Column::HashAt reproduces it without
/// constructing the Datum.
constexpr size_t kUnboundHash = 0x5bd1e995;
}  // namespace

Datum Datum::OfNode(NodeId id) {
  Datum d;
  d.kind_ = Kind::kNode;
  d.id_ = id.value();
  return d;
}

Datum Datum::OfEdge(EdgeId id) {
  Datum d;
  d.kind_ = Kind::kEdge;
  d.id_ = id.value();
  return d;
}

Datum Datum::OfPath(std::shared_ptr<const PathValue> path) {
  Datum d;
  d.kind_ = Kind::kPath;
  d.path_ = std::move(path);
  return d;
}

Datum Datum::OfValues(ValueSet values) {
  Datum d;
  d.kind_ = Kind::kValues;
  auto heavy = std::make_shared<Heavy>();
  heavy->values = std::move(values);
  d.heavy_ = std::move(heavy);
  return d;
}

Datum Datum::OfNodeList(std::vector<NodeId> nodes) {
  Datum d;
  d.kind_ = Kind::kNodeList;
  auto heavy = std::make_shared<Heavy>();
  heavy->nodes = std::move(nodes);
  d.heavy_ = std::move(heavy);
  return d;
}

Datum Datum::OfEdgeList(std::vector<EdgeId> edges) {
  Datum d;
  d.kind_ = Kind::kEdgeList;
  auto heavy = std::make_shared<Heavy>();
  heavy->edges = std::move(edges);
  d.heavy_ = std::move(heavy);
  return d;
}

bool operator==(const Datum& a, const Datum& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Datum::Kind::kUnbound:
      return true;
    case Datum::Kind::kNode:
    case Datum::Kind::kEdge:
      return a.id_ == b.id_;
    case Datum::Kind::kPath:
      return a.path_->id == b.path_->id;
    case Datum::Kind::kValues:
      return a.heavy_ == b.heavy_ || a.heavy_->values == b.heavy_->values;
    case Datum::Kind::kNodeList:
      return a.heavy_ == b.heavy_ || a.heavy_->nodes == b.heavy_->nodes;
    case Datum::Kind::kEdgeList:
      return a.heavy_ == b.heavy_ || a.heavy_->edges == b.heavy_->edges;
  }
  return false;
}

size_t Datum::Hash() const {
  switch (kind_) {
    case Kind::kUnbound:
      return kUnboundHash;
    case Kind::kNode:
      return std::hash<uint64_t>{}(id_) ^ 0x10;
    case Kind::kEdge:
      return std::hash<uint64_t>{}(id_) ^ 0x20;
    case Kind::kPath:
      return std::hash<PathId>{}(path_->id) ^ 0x30;
    case Kind::kValues:
      return heavy_->values.Hash() ^ 0x40;
    case Kind::kNodeList: {
      size_t h = 0x50;
      for (NodeId n : heavy_->nodes) h = h * 31 + std::hash<NodeId>{}(n);
      return h;
    }
    case Kind::kEdgeList: {
      size_t h = 0x60;
      for (EdgeId e : heavy_->edges) h = h * 31 + std::hash<EdgeId>{}(e);
      return h;
    }
  }
  return 0;
}

std::string Datum::ToString() const {
  switch (kind_) {
    case Kind::kUnbound:
      return "⊥";
    case Kind::kNode:
      return gcore::ToString(node());
    case Kind::kEdge:
      return gcore::ToString(edge());
    case Kind::kPath:
      return gcore::ToString(path_->id);
    case Kind::kValues:
      return heavy_->values.ToString();
    case Kind::kNodeList: {
      std::string out = "[";
      const auto& nodes = heavy_->nodes;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (i > 0) out += ", ";
        out += gcore::ToString(nodes[i]);
      }
      return out + "]";
    }
    case Kind::kEdgeList: {
      std::string out = "[";
      const auto& edges = heavy_->edges;
      for (size_t i = 0; i < edges.size(); ++i) {
        if (i > 0) out += ", ";
        out += gcore::ToString(edges[i]);
      }
      return out + "]";
    }
  }
  return "?";
}

// --- Column -------------------------------------------------------------------

Datum Column::DatumAt(size_t i) const {
  switch (KindAt(i)) {
    case Kind::kUnbound:
      return Datum();
    case Kind::kNode:
      return Datum::OfNode(NodeId(slots_[i]));
    case Kind::kEdge:
      return Datum::OfEdge(EdgeId(slots_[i]));
    default:
      return overflow_[slots_[i]];
  }
}

size_t Column::HashAt(size_t i) const {
  switch (KindAt(i)) {
    case Kind::kUnbound:
      return kUnboundHash;
    case Kind::kNode:
      return std::hash<uint64_t>{}(slots_[i]) ^ 0x10;
    case Kind::kEdge:
      return std::hash<uint64_t>{}(slots_[i]) ^ 0x20;
    default:
      return overflow_[slots_[i]].Hash();
  }
}

bool Column::EqualsAt(size_t i, const Datum& d) const {
  const Kind k = KindAt(i);
  if (k != d.kind()) return false;
  switch (k) {
    case Kind::kUnbound:
      return true;
    case Kind::kNode:
      return slots_[i] == d.node().value();
    case Kind::kEdge:
      return slots_[i] == d.edge().value();
    default:
      return overflow_[slots_[i]] == d;
  }
}

bool Column::CellsEqual(const Column& a, size_t i, const Column& b,
                        size_t j) {
  const Kind k = a.KindAt(i);
  if (k != b.KindAt(j)) return false;
  switch (k) {
    case Kind::kUnbound:
      return true;
    case Kind::kNode:
    case Kind::kEdge:
      return a.slots_[i] == b.slots_[j];
    default:
      return a.overflow_[a.slots_[i]] == b.overflow_[b.slots_[j]];
  }
}

void Column::Append(Datum d) {
  const Kind k = d.kind();
  kinds_.push_back(static_cast<uint8_t>(k));
  switch (k) {
    case Kind::kUnbound:
      slots_.push_back(0);
      break;
    case Kind::kNode:
      slots_.push_back(d.node().value());
      break;
    case Kind::kEdge:
      slots_.push_back(d.edge().value());
      break;
    default:
      overflow_.push_back(std::move(d));
      slots_.push_back(overflow_.size() - 1);
      break;
  }
}

void Column::AppendFrom(const Column& src, size_t i) {
  const Kind k = src.KindAt(i);
  kinds_.push_back(static_cast<uint8_t>(k));
  if (IsDense(k)) {
    slots_.push_back(src.slots_[i]);
  } else {
    overflow_.push_back(src.overflow_[src.slots_[i]]);
    slots_.push_back(overflow_.size() - 1);
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t end) {
  kinds_.insert(kinds_.end(), src.kinds_.begin() + begin,
                src.kinds_.begin() + end);
  if (src.overflow_.empty()) {
    slots_.insert(slots_.end(), src.slots_.begin() + begin,
                  src.slots_.begin() + end);
    return;
  }
  slots_.reserve(slots_.size() + (end - begin));
  for (size_t i = begin; i < end; ++i) {
    if (IsDense(src.KindAt(i))) {
      slots_.push_back(src.slots_[i]);
    } else {
      overflow_.push_back(src.overflow_[src.slots_[i]]);
      slots_.push_back(overflow_.size() - 1);
    }
  }
}

void Column::AppendIndexed(const Column& src,
                           const std::vector<size_t>& rows) {
  kinds_.reserve(kinds_.size() + rows.size());
  slots_.reserve(slots_.size() + rows.size());
  if (src.overflow_.empty()) {
    for (size_t r : rows) {
      kinds_.push_back(src.kinds_[r]);
      slots_.push_back(src.slots_[r]);
    }
    return;
  }
  for (size_t r : rows) AppendFrom(src, r);
}

void Column::Set(size_t i, Datum d) {
  const Kind k = d.kind();
  if (!IsDense(k)) {
    if (!IsDense(KindAt(i))) {
      // Reuse the existing overflow slot (each cell owns its slot).
      overflow_[slots_[i]] = std::move(d);
    } else {
      overflow_.push_back(std::move(d));
      slots_[i] = overflow_.size() - 1;
    }
  } else {
    // A heavy→dense overwrite strands the old overflow entry; harmless
    // (cells are append-mostly, CONSTRUCT only sets fresh objects).
    switch (k) {
      case Kind::kUnbound:
        slots_[i] = 0;
        break;
      case Kind::kNode:
        slots_[i] = d.node().value();
        break;
      case Kind::kEdge:
        slots_[i] = d.edge().value();
        break;
      default:
        break;
    }
  }
  kinds_[i] = static_cast<uint8_t>(k);
}

// --- BindingTable -------------------------------------------------------------

BindingTable::BindingTable(std::vector<std::string> columns)
    : columns_(std::move(columns)), cols_(columns_.size()) {
  name_index_.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    name_index_.emplace(columns_[i], i);  // first index wins
  }
}

BindingTable BindingTable::Unit() {
  BindingTable t;
  t.num_rows_ = 1;
  return t;
}

size_t BindingTable::ColumnIndex(const std::string& name) const {
  auto it = name_index_.find(name);
  return it == name_index_.end() ? kNpos : it->second;
}

size_t BindingTable::AddColumn(const std::string& name) {
  const size_t existing = ColumnIndex(name);
  if (existing != kNpos) return existing;
  columns_.push_back(name);
  cols_.emplace_back();
  Column& col = cols_.back();
  col.Reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) col.AppendUnbound();
  name_index_.emplace(name, columns_.size() - 1);
  return columns_.size() - 1;
}

Status BindingTable::AddRow(BindingRow row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "binding row has " + std::to_string(row.size()) +
        " entries, table has " + std::to_string(columns_.size()) +
        " columns");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    cols_[c].Append(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

BindingRow BindingTable::Row(size_t i) const {
  BindingRow row;
  row.reserve(cols_.size());
  for (const Column& c : cols_) row.push_back(c.DatumAt(i));
  return row;
}

Datum BindingTable::Get(size_t row, const std::string& var) const {
  const size_t col = ColumnIndex(var);
  return col == kNpos ? Datum() : cols_[col].DatumAt(row);
}

size_t BindingTable::RowHash(size_t i) const {
  size_t h = 0;
  for (const Column& c : cols_) h = HashCombine(h, c.HashAt(i));
  return h;
}

bool BindingTable::RowEquals(size_t i, const BindingRow& row) const {
  if (row.size() != cols_.size()) return false;
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!cols_[c].EqualsAt(i, row[c])) return false;
  }
  return true;
}

bool BindingTable::RowsEqual(const BindingTable& a, size_t i,
                             const BindingTable& b, size_t j) {
  for (size_t c = 0; c < a.cols_.size(); ++c) {
    if (!Column::CellsEqual(a.cols_[c], i, b.cols_[c], j)) return false;
  }
  return true;
}

void BindingTable::AppendRowFrom(const BindingTable& src, size_t r) {
  const size_t shared = src.cols_.size();
  for (size_t c = 0; c < shared; ++c) cols_[c].AppendFrom(src.cols_[c], r);
  for (size_t c = shared; c < cols_.size(); ++c) cols_[c].AppendUnbound();
  ++num_rows_;
}

void BindingTable::AppendRowsFrom(const BindingTable& src,
                                  const std::vector<size_t>& rows) {
  const size_t shared = src.cols_.size();
  for (size_t c = 0; c < shared; ++c) {
    cols_[c].AppendIndexed(src.cols_[c], rows);
  }
  for (size_t c = shared; c < cols_.size(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) cols_[c].AppendUnbound();
  }
  num_rows_ += rows.size();
}

void BindingTable::AppendSlice(const BindingTable& src, size_t begin,
                               size_t end) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendRange(src.cols_[c], begin, end);
  }
  num_rows_ += end - begin;
}

BindingTable BindingTable::Slice(size_t begin, size_t end) const {
  BindingTable out(columns_);
  out.column_graphs_ = column_graphs_;
  out.AppendSlice(*this, begin, end);
  return out;
}

void BindingTable::AdoptProjectedColumns(const BindingTable& src,
                                         const std::vector<size_t>& kept) {
  for (size_t k = 0; k < kept.size(); ++k) {
    cols_[k] = src.cols_[kept[k]];
  }
  num_rows_ = src.num_rows_;
}

void BindingTable::AdoptProjectedColumnsMove(BindingTable&& src,
                                             const std::vector<size_t>& kept) {
  std::unordered_map<size_t, size_t> first_pos;
  first_pos.reserve(kept.size());
  for (size_t k = 0; k < kept.size(); ++k) {
    auto [it, fresh] = first_pos.emplace(kept[k], k);
    if (fresh) {
      cols_[k] = std::move(src.cols_[kept[k]]);
    } else {
      // Duplicate-named source column already moved: its value is equal
      // by construction, copy the adopted one.
      cols_[k] = cols_[it->second];
    }
  }
  num_rows_ = src.num_rows_;
}

size_t HashRow(const BindingRow& row) {
  size_t h = 0;
  for (const Datum& d : row) h = HashCombine(h, d.Hash());
  return h;
}

RowIndexSet::RowIndexSet() : slots_(64, {0, 0}) {}

void RowIndexSet::Reserve(size_t entries) {
  while (slots_.size() * 7 < entries * 10) Grow();
}

void RowIndexSet::Grow() {
  std::vector<std::pair<size_t, size_t>> old = std::move(slots_);
  slots_.assign(old.size() * 2, {0, 0});
  const size_t mask = slots_.size() - 1;
  for (const auto& slot : old) {
    if (slot.second == 0) continue;
    size_t pos = Home(slot.first) & mask;
    while (slots_[pos].second != 0) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

RowDedupSink::RowDedupSink(BindingTable* out) : out_(out) {
  seen_.Reserve(out->NumRows() + 1);
  for (size_t i = 0; i < out->NumRows(); ++i) {
    // Existing rows are indexed as-is (no dedup among them).
    seen_.InsertIfNew(out->RowHash(i), i, [](size_t) { return false; });
  }
}

bool RowDedupSink::Insert(BindingRow row) {
  const size_t hash = HashRow(row);
  const bool fresh = seen_.InsertIfNew(hash, out_->NumRows(), [&](size_t i) {
    return out_->RowEquals(i, row);
  });
  if (!fresh) return false;
  Status st = out_->AddRow(std::move(row));
  (void)st;
  return true;
}

bool RowDedupSink::InsertFrom(const BindingTable& src, size_t r) {
  const size_t hash = src.RowHash(r);
  const bool fresh = seen_.InsertIfNew(hash, out_->NumRows(), [&](size_t i) {
    return BindingTable::RowsEqual(*out_, i, src, r);
  });
  if (!fresh) return false;
  out_->AppendRowFrom(src, r);
  return true;
}

void BindingTable::SetColumnGraph(const std::string& var,
                                  const std::string& graph) {
  if (graph.empty()) return;
  column_graphs_[var] = graph;
}

const std::string& BindingTable::ColumnGraph(const std::string& var) const {
  auto it = column_graphs_.find(var);
  return it == column_graphs_.end() ? kEmptyString : it->second;
}

std::string BindingTable::ToString() const {
  std::ostringstream out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out << " | ";
    out << columns_[c];
  }
  out << "\n";
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (c > 0) out << " | ";
      out << cols_[c].DatumAt(r).ToString();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace gcore
