#include "graph/ppg.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace gcore {

namespace {
const LabelSet kEmptyLabels;
const PropertyMap kEmptyProps;
const ValueSet kEmptyValues;
}  // namespace

// --- LabelSet ----------------------------------------------------------------

LabelSet::LabelSet(std::vector<std::string> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  if (!labels.empty()) rep_ = CowHandle(std::move(labels));
}

void LabelSet::Insert(const std::string& label) {
  const auto& cur = labels();
  auto it = std::lower_bound(cur.begin(), cur.end(), label);
  if (it != cur.end() && *it == label) return;
  const size_t pos = it - cur.begin();
  auto& own = rep_.Mutable();
  own.insert(own.begin() + pos, label);
}

void LabelSet::Remove(const std::string& label) {
  const auto& cur = labels();
  auto it = std::lower_bound(cur.begin(), cur.end(), label);
  if (it == cur.end() || *it != label) return;
  const size_t pos = it - cur.begin();
  auto& own = rep_.Mutable();
  own.erase(own.begin() + pos);
}

bool LabelSet::Contains(const std::string& label) const {
  return std::binary_search(begin(), end(), label);
}

void LabelSet::UnionWith(const LabelSet& other) {
  if (other.empty() || rep_.Shares(other.rep_)) return;
  if (empty()) {
    rep_ = other.rep_;
    return;
  }
  if (std::includes(begin(), end(), other.begin(), other.end())) return;
  std::vector<std::string> merged;
  merged.reserve(size() + other.size());
  std::set_union(begin(), end(), other.begin(), other.end(),
                 std::back_inserter(merged));
  rep_ = CowHandle(std::move(merged));
}

void LabelSet::IntersectWith(const LabelSet& other) {
  if (rep_.Shares(other.rep_)) return;
  std::vector<std::string> kept;
  std::set_intersection(begin(), end(), other.begin(), other.end(),
                        std::back_inserter(kept));
  if (kept.size() != size()) *this = LabelSet(std::move(kept));
}

std::string LabelSet::ToString() const {
  std::string out;
  for (const auto& l : labels()) {
    out += ':';
    out += l;
  }
  return out;
}

// --- PropertyMap --------------------------------------------------------------

const ValueSet& PropertyMap::Get(const std::string& key) const {
  auto it = entries().find(key);
  return it == entries().end() ? kEmptyValues : it->second;
}

void PropertyMap::Set(const std::string& key, ValueSet values) {
  if (values.empty()) {
    Remove(key);
  } else {
    rep_.Mutable()[key] = std::move(values);
  }
}

void PropertyMap::Add(const std::string& key, Value value) {
  rep_.Mutable()[key].Insert(std::move(value));
}

void PropertyMap::Remove(const std::string& key) {
  if (Has(key)) rep_.Mutable().erase(key);
}

bool PropertyMap::Has(const std::string& key) const {
  return entries().count(key) > 0;
}

void PropertyMap::UnionWith(const PropertyMap& other) {
  if (other.empty() || rep_.Shares(other.rep_)) return;
  if (empty()) {
    rep_ = other.rep_;
    return;
  }
  auto& own = rep_.Mutable();
  for (const auto& [key, values] : other.entries()) {
    auto it = own.find(key);
    if (it == own.end()) {
      own.emplace(key, values);
    } else {
      it->second = Union(it->second, values);
    }
  }
}

void PropertyMap::IntersectWith(const PropertyMap& other) {
  if (empty() || rep_.Shares(other.rep_)) return;
  auto& own = rep_.Mutable();
  for (auto it = own.begin(); it != own.end();) {
    auto other_it = other.entries().find(it->first);
    if (other_it == other.entries().end()) {
      it = own.erase(it);
      continue;
    }
    it->second = Intersect(it->second, other_it->second);
    if (it->second.empty()) {
      it = own.erase(it);
    } else {
      ++it;
    }
  }
}

std::string PropertyMap::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, values] : entries()) {
    if (!first) out += ", ";
    first = false;
    out += key;
    out += ": ";
    out += values.ToString();
  }
  out += "}";
  return out;
}

// --- PathPropertyGraph ---------------------------------------------------------

namespace {

/// First position of the id-sorted `store` whose id is not below `id`.
template <typename Store, typename Id>
size_t LowerBound(const Store& store, Id id) {
  return std::lower_bound(store.begin(), store.end(), id,
                          [](const auto& entry, Id key) {
                            return entry.first < key;
                          }) -
         store.begin();
}

/// The entry of `id` in the id-sorted `store`, or null: a binary search.
template <typename Store, typename Id>
auto Find(Store& store, Id id) -> decltype(&store.front()) {
  const size_t at = LowerBound(store, id);
  return at < store.size() && store[at].first == id ? &store[at] : nullptr;
}

/// The entry of `id`, default-inserted at its sorted position when absent
/// (an append when `id` exceeds every present id); `inserted` says which.
template <typename Store, typename Id>
typename Store::value_type& FindOrInsert(Store* store, Id id, bool* inserted) {
  *inserted = true;
  if (store->empty() || store->back().first < id) {
    return store->emplace_back(id, typename Store::value_type::second_type());
  }
  auto it = store->begin() + LowerBound(*store, id);
  if (it->first == id) {
    *inserted = false;
    return *it;
  }
  return *store->emplace(it, id, typename Store::value_type::second_type());
}

/// Find for each of the ascending `ids`: a galloping search forward from
/// the previous hit, doubling the step until it passes the id, then a
/// binary search inside the last step.
template <typename Store, typename Id>
auto FindAscending(const Store& store, const std::vector<Id>& ids) {
  std::vector<const typename Store::value_type::second_type*> out(ids.size(),
                                                                 nullptr);
  auto below = [](const auto& entry, Id key) { return entry.first < key; };
  size_t at = 0;
  for (size_t i = 0; i < ids.size() && at < store.size(); ++i) {
    size_t step = 1;
    size_t hi = at;
    while (hi < store.size() && store[hi].first < ids[i]) {
      at = hi + 1;
      hi += step;
      step <<= 1;
    }
    at = std::lower_bound(store.begin() + at,
                          store.begin() + std::min(hi, store.size()), ids[i],
                          below) -
         store.begin();
    if (at < store.size() && store[at].first == ids[i]) {
      out[i] = &store[at].second;
    }
  }
  return out;
}

}  // namespace

void PathPropertyGraph::AddNode(NodeId id) { UpsertNode(id); }

void PathPropertyGraph::Reserve(size_t nodes, size_t edges) {
  nodes_.reserve(nodes);
  edges_.reserve(edges);
}

PathPropertyGraph::ObjectData& PathPropertyGraph::AppendNode(NodeId id) {
  assert(nodes_.empty() || nodes_.back().first < id);
  return nodes_.emplace_back(id, ObjectData()).second;
}

PathPropertyGraph::ObjectData& PathPropertyGraph::AppendEdge(EdgeId id,
                                                             NodeId src,
                                                             NodeId dst) {
  assert(edges_.empty() || edges_.back().first < id);
  EdgeData& data = edges_.emplace_back(id, EdgeData()).second;
  data.src = src;
  data.dst = dst;
  return data;
}

PathPropertyGraph::ObjectData& PathPropertyGraph::AppendPath(PathId id,
                                                             PathBody body) {
  assert(paths_.empty() || paths_.back().first < id);
  PathData& data = paths_.emplace_back(id, PathData()).second;
  data.body = std::move(body);
  return data;
}

Status PathPropertyGraph::AddEdge(EdgeId id, NodeId src, NodeId dst) {
  return UpsertEdge(id, src, dst).status();
}

Status PathPropertyGraph::AddPath(PathId id, PathBody body) {
  return UpsertPath(id, std::move(body)).status();
}

PathPropertyGraph::ObjectData& PathPropertyGraph::UpsertNode(NodeId id) {
  bool inserted = false;
  return FindOrInsert(&nodes_, id, &inserted).second;
}

Result<PathPropertyGraph::ObjectData*> PathPropertyGraph::UpsertEdge(
    EdgeId id, NodeId src, NodeId dst) {
  if (!HasNode(src) || !HasNode(dst)) {
    return Status::InvalidArgument("edge " + gcore::ToString(id) +
                                   " endpoints must be graph members");
  }
  bool inserted = false;
  EdgeData& data = FindOrInsert(&edges_, id, &inserted).second;
  if (inserted) {
    data.src = src;
    data.dst = dst;
  } else if (data.src != src || data.dst != dst) {
    return Status::InvalidArgument(
        "edge " + gcore::ToString(id) +
        " re-added with different endpoints (identity violation)");
  }
  return static_cast<ObjectData*>(&data);
}

Result<PathPropertyGraph::ObjectData*> PathPropertyGraph::UpsertPath(
    PathId id, PathBody body) {
  if (body.nodes.size() != body.edges.size() + 1) {
    return Status::InvalidArgument("path body must have n+1 nodes for n edges");
  }
  for (NodeId n : body.nodes) {
    if (!HasNode(n)) {
      return Status::InvalidArgument("path node " + gcore::ToString(n) +
                                     " is not a graph member");
    }
  }
  for (size_t i = 0; i < body.edges.size(); ++i) {
    const EdgeData* edge = FindEdge(body.edges[i]);
    if (edge == nullptr) {
      return Status::InvalidArgument("path edge " +
                                     gcore::ToString(body.edges[i]) +
                                     " is not a graph member");
    }
    const NodeId a = body.nodes[i];
    const NodeId b = body.nodes[i + 1];
    const bool forward = edge->src == a && edge->dst == b;
    const bool backward = edge->src == b && edge->dst == a;
    if (!forward && !backward) {
      return Status::InvalidArgument(
          "path edge " + gcore::ToString(body.edges[i]) +
          " does not connect consecutive path nodes (Definition 2.1 (3))");
    }
  }
  bool inserted = false;
  PathData& data = FindOrInsert(&paths_, id, &inserted).second;
  if (inserted) {
    data.body = std::move(body);
  } else if (!(data.body == body)) {
    return Status::InvalidArgument(
        "path " + gcore::ToString(id) +
        " re-added with different body (identity violation)");
  }
  return static_cast<ObjectData*>(&data);
}

const PathPropertyGraph::ObjectData* PathPropertyGraph::FindNode(
    NodeId id) const {
  const auto* entry = Find(nodes_, id);
  return entry == nullptr ? nullptr : &entry->second;
}

const PathPropertyGraph::EdgeData* PathPropertyGraph::FindEdge(
    EdgeId id) const {
  const auto* entry = Find(edges_, id);
  return entry == nullptr ? nullptr : &entry->second;
}

const PathPropertyGraph::PathData* PathPropertyGraph::FindPath(
    PathId id) const {
  const auto* entry = Find(paths_, id);
  return entry == nullptr ? nullptr : &entry->second;
}

std::vector<const PathPropertyGraph::ObjectData*> PathPropertyGraph::FindNodes(
    const std::vector<NodeId>& ids) const {
  return FindAscending(nodes_, ids);
}

std::vector<const PathPropertyGraph::EdgeData*> PathPropertyGraph::FindEdges(
    const std::vector<EdgeId>& ids) const {
  return FindAscending(edges_, ids);
}

std::pair<NodeId, NodeId> PathPropertyGraph::EdgeEndpoints(EdgeId id) const {
  const EdgeData* data = FindEdge(id);
  if (data == nullptr) throw std::out_of_range("EdgeEndpoints: no such edge");
  return {data->src, data->dst};
}

const PathBody& PathPropertyGraph::Path(PathId id) const {
  const PathData* data = FindPath(id);
  if (data == nullptr) throw std::out_of_range("Path: no such path");
  return data->body;
}

// Label/property accessors are triplicated over the three stores; a small
// macro keeps the definitions in sync.
#define GCORE_PPG_OBJECT_ACCESSORS(IdType, store)                             \
  const LabelSet& PathPropertyGraph::Labels(IdType id) const {                \
    auto* entry = Find(store, id);                                            \
    return entry == nullptr ? kEmptyLabels : entry->second.labels;            \
  }                                                                           \
  void PathPropertyGraph::AddLabel(IdType id, const std::string& label) {     \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.labels.Insert(label);                 \
  }                                                                           \
  void PathPropertyGraph::RemoveLabel(IdType id, const std::string& label) {  \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.labels.Remove(label);                 \
  }                                                                           \
  void PathPropertyGraph::SetLabels(IdType id, LabelSet labels) {             \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.labels = std::move(labels);           \
  }                                                                           \
  const PropertyMap& PathPropertyGraph::Properties(IdType id) const {         \
    auto* entry = Find(store, id);                                            \
    return entry == nullptr ? kEmptyProps : entry->second.props;              \
  }                                                                           \
  const ValueSet& PathPropertyGraph::Property(IdType id,                      \
                                              const std::string& key) const { \
    auto* entry = Find(store, id);                                            \
    return entry == nullptr ? kEmptyValues : entry->second.props.Get(key);    \
  }                                                                           \
  void PathPropertyGraph::SetProperty(IdType id, const std::string& key,      \
                                      ValueSet values) {                      \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.props.Set(key, std::move(values));    \
  }                                                                           \
  void PathPropertyGraph::RemoveProperty(IdType id, const std::string& key) { \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.props.Remove(key);                    \
  }                                                                           \
  void PathPropertyGraph::SetProperties(IdType id, PropertyMap props) {       \
    auto* entry = Find(store, id);                                            \
    if (entry != nullptr) entry->second.props = std::move(props);             \
  }

GCORE_PPG_OBJECT_ACCESSORS(NodeId, nodes_)
GCORE_PPG_OBJECT_ACCESSORS(EdgeId, edges_)
GCORE_PPG_OBJECT_ACCESSORS(PathId, paths_)

#undef GCORE_PPG_OBJECT_ACCESSORS

std::vector<NodeId> PathPropertyGraph::NodeIds() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, data] : nodes_) out.push_back(id);
  return out;
}

std::vector<EdgeId> PathPropertyGraph::EdgeIds() const {
  std::vector<EdgeId> out;
  out.reserve(edges_.size());
  for (const auto& [id, data] : edges_) out.push_back(id);
  return out;
}

std::vector<PathId> PathPropertyGraph::PathIds() const {
  std::vector<PathId> out;
  out.reserve(paths_.size());
  for (const auto& [id, data] : paths_) out.push_back(id);
  return out;
}

Status PathPropertyGraph::Validate() const {
  for (const auto& [id, data] : edges_) {
    if (!HasNode(data.src) || !HasNode(data.dst)) {
      return Status::InvalidArgument("dangling edge " + gcore::ToString(id));
    }
  }
  for (const auto& [id, data] : paths_) {
    const PathBody& body = data.body;
    if (body.nodes.size() != body.edges.size() + 1) {
      return Status::InvalidArgument("malformed path body " +
                                     gcore::ToString(id));
    }
    for (NodeId n : body.nodes) {
      if (!HasNode(n)) {
        return Status::InvalidArgument("path " + gcore::ToString(id) +
                                       " references non-member node");
      }
    }
    for (size_t i = 0; i < body.edges.size(); ++i) {
      const EdgeData* edge = FindEdge(body.edges[i]);
      if (edge == nullptr) {
        return Status::InvalidArgument("path " + gcore::ToString(id) +
                                       " references non-member edge");
      }
      const NodeId a = body.nodes[i];
      const NodeId b = body.nodes[i + 1];
      const bool ok = (edge->src == a && edge->dst == b) ||
                      (edge->src == b && edge->dst == a);
      if (!ok) {
        return Status::InvalidArgument("path " + gcore::ToString(id) +
                                       " is not a valid edge concatenation");
      }
    }
  }
  return Status::OK();
}

std::string PathPropertyGraph::ToString() const {
  std::ostringstream out;
  out << "graph " << (name_.empty() ? "<anonymous>" : name_) << " ("
      << nodes_.size() << " nodes, " << edges_.size() << " edges, "
      << paths_.size() << " paths)\n";
  for (const auto& [id, data] : nodes_) {
    out << "  (" << gcore::ToString(id) << data.labels.ToString();
    if (!data.props.empty()) out << " " << data.props.ToString();
    out << ")\n";
  }
  for (const auto& [id, data] : edges_) {
    out << "  (" << gcore::ToString(data.src) << ")-[" << gcore::ToString(id)
        << data.labels.ToString();
    if (!data.props.empty()) out << " " << data.props.ToString();
    out << "]->(" << gcore::ToString(data.dst) << ")\n";
  }
  for (const auto& [id, data] : paths_) {
    out << "  path " << gcore::ToString(id) << data.labels.ToString();
    if (!data.props.empty()) out << " " << data.props.ToString();
    out << " = [";
    for (size_t i = 0; i < data.body.nodes.size(); ++i) {
      if (i > 0) {
        out << ", " << gcore::ToString(data.body.edges[i - 1]) << ", ";
      }
      out << gcore::ToString(data.body.nodes[i]);
    }
    out << "]\n";
  }
  return out.str();
}

}  // namespace gcore
