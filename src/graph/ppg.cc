#include "graph/ppg.h"

#include <algorithm>
#include <sstream>

namespace gcore {

namespace {
const LabelSet kEmptyLabels;
const PropertyMap kEmptyProps;
const ValueSet kEmptyValues;
}  // namespace

// --- LabelSet ----------------------------------------------------------------

LabelSet::LabelSet(std::vector<std::string> labels)
    : labels_(std::move(labels)) {
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
}

void LabelSet::Insert(const std::string& label) {
  auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it != labels_.end() && *it == label) return;
  labels_.insert(it, label);
}

void LabelSet::Remove(const std::string& label) {
  auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it != labels_.end() && *it == label) labels_.erase(it);
}

bool LabelSet::Contains(const std::string& label) const {
  return std::binary_search(labels_.begin(), labels_.end(), label);
}

void LabelSet::UnionWith(const LabelSet& other) {
  for (const auto& l : other.labels_) Insert(l);
}

void LabelSet::IntersectWith(const LabelSet& other) {
  std::vector<std::string> kept;
  std::set_intersection(labels_.begin(), labels_.end(), other.labels_.begin(),
                        other.labels_.end(), std::back_inserter(kept));
  labels_ = std::move(kept);
}

std::string LabelSet::ToString() const {
  std::string out;
  for (const auto& l : labels_) {
    out += ':';
    out += l;
  }
  return out;
}

// --- PropertyMap --------------------------------------------------------------

const ValueSet& PropertyMap::Get(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? kEmptyValues : it->second;
}

void PropertyMap::Set(const std::string& key, ValueSet values) {
  if (values.empty()) {
    entries_.erase(key);
  } else {
    entries_[key] = std::move(values);
  }
}

void PropertyMap::Add(const std::string& key, Value value) {
  entries_[key].Insert(std::move(value));
}

void PropertyMap::Remove(const std::string& key) { entries_.erase(key); }

bool PropertyMap::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

void PropertyMap::UnionWith(const PropertyMap& other) {
  for (const auto& [key, values] : other.entries_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entries_.emplace(key, values);
    } else {
      it->second = Union(it->second, values);
    }
  }
}

void PropertyMap::IntersectWith(const PropertyMap& other) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto other_it = other.entries_.find(it->first);
    if (other_it == other.entries_.end()) {
      it = entries_.erase(it);
      continue;
    }
    it->second = Intersect(it->second, other_it->second);
    if (it->second.empty()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string PropertyMap::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, values] : entries_) {
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

/// Finds `id` in `store`, default-inserting it when absent. An id above
/// every stored key is appended at the end without a tree search.
template <typename Map, typename Id>
std::pair<typename Map::iterator, bool> FindOrAppend(Map* store, Id id) {
  if (store->empty() || store->rbegin()->first < id) {
    return {store->emplace_hint(store->end(), id, typename Map::mapped_type()),
            true};
  }
  return store->try_emplace(id);
}

/// Looks up ascending `ids` in `store` by walking it in order; a gap of
/// more than a few members falls back to a tree search.
template <typename Data, typename Map, typename Id>
std::vector<const Data*> FindSorted(const Map& store,
                                    const std::vector<Id>& ids) {
  constexpr int kMaxSteps = 8;
  std::vector<const Data*> out(ids.size(), nullptr);
  auto it = store.begin();
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int step = 0; step < kMaxSteps && it != store.end() &&
                       it->first < ids[i];
         ++step) {
      ++it;
    }
    if (it != store.end() && it->first < ids[i]) it = store.lower_bound(ids[i]);
    if (it != store.end() && it->first == ids[i]) out[i] = &it->second;
  }
  return out;
}

}  // namespace

void PathPropertyGraph::AddNode(NodeId id) { UpsertNode(id); }

Status PathPropertyGraph::AddEdge(EdgeId id, NodeId src, NodeId dst) {
  return UpsertEdge(id, src, dst).status();
}

Status PathPropertyGraph::AddPath(PathId id, PathBody body) {
  return UpsertPath(id, std::move(body)).status();
}

PathPropertyGraph::ObjectData& PathPropertyGraph::UpsertNode(NodeId id) {
  return FindOrAppend(&nodes_, id).first->second;
}

Result<PathPropertyGraph::ObjectData*> PathPropertyGraph::UpsertEdge(
    EdgeId id, NodeId src, NodeId dst) {
  if (!HasNode(src) || !HasNode(dst)) {
    return Status::InvalidArgument("edge " + gcore::ToString(id) +
                                   " endpoints must be graph members");
  }
  auto [it, inserted] = FindOrAppend(&edges_, id);
  if (inserted) {
    it->second.src = src;
    it->second.dst = dst;
  } else if (it->second.src != src || it->second.dst != dst) {
    return Status::InvalidArgument(
        "edge " + gcore::ToString(id) +
        " re-added with different endpoints (identity violation)");
  }
  return static_cast<ObjectData*>(&it->second);
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
    auto it = edges_.find(body.edges[i]);
    if (it == edges_.end()) {
      return Status::InvalidArgument("path edge " +
                                     gcore::ToString(body.edges[i]) +
                                     " is not a graph member");
    }
    const NodeId a = body.nodes[i];
    const NodeId b = body.nodes[i + 1];
    const bool forward = it->second.src == a && it->second.dst == b;
    const bool backward = it->second.src == b && it->second.dst == a;
    if (!forward && !backward) {
      return Status::InvalidArgument(
          "path edge " + gcore::ToString(body.edges[i]) +
          " does not connect consecutive path nodes (Definition 2.1 (3))");
    }
  }
  auto [it, inserted] = FindOrAppend(&paths_, id);
  if (inserted) {
    it->second.body = std::move(body);
  } else if (!(it->second.body == body)) {
    return Status::InvalidArgument(
        "path " + gcore::ToString(id) +
        " re-added with different body (identity violation)");
  }
  return static_cast<ObjectData*>(&it->second);
}

const PathPropertyGraph::ObjectData* PathPropertyGraph::FindNode(
    NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const PathPropertyGraph::EdgeData* PathPropertyGraph::FindEdge(
    EdgeId id) const {
  auto it = edges_.find(id);
  return it == edges_.end() ? nullptr : &it->second;
}

const PathPropertyGraph::PathData* PathPropertyGraph::FindPath(
    PathId id) const {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : &it->second;
}

std::vector<const PathPropertyGraph::ObjectData*> PathPropertyGraph::FindNodes(
    const std::vector<NodeId>& sorted_ids) const {
  return FindSorted<ObjectData>(nodes_, sorted_ids);
}

std::vector<const PathPropertyGraph::EdgeData*> PathPropertyGraph::FindEdges(
    const std::vector<EdgeId>& sorted_ids) const {
  return FindSorted<EdgeData>(edges_, sorted_ids);
}

std::pair<NodeId, NodeId> PathPropertyGraph::EdgeEndpoints(EdgeId id) const {
  const auto& data = edges_.at(id);
  return {data.src, data.dst};
}

const PathBody& PathPropertyGraph::Path(PathId id) const {
  return paths_.at(id).body;
}

// Label/property accessors are triplicated over the three stores; a small
// macro keeps the definitions in sync.
#define GCORE_PPG_OBJECT_ACCESSORS(IdType, store)                             \
  const LabelSet& PathPropertyGraph::Labels(IdType id) const {                \
    auto it = store.find(id);                                                 \
    return it == store.end() ? kEmptyLabels : it->second.labels;              \
  }                                                                           \
  void PathPropertyGraph::AddLabel(IdType id, const std::string& label) {     \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.labels.Insert(label);                   \
  }                                                                           \
  void PathPropertyGraph::RemoveLabel(IdType id, const std::string& label) {  \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.labels.Remove(label);                   \
  }                                                                           \
  void PathPropertyGraph::SetLabels(IdType id, LabelSet labels) {             \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.labels = std::move(labels);             \
  }                                                                           \
  const PropertyMap& PathPropertyGraph::Properties(IdType id) const {         \
    auto it = store.find(id);                                                 \
    return it == store.end() ? kEmptyProps : it->second.props;                \
  }                                                                           \
  const ValueSet& PathPropertyGraph::Property(IdType id,                      \
                                              const std::string& key) const { \
    auto it = store.find(id);                                                 \
    return it == store.end() ? kEmptyValues : it->second.props.Get(key);      \
  }                                                                           \
  void PathPropertyGraph::SetProperty(IdType id, const std::string& key,      \
                                      ValueSet values) {                      \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.props.Set(key, std::move(values));      \
  }                                                                           \
  void PathPropertyGraph::RemoveProperty(IdType id, const std::string& key) { \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.props.Remove(key);                      \
  }                                                                           \
  void PathPropertyGraph::SetProperties(IdType id, PropertyMap props) {       \
    auto it = store.find(id);                                                 \
    if (it != store.end()) it->second.props = std::move(props);               \
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
      auto it = edges_.find(body.edges[i]);
      if (it == edges_.end()) {
        return Status::InvalidArgument("path " + gcore::ToString(id) +
                                       " references non-member edge");
      }
      const NodeId a = body.nodes[i];
      const NodeId b = body.nodes[i + 1];
      const bool ok = (it->second.src == a && it->second.dst == b) ||
                      (it->second.src == b && it->second.dst == a);
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
