#include "graph/graph_builder.h"

namespace gcore {

namespace {

/// Raises an atomic counter to at least `floor + 1`.
void RaiseTo(std::atomic<uint64_t>* counter, uint64_t floor) {
  uint64_t cur = counter->load();
  while (cur <= floor && !counter->compare_exchange_weak(cur, floor + 1)) {
  }
}

}  // namespace

void IdAllocator::ReserveNodeUpTo(uint64_t v) { RaiseTo(&next_node_, v); }
void IdAllocator::ReserveEdgeUpTo(uint64_t v) { RaiseTo(&next_edge_, v); }
void IdAllocator::ReservePathUpTo(uint64_t v) { RaiseTo(&next_path_, v); }

void GraphBuilder::ApplyLabelsProps(NodeId id,
                                    std::initializer_list<std::string> labels,
                                    std::initializer_list<Prop> props) {
  for (const auto& l : labels) graph_.AddLabel(id, l);
  for (const auto& p : props) {
    graph_.SetProperty(id, p.key, ValueSet(p.value));
  }
}

NodeId GraphBuilder::AddNode(std::initializer_list<std::string> labels,
                             std::initializer_list<Prop> props) {
  const NodeId id = ids_->NextNode();
  graph_.AddNode(id);
  ApplyLabelsProps(id, labels, props);
  return id;
}

NodeId GraphBuilder::AddNodeWithId(uint64_t raw_id,
                                   std::initializer_list<std::string> labels,
                                   std::initializer_list<Prop> props) {
  ids_->ReserveNodeUpTo(raw_id);
  const NodeId id(raw_id);
  graph_.AddNode(id);
  ApplyLabelsProps(id, labels, props);
  return id;
}

void GraphBuilder::AddNodePropertyValue(NodeId node, const std::string& key,
                                        Value value) {
  ValueSet values = graph_.Property(node, key);
  values.Insert(std::move(value));
  graph_.SetProperty(node, key, std::move(values));
}

void GraphBuilder::AddEdgePropertyValue(EdgeId edge, const std::string& key,
                                        Value value) {
  ValueSet values = graph_.Property(edge, key);
  values.Insert(std::move(value));
  graph_.SetProperty(edge, key, std::move(values));
}

EdgeId GraphBuilder::AddEdge(NodeId src, NodeId dst, const std::string& label,
                             std::initializer_list<Prop> props) {
  const EdgeId id = ids_->NextEdge();
  Status st = graph_.AddEdge(id, src, dst);
  (void)st;  // endpoints are builder-created members
  if (!label.empty()) graph_.AddLabel(id, label);
  for (const auto& p : props) {
    graph_.SetProperty(id, p.key, ValueSet(p.value));
  }
  return id;
}

EdgeId GraphBuilder::AddEdgeWithId(uint64_t raw_id, NodeId src, NodeId dst,
                                   const std::string& label,
                                   std::initializer_list<Prop> props) {
  ids_->ReserveEdgeUpTo(raw_id);
  const EdgeId id(raw_id);
  Status st = graph_.AddEdge(id, src, dst);
  (void)st;
  if (!label.empty()) graph_.AddLabel(id, label);
  for (const auto& p : props) {
    graph_.SetProperty(id, p.key, ValueSet(p.value));
  }
  return id;
}

Result<PathId> GraphBuilder::AddPath(
    const std::vector<NodeId>& nodes, const std::vector<EdgeId>& edges,
    std::initializer_list<std::string> labels,
    std::initializer_list<Prop> props) {
  return AddPathWithId(ids_->NextPath().value(), nodes, edges, labels, props);
}

Result<PathId> GraphBuilder::AddPathWithId(
    uint64_t raw_id, const std::vector<NodeId>& nodes,
    const std::vector<EdgeId>& edges,
    std::initializer_list<std::string> labels,
    std::initializer_list<Prop> props) {
  ids_->ReservePathUpTo(raw_id);
  const PathId id(raw_id);
  PathBody body;
  body.nodes = nodes;
  body.edges = edges;
  GCORE_RETURN_NOT_OK(graph_.AddPath(id, std::move(body)));
  for (const auto& l : labels) graph_.AddLabel(id, l);
  for (const auto& p : props) {
    graph_.SetProperty(id, p.key, ValueSet(p.value));
  }
  return id;
}

}  // namespace gcore
