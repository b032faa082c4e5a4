// Convenience construction API over PathPropertyGraph, plus the shared
// identifier allocator.
//
// All graphs in one engine session draw identities from a single
// IdAllocator so that query outputs can share objects with inputs and the
// graph-level set operations of Appendix A.5 are meaningful.
//
// The builder collects no statistics: register the built graph with
// GraphCatalog::RegisterGraph(name, graph) and the catalog computes them
// from its snapshot on first use (GraphStats::CollectFromSnapshot).
#ifndef GCORE_GRAPH_GRAPH_BUILDER_H_
#define GCORE_GRAPH_GRAPH_BUILDER_H_

#include <atomic>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "graph/ppg.h"

namespace gcore {

/// Monotonic source of fresh node/edge/path identifiers. Thread-safe.
class IdAllocator {
 public:
  NodeId NextNode() { return NodeId(next_node_++); }
  EdgeId NextEdge() { return EdgeId(next_edge_++); }
  PathId NextPath() { return PathId(next_path_++); }

  /// Atomically reserves `count` consecutive path ids and returns the
  /// first. Morsel-parallel PathSearch stages expand with temporary ids,
  /// then remap them into one reserved range in morsel order, so fresh
  /// path identifiers stay deterministic at every parallelism degree.
  uint64_t ReservePathRange(uint64_t count) {
    return next_path_.fetch_add(count);
  }

  /// Makes sure future ids are strictly greater than `v`; used when a graph
  /// is loaded with externally chosen ids (e.g. the paper's toy instances
  /// use 101..106 / 201..207 / 301).
  void ReserveNodeUpTo(uint64_t v);
  void ReserveEdgeUpTo(uint64_t v);
  void ReservePathUpTo(uint64_t v);

 private:
  std::atomic<uint64_t> next_node_{1};
  std::atomic<uint64_t> next_edge_{1};
  std::atomic<uint64_t> next_path_{1};
};

/// One (key, single value) pair for the initializer-list helpers.
struct Prop {
  std::string key;
  Value value;

  Prop(std::string k, Value v) : key(std::move(k)), value(std::move(v)) {}
  Prop(std::string k, const char* v)
      : key(std::move(k)), value(Value::String(v)) {}
  Prop(std::string k, std::string v)
      : key(std::move(k)), value(Value::String(std::move(v))) {}
  Prop(std::string k, int64_t v) : key(std::move(k)), value(Value::Int(v)) {}
  Prop(std::string k, int v) : key(std::move(k)), value(Value::Int(v)) {}
  Prop(std::string k, double v)
      : key(std::move(k)), value(Value::Double(v)) {}
  Prop(std::string k, bool v) : key(std::move(k)), value(Value::Bool(v)) {}
};

/// Fluent builder used by tests, examples and the data generators.
class GraphBuilder {
 public:
  GraphBuilder(std::string name, IdAllocator* ids)
      : graph_(std::move(name)), ids_(ids) {}

  /// Adds a fresh node with the given labels and single-valued properties.
  NodeId AddNode(std::initializer_list<std::string> labels = {},
                 std::initializer_list<Prop> props = {});
  /// Adds a node with an externally chosen id (toy instances).
  NodeId AddNodeWithId(uint64_t raw_id,
                       std::initializer_list<std::string> labels = {},
                       std::initializer_list<Prop> props = {});

  /// Adds a value to a (possibly multi-valued) node property.
  void AddNodePropertyValue(NodeId node, const std::string& key, Value value);

  /// Adds a fresh edge src -> dst.
  EdgeId AddEdge(NodeId src, NodeId dst, const std::string& label,
                 std::initializer_list<Prop> props = {});

  /// Adds a value to a (possibly multi-valued) edge property.
  void AddEdgePropertyValue(EdgeId edge, const std::string& key, Value value);
  EdgeId AddEdgeWithId(uint64_t raw_id, NodeId src, NodeId dst,
                       const std::string& label,
                       std::initializer_list<Prop> props = {});

  /// Adds a stored path over existing nodes/edges.
  Result<PathId> AddPath(const std::vector<NodeId>& nodes,
                         const std::vector<EdgeId>& edges,
                         std::initializer_list<std::string> labels = {},
                         std::initializer_list<Prop> props = {});
  Result<PathId> AddPathWithId(uint64_t raw_id,
                               const std::vector<NodeId>& nodes,
                               const std::vector<EdgeId>& edges,
                               std::initializer_list<std::string> labels = {},
                               std::initializer_list<Prop> props = {});

  PathPropertyGraph& graph() { return graph_; }
  const PathPropertyGraph& graph() const { return graph_; }
  /// Moves the built graph out.
  PathPropertyGraph Build() { return std::move(graph_); }

 private:
  void ApplyLabelsProps(NodeId id, std::initializer_list<std::string> labels,
                        std::initializer_list<Prop> props);

  PathPropertyGraph graph_;
  IdAllocator* ids_;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_GRAPH_BUILDER_H_
