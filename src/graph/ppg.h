// The Path Property Graph (PPG): Definition 2.1 of the paper.
//
// A PPG is a tuple G = (N, E, P, ρ, δ, λ, σ) where N/E/P are disjoint
// identifier sets, ρ maps edges to (source, target) node pairs, δ maps path
// identifiers to concatenations of adjacent edges, λ assigns label sets to
// every object, and σ assigns a finite set of literals to (object,
// property-key) pairs.
//
// Identity is global: the same NodeId may be a member of several PPGs
// (query outputs share identities with their inputs — Section 3,
// "Construction that respects identities"). Each PPG stores its own λ and
// σ for its members; the graph-level set operations (graph_ops.h) merge
// them per Appendix A.5.
//
// Role in the engine: the PPG is the *mutable build representation* —
// GraphBuilder fills it, CONSTRUCT emits it, graph_ops combine it. The
// read path (scans, expansions, filters, stats) executes against the
// frozen columnar image derived from it, GraphSnapshot (snapshot.h);
// GraphCatalog caches one snapshot per registered graph and invalidates
// it together with the statistics on re-registration.
#ifndef GCORE_GRAPH_PPG_H_
#define GCORE_GRAPH_PPG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/id.h"
#include "common/result.h"
#include "common/value.h"

namespace gcore {

/// Sorted, deduplicated set of label names: an element of FSET(L).
class LabelSet {
 public:
  LabelSet() = default;
  explicit LabelSet(std::vector<std::string> labels);

  bool empty() const { return labels_.empty(); }
  size_t size() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }
  auto begin() const { return labels_.begin(); }
  auto end() const { return labels_.end(); }

  void Insert(const std::string& label);
  void Remove(const std::string& label);
  bool Contains(const std::string& label) const;

  /// Merges `other` into this set.
  void UnionWith(const LabelSet& other);
  /// Keeps only labels present in both.
  void IntersectWith(const LabelSet& other);

  friend bool operator==(const LabelSet& a, const LabelSet& b) {
    return a.labels_ == b.labels_;
  }

  /// ":A:B" rendering; empty string when no labels.
  std::string ToString() const;

 private:
  std::vector<std::string> labels_;  // sorted unique
};

/// Property assignment for one object: key -> FSET(V). Absent key == empty
/// set.
class PropertyMap {
 public:
  /// The set of values for `key`; empty set when undefined.
  const ValueSet& Get(const std::string& key) const;
  /// Replaces the value set of `key` (empty set erases).
  void Set(const std::string& key, ValueSet values);
  /// Adds one value to the set of `key`.
  void Add(const std::string& key, Value value);
  void Remove(const std::string& key);
  bool Has(const std::string& key) const;

  const std::map<std::string, ValueSet>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// Per-key set union with `other`.
  void UnionWith(const PropertyMap& other);
  /// Per-key set intersection with `other` (drops keys that become empty).
  void IntersectWith(const PropertyMap& other);

  friend bool operator==(const PropertyMap& a, const PropertyMap& b) {
    return a.entries_ == b.entries_;
  }

  /// "{k1: v1, k2: v2}" rendering.
  std::string ToString() const;

 private:
  std::map<std::string, ValueSet> entries_;
};

/// δ(p): the body of a stored path — the list [a1, e1, a2, ..., en, an+1].
/// Stored as the node list and edge list (nodes(p), edges(p) of Section 2).
/// A zero-length path has one node and no edges.
struct PathBody {
  std::vector<NodeId> nodes;  // n + 1 entries
  std::vector<EdgeId> edges;  // n entries

  /// Number of edges (the paper's length(L)).
  size_t Length() const { return edges.size(); }

  friend bool operator==(const PathBody& a, const PathBody& b) {
    return a.nodes == b.nodes && a.edges == b.edges;
  }
};

/// An in-memory PPG. Mutation is restricted to adding members and editing
/// labels/properties; structural identity (ρ of an edge, δ of a path) is
/// fixed at insertion, as required by the model ("changing the source and
/// destination of an edge violates its identity", Section 3).
class PathPropertyGraph {
 public:
  /// λ and σ of one member.
  struct ObjectData {
    LabelSet labels;
    PropertyMap props;
  };
  struct EdgeData : ObjectData {
    NodeId src;
    NodeId dst;
  };
  struct PathData : ObjectData {
    PathBody body;
  };

  PathPropertyGraph() = default;
  explicit PathPropertyGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- membership ----------------------------------------------------------

  bool HasNode(NodeId id) const { return nodes_.count(id) > 0; }
  bool HasEdge(EdgeId id) const { return edges_.count(id) > 0; }
  bool HasPath(PathId id) const { return paths_.count(id) > 0; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  size_t NumPaths() const { return paths_.size(); }
  bool Empty() const {
    return nodes_.empty() && edges_.empty() && paths_.empty();
  }

  // --- insertion -----------------------------------------------------------

  /// Adds node `id`; no-op if already present.
  void AddNode(NodeId id);
  /// Adds edge `id` with endpoints ρ(id) = (src, dst). Endpoints must be
  /// members of this graph. Re-adding with different endpoints is an error
  /// (identity violation).
  Status AddEdge(EdgeId id, NodeId src, NodeId dst);
  /// Adds stored path `id` with body δ(id). The body must be a valid
  /// concatenation of adjacent member edges (condition (3) of
  /// Definition 2.1); edges may be traversed in either direction.
  Status AddPath(PathId id, PathBody body);

  // --- bulk assembly (CONSTRUCT, graph union) -------------------------------
  //
  // Add the member when absent (same checks as AddEdge/AddPath) and return
  // its λ/σ for in-place editing. A member whose id exceeds every present
  // id is appended in amortized O(1), so producers that emit members in
  // ascending id order build a graph without per-member tree searches.

  ObjectData& UpsertNode(NodeId id);
  Result<ObjectData*> UpsertEdge(EdgeId id, NodeId src, NodeId dst);
  Result<ObjectData*> UpsertPath(PathId id, PathBody body);

  /// One lookup for ρ/δ, λ and σ of a member; null when absent.
  const ObjectData* FindNode(NodeId id) const;
  const EdgeData* FindEdge(EdgeId id) const;
  const PathData* FindPath(PathId id) const;
  /// FindNode/FindEdge over ids sorted ascending: out[i] is the member of
  /// ids[i] or null. One in-order walk of the store replaces a tree search
  /// per id while the ids are dense among the members.
  std::vector<const ObjectData*> FindNodes(
      const std::vector<NodeId>& sorted_ids) const;
  std::vector<const EdgeData*> FindEdges(
      const std::vector<EdgeId>& sorted_ids) const;

  // --- structure access ----------------------------------------------------

  /// ρ(e). Edge must exist.
  std::pair<NodeId, NodeId> EdgeEndpoints(EdgeId id) const;
  NodeId EdgeSource(EdgeId id) const { return EdgeEndpoints(id).first; }
  NodeId EdgeTarget(EdgeId id) const { return EdgeEndpoints(id).second; }

  /// δ(p). Path must exist.
  const PathBody& Path(PathId id) const;

  // --- λ and σ -------------------------------------------------------------

  const LabelSet& Labels(NodeId id) const;
  const LabelSet& Labels(EdgeId id) const;
  const LabelSet& Labels(PathId id) const;

  void AddLabel(NodeId id, const std::string& label);
  void AddLabel(EdgeId id, const std::string& label);
  void AddLabel(PathId id, const std::string& label);
  void RemoveLabel(NodeId id, const std::string& label);
  void RemoveLabel(EdgeId id, const std::string& label);
  void RemoveLabel(PathId id, const std::string& label);
  void SetLabels(NodeId id, LabelSet labels);
  void SetLabels(EdgeId id, LabelSet labels);
  void SetLabels(PathId id, LabelSet labels);

  const PropertyMap& Properties(NodeId id) const;
  const PropertyMap& Properties(EdgeId id) const;
  const PropertyMap& Properties(PathId id) const;

  /// σ(x, k); the empty set when the property is absent.
  const ValueSet& Property(NodeId id, const std::string& key) const;
  const ValueSet& Property(EdgeId id, const std::string& key) const;
  const ValueSet& Property(PathId id, const std::string& key) const;

  void SetProperty(NodeId id, const std::string& key, ValueSet values);
  void SetProperty(EdgeId id, const std::string& key, ValueSet values);
  void SetProperty(PathId id, const std::string& key, ValueSet values);
  void RemoveProperty(NodeId id, const std::string& key);
  void RemoveProperty(EdgeId id, const std::string& key);
  void RemoveProperty(PathId id, const std::string& key);
  void SetProperties(NodeId id, PropertyMap props);
  void SetProperties(EdgeId id, PropertyMap props);
  void SetProperties(PathId id, PropertyMap props);

  // --- iteration (deterministic, ordered by id) -----------------------------

  std::vector<NodeId> NodeIds() const;
  std::vector<EdgeId> EdgeIds() const;
  std::vector<PathId> PathIds() const;

  template <typename Fn>
  void ForEachNode(Fn fn) const {
    for (const auto& [id, data] : nodes_) fn(id);
  }
  template <typename Fn>
  void ForEachEdge(Fn fn) const {
    for (const auto& [id, data] : edges_) fn(id, data.src, data.dst);
  }
  template <typename Fn>
  void ForEachPath(Fn fn) const {
    for (const auto& [id, data] : paths_) fn(id, data.body);
  }

  /// Checks internal consistency: edge endpoints and path bodies refer to
  /// members, and path bodies satisfy condition (3) of Definition 2.1.
  Status Validate() const;

  /// Multi-line debug rendering of the full graph.
  std::string ToString() const;

 private:
  std::string name_;
  std::map<NodeId, ObjectData> nodes_;
  std::map<EdgeId, EdgeData> edges_;
  std::map<PathId, PathData> paths_;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_PPG_H_
