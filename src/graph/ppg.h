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
// "Construction that respects identities"). Each PPG holds its own λ and
// σ for its members — handles that may share one payload with the same
// object in another graph — and the graph-level set operations
// (graph_ops.h) merge them per Appendix A.5.
//
// Role in the engine: the PPG is the *mutable build representation* —
// GraphBuilder fills it, CONSTRUCT emits it, graph_ops combine it. The
// read path (scans, expansions, filters, stats) executes against the
// frozen columnar image derived from it, GraphSnapshot (snapshot.h);
// GraphCatalog caches one snapshot per registered graph and invalidates
// it together with the statistics on re-registration.
//
// Storage. Each member kind (nodes, edges, paths) is one vector of
// (id, data) entries sorted by id. Appending an id above every present
// one costs amortized O(1); a lookup is a binary search, O(log n), and a
// batch of ascending ids is one forward galloping merge (FindNodes /
// FindEdges); inserting an id below the largest present one shifts the
// entries after it, O(members) per insert, so producers emit members in
// ascending id order (the id allocator, the snapshot thaw, CONSTRUCT's
// assembly and the set operations all do). A reference or pointer into a
// member's data, from UpsertNode/UpsertEdge/UpsertPath or
// FindNode/FindEdge/FindPath, stays valid only until the next insertion
// into the same graph.
//
// Copy-on-write λ/σ. LabelSet and PropertyMap are handles on one shared,
// immutable payload: copying one (and so copying a graph, or carrying a
// bound object's λ/σ into a CONSTRUCT result) bumps a reference count.
// The first mutation through a handle whose payload is shared detaches
// it into a private copy; a handle that holds the only reference edits
// its payload in place. Copies therefore never observe each other's
// edits. Counts are atomic, so graphs that share payloads may be copied,
// read and destroyed on different threads; a catalog graph is never
// mutated after registration, so concurrent sessions reading it only
// bump counts.
#ifndef GCORE_GRAPH_PPG_H_
#define GCORE_GRAPH_PPG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/id.h"
#include "common/result.h"
#include "common/value.h"

namespace gcore {

/// A copy-on-write handle on a payload of type T; null stands for the
/// default-constructed T. The payload is allocated non-const, so Mutable
/// may edit an unshared payload in place.
template <typename T>
class CowHandle {
 public:
  CowHandle() = default;
  explicit CowHandle(T value) : rep_(new Rep(std::move(value))) {}
  CowHandle(const CowHandle& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1);
  }
  CowHandle(CowHandle&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  CowHandle& operator=(CowHandle other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~CowHandle() { Release(); }

  const T& get() const { return rep_ != nullptr ? rep_->value : Empty(); }
  /// True when both handles hold the same payload (or are both null).
  bool Shares(const CowHandle& other) const { return rep_ == other.rep_; }

  /// The payload for editing: allocated on first use, detached into a
  /// private copy while another handle shares it.
  T& Mutable() {
    if (rep_ == nullptr) {
      rep_ = new Rep(T());
    } else if (rep_->refs.load() != 1) {
      Rep* own = new Rep(rep_->value);
      Release();
      rep_ = own;
    }
    return rep_->value;
  }

 private:
  struct Rep {
    explicit Rep(T v) : value(std::move(v)) {}
    std::atomic<uint32_t> refs{1};
    T value;
  };

  static const T& Empty() {
    static const T empty;
    return empty;
  }
  void Release() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1) == 1) delete rep_;
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

/// Sorted, deduplicated set of label names: an element of FSET(L).
/// Copy-on-write (see the file comment).
class LabelSet {
 public:
  LabelSet() = default;
  explicit LabelSet(std::vector<std::string> labels);

  bool empty() const { return labels().empty(); }
  size_t size() const { return labels().size(); }
  const std::vector<std::string>& labels() const { return rep_.get(); }
  auto begin() const { return labels().begin(); }
  auto end() const { return labels().end(); }

  void Insert(const std::string& label);
  void Remove(const std::string& label);
  bool Contains(const std::string& label) const;

  /// Merges `other` into this set: an empty set adopts `other`'s payload
  /// and a superset (the same payload included) keeps its own.
  void UnionWith(const LabelSet& other);
  /// Keeps only labels present in both.
  void IntersectWith(const LabelSet& other);

  friend bool operator==(const LabelSet& a, const LabelSet& b) {
    return a.rep_.Shares(b.rep_) || a.labels() == b.labels();
  }

  /// ":A:B" rendering; empty string when no labels.
  std::string ToString() const;

 private:
  CowHandle<std::vector<std::string>> rep_;  // sorted unique
};

/// Property assignment for one object: key -> FSET(V). Absent key == empty
/// set. Copy-on-write (see the file comment).
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

  const std::map<std::string, ValueSet>& entries() const { return rep_.get(); }
  bool empty() const { return entries().empty(); }

  /// Per-key set union with `other`: an empty map adopts `other`'s
  /// payload and one holding the same payload keeps it.
  void UnionWith(const PropertyMap& other);
  /// Per-key set intersection with `other` (drops keys that become empty).
  void IntersectWith(const PropertyMap& other);

  friend bool operator==(const PropertyMap& a, const PropertyMap& b) {
    return a.rep_.Shares(b.rep_) || a.entries() == b.entries();
  }

  /// "{k1: v1, k2: v2}" rendering.
  std::string ToString() const;

 private:
  CowHandle<std::map<std::string, ValueSet>> rep_;
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

  bool HasNode(NodeId id) const { return FindNode(id) != nullptr; }
  bool HasEdge(EdgeId id) const { return FindEdge(id) != nullptr; }
  bool HasPath(PathId id) const { return FindPath(id) != nullptr; }

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
  // its λ/σ for in-place editing; the reference is valid until the next
  // insertion into this graph. Ascending ids append in amortized O(1).

  ObjectData& UpsertNode(NodeId id);
  Result<ObjectData*> UpsertEdge(EdgeId id, NodeId src, NodeId dst);
  Result<ObjectData*> UpsertPath(PathId id, PathBody body);

  /// Ascending append for an assembler that merges id-sorted runs
  /// (CONSTRUCT): `id` must exceed every present id of its kind, an
  /// edge's endpoints must already be members, and a path's body must be
  /// a valid walk over member edges. The caller guarantees all of it, so
  /// none is checked (a debug build asserts the order). Reserve sizes the
  /// stores up front.
  void Reserve(size_t nodes, size_t edges);
  ObjectData& AppendNode(NodeId id);
  ObjectData& AppendEdge(EdgeId id, NodeId src, NodeId dst);
  ObjectData& AppendPath(PathId id, PathBody body);

  /// One lookup for ρ/δ, λ and σ of a member; null when absent. Valid
  /// until the next insertion into this graph.
  const ObjectData* FindNode(NodeId id) const;
  const EdgeData* FindEdge(EdgeId id) const;
  const PathData* FindPath(PathId id) const;

  /// FindNode/FindEdge of many ids at once: `ids` must be ascending
  /// (repeats allowed), and entry i of the result is the member of
  /// ids[i] or null. One forward galloping merge over the id-sorted
  /// store, so k lookups cost O(k log(n/k)) sequential probes instead of
  /// k binary searches over all n members.
  std::vector<const ObjectData*> FindNodes(
      const std::vector<NodeId>& ids) const;
  std::vector<const EdgeData*> FindEdges(const std::vector<EdgeId>& ids) const;

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
  // The set operations walk the sorted stores linearly (graph_ops.cc).
  friend bool Consistent(const PathPropertyGraph& g1,
                         const PathPropertyGraph& g2);
  friend PathPropertyGraph GraphUnion(PathPropertyGraph g1,
                                      PathPropertyGraph&& g2);
  friend PathPropertyGraph GraphIntersect(const PathPropertyGraph& g1,
                                          const PathPropertyGraph& g2);
  friend PathPropertyGraph GraphMinus(const PathPropertyGraph& g1,
                                      const PathPropertyGraph& g2);
  friend bool GraphEquals(const PathPropertyGraph& g1,
                          const PathPropertyGraph& g2);

  using NodeStore = std::vector<std::pair<NodeId, ObjectData>>;
  using EdgeStore = std::vector<std::pair<EdgeId, EdgeData>>;
  using PathStore = std::vector<std::pair<PathId, PathData>>;

  std::string name_;
  NodeStore nodes_;  // each sorted by id
  EdgeStore edges_;
  PathStore paths_;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_PPG_H_
