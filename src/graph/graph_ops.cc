#include "graph/graph_ops.h"

#include <algorithm>

namespace gcore {

namespace {

using ObjectData = PathPropertyGraph::ObjectData;
using EdgeData = PathPropertyGraph::EdgeData;
using PathData = PathPropertyGraph::PathData;

/// True when two entries of the same id agree on ρ (edges) or δ (paths).
bool SameStructure(const ObjectData&, const ObjectData&) { return true; }
bool SameStructure(const EdgeData& x, const EdgeData& y) {
  return x.src == y.src && x.dst == y.dst;
}
bool SameStructure(const PathData& x, const PathData& y) {
  return x.body == y.body;
}

/// Calls `fn(entry, other)` for each entry of the id-sorted store `a` in
/// ascending id order, `other` being the data of the same id in the
/// id-sorted store `b` or null; one linear pass over both. Stops and
/// returns false as soon as `fn` does.
template <typename Store, typename Fn>
bool Zip(const Store& a, const Store& b, Fn fn) {
  auto bi = b.begin();
  for (const auto& entry : a) {
    while (bi != b.end() && bi->first < entry.first) ++bi;
    const auto* other =
        bi != b.end() && bi->first == entry.first ? &bi->second : nullptr;
    if (!fn(entry, other)) return false;
  }
  return true;
}

/// Merges the id-sorted store `b` into the id-sorted store `a` in one
/// linear pass, moving entries from both; members of both union their
/// λ/σ. False when a shared edge or path differs in ρ/δ.
template <typename Store>
bool MergeStores(Store* a, Store b) {
  if (b.empty()) return true;
  if (a->empty()) {
    *a = std::move(b);
    return true;
  }
  Store out;
  out.reserve(a->size() + b.size());
  auto ai = a->begin();
  for (auto& entry : b) {
    while (ai != a->end() && ai->first < entry.first) {
      out.push_back(std::move(*ai++));
    }
    if (ai != a->end() && ai->first == entry.first) {
      if (!SameStructure(ai->second, entry.second)) return false;
      ai->second.labels.UnionWith(entry.second.labels);
      ai->second.props.UnionWith(entry.second.props);
      out.push_back(std::move(*ai++));
    } else {
      out.push_back(std::move(entry));
    }
  }
  for (; ai != a->end(); ++ai) out.push_back(std::move(*ai));
  *a = std::move(out);
  return true;
}

/// Appends to `out` every member of both id-sorted stores with the
/// intersection of its λ/σ. False when a shared edge or path differs in
/// ρ/δ.
template <typename Store>
bool IntersectStores(const Store& a, const Store& b, Store* out) {
  return Zip(a, b, [&](const auto& entry, const auto* other) {
    if (other == nullptr) return true;
    if (!SameStructure(entry.second, *other)) return false;
    auto& kept = out->emplace_back(entry);
    kept.second.labels.IntersectWith(other->labels);
    kept.second.props.IntersectWith(other->props);
    return true;
  });
}

/// Same ids, ρ/δ, λ and σ, entry by entry.
template <typename Store>
bool EqualStores(const Store& a, const Store& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             SameStructure(x.second, y.second) &&
                             x.second.labels == y.second.labels &&
                             x.second.props == y.second.props;
                    });
}

}  // namespace

bool Consistent(const PathPropertyGraph& g1, const PathPropertyGraph& g2) {
  auto agrees = [](const auto& entry, const auto* other) {
    return other == nullptr || SameStructure(entry.second, *other);
  };
  return Zip(g1.edges_, g2.edges_, agrees) && Zip(g1.paths_, g2.paths_, agrees);
}

PathPropertyGraph GraphUnion(PathPropertyGraph g1,
                             const PathPropertyGraph& g2) {
  return GraphUnion(std::move(g1), PathPropertyGraph(g2));
}

PathPropertyGraph GraphUnion(PathPropertyGraph g1, PathPropertyGraph&& g2) {
  // Edges and paths first: an inconsistency stops before the node merge.
  const bool ok = MergeStores(&g1.edges_, std::move(g2.edges_)) &&
                  MergeStores(&g1.paths_, std::move(g2.paths_)) &&
                  MergeStores(&g1.nodes_, std::move(g2.nodes_));
  if (!ok) return PathPropertyGraph();
  g1.set_name(std::string());
  return g1;
}

PathPropertyGraph GraphIntersect(const PathPropertyGraph& g1,
                                 const PathPropertyGraph& g2) {
  // Edges and paths first: an inconsistency stops before the node walk.
  // A shared edge's endpoints, and a shared path's nodes and edges, are
  // members of both graphs, so of the result.
  PathPropertyGraph out;
  const bool ok = IntersectStores(g1.edges_, g2.edges_, &out.edges_) &&
                  IntersectStores(g1.paths_, g2.paths_, &out.paths_) &&
                  IntersectStores(g1.nodes_, g2.nodes_, &out.nodes_);
  if (!ok) return PathPropertyGraph();
  return out;
}

PathPropertyGraph GraphMinus(const PathPropertyGraph& g1,
                             const PathPropertyGraph& g2) {
  PathPropertyGraph out;
  Zip(g1.nodes_, g2.nodes_, [&](const auto& entry, const auto* other) {
    if (other == nullptr) out.nodes_.push_back(entry);
    return true;
  });
  Zip(g1.edges_, g2.edges_, [&](const auto& entry, const auto* other) {
    // An edge whose endpoint is removed would dangle.
    if (other == nullptr && out.HasNode(entry.second.src) &&
        out.HasNode(entry.second.dst)) {
      out.edges_.push_back(entry);
    }
    return true;
  });
  Zip(g1.paths_, g2.paths_, [&](const auto& entry, const auto* other) {
    if (other != nullptr) return true;
    const PathBody& body = entry.second.body;
    for (NodeId n : body.nodes) {
      if (!out.HasNode(n)) return true;
    }
    for (EdgeId e : body.edges) {
      if (!out.HasEdge(e)) return true;
    }
    out.paths_.push_back(entry);
    return true;
  });
  return out;
}

bool GraphEquals(const PathPropertyGraph& g1, const PathPropertyGraph& g2) {
  return EqualStores(g1.nodes_, g2.nodes_) &&
         EqualStores(g1.edges_, g2.edges_) &&
         EqualStores(g1.paths_, g2.paths_);
}

}  // namespace gcore
