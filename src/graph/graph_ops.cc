#include "graph/graph_ops.h"

namespace gcore {

namespace {

size_t NumMembers(const PathPropertyGraph& g) {
  return g.NumNodes() + g.NumEdges() + g.NumPaths();
}

/// True when every edge/path of `small` that `large` also holds has the
/// same ρ/δ there.
bool ConsistentInto(const PathPropertyGraph& small,
                    const PathPropertyGraph& large) {
  bool ok = true;
  small.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (!ok) return;
    const PathPropertyGraph::EdgeData* other = large.FindEdge(e);
    if (other != nullptr && (other->src != src || other->dst != dst)) {
      ok = false;
    }
  });
  if (!ok) return false;
  small.ForEachPath([&](PathId p, const PathBody& body) {
    if (!ok) return;
    const PathPropertyGraph::PathData* other = large.FindPath(p);
    if (other != nullptr && !(other->body == body)) ok = false;
  });
  return ok;
}

/// Set-union merge of one member's λ/σ into `dst`.
void MergeObject(const PathPropertyGraph::ObjectData& src,
                 PathPropertyGraph::ObjectData* dst) {
  dst->labels.UnionWith(src.labels);
  dst->props.UnionWith(src.props);
}

}  // namespace

bool Consistent(const PathPropertyGraph& g1, const PathPropertyGraph& g2) {
  return NumMembers(g1) <= NumMembers(g2) ? ConsistentInto(g1, g2)
                                          : ConsistentInto(g2, g1);
}

PathPropertyGraph GraphUnion(PathPropertyGraph g1,
                             const PathPropertyGraph& g2) {
  if (!Consistent(g1, g2)) return PathPropertyGraph();
  g1.set_name(std::string());
  g2.ForEachNode([&](NodeId n) {
    MergeObject(*g2.FindNode(n), &g1.UpsertNode(n));
  });
  g2.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    // Consistency was pre-checked and both endpoints were merged above.
    auto out = g1.UpsertEdge(e, src, dst);
    if (out.ok()) MergeObject(*g2.FindEdge(e), *out);
  });
  g2.ForEachPath([&](PathId p, const PathBody& body) {
    auto out = g1.UpsertPath(p, body);
    if (out.ok()) MergeObject(*g2.FindPath(p), *out);
  });
  return g1;
}

PathPropertyGraph GraphUnion(PathPropertyGraph g1, PathPropertyGraph&& g2) {
  if (NumMembers(g2) > NumMembers(g1)) std::swap(g1, g2);
  return GraphUnion(std::move(g1), static_cast<const PathPropertyGraph&>(g2));
}

PathPropertyGraph GraphIntersect(const PathPropertyGraph& g1,
                                 const PathPropertyGraph& g2) {
  if (!Consistent(g1, g2)) return PathPropertyGraph();
  PathPropertyGraph out;

  g1.ForEachNode([&](NodeId n) {
    if (!g2.HasNode(n)) return;
    out.AddNode(n);
    LabelSet labels = g1.Labels(n);
    labels.IntersectWith(g2.Labels(n));
    out.SetLabels(n, std::move(labels));
    PropertyMap props = g1.Properties(n);
    props.IntersectWith(g2.Properties(n));
    out.SetProperties(n, std::move(props));
  });
  g1.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (!g2.HasEdge(e)) return;
    // ρ agrees by consistency; endpoints are in N1 ∩ N2 because both
    // graphs contain the edge and are individually well-formed.
    Status st = out.AddEdge(e, src, dst);
    (void)st;
    LabelSet labels = g1.Labels(e);
    labels.IntersectWith(g2.Labels(e));
    out.SetLabels(e, std::move(labels));
    PropertyMap props = g1.Properties(e);
    props.IntersectWith(g2.Properties(e));
    out.SetProperties(e, std::move(props));
  });
  g1.ForEachPath([&](PathId p, const PathBody& body) {
    if (!g2.HasPath(p)) return;
    Status st = out.AddPath(p, body);
    (void)st;
    LabelSet labels = g1.Labels(p);
    labels.IntersectWith(g2.Labels(p));
    out.SetLabels(p, std::move(labels));
    PropertyMap props = g1.Properties(p);
    props.IntersectWith(g2.Properties(p));
    out.SetProperties(p, std::move(props));
  });
  return out;
}

PathPropertyGraph GraphMinus(const PathPropertyGraph& g1,
                             const PathPropertyGraph& g2) {
  PathPropertyGraph out;
  g1.ForEachNode([&](NodeId n) {
    if (g2.HasNode(n)) return;
    out.AddNode(n);
    out.SetLabels(n, g1.Labels(n));
    out.SetProperties(n, g1.Properties(n));
  });
  g1.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (g2.HasEdge(e)) return;
    if (!out.HasNode(src) || !out.HasNode(dst)) return;  // would dangle
    Status st = out.AddEdge(e, src, dst);
    (void)st;
    out.SetLabels(e, g1.Labels(e));
    out.SetProperties(e, g1.Properties(e));
  });
  g1.ForEachPath([&](PathId p, const PathBody& body) {
    if (g2.HasPath(p)) return;
    for (NodeId n : body.nodes) {
      if (!out.HasNode(n)) return;
    }
    for (EdgeId e : body.edges) {
      if (!out.HasEdge(e)) return;
    }
    Status st = out.AddPath(p, body);
    (void)st;
    out.SetLabels(p, g1.Labels(p));
    out.SetProperties(p, g1.Properties(p));
  });
  return out;
}

bool GraphEquals(const PathPropertyGraph& g1, const PathPropertyGraph& g2) {
  if (g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() ||
      g1.NumPaths() != g2.NumPaths()) {
    return false;
  }
  bool eq = true;
  g1.ForEachNode([&](NodeId n) {
    if (!eq) return;
    if (!g2.HasNode(n) || !(g1.Labels(n) == g2.Labels(n)) ||
        !(g1.Properties(n) == g2.Properties(n))) {
      eq = false;
    }
  });
  if (!eq) return false;
  g1.ForEachEdge([&](EdgeId e, NodeId src, NodeId dst) {
    if (!eq) return;
    if (!g2.HasEdge(e) ||
        g2.EdgeEndpoints(e) != std::make_pair(src, dst) ||
        !(g1.Labels(e) == g2.Labels(e)) ||
        !(g1.Properties(e) == g2.Properties(e))) {
      eq = false;
    }
  });
  if (!eq) return false;
  g1.ForEachPath([&](PathId p, const PathBody& body) {
    if (!eq) return;
    if (!g2.HasPath(p) || !(g2.Path(p) == body) ||
        !(g1.Labels(p) == g2.Labels(p)) ||
        !(g1.Properties(p) == g2.Properties(p))) {
      eq = false;
    }
  });
  return eq;
}

}  // namespace gcore
