// The "cyc" test graph and the cycle queries that run over it, shared by
// the multiway-join tests (wcoj_test) and the estimator-accuracy tests
// (estimator_test).
#ifndef GCORE_TESTS_PLAN_CYCLE_GRAPH_H_
#define GCORE_TESTS_PLAN_CYCLE_GRAPH_H_

#include <vector>

#include "graph/catalog.h"
#include "graph/graph_builder.h"

namespace gcore {

/// "cyc": a 40-node directed ring where node i points at i+1 and i+2
/// (labels :P, edges :e — 80 edges, zero ring triangles because three
/// hops of +1/+2 never wrap), plus five disjoint directed triangles of
/// fresh :P nodes: 55 nodes, 95 edges, 15 triangle bindings (5 × 3
/// rotations). Every node has out- and in-degree at most 2, so the binary
/// plan's wedge intermediate (~|E|²/N) is all it materializes beyond
/// the output, which the multiway intersection skips.
inline void RegisterCycleGraph(GraphCatalog* catalog) {
  GraphBuilder b("cyc", catalog->ids());
  std::vector<NodeId> ring;
  for (int i = 0; i < 40; ++i) ring.push_back(b.AddNode({"P"}));
  for (int i = 0; i < 40; ++i) {
    b.AddEdge(ring[i], ring[(i + 1) % 40], "e");
    b.AddEdge(ring[i], ring[(i + 2) % 40], "e");
  }
  for (int t = 0; t < 5; ++t) {
    const NodeId t1 = b.AddNode({"P"});
    const NodeId t2 = b.AddNode({"P"});
    const NodeId t3 = b.AddNode({"P"});
    b.AddEdge(t1, t2, "e");
    b.AddEdge(t2, t3, "e");
    b.AddEdge(t3, t1, "e");
  }
  catalog->RegisterGraph("cyc", b.Build());
}

inline constexpr const char* kTriangleQuery =
    "CONSTRUCT (a) MATCH (a:P)-[x:e]->(b:P), (b)-[y:e]->(c:P), "
    "(c)-[z:e]->(a)";
inline constexpr const char* kSingleChainTriangle =
    "CONSTRUCT (a) MATCH (a:P)-[x:e]->(b:P)-[y:e]->(c:P)-[z:e]->(a)";
inline constexpr const char* kDiamondQuery =
    "CONSTRUCT (a) MATCH (a:P)-[w:e]->(b:P), (b)-[x:e]->(c:P), "
    "(a)-[y:e]->(d:P), (d)-[z:e]->(c)";

}  // namespace gcore

#endif  // GCORE_TESTS_PLAN_CYCLE_GRAPH_H_
