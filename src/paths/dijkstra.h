// Plain single-source BFS over a PPG's adjacency (no regex): the unit-cost
// oracle the product search is checked against (ProductVsBfs in
// tests/paths/path_finding_test.cc).
#ifndef GCORE_PATHS_DIJKSTRA_H_
#define GCORE_PATHS_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "graph/adjacency.h"

namespace gcore {

/// Result of a single-source run; indexed by dense node index.
struct SsspResult {
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();
  std::vector<double> distance;  // kUnreachable when not reached
};

/// Unit-weight BFS over all edges (both directions optional).
SsspResult BfsFrom(const AdjacencyIndex& adj, NodeId src,
                   bool follow_forward = true, bool follow_backward = false);

}  // namespace gcore

#endif  // GCORE_PATHS_DIJKSTRA_H_
