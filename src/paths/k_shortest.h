// k-shortest conforming walks via Dijkstra over the graph × NFA product.
//
// This is the engine behind every path feature of the paper:
//   - `-/p <:knows*>/->`            shortest walk conforming to an RPQ,
//   - `-/3 SHORTEST p <...> COST c/->` k cheapest walks per (src, dst),
//   - `-/p <~wKnows*>/->`           weighted shortest over PATH views,
// all in polynomial time in data size (Section 4): labels settle at most k
// times per (node, NFA-state) product state. The matcher runs every
// SHORTEST hop, `<~view*>` walks included, through this search
// (BatchedKShortestFrom fans it over the distinct sources), so `SHORTEST`
// is always the first answer of `k SHORTEST`.
//
// Determinism: ties are broken by label insertion order on top of the
// deterministic neighbor order of the snapshot's CSR, realizing the paper's
// "fixed lexicographical order" tiebreak (Appendix A.1, footnote 4).
#ifndef GCORE_PATHS_K_SHORTEST_H_
#define GCORE_PATHS_K_SHORTEST_H_

#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/adjacency.h"
#include "paths/nfa.h"
#include "paths/path_view.h"

namespace gcore {

class GraphSnapshot;

/// One discovered conforming walk.
struct FoundPath {
  PathBody body;
  /// Sum of traversal costs: 1 per plain edge, the clause cost per PATH
  /// view segment. Equals hop count for view-free regexes.
  double cost = 0.0;
};

/// Inputs shared by all path searches.
struct PathSearchContext {
  /// The frozen graph searched: topology from its CSR, edge/node labels
  /// admitted via interned ids over dense indices (CompiledNfa).
  const GraphSnapshot* snap = nullptr;
  const Nfa* nfa = nullptr;
  /// Required iff the regex references `~view` atoms.
  const PathViewRegistry* views = nullptr;
  /// Worker threads for the batched kernels (1 = serial, 0 = one per
  /// hardware thread). Kernel results are identical at every degree.
  size_t parallelism = 1;
};

/// Finds, for every destination node reachable from `src` by a walk
/// conforming to the regex, up to `k` cheapest distinct walks in
/// nondecreasing cost order.
Result<std::map<NodeId, std::vector<FoundPath>>> KShortestPathsFrom(
    const PathSearchContext& ctx, NodeId src, size_t k);

/// Single-pair variant; stops as soon as `k` walks to `dst` are found.
Result<std::vector<FoundPath>> KShortestPaths(const PathSearchContext& ctx,
                                              NodeId src, NodeId dst,
                                              size_t k);

/// Cheapest conforming walk from `src` to `dst`, or nullopt.
Result<std::optional<FoundPath>> ShortestPath(const PathSearchContext& ctx,
                                              NodeId src, NodeId dst);

/// Cheapest conforming walk from `src` to every reachable destination.
Result<std::map<NodeId, FoundPath>> ShortestPathsFrom(
    const PathSearchContext& ctx, NodeId src);

}  // namespace gcore

#endif  // GCORE_PATHS_K_SHORTEST_H_
