// ALL-paths graph projection (lines 32-35 of the guided tour).
//
// `MATCH (n)-/ALL p <r>/->(m)` with the path variable used only to project
// a graph avoids materializing the (possibly infinite) set of conforming
// walks: following Barceló et al. [10], the walks are summarized by the
// subgraph of nodes and edges that lie on *some* conforming walk. That
// subgraph is computable in polynomial time as
//   forward-reachable(src, start) ∩ backward-reachable(dst, accept)
// in the graph × NFA product.
//
// AllPathsProjection is the executable spec: one forward and one backward
// sweep per pair. BatchedAllPathsProjection is the fast path the matcher
// runs: one forward sweep per source, then backward reachability for up
// to 64 targets at once as a bitwise-OR mask fixpoint over the reversed
// automaton (MaskWave), and one sweep per wave over the forward-marked
// product states that ORs each target's bit into one word per node and
// one word per edge. Dense order is id order, so the per-target vectors
// come out sorted.
#ifndef GCORE_PATHS_ALL_PATHS_H_
#define GCORE_PATHS_ALL_PATHS_H_

#include <functional>
#include <set>
#include <vector>

#include "common/result.h"
#include "paths/k_shortest.h"

namespace gcore {

/// The node/edge sets participating in at least one conforming walk from
/// `src` to `dst`.
struct PathProjection {
  std::set<NodeId> nodes;
  std::set<EdgeId> edges;
  bool Empty() const { return nodes.empty(); }
};

/// Computes the ALL-paths projection for one (src, dst) pair.
Result<PathProjection> AllPathsProjection(const PathSearchContext& ctx,
                                          NodeId src, NodeId dst);

/// One projection as ascending id vectors (the batched kernel's output,
/// the form PathValue::projection stores).
struct SortedProjection {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
};

/// The projections of one source: `targets` ascend, `projections[i]` is
/// the projection onto targets[i].
struct AllPathsFrom {
  std::vector<NodeId> targets;
  std::vector<SortedProjection> projections;
};

/// AllPathsProjection(ctx, sources[i], t) for every node t that sources[i]
/// reaches by a conforming walk and `admit(i, t)` accepts; pairs without
/// a conforming walk (whose projection is empty) are never reported.
/// `admit` runs serially on the calling thread, once per reached node, in
/// ascending order. (source, wave) slots fan out over ctx.parallelism
/// workers into pre-assigned outputs, so the result is the same at every
/// degree. Every source must be in the graph.
Result<std::vector<AllPathsFrom>> BatchedAllPathsProjection(
    const PathSearchContext& ctx, const std::vector<NodeId>& sources,
    const std::function<bool(size_t, NodeId)>& admit);

}  // namespace gcore

#endif  // GCORE_PATHS_ALL_PATHS_H_
