// Delta-stepping SSSP over one PATH view's segment graph (Meyer &
// Sanders) — the engine's `<~view*>` weighted-shortest fast path.
//
// G-CORE path costs come only from a PATH view's COST, so the `~view*`
// regex shape degenerates the graph × NFA product to a plain weighted
// graph whose edges are the view's segments. The product Dijkstra
// (KShortestPathsFrom, k_shortest.h) stays the executable spec; this
// kernel is its fast path for that shape.
//
// Shape: distances are kept in buckets of width Δ (the mean segment
// cost); one bucket at a time is relaxed to a fixpoint, with the
// frontier's segment scans fanned onto worker threads that emit
// relaxation candidates into per-slice buffers. A coordinator merges the
// buffers serially under the canonical acceptance rule, so the result is
// a pure function of the input at every parallelism degree:
//
//   * a candidate with a strictly smaller distance always wins;
//   * at equal distance the parent with the lexicographically smallest
//     (parent node, segment ordinal) pair wins — the paper's "fixed
//     lexicographical order" tiebreak (Appendix A.1, footnote 4). View
//     costs are > 0 (PathViewRelation::AddSegment rejects the rest), so
//     a tie parent is strictly closer and the parent forest stays
//     acyclic.
//
// tests/paths/parallel_paths_test.cc pins distances against the product
// Dijkstra and the whole result across parallelism 1/2/8.
#ifndef GCORE_PATHS_DELTA_STEPPING_H_
#define GCORE_PATHS_DELTA_STEPPING_H_

#include <limits>
#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/adjacency.h"
#include "paths/path_view.h"

namespace gcore {

/// Result of ViewStarSssp; indexed by dense node index.
struct ViewSsspResult {
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();
  std::vector<double> distance;  // kUnreachable when not reached
  std::vector<int64_t> parent;   // dense parent node, -1 for source/unreached
  std::vector<const PathViewSegment*> parent_seg;  // borrowed from the view
  bool Reached(DenseNodeIndex n) const { return distance[n] != kUnreachable; }
};

/// SSSP from `src` over the segments of `view`. `parallelism` bounds the
/// worker threads of the frontier scans (0 = hardware concurrency); the
/// result is identical at every degree.
Result<ViewSsspResult> ViewStarSssp(const AdjacencyIndex& adj,
                                    const PathViewRelation& view, NodeId src,
                                    size_t parallelism = 1);

/// Concatenates the parent segment chain into the walk from `src` to
/// `dst`; nullopt when unreached. dst == src yields the empty walk.
std::optional<PathBody> ReconstructViewWalk(const AdjacencyIndex& adj,
                                            const ViewSsspResult& sssp,
                                            NodeId src, NodeId dst);

}  // namespace gcore

#endif  // GCORE_PATHS_DELTA_STEPPING_H_
