// Reachability over the graph × NFA product (unit-cost BFS).
//
// Backs the paper's reachability semantics: a path pattern without a bound
// path variable (`-/<:knows*>/->`, lines 28-31) is a boolean reachability
// test, evaluable without materializing any path.
#ifndef GCORE_PATHS_PRODUCT_BFS_H_
#define GCORE_PATHS_PRODUCT_BFS_H_

#include <set>

#include "common/result.h"
#include "paths/k_shortest.h"

namespace gcore {

/// All nodes reachable from `src` via a walk conforming to the regex
/// (including `src` itself when the regex accepts the empty walk at it).
Result<std::set<NodeId>> ReachableFrom(const PathSearchContext& ctx,
                                       NodeId src);

/// True when some walk from `src` to `dst` conforms to the regex.
Result<bool> IsReachable(const PathSearchContext& ctx, NodeId src, NodeId dst);

/// Forward product reachability: marks (node, state) pairs reachable from
/// (src, nfa start). `marks` has snap->num_nodes() * nfa->num_states()
/// slots, indexed node * num_states + state. Exposed for the ALL-paths
/// projection.
Status ProductReachability(const PathSearchContext& ctx, NodeId src,
                           std::vector<bool>* marks);

/// True when a concrete walk (a stored path's δ) conforms to the regex —
/// the conformance test of Appendix A.1, used by `-/@p <regex>/->`
/// stored-path matching. View-ref transitions never match here.
bool BodyConformsToRegex(const PathBody& body, const Nfa& nfa,
                         const PathPropertyGraph& graph);

}  // namespace gcore

#endif  // GCORE_PATHS_PRODUCT_BFS_H_
