// Batched multi-source traversal over the graph × NFA product.
//
// PathSearchOp used to launch one independent product-BFS per input row;
// rows sharing a source repeated identical work, and rows with distinct
// sources re-walked the same hot region once each. These kernels take the
// whole distinct-source batch at once:
//
//   * BatchedReachableFrom — unweighted reachability for up to 64 sources
//     per traversal: each product state carries a 64-bit source mask, one
//     monotone mask-propagation fixpoint replaces 64 BFS sweeps (the
//     classic MS-BFS idea of Then et al., specialized to the product
//     graph). Larger batches run as waves of 64, fanned across workers.
//     The fixpoint itself (MaskWave) also runs backward over a reversed
//     automaton: BatchedAllPathsProjection's 64-target waves.
//
//   * BatchedKShortestFrom — weighted/k-shortest searches keep their
//     per-source product-Dijkstra (costs don't compose across sources),
//     but the batch fans sources across workers, each writing its own
//     result slot.
//
// Both are deterministic at every parallelism degree: wave/source slots
// are pre-assigned, and the mask fixpoint is confluent (the final mask
// array is the unique least fixpoint, independent of propagation order).
#ifndef GCORE_PATHS_BATCHED_BFS_H_
#define GCORE_PATHS_BATCHED_BFS_H_

#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "paths/frontier.h"
#include "paths/k_shortest.h"

namespace gcore {

/// The 64-lane mask fixpoint behind every wave: seed i sets bit i at
/// (seeds[i], nfa.start()), and masks propagate along the product moves
/// until nothing changes. `masks` ends with num_nodes * num_states words,
/// indexed node * num_states + state. With `backward`, `nfa` is a
/// reversed automaton (Nfa::Reversed) and every move runs against the
/// graph: forward-label transitions scan In(), backward-label transitions
/// scan Out(), and view segments are consumed dst to src. `count` <= 64;
/// every seed must be in the graph.
Status MaskWave(const PathSearchContext& ctx, const CompiledNfa& nfa,
                bool backward, const NodeId* seeds, size_t count,
                std::vector<uint64_t>* masks);

/// Reachable-node set per source (same order as `sources`): the batched
/// equivalent of calling ReachableFrom once per source. Sources may
/// repeat; every source must be in the graph.
Result<std::vector<std::set<NodeId>>> BatchedReachableFrom(
    const PathSearchContext& ctx, const std::vector<NodeId>& sources);

/// KShortestPathsFrom for every source (same order as `sources`), fanned
/// across ctx.parallelism workers. Errors surface in source order.
Result<std::vector<std::map<NodeId, std::vector<FoundPath>>>>
BatchedKShortestFrom(const PathSearchContext& ctx,
                     const std::vector<NodeId>& sources, size_t k);

}  // namespace gcore

#endif  // GCORE_PATHS_BATCHED_BFS_H_
