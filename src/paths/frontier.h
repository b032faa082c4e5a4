// Shared infrastructure of the parallel path kernels.
//
// The batch-oriented kernels (batched_bfs.h, the batched ALL projection in
// all_paths.h and the bidirectional product-BFS in product_bfs.h) share
// three ingredients:
//
//   * CompiledNfa — the regex automaton with every transition label
//     pre-resolved against a GraphSnapshot's interned label ids, so the
//     per-half-edge admission test is one sorted-span lookup over dense
//     indices instead of a std::map walk plus string compares. The
//     snapshot is the only graph the path kernels read.
//
//   * ParallelFor — the engine's one fan-out primitive, also serving the
//     plan executor's morsel pipelines (plan/executor.h): threads claim
//     indices of a range through an atomic counter, at most
//     `parallelism` of them, the calling thread included. Callers keep
//     per-index output slots, so results are a pure function of the
//     input regardless of thread schedule.
//
//   * ViewResolver / ViewBackIndex — a per-sweep name cache for the
//     views that kViewRef transitions traverse, and a lazily built
//     dst-keyed index over PATH-view segments, the backward analogue of
//     PathViewRelation::SegmentsFrom (backward product sweeps would
//     otherwise rescan every segment per visited node).
//
// Determinism contract (see ROADMAP "Parallel path engine"): every kernel
// built on these helpers returns bit-identical results at every
// parallelism degree — workers only produce into pre-assigned slots or
// thread-local buffers that a coordinator merges in fixed slice order.
#ifndef GCORE_PATHS_FRONTIER_H_
#define GCORE_PATHS_FRONTIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/snapshot.h"
#include "paths/nfa.h"
#include "paths/path_view.h"

namespace gcore {

/// Resolves a requested degree: 0 means one per hardware thread; the
/// result is always >= 1.
size_t ResolveParallelism(size_t requested);

/// Runs fn(i) for i in [0, n) across at most min(`parallelism`, n)
/// threads, the calling thread one of them (resolved by
/// ResolveParallelism); with one, every index runs in order on the
/// calling thread and no thread starts. Work is claimed via an atomic
/// counter, but each index owns its own output slot, so results never
/// depend on the schedule. fn must not throw; report errors through
/// per-index slots.
void ParallelFor(size_t parallelism, size_t n,
                 const std::function<void(size_t)>& fn);

/// One NFA transition with its label resolved against a snapshot.
struct CompiledTransition {
  NfaTransition::Type type;
  NfaStateId target;
  /// Interned label id; GraphSnapshot::kNoLabel when the label occurs
  /// nowhere in the graph (the transition then admits nothing).
  uint32_t label_id = GraphSnapshot::kNoLabel;
  /// Borrowed from the source Nfa; kViewRef transitions name their view.
  const std::string* label = nullptr;
};

/// An Nfa with transition labels pre-interned against a snapshot. Borrows
/// the Nfa and the snapshot — both must outlive it.
class CompiledNfa {
 public:
  CompiledNfa(const Nfa& nfa, const GraphSnapshot& snap);

  size_t num_states() const { return states_.size(); }
  NfaStateId start() const { return start_; }
  NfaStateId accept() const { return accept_; }
  const std::vector<CompiledTransition>& TransitionsFrom(NfaStateId s) const {
    return states_[s];
  }

  /// Edge admission of a half-edge against an edge transition
  /// (kAnyEdge/kEdgeForward/kEdgeBackward); direction is the caller's
  /// business (it picks the Out/In span).
  bool EdgeAdmitted(const CompiledTransition& t,
                    const AdjacencyEntry& e) const {
    return t.type == NfaTransition::Type::kAnyEdge ||
           (t.label_id != GraphSnapshot::kNoLabel &&
            snap_->EdgeHasLabel(e.edge_dense, t.label_id));
  }

  /// Node-test admission (kNodeTest) of the node at dense index `n`.
  bool NodeAdmitted(const CompiledTransition& t, DenseNodeIndex n) const {
    return t.label_id != GraphSnapshot::kNoLabel &&
           snap_->NodeHasLabel(n, t.label_id);
  }

 private:
  const GraphSnapshot* snap_;
  NfaStateId start_;
  NfaStateId accept_;
  std::vector<std::vector<CompiledTransition>> states_;
};

/// Resolves the view of a kViewRef transition, caching by name. Not
/// thread-safe; one instance per (serial) sweep.
class ViewResolver {
 public:
  explicit ViewResolver(const PathViewRegistry* views) : views_(views) {}

  /// The relation named `name`; an error when no views are in scope or
  /// none has that name.
  Result<const PathViewRelation*> Resolve(const std::string& name);

 private:
  const PathViewRegistry* views_;
  std::map<std::string, const PathViewRelation*> cache_;
};

/// Lazily built dst-keyed segment index over PATH-view relations: the
/// backward analogue of PathViewRelation::SegmentsFrom. Each list is in
/// (source id, insertion) order. Not thread-safe; one instance per
/// (serial) sweep.
class ViewBackIndex {
 public:
  /// Segments of `rel` ending at `dst` (possibly empty). Pointers borrow
  /// from the relation.
  const std::vector<const PathViewSegment*>& SegmentsInto(
      const PathViewRelation& rel, NodeId dst);

 private:
  std::map<const PathViewRelation*,
           std::map<NodeId, std::vector<const PathViewSegment*>>>
      by_rel_;
};

}  // namespace gcore

#endif  // GCORE_PATHS_FRONTIER_H_
