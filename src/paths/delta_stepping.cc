#include "paths/delta_stepping.h"

#include <algorithm>
#include <map>

#include "paths/frontier.h"

namespace gcore {

namespace {

/// One proposed relaxation, produced by a worker, applied by the
/// coordinator.
struct Candidate {
  DenseNodeIndex node;
  double dist;
  int64_t parent;
  /// Tiebreak key at equal distance: the segment's ordinal within
  /// SegmentsFrom(parent).
  uint64_t tie;
  const PathViewSegment* seg;
};

/// Distance/parent arrays plus the canonical acceptance rule.
struct DeltaState {
  std::vector<double> dist;
  std::vector<int64_t> parent;
  std::vector<uint64_t> tie;
  std::vector<const PathViewSegment*> seg;

  explicit DeltaState(size_t n)
      : dist(n, ViewSsspResult::kUnreachable),
        parent(n, -1),
        tie(n, 0),
        seg(n, nullptr) {}

  void Store(const Candidate& c) {
    parent[c.node] = c.parent;
    tie[c.node] = c.tie;
    seg[c.node] = c.seg;
  }

  /// Canonical acceptance: strictly smaller distance always wins; at
  /// equal distance a candidate with a smaller (parent, tie) pair
  /// replaces the incumbent parent without requeueing. Returns true when
  /// the distance improved (the node must requeue).
  bool Apply(const Candidate& c) {
    double& d = dist[c.node];
    if (c.dist < d) {
      d = c.dist;
      Store(c);
      return true;
    }
    if (c.dist == d && parent[c.node] >= 0 &&
        (c.parent < parent[c.node] ||
         (c.parent == parent[c.node] && c.tie < tie[c.node]))) {
      Store(c);
    }
    return false;
  }
};

/// Bucket width: the mean of up to 1024 segment costs, the classic
/// Δ ≈ average-weight heuristic; 1.0 for an empty view.
double AutoDelta(const PathViewRelation& view) {
  const auto& segs = view.AllSegments();
  const size_t n = std::min<size_t>(segs.size(), 1024);
  if (n == 0) return 1.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += segs[i].cost;
  return sum / static_cast<double>(n);
}

/// The bucketed coordinator loop. `expand(u, du, out)` appends the
/// relaxation candidates of node `u` at distance `du`. Workers expand
/// disjoint contiguous frontier slices against the frozen distance array;
/// the coordinator merges the slice buffers in order, so the candidate
/// sequence — and with the canonical Apply rule the whole result — is
/// identical at every parallelism degree.
template <typename Expander>
void RunDelta(DeltaState& state, DenseNodeIndex src_idx, double delta,
              size_t parallelism, Expander&& expand) {
  state.dist[src_idx] = 0.0;
  auto bucket_of = [delta](double d) {
    return static_cast<uint64_t>(d / delta);
  };
  std::map<uint64_t, std::vector<DenseNodeIndex>> buckets;
  buckets[0].push_back(src_idx);

  const size_t degree = ResolveParallelism(parallelism);
  std::vector<uint32_t> stamp(state.dist.size(), 0);
  uint32_t round = 0;

  while (!buckets.empty()) {
    auto it = buckets.begin();
    const uint64_t idx = it->first;
    std::vector<DenseNodeIndex> pending = std::move(it->second);
    buckets.erase(it);

    // Inner fixpoint: relax the bucket until no node of it changes.
    while (!pending.empty()) {
      ++round;
      std::vector<DenseNodeIndex> frontier;
      frontier.reserve(pending.size());
      for (DenseNodeIndex u : pending) {
        if (stamp[u] == round) continue;              // duplicate this wave
        if (bucket_of(state.dist[u]) != idx) continue;  // migrated buckets
        stamp[u] = round;
        frontier.push_back(u);
      }
      pending.clear();
      if (frontier.empty()) break;

      const size_t grain =
          std::max<size_t>(16, (frontier.size() + degree * 4 - 1) /
                                   (degree * 4));
      const size_t slices = (frontier.size() + grain - 1) / grain;
      std::vector<std::vector<Candidate>> buffers(slices);
      ParallelFor(degree, slices, [&](size_t sl) {
        const size_t lo = sl * grain;
        const size_t hi = std::min(frontier.size(), lo + grain);
        for (size_t i = lo; i < hi; ++i) {
          const DenseNodeIndex u = frontier[i];
          expand(u, state.dist[u], &buffers[sl]);
        }
      });

      for (const auto& buf : buffers) {
        for (const Candidate& c : buf) {
          if (!state.Apply(c)) continue;
          const uint64_t b = bucket_of(c.dist);
          if (b == idx) {
            pending.push_back(c.node);
          } else {
            buckets[b].push_back(c.node);
          }
        }
      }
    }
  }
}

}  // namespace

Result<ViewSsspResult> ViewStarSssp(const AdjacencyIndex& adj,
                                    const PathViewRelation& view, NodeId src,
                                    size_t parallelism) {
  const DenseNodeIndex s = adj.Find(src);
  if (s == adj.num_nodes()) {
    return Status::EvaluationError("path search source is not in the graph");
  }
  DeltaState state(adj.num_nodes());
  RunDelta(state, s, AutoDelta(view), parallelism,
           [&](DenseNodeIndex u, double du, std::vector<Candidate>* out) {
             const auto& segs = view.SegmentsFrom(adj.IdOf(u));
             for (size_t i = 0; i < segs.size(); ++i) {
               const PathViewSegment& seg = segs[i];
               const DenseNodeIndex v = adj.Find(seg.dst);
               if (v == adj.num_nodes()) continue;
               out->push_back(Candidate{v, du + seg.cost,
                                        static_cast<int64_t>(u),
                                        static_cast<uint64_t>(i), &seg});
             }
           });
  ViewSsspResult r;
  r.distance = std::move(state.dist);
  r.parent = std::move(state.parent);
  r.parent_seg = std::move(state.seg);
  return r;
}

std::optional<PathBody> ReconstructViewWalk(const AdjacencyIndex& adj,
                                            const ViewSsspResult& sssp,
                                            NodeId src, NodeId dst) {
  const DenseNodeIndex s = adj.IndexOf(src);
  const DenseNodeIndex d = adj.IndexOf(dst);
  if (!sssp.Reached(d)) return std::nullopt;
  std::vector<const PathViewSegment*> chain;
  for (DenseNodeIndex cur = d; cur != s;
       cur = static_cast<DenseNodeIndex>(sssp.parent[cur])) {
    chain.push_back(sssp.parent_seg[cur]);
  }
  std::reverse(chain.begin(), chain.end());
  PathBody body;
  body.nodes.push_back(src);
  for (const PathViewSegment* seg : chain) {
    body.nodes.insert(body.nodes.end(), seg->body.nodes.begin() + 1,
                      seg->body.nodes.end());
    body.edges.insert(body.edges.end(), seg->body.edges.begin(),
                      seg->body.edges.end());
  }
  return body;
}

}  // namespace gcore
