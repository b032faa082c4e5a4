#include "paths/batched_bfs.h"

#include <algorithm>
#include <deque>

#include "graph/snapshot.h"
#include "paths/frontier.h"

namespace gcore {

Status MaskWave(const PathSearchContext& ctx, const CompiledNfa& nfa,
                bool backward, const NodeId* seeds, size_t count,
                std::vector<uint64_t>* masks) {
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const size_t num_states = nfa.num_states();
  masks->assign(adj.num_nodes() * num_states, 0);
  std::deque<size_t> worklist;
  std::vector<bool> queued(masks->size(), false);

  auto merge = [&](size_t idx, uint64_t add) {
    add &= ~(*masks)[idx];
    if (add == 0) return;
    (*masks)[idx] |= add;
    if (!queued[idx]) {
      queued[idx] = true;
      worklist.push_back(idx);
    }
  };

  for (size_t i = 0; i < count; ++i) {
    merge(static_cast<size_t>(adj.IndexOf(seeds[i])) * num_states +
              nfa.start(),
          uint64_t{1} << i);
  }

  ViewResolver resolver(ctx.views);
  ViewBackIndex back_index;
  while (!worklist.empty()) {
    const size_t p = worklist.front();
    worklist.pop_front();
    queued[p] = false;
    const uint64_t m = (*masks)[p];  // current mask, not the enqueue-time one
    const DenseNodeIndex n = static_cast<DenseNodeIndex>(p / num_states);
    const NfaStateId q = static_cast<NfaStateId>(p % num_states);

    for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
      switch (t.type) {
        case NfaTransition::Type::kEpsilon:
          merge(static_cast<size_t>(n) * num_states + t.target, m);
          break;
        case NfaTransition::Type::kNodeTest:
          if (nfa.NodeAdmitted(t, n)) {
            merge(static_cast<size_t>(n) * num_states + t.target, m);
          }
          break;
        case NfaTransition::Type::kAnyEdge:
        case NfaTransition::Type::kEdgeForward:
        case NfaTransition::Type::kEdgeBackward: {
          // Forward: kEdgeForward scans Out, kEdgeBackward scans In,
          // kAnyEdge both. A reversed automaton's transition means "this
          // edge was crossed towards me", so the backward sweep swaps the
          // spans.
          const bool scan_out =
              t.type != (backward ? NfaTransition::Type::kEdgeForward
                                  : NfaTransition::Type::kEdgeBackward);
          const bool scan_in =
              t.type != (backward ? NfaTransition::Type::kEdgeBackward
                                  : NfaTransition::Type::kEdgeForward);
          auto try_entries = [&](const AdjacencyEntry* begin,
                                 const AdjacencyEntry* end) {
            for (const AdjacencyEntry* e = begin; e != end; ++e) {
              if (!nfa.EdgeAdmitted(t, *e)) continue;
              merge(static_cast<size_t>(e->neighbor) * num_states + t.target,
                    m);
            }
          };
          if (scan_out) {
            auto [b, e] = adj.Out(n);
            try_entries(b, e);
          }
          if (scan_in) {
            auto [b, e] = adj.In(n);
            try_entries(b, e);
          }
          break;
        }
        case NfaTransition::Type::kViewRef: {
          GCORE_ASSIGN_OR_RETURN(const PathViewRelation* rel,
                                 resolver.Resolve(*t.label));
          if (backward) {
            for (const PathViewSegment* seg :
                 back_index.SegmentsInto(*rel, adj.IdOf(n))) {
              const DenseNodeIndex src = adj.Find(seg->src);
              if (src == adj.num_nodes()) continue;
              merge(static_cast<size_t>(src) * num_states + t.target, m);
            }
          } else {
            for (const PathViewSegment& seg : rel->SegmentsFrom(adj.IdOf(n))) {
              const DenseNodeIndex dst = adj.Find(seg.dst);
              if (dst == adj.num_nodes()) continue;
              merge(static_cast<size_t>(dst) * num_states + t.target, m);
            }
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

namespace {

/// One reachability wave: the forward mask fixpoint, read off at the
/// accept state into each source's set.
Status RunWave(const PathSearchContext& ctx, const CompiledNfa& nfa,
               const NodeId* sources, size_t count,
               std::set<NodeId>* out_sets) {
  std::vector<uint64_t> masks;
  GCORE_RETURN_NOT_OK(
      MaskWave(ctx, nfa, /*backward=*/false, sources, count, &masks));
  // Dense indices ascend with node id, so end-hinted insertion keeps the
  // materialization linear in the output size.
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const size_t num_states = nfa.num_states();
  const NfaStateId accept = nfa.accept();
  for (size_t n = 0; n < adj.num_nodes(); ++n) {
    uint64_t m = masks[n * num_states + accept];
    if (m == 0) continue;
    const NodeId id = adj.IdOf(static_cast<DenseNodeIndex>(n));
    while (m != 0) {
      const size_t i = static_cast<size_t>(__builtin_ctzll(m));
      m &= m - 1;
      out_sets[i].emplace_hint(out_sets[i].end(), id);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::set<NodeId>>> BatchedReachableFrom(
    const PathSearchContext& ctx, const std::vector<NodeId>& sources) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  for (NodeId src : sources) {
    if (!ctx.snap->adjacency().Contains(src)) {
      return Status::InvalidArgument("source node is not in the graph");
    }
  }
  std::vector<std::set<NodeId>> out(sources.size());
  if (sources.empty()) return out;

  const CompiledNfa nfa(*ctx.nfa, *ctx.snap);
  const size_t num_waves = (sources.size() + 63) / 64;
  std::vector<Status> wave_status(num_waves, Status::OK());
  ParallelFor(ctx.parallelism, num_waves, [&](size_t w) {
    const size_t lo = w * 64;
    const size_t count = std::min<size_t>(64, sources.size() - lo);
    wave_status[w] = RunWave(ctx, nfa, sources.data() + lo, count, &out[lo]);
  });
  for (const Status& st : wave_status) {
    if (!st.ok()) return st;
  }
  return out;
}

Result<std::vector<std::map<NodeId, std::vector<FoundPath>>>>
BatchedKShortestFrom(const PathSearchContext& ctx,
                     const std::vector<NodeId>& sources, size_t k) {
  std::vector<std::map<NodeId, std::vector<FoundPath>>> out(sources.size());
  std::vector<Status> status(sources.size(), Status::OK());
  ParallelFor(ctx.parallelism, sources.size(), [&](size_t i) {
    auto r = KShortestPathsFrom(ctx, sources[i], k);
    if (r.ok()) {
      out[i] = std::move(*r);
    } else {
      status[i] = r.status();
    }
  });
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return out;
}

}  // namespace gcore
