#include "paths/all_paths.h"

#include <algorithm>
#include <deque>

#include "graph/snapshot.h"
#include "paths/batched_bfs.h"
#include "paths/frontier.h"
#include "paths/product_bfs.h"

namespace gcore {

namespace {

/// Backward product reachability: marks (node, state) pairs from which
/// (dst, accept) is reachable. Implemented as forward reachability over
/// the reversed NFA with flipped edge-direction semantics; view segments
/// are consumed dst-to-src through a ViewBackIndex instead of rescanning
/// every segment per visited node.
Status BackwardProductReachability(const PathSearchContext& ctx, NodeId dst,
                                   std::vector<bool>* marks) {
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const Nfa rev = ctx.nfa->Reversed();
  const CompiledNfa nfa(rev, *ctx.snap);
  const size_t num_states = nfa.num_states();
  marks->assign(adj.num_nodes() * num_states, false);

  std::deque<std::pair<DenseNodeIndex, NfaStateId>> queue;
  auto push = [&](DenseNodeIndex n, NfaStateId q) {
    const size_t idx = static_cast<size_t>(n) * num_states + q;
    if ((*marks)[idx]) return;
    (*marks)[idx] = true;
    queue.emplace_back(n, q);
  };
  push(adj.IndexOf(dst), rev.start());  // rev.start == original accept

  ViewBackIndex back_index;
  while (!queue.empty()) {
    auto [n, q] = queue.front();
    queue.pop_front();

    for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
      switch (t.type) {
        case NfaTransition::Type::kEpsilon:
          push(n, t.target);
          break;
        case NfaTransition::Type::kNodeTest:
          if (nfa.NodeAdmitted(t, n)) push(n, t.target);
          break;
        case NfaTransition::Type::kAnyEdge:
        case NfaTransition::Type::kEdgeForward:
        case NfaTransition::Type::kEdgeBackward: {
          // Walking backwards: a forward-label transition was taken along
          // an edge *into* the current node, so scan In(); a backward-label
          // transition scans Out().
          auto try_entries = [&](const AdjacencyEntry* begin,
                                 const AdjacencyEntry* end) {
            for (const AdjacencyEntry* e = begin; e != end; ++e) {
              if (nfa.EdgeAdmitted(t, *e)) push(e->neighbor, t.target);
            }
          };
          if (t.type != NfaTransition::Type::kEdgeBackward) {
            auto [b, e] = adj.In(n);
            try_entries(b, e);
          }
          if (t.type != NfaTransition::Type::kEdgeForward) {
            auto [b, e] = adj.Out(n);
            try_entries(b, e);
          }
          break;
        }
        case NfaTransition::Type::kViewRef: {
          if (ctx.views == nullptr) {
            return Status::EvaluationError(
                "regex references PATH view '~" + *t.label +
                "' but no views are in scope");
          }
          auto rel = ctx.views->Lookup(*t.label);
          if (!rel.ok()) return rel.status();
          for (const PathViewSegment* seg :
               back_index.SegmentsInto(**rel, adj.IdOf(n))) {
            const DenseNodeIndex src = adj.Find(seg->src);
            if (src != adj.num_nodes()) push(src, t.target);
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<PathProjection> AllPathsProjection(const PathSearchContext& ctx,
                                          NodeId src, NodeId dst) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  if (!adj.Contains(src) || !adj.Contains(dst)) {
    return Status::InvalidArgument("endpoints are not in the graph");
  }

  std::vector<bool> fwd;
  GCORE_RETURN_NOT_OK(ProductReachability(ctx, src, &fwd));
  std::vector<bool> bwd;
  GCORE_RETURN_NOT_OK(BackwardProductReachability(ctx, dst, &bwd));

  const CompiledNfa nfa(*ctx.nfa, *ctx.snap);
  const size_t num_states = nfa.num_states();
  auto useful = [&](DenseNodeIndex n, NfaStateId q) {
    const size_t idx = static_cast<size_t>(n) * num_states + q;
    return fwd[idx] && bwd[idx];
  };

  PathProjection out;

  // An edge participates in a conforming walk iff some edge transition
  // (v, q) -> (u, q') crosses it with (v, q) forward-reachable and
  // (u, q') backward-reachable.
  for (size_t ni = 0; ni < adj.num_nodes(); ++ni) {
    const DenseNodeIndex n = static_cast<DenseNodeIndex>(ni);
    const NodeId here = adj.IdOf(n);
    for (NfaStateId q = 0; q < num_states; ++q) {
      if (!fwd[ni * num_states + q]) continue;
      for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
        switch (t.type) {
          case NfaTransition::Type::kEpsilon:
            if (bwd[ni * num_states + t.target] && useful(n, q)) {
              out.nodes.insert(here);
            }
            break;
          case NfaTransition::Type::kNodeTest:
            if (nfa.NodeAdmitted(t, n) && bwd[ni * num_states + t.target]) {
              out.nodes.insert(here);
            }
            break;
          case NfaTransition::Type::kAnyEdge:
          case NfaTransition::Type::kEdgeForward:
          case NfaTransition::Type::kEdgeBackward: {
            auto try_entries = [&](const AdjacencyEntry* begin,
                                   const AdjacencyEntry* end) {
              for (const AdjacencyEntry* e = begin; e != end; ++e) {
                if (!nfa.EdgeAdmitted(t, *e)) continue;
                if (!bwd[static_cast<size_t>(e->neighbor) * num_states +
                         t.target]) {
                  continue;
                }
                out.edges.insert(e->edge);
                out.nodes.insert(here);
                out.nodes.insert(adj.IdOf(e->neighbor));
              }
            };
            if (t.type != NfaTransition::Type::kEdgeBackward) {
              auto [b, e] = adj.Out(n);
              try_entries(b, e);
            }
            if (t.type != NfaTransition::Type::kEdgeForward) {
              auto [b, e] = adj.In(n);
              try_entries(b, e);
            }
            break;
          }
          case NfaTransition::Type::kViewRef: {
            if (ctx.views == nullptr) break;
            auto rel = ctx.views->Lookup(*t.label);
            if (!rel.ok()) break;
            for (const PathViewSegment& seg : (*rel)->SegmentsFrom(here)) {
              const DenseNodeIndex d = adj.Find(seg.dst);
              if (d == adj.num_nodes() ||
                  !bwd[static_cast<size_t>(d) * num_states + t.target]) {
                continue;
              }
              out.nodes.insert(seg.body.nodes.begin(), seg.body.nodes.end());
              out.edges.insert(seg.body.edges.begin(), seg.body.edges.end());
            }
            break;
          }
        }
      }
    }
  }

  // The endpoints themselves participate when any walk exists at all —
  // read off the forward sweep directly instead of a third traversal.
  const bool reachable =
      fwd[static_cast<size_t>(adj.IndexOf(dst)) * num_states +
          ctx.nfa->accept()];
  if (reachable) {
    out.nodes.insert(src);
    out.nodes.insert(dst);
  } else {
    out.nodes.clear();
    out.edges.clear();
  }
  return out;
}

namespace {

/// One wave of the batched kernel: the projections from the source whose
/// forward marks are `fwd` onto `count` <= 64 targets it reaches. Applies
/// AllPathsProjection's rules, with bit i of every word standing for
/// targets[i].
Status ProjectWave(const PathSearchContext& ctx, const CompiledNfa& nfa,
                   const CompiledNfa& rev, NodeId src,
                   const std::vector<bool>& fwd, const NodeId* targets,
                   size_t count, SortedProjection* out) {
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const size_t num_states = nfa.num_states();
  std::vector<uint64_t> bwd;
  GCORE_RETURN_NOT_OK(
      MaskWave(ctx, rev, /*backward=*/true, targets, count, &bwd));

  std::vector<uint64_t> node_bits(adj.num_nodes(), 0);
  std::vector<uint64_t> edge_bits(ctx.snap->num_edges(), 0);
  std::vector<std::pair<const PathViewSegment*, uint64_t>> view_hits;
  ViewResolver resolver(ctx.views);
  for (size_t ni = 0; ni < adj.num_nodes(); ++ni) {
    const DenseNodeIndex n = static_cast<DenseNodeIndex>(ni);
    const uint64_t* here_bwd = &bwd[ni * num_states];
    for (NfaStateId q = 0; q < num_states; ++q) {
      if (!fwd[ni * num_states + q]) continue;
      for (const CompiledTransition& t : nfa.TransitionsFrom(q)) {
        switch (t.type) {
          case NfaTransition::Type::kEpsilon:
            node_bits[ni] |= here_bwd[t.target] & here_bwd[q];
            break;
          case NfaTransition::Type::kNodeTest:
            if (nfa.NodeAdmitted(t, n)) node_bits[ni] |= here_bwd[t.target];
            break;
          case NfaTransition::Type::kAnyEdge:
          case NfaTransition::Type::kEdgeForward:
          case NfaTransition::Type::kEdgeBackward: {
            auto try_entries = [&](const AdjacencyEntry* begin,
                                   const AdjacencyEntry* end) {
              for (const AdjacencyEntry* e = begin; e != end; ++e) {
                if (!nfa.EdgeAdmitted(t, *e)) continue;
                const uint64_t m =
                    bwd[static_cast<size_t>(e->neighbor) * num_states +
                        t.target];
                if (m == 0) continue;
                edge_bits[e->edge_dense] |= m;
                node_bits[ni] |= m;
                node_bits[e->neighbor] |= m;
              }
            };
            if (t.type != NfaTransition::Type::kEdgeBackward) {
              auto [b, e] = adj.Out(n);
              try_entries(b, e);
            }
            if (t.type != NfaTransition::Type::kEdgeForward) {
              auto [b, e] = adj.In(n);
              try_entries(b, e);
            }
            break;
          }
          case NfaTransition::Type::kViewRef: {
            GCORE_ASSIGN_OR_RETURN(const PathViewRelation* rel,
                                   resolver.Resolve(*t.label));
            for (const PathViewSegment& seg : rel->SegmentsFrom(adj.IdOf(n))) {
              const DenseNodeIndex d = adj.Find(seg.dst);
              if (d == adj.num_nodes()) continue;
              const uint64_t m =
                  bwd[static_cast<size_t>(d) * num_states + t.target];
              if (m != 0) view_hits.emplace_back(&seg, m);
            }
            break;
          }
        }
      }
    }
  }

  // Every target was reached, so the endpoints participate.
  const uint64_t all = count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
  node_bits[adj.IndexOf(src)] |= all;
  for (size_t i = 0; i < count; ++i) {
    node_bits[adj.IndexOf(targets[i])] |= uint64_t{1} << i;
  }

  auto for_each_bit = [](uint64_t m, auto&& fn) {
    while (m != 0) {
      fn(static_cast<size_t>(__builtin_ctzll(m)));
      m &= m - 1;
    }
  };
  for (size_t ni = 0; ni < node_bits.size(); ++ni) {
    const NodeId id = adj.IdOf(static_cast<DenseNodeIndex>(ni));
    for_each_bit(node_bits[ni],
                 [&](size_t i) { out[i].nodes.push_back(id); });
  }
  for (size_t ei = 0; ei < edge_bits.size(); ++ei) {
    const EdgeId id = ctx.snap->EdgeIdOf(static_cast<DenseEdgeIndex>(ei));
    for_each_bit(edge_bits[ei],
                 [&](size_t i) { out[i].edges.push_back(id); });
  }
  // View-segment bodies are the only ids that arrive out of order.
  uint64_t unsorted = 0;
  for (const auto& [seg, m] : view_hits) {
    unsorted |= m;
    for_each_bit(m, [&](size_t i) {
      out[i].nodes.insert(out[i].nodes.end(), seg->body.nodes.begin(),
                          seg->body.nodes.end());
      out[i].edges.insert(out[i].edges.end(), seg->body.edges.begin(),
                          seg->body.edges.end());
    });
  }
  auto sort_unique = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for_each_bit(unsorted, [&](size_t i) {
    sort_unique(out[i].nodes);
    sort_unique(out[i].edges);
  });
  return Status::OK();
}

}  // namespace

Result<std::vector<AllPathsFrom>> BatchedAllPathsProjection(
    const PathSearchContext& ctx, const std::vector<NodeId>& sources,
    const std::function<bool(size_t, NodeId)>& admit) {
  if (ctx.snap == nullptr || ctx.nfa == nullptr) {
    return Status::InvalidArgument("path search context is incomplete");
  }
  const AdjacencyIndex& adj = ctx.snap->adjacency();
  const size_t num_states = ctx.nfa->num_states();
  const NfaStateId accept = ctx.nfa->accept();

  // One forward sweep per source.
  std::vector<std::vector<bool>> fwd(sources.size());
  std::vector<Status> status(sources.size(), Status::OK());
  ParallelFor(ctx.parallelism, sources.size(), [&](size_t s) {
    status[s] = ProductReachability(ctx, sources[s], &fwd[s]);
  });
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }

  // The accepted forward marks list each source's targets; pre-assign one
  // slot per (source, wave of <= 64 targets).
  std::vector<AllPathsFrom> out(sources.size());
  struct Wave {
    size_t source;
    size_t lo;
    size_t count;
  };
  std::vector<Wave> waves;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t n = 0; n < adj.num_nodes(); ++n) {
      if (!fwd[s][n * num_states + accept]) continue;
      const NodeId target = adj.IdOf(static_cast<DenseNodeIndex>(n));
      if (admit(s, target)) out[s].targets.push_back(target);
    }
    out[s].projections.resize(out[s].targets.size());
    for (size_t lo = 0; lo < out[s].targets.size(); lo += 64) {
      waves.push_back(
          {s, lo, std::min<size_t>(64, out[s].targets.size() - lo)});
    }
  }

  const Nfa reversed = ctx.nfa->Reversed();
  const CompiledNfa nfa(*ctx.nfa, *ctx.snap);
  const CompiledNfa rev(reversed, *ctx.snap);
  std::vector<Status> wave_status(waves.size(), Status::OK());
  ParallelFor(ctx.parallelism, waves.size(), [&](size_t w) {
    const Wave& wave = waves[w];
    AllPathsFrom& from = out[wave.source];
    wave_status[w] = ProjectWave(ctx, nfa, rev, sources[wave.source],
                                 fwd[wave.source],
                                 from.targets.data() + wave.lo, wave.count,
                                 from.projections.data() + wave.lo);
  });
  for (const Status& st : wave_status) {
    if (!st.ok()) return st;
  }
  return out;
}

}  // namespace gcore
