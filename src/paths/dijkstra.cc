#include "paths/dijkstra.h"

#include <deque>

namespace gcore {

SsspResult BfsFrom(const AdjacencyIndex& adj, NodeId src, bool follow_forward,
                   bool follow_backward) {
  SsspResult r;
  r.distance.assign(adj.num_nodes(), SsspResult::kUnreachable);
  const DenseNodeIndex s = adj.IndexOf(src);
  r.distance[s] = 0.0;
  std::deque<DenseNodeIndex> queue{s};
  while (!queue.empty()) {
    const DenseNodeIndex n = queue.front();
    queue.pop_front();
    auto visit = [&](const AdjacencyEntry* begin, const AdjacencyEntry* end) {
      for (const AdjacencyEntry* e = begin; e != end; ++e) {
        if (r.distance[e->neighbor] != SsspResult::kUnreachable) continue;
        r.distance[e->neighbor] = r.distance[n] + 1.0;
        queue.push_back(e->neighbor);
      }
    };
    if (follow_forward) {
      auto [b, e] = adj.Out(n);
      visit(b, e);
    }
    if (follow_backward) {
      auto [b, e] = adj.In(n);
      visit(b, e);
    }
  }
  return r;
}

}  // namespace gcore
