// Baseline path evaluators for the ablation benchmarks.
//
// Section 4 argues G-CORE's path semantics was *chosen* for tractability:
// arbitrary-walk shortest paths are polynomial (product automaton +
// Dijkstra), whereas (a) materializing all conforming walks explodes and
// (b) simple-path semantics is NP-complete [Mendelzon & Wood 1995].
// These baselines realize the rejected alternatives so the benches can
// exhibit the blow-up the language design avoids.
#ifndef GCORE_BENCH_BASELINES_H_
#define GCORE_BENCH_BASELINES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "eval/binding.h"
#include "graph/adjacency.h"
#include "paths/nfa.h"

namespace gcore {
namespace bench {

/// The seed's row-major Ω storage (BindingTable is columnar since the
/// vectorized-Ω refactor), shared by the benches that reconstruct seed
/// behavior so every "row path" baseline measures the same thing.
using SeedRows = std::vector<BindingRow>;

/// Materializes a columnar table into seed-style rows (done outside the
/// timed loops: the seed stored its tables this way to begin with).
SeedRows MaterializeRows(const BindingTable& table);

/// Counts conforming walks from src to dst up to `max_hops` hops by naive
/// enumeration (DFS over walks). Exponential in max_hops on dense graphs;
/// stops early after `budget` expansions and reports how many were used.
/// Topology comes from `adj`; labels are read from `graph`, the PPG
/// `adj` was frozen from, the way the seed evaluator read them.
struct EnumerationStats {
  uint64_t walks_found = 0;
  uint64_t expansions = 0;
  bool budget_exhausted = false;
};
EnumerationStats EnumerateConformingWalks(const PathPropertyGraph& graph,
                                          const AdjacencyIndex& adj,
                                          const Nfa& nfa, NodeId src,
                                          NodeId dst, size_t max_hops,
                                          uint64_t budget);

/// Shortest *simple* path (no repeated node) from src to dst conforming to
/// the regex, by exhaustive backtracking — the NP-hard semantics Cypher 9
/// uses and G-CORE deliberately avoids. Returns its length, or nullopt.
/// Stops after `budget` expansions (sets stats.budget_exhausted). Reads
/// `graph` and `adj` like EnumerateConformingWalks.
std::optional<size_t> ShortestSimplePath(const PathPropertyGraph& graph,
                                         const AdjacencyIndex& adj,
                                         const Nfa& nfa, NodeId src,
                                         NodeId dst, uint64_t budget,
                                         EnumerationStats* stats);

}  // namespace bench
}  // namespace gcore

#endif  // GCORE_BENCH_BASELINES_H_
