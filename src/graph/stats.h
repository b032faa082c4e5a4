// Per-graph summary statistics for the query planner's cardinality
// estimator (plan/cost.h).
//
// Beyond the object/label counts of the original seed, a GraphStats
// carries per-property-key distributions (how many objects hold the key,
// how many distinct values it takes, the numeric min/max) and measured
// edge counts keyed by (endpoint label, edge label) — the ingredients for
// the estimator's 1/distinct equality rule, min/max range interpolation
// and average-degree expansion fanout. The columnar layout of
// the Ω layer makes all of these one linear scan to collect.
//
// Property distributions are also kept per (label, key), so a
// label-restricted scan with a property filter stops paying the
// carrying-fraction × label-fraction independence double-charge (the
// global per-key distribution remains the fallback when a bucket is
// missing).
//
// Two collection paths produce identical statistics:
//   * GraphStats::CollectFromSnapshot(snapshot) — a column sweep over the
//     frozen GraphSnapshot; what GraphCatalog::Stats runs lazily (and
//     caches) on first use, sharing the snapshot it caches anyway.
//   * GraphStats::Collect(graph) — one full scan of the mutable PPG; the
//     reference implementation CollectFromSnapshot is pinned against
//     (tests/graph/snapshot_test.cc).
#ifndef GCORE_GRAPH_STATS_H_
#define GCORE_GRAPH_STATS_H_

#include <map>
#include <string>

#include "graph/ppg.h"

namespace gcore {

class GraphSnapshot;

/// Distribution summary of one property key over one object class
/// (nodes or edges) of a graph.
struct PropertyStats {
  /// Objects carrying the key (σ(x, k) non-empty).
  size_t count = 0;
  /// Distinct values observed across all carrying objects.
  size_t distinct = 0;
  /// True when at least one numeric value was seen; min/max below are
  /// then the numeric range (non-numeric values do not contribute).
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;

  friend bool operator==(const PropertyStats& a, const PropertyStats& b) {
    return a.count == b.count && a.distinct == b.distinct &&
           a.has_range == b.has_range && a.min == b.min && a.max == b.max;
  }
};

/// Summary statistics of one catalog graph. Computed lazily per graph by
/// GraphCatalog::Stats (cached until the graph is re-registered or
/// dropped), or handed in through GraphCatalog::RegisterGraph(name,
/// graph, stats).
struct GraphStats {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  size_t num_paths = 0;
  /// Number of nodes/edges carrying each label.
  std::map<std::string, size_t> node_label_counts;
  std::map<std::string, size_t> edge_label_counts;
  /// Per-property-key distributions of node / edge properties.
  std::map<std::string, PropertyStats> node_props;
  std::map<std::string, PropertyStats> edge_props;
  /// Label-restricted distributions keyed [object label][property key]:
  /// the same PropertyStats, but counted over the objects carrying the
  /// label (count relative to the label's object count, distinct/range
  /// over the label's carriers). Buckets exist only for labels whose
  /// objects carry properties; the global maps above are the fallback.
  std::map<std::string, std::map<std::string, PropertyStats>>
      node_props_by_label;
  std::map<std::string, std::map<std::string, PropertyStats>>
      edge_props_by_label;
  /// Edge counts keyed by [endpoint label][edge label]: out_edge_counts
  /// buckets every edge under each label of its *source* node,
  /// in_edge_counts under each label of its *target*. The empty string is
  /// the "any" bucket on either key, so out_edge_counts[""][""] is
  /// num_edges.
  std::map<std::string, std::map<std::string, size_t>> out_edge_counts;
  std::map<std::string, std::map<std::string, size_t>> in_edge_counts;

  /// Nodes carrying `label`; 0 when the label never occurs.
  size_t NodesWithLabel(const std::string& label) const;
  size_t EdgesWithLabel(const std::string& label) const;

  /// Measured average out-degree: edges labeled `edge_label` leaving
  /// nodes labeled `src_label`, divided by the count of such nodes.
  /// Empty src_label averages over all nodes; empty edge_label counts
  /// edges of any label. 0 when the label combination never occurs.
  double AvgOutDegree(const std::string& src_label,
                      const std::string& edge_label) const;
  /// Average in-degree, keyed by the *target* node's label.
  double AvgInDegree(const std::string& dst_label,
                     const std::string& edge_label) const;

  /// Distribution of `key` over nodes carrying `label`; null when the
  /// bucket is missing (the caller falls back to node_props). An empty
  /// label returns the global distribution.
  const PropertyStats* NodePropStatsFor(const std::string& label,
                                        const std::string& key) const;
  const PropertyStats* EdgePropStatsFor(const std::string& label,
                                        const std::string& key) const;

  /// Full-scan collection over the mutable PPG (kept as the reference
  /// path; tests pin CollectFromSnapshot against it).
  static GraphStats Collect(const PathPropertyGraph& graph);
  /// Column sweep over a frozen snapshot: label counts read off the
  /// per-label index spans, property distributions off the typed columns.
  /// Produces statistics identical to Collect on the snapshotted graph —
  /// this is what GraphCatalog::Stats runs, since the catalog builds the
  /// snapshot anyway.
  static GraphStats CollectFromSnapshot(const GraphSnapshot& snapshot);

  friend bool operator==(const GraphStats& a, const GraphStats& b) {
    return a.num_nodes == b.num_nodes && a.num_edges == b.num_edges &&
           a.num_paths == b.num_paths &&
           a.node_label_counts == b.node_label_counts &&
           a.edge_label_counts == b.edge_label_counts &&
           a.node_props == b.node_props && a.edge_props == b.edge_props &&
           a.node_props_by_label == b.node_props_by_label &&
           a.edge_props_by_label == b.edge_props_by_label &&
           a.out_edge_counts == b.out_edge_counts &&
           a.in_edge_counts == b.in_edge_counts;
  }
};

}  // namespace gcore

#endif  // GCORE_GRAPH_STATS_H_
