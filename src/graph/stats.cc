#include "graph/stats.h"

#include <set>
#include <vector>

#include "graph/snapshot.h"

namespace gcore {

namespace {

/// Edge counts keyed [endpoint label][edge label].
using Buckets = std::map<std::string, std::map<std::string, size_t>>;

/// Buckets of one endpoint-label map an edge contributes to: every label
/// the endpoint carries, plus the "" any-label bucket.
void CountEdgeBuckets(const LabelSet& endpoint_labels,
                      const LabelSet& edge_labels, Buckets* counts) {
  auto count_edge_labels = [&](const std::string& endpoint_label) {
    auto& by_edge_label = (*counts)[endpoint_label];
    ++by_edge_label[""];
    for (const auto& edge_label : edge_labels) ++by_edge_label[edge_label];
  };
  count_edge_labels("");
  for (const auto& label : endpoint_labels) count_edge_labels(label);
}

/// Folds one property value into `stats` (count/distinct handled by the
/// caller, which owns the distinct-tracking sets).
void FoldRange(PropertyStats* stats, const Value& value) {
  if (!value.is_numeric()) return;
  const double v = value.NumericAsDouble();
  if (!stats->has_range) {
    stats->has_range = true;
    stats->min = v;
    stats->max = v;
    return;
  }
  if (v < stats->min) stats->min = v;
  if (v > stats->max) stats->max = v;
}

/// Folds one object's property map: one count per carried key, its values
/// into the distinct-tracking set and the numeric range.
void FoldPropertyMap(const PropertyMap& map,
                     std::map<std::string, PropertyStats>* props,
                     std::map<std::string, std::set<Value>>* values) {
  for (const auto& [key, value_set] : map.entries()) {
    if (value_set.empty()) continue;
    PropertyStats& stats = (*props)[key];
    ++stats.count;
    auto& distinct = (*values)[key];
    for (const auto& value : value_set) {
      distinct.insert(value);
      FoldRange(&stats, value);
    }
  }
}

/// True when the map holds at least one non-empty value set — only then
/// does an object create per-label distribution buckets (so both
/// collection paths create exactly the same buckets).
bool HasAnyProperty(const PropertyMap& map) {
  for (const auto& [key, value_set] : map.entries()) {
    (void)key;
    if (!value_set.empty()) return true;
  }
  return false;
}

void ResolveDistinct(const std::map<std::string, std::set<Value>>& values,
                     std::map<std::string, PropertyStats>* props) {
  for (const auto& [key, set] : values) {
    (*props)[key].distinct = set.size();
  }
}

double AvgDegree(
    const std::map<std::string, std::map<std::string, size_t>>& counts,
    const std::string& endpoint_label, const std::string& edge_label,
    size_t endpoint_count) {
  if (endpoint_count == 0) return 0.0;
  auto by_endpoint = counts.find(endpoint_label);
  if (by_endpoint == counts.end()) return 0.0;
  auto by_edge = by_endpoint->second.find(edge_label);
  if (by_edge == by_endpoint->second.end()) return 0.0;
  return static_cast<double>(by_edge->second) /
         static_cast<double>(endpoint_count);
}

const PropertyStats* PropStatsFor(
    const std::map<std::string, std::map<std::string, PropertyStats>>&
        by_label,
    const std::map<std::string, PropertyStats>& global,
    const std::string& label, const std::string& key) {
  if (label.empty()) {
    auto it = global.find(key);
    return it == global.end() ? nullptr : &it->second;
  }
  auto bucket = by_label.find(label);
  if (bucket == by_label.end()) return nullptr;
  auto it = bucket->second.find(key);
  return it == bucket->second.end() ? nullptr : &it->second;
}

/// Folds one typed column into the global and per-label distributions —
/// the columnar mirror of FoldPropertyMap: one count per carrying cell,
/// distinct/range over the cell's values, per-label buckets created
/// exactly for (label of a carrier, key) pairs.
template <typename LabelIdsFn>
void SweepColumn(const GraphSnapshot& snap, const std::string& key,
                 const GraphSnapshot::PropertyColumn& col,
                 LabelIdsFn label_ids_of,
                 std::map<std::string, PropertyStats>* global,
                 std::map<std::string, std::map<std::string, PropertyStats>>*
                     by_label) {
  PropertyStats& g = (*global)[key];
  g.count = col.num_carriers();
  std::set<Value> distinct;
  std::map<uint32_t, std::set<Value>> distinct_by_label;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.AbsentAt(i)) continue;
    const ValueSet values = snap.CellValues(col, i);
    for (const Value& v : values) {
      distinct.insert(v);
      FoldRange(&g, v);
    }
    for (const uint32_t label : label_ids_of(i)) {
      PropertyStats& b = (*by_label)[snap.LabelName(label)][key];
      ++b.count;
      auto& label_distinct = distinct_by_label[label];
      for (const Value& v : values) {
        label_distinct.insert(v);
        FoldRange(&b, v);
      }
    }
  }
  g.distinct = distinct.size();
  for (const auto& [label, set] : distinct_by_label) {
    (*by_label)[snap.LabelName(label)][key].distinct = set.size();
  }
}

/// Accumulates the statistics of a PPG one object at a time; Collect
/// feeds it every node, edge and path, and Finish() resolves the distinct
/// counts. Distinct-value tracking keeps one value set per property key
/// until Finish, so it costs what the graph's property data costs.
class StatsCollector {
 public:
  void AddNode(const LabelSet& labels, const PropertyMap& props) {
    ++stats_.num_nodes;
    for (const auto& label : labels) ++stats_.node_label_counts[label];
    FoldPropertyMap(props, &stats_.node_props, &node_values_.global);
    if (HasAnyProperty(props)) {
      for (const auto& label : labels) {
        FoldPropertyMap(props, &stats_.node_props_by_label[label],
                        &node_values_.by_label[label]);
      }
    }
  }

  void AddEdge(const LabelSet& edge_labels, const PropertyMap& props,
               const LabelSet& src_labels, const LabelSet& dst_labels) {
    ++stats_.num_edges;
    for (const auto& label : edge_labels) ++stats_.edge_label_counts[label];
    FoldPropertyMap(props, &stats_.edge_props, &edge_values_.global);
    if (HasAnyProperty(props)) {
      for (const auto& label : edge_labels) {
        FoldPropertyMap(props, &stats_.edge_props_by_label[label],
                        &edge_values_.by_label[label]);
      }
    }
    CountEdgeBuckets(src_labels, edge_labels, &stats_.out_edge_counts);
    CountEdgeBuckets(dst_labels, edge_labels, &stats_.in_edge_counts);
  }

  void AddPath() { ++stats_.num_paths; }

  GraphStats Finish() const {
    GraphStats stats = stats_;
    ResolveDistinct(node_values_.global, &stats.node_props);
    ResolveDistinct(edge_values_.global, &stats.edge_props);
    for (const auto& [label, values] : node_values_.by_label) {
      ResolveDistinct(values, &stats.node_props_by_label[label]);
    }
    for (const auto& [label, values] : edge_values_.by_label) {
      ResolveDistinct(values, &stats.edge_props_by_label[label]);
    }
    return stats;
  }

 private:
  /// Distinct-value tracking sets of one object class: global per key,
  /// and per (label, key) for the label-restricted buckets.
  struct ValueSets {
    std::map<std::string, std::set<Value>> global;
    std::map<std::string, std::map<std::string, std::set<Value>>> by_label;
  };
  GraphStats stats_;
  ValueSets node_values_;
  ValueSets edge_values_;
};

}  // namespace

size_t GraphStats::NodesWithLabel(const std::string& label) const {
  auto it = node_label_counts.find(label);
  return it == node_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::EdgesWithLabel(const std::string& label) const {
  auto it = edge_label_counts.find(label);
  return it == edge_label_counts.end() ? 0 : it->second;
}

double GraphStats::AvgOutDegree(const std::string& src_label,
                                const std::string& edge_label) const {
  const size_t sources =
      src_label.empty() ? num_nodes : NodesWithLabel(src_label);
  return AvgDegree(out_edge_counts, src_label, edge_label, sources);
}

double GraphStats::AvgInDegree(const std::string& dst_label,
                               const std::string& edge_label) const {
  const size_t targets =
      dst_label.empty() ? num_nodes : NodesWithLabel(dst_label);
  return AvgDegree(in_edge_counts, dst_label, edge_label, targets);
}

const PropertyStats* GraphStats::NodePropStatsFor(
    const std::string& label, const std::string& key) const {
  return PropStatsFor(node_props_by_label, node_props, label, key);
}

const PropertyStats* GraphStats::EdgePropStatsFor(
    const std::string& label, const std::string& key) const {
  return PropStatsFor(edge_props_by_label, edge_props, label, key);
}

GraphStats GraphStats::Collect(const PathPropertyGraph& graph) {
  StatsCollector collector;
  graph.ForEachNode([&](NodeId id) {
    collector.AddNode(graph.Labels(id), graph.Properties(id));
  });
  graph.ForEachEdge([&](EdgeId id, NodeId src, NodeId dst) {
    collector.AddEdge(graph.Labels(id), graph.Properties(id),
                      graph.Labels(src), graph.Labels(dst));
  });
  graph.ForEachPath([&](PathId, const PathBody&) { collector.AddPath(); });
  return collector.Finish();
}

GraphStats GraphStats::CollectFromSnapshot(const GraphSnapshot& snap) {
  GraphStats stats;
  stats.num_nodes = snap.num_nodes();
  stats.num_edges = snap.num_edges();
  stats.num_paths = snap.num_paths();

  // Label counts are the sizes of the per-label index spans; entries only
  // for labels that occur on the object class (as the collector produces).
  for (uint32_t l = 0; l < snap.num_labels(); ++l) {
    const auto nodes = snap.NodesWithLabel(l);
    if (!nodes.empty()) {
      stats.node_label_counts[snap.LabelName(l)] = nodes.size();
    }
    const auto edges = snap.EdgesWithLabel(l);
    if (!edges.empty()) {
      stats.edge_label_counts[snap.LabelName(l)] = edges.size();
    }
  }

  for (const auto& [key, col] : snap.node_columns()) {
    SweepColumn(
        snap, key, col, [&](size_t i) {
          return snap.NodeLabelIds(static_cast<DenseNodeIndex>(i));
        },
        &stats.node_props, &stats.node_props_by_label);
  }
  for (const auto& [key, col] : snap.edge_columns()) {
    SweepColumn(
        snap, key, col, [&](size_t i) {
          return snap.EdgeLabelIds(static_cast<DenseEdgeIndex>(i));
        },
        &stats.edge_props, &stats.edge_props_by_label);
  }

  // Edge buckets. Label ids are assigned in sorted-name order, so
  // translating a sorted id span gives the LabelSet the collector saw.
  auto names_of = [&](GraphSnapshot::Span<uint32_t> ids) {
    std::vector<std::string> names;
    names.reserve(ids.size());
    for (const uint32_t l : ids) names.push_back(snap.LabelName(l));
    return LabelSet(std::move(names));
  };
  std::vector<LabelSet> node_labels(snap.num_nodes());
  for (size_t n = 0; n < snap.num_nodes(); ++n) {
    node_labels[n] = names_of(snap.NodeLabelIds(static_cast<DenseNodeIndex>(n)));
  }
  for (size_t e = 0; e < snap.num_edges(); ++e) {
    const LabelSet edge_labels =
        names_of(snap.EdgeLabelIds(static_cast<DenseEdgeIndex>(e)));
    const DenseNodeIndex src = snap.EdgeSrc(static_cast<DenseEdgeIndex>(e));
    const DenseNodeIndex dst = snap.EdgeDst(static_cast<DenseEdgeIndex>(e));
    CountEdgeBuckets(node_labels[src], edge_labels, &stats.out_edge_counts);
    CountEdgeBuckets(node_labels[dst], edge_labels, &stats.in_edge_counts);
  }
  return stats;
}

}  // namespace gcore
