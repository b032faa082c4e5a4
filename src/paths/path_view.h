// PATH-clause views (Appendix A.4): weighted binary relations over nodes.
//
// `PATH wKnows = (x)-[e:knows]->(y) WHERE ... COST expr` evaluates, per
// binding of the pattern, to a *segment*: a (source, target) node pair with
// a positive cost and a concrete walk body. A regex atom `~wKnows`
// traverses exactly one segment; `<~wKnows*>` composes segments via the
// product Dijkstra.
#ifndef GCORE_PATHS_PATH_VIEW_H_
#define GCORE_PATHS_PATH_VIEW_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/ppg.h"

namespace gcore {

/// One traversable unit of a path view.
struct PathViewSegment {
  NodeId src;
  NodeId dst;
  /// Clause cost; must be > 0 (Appendix A.4 mandates a runtime error
  /// otherwise — enforced at view construction).
  double cost = 1.0;
  /// The concrete walk realizing the segment (nodes/edges of the graph the
  /// view was evaluated on). body.nodes.front() == src, .back() == dst.
  PathBody body;
};

/// All segments of one PATH view, indexed by source node.
class PathViewRelation {
 public:
  PathViewRelation() = default;
  explicit PathViewRelation(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a segment; rejects non-positive cost.
  Status AddSegment(PathViewSegment segment);

  /// Segments starting at `src` (possibly none).
  const std::vector<PathViewSegment>& SegmentsFrom(NodeId src) const;

  /// Every segment, keyed by source node; each list in insertion order.
  const std::map<NodeId, std::vector<PathViewSegment>>& BySource() const {
    return by_src_;
  }

 private:
  std::string name_;
  std::map<NodeId, std::vector<PathViewSegment>> by_src_;
};

/// Name → relation registry passed into path search.
class PathViewRegistry {
 public:
  void Register(PathViewRelation relation);
  Result<const PathViewRelation*> Lookup(const std::string& name) const;
  bool Has(const std::string& name) const;
  bool Empty() const { return relations_.empty(); }

 private:
  std::map<std::string, PathViewRelation> relations_;
};

}  // namespace gcore

#endif  // GCORE_PATHS_PATH_VIEW_H_
