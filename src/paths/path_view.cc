#include "paths/path_view.h"

namespace gcore {

namespace {
const std::vector<PathViewSegment> kNoSegments;
}  // namespace

Status PathViewRelation::AddSegment(PathViewSegment segment) {
  if (!(segment.cost > 0.0)) {
    return Status::EvaluationError(
        "PATH view '" + name_ + "': segment cost must be numerical and > 0 " +
        "(got " + std::to_string(segment.cost) + ")");
  }
  if (segment.body.nodes.empty() || segment.body.nodes.front() != segment.src ||
      segment.body.nodes.back() != segment.dst) {
    return Status::InvalidArgument("PATH view '" + name_ +
                                   "': segment body endpoints mismatch");
  }
  by_src_[segment.src].push_back(std::move(segment));
  return Status::OK();
}

const std::vector<PathViewSegment>& PathViewRelation::SegmentsFrom(
    NodeId src) const {
  auto it = by_src_.find(src);
  return it == by_src_.end() ? kNoSegments : it->second;
}

void PathViewRegistry::Register(PathViewRelation relation) {
  std::string name = relation.name();
  relations_.insert_or_assign(std::move(name), std::move(relation));
}

Result<const PathViewRelation*> PathViewRegistry::Lookup(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("PATH view '" + name + "' is not defined");
  }
  return &it->second;
}

bool PathViewRegistry::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

}  // namespace gcore
