#include "ast/pattern.h"

#include "ast/ast.h"

namespace gcore {

GraphPattern::GraphPattern() = default;
GraphPattern::~GraphPattern() = default;
GraphPattern::GraphPattern(GraphPattern&&) noexcept = default;
GraphPattern& GraphPattern::operator=(GraphPattern&&) noexcept = default;

namespace {

void AddUnique(std::vector<std::string>* out, const std::string& v) {
  if (v.empty()) return;
  for (const auto& existing : *out) {
    if (existing == v) return;
  }
  out->push_back(v);
}

std::string LabelGroupsToString(const LabelGroups& groups) {
  std::string out;
  for (const auto& group : groups) {
    out += ":";
    for (size_t i = 0; i < group.size(); ++i) {
      if (i > 0) out += "|";
      out += group[i];
    }
  }
  return out;
}

std::string PropsToString(const std::vector<PropPattern>& props) {
  if (props.empty()) return "";
  std::string out = " {";
  for (size_t i = 0; i < props.size(); ++i) {
    if (i > 0) out += ", ";
    const PropPattern& p = props[i];
    switch (p.mode) {
      case PropPattern::Mode::kFilter:
        out += p.key + " = " + p.value->ToString();
        break;
      case PropPattern::Mode::kBindVariable:
        out += p.key + " = " + p.bind_var;
        break;
      case PropPattern::Mode::kAssign:
        out += p.key + " := " + p.value->ToString();
        break;
    }
  }
  return out + "}";
}

std::string GroupByToString(
    const std::vector<std::unique_ptr<Expr>>& group_by) {
  if (group_by.empty()) return "";
  std::string out = " GROUP ";
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by[i]->ToString();
  }
  return out;
}

}  // namespace

std::string ToString(const NodePattern& node) {
  return ToString(node, node.label_groups);
}

std::string ToString(const NodePattern& node, const LabelGroups& labels) {
  std::string out = "(";
  if (node.is_copy) out += "=";
  out += node.var;
  out += GroupByToString(node.group_by);
  out += LabelGroupsToString(labels);
  out += PropsToString(node.props);
  return out + ")";
}

std::string ToString(const EdgePattern& edge, const NodePattern& to) {
  return ToString(edge, edge.label_groups, to, to.label_groups);
}

std::string ToString(const EdgePattern& edge, const LabelGroups& edge_labels,
                     const NodePattern& to, const LabelGroups& to_labels) {
  std::string inner;
  if (edge.is_copy) inner += "=";
  inner += edge.var;
  inner += GroupByToString(edge.group_by);
  inner += LabelGroupsToString(edge_labels);
  inner += PropsToString(edge.props);
  std::string out;
  switch (edge.direction) {
    case EdgePattern::Direction::kRight:
      out = "-[" + inner + "]->";
      break;
    case EdgePattern::Direction::kLeft:
      out = "<-[" + inner + "]-";
      break;
    case EdgePattern::Direction::kUndirected:
      out = "-[" + inner + "]-";
      break;
  }
  return out + ToString(to, to_labels);
}

std::string ToString(const PathPattern& path, const NodePattern& to) {
  return ToString(path, to, to.label_groups);
}

std::string ToString(const PathPattern& path, const NodePattern& to,
                     const LabelGroups& to_labels) {
  std::string inner;
  switch (path.mode) {
    case PathPattern::Mode::kShortest:
      if (path.k != 1) inner += std::to_string(path.k) + " ";
      inner += "SHORTEST ";
      break;
    case PathPattern::Mode::kAll:
      inner += "ALL ";
      break;
    default:
      break;
  }
  if (path.stored) inner += "@";
  inner += path.var;
  inner += LabelGroupsToString(path.label_groups);
  if (path.rpq != nullptr) inner += " <" + path.rpq->ToString() + ">";
  inner += PropsToString(path.props);
  if (!path.cost_var.empty()) inner += " COST " + path.cost_var;
  return "-/" + inner + "/->" + ToString(to, to_labels);
}

void GraphPattern::CollectBoundVariables(std::vector<std::string>* out) const {
  auto collect_node = [out](const NodePattern& n) {
    AddUnique(out, n.var);
    for (const auto& p : n.props) {
      if (p.mode == PropPattern::Mode::kBindVariable) {
        AddUnique(out, p.bind_var);
      }
    }
  };
  collect_node(start);
  for (const auto& hop : hops) {
    if (hop.kind == PatternHop::Kind::kEdge) {
      AddUnique(out, hop.edge.var);
      for (const auto& p : hop.edge.props) {
        if (p.mode == PropPattern::Mode::kBindVariable) {
          AddUnique(out, p.bind_var);
        }
      }
    } else {
      AddUnique(out, hop.path.var);
      AddUnique(out, hop.path.cost_var);
    }
    collect_node(hop.to);
  }
}

std::string GraphPattern::ToString() const {
  std::string out = gcore::ToString(start);
  for (const auto& hop : hops) {
    if (hop.kind == PatternHop::Kind::kEdge) {
      out += gcore::ToString(hop.edge, hop.to);
    } else {
      out += gcore::ToString(hop.path, hop.to);
    }
  }
  if (!on_graph.empty()) out += " ON " + on_graph;
  if (on_subquery != nullptr) out += " ON (" + on_subquery->ToString() + ")";
  return out;
}

}  // namespace gcore
