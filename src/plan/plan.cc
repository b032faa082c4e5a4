#include "plan/plan.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "ast/pattern.h"

namespace gcore {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kNodeScan:
      return "NodeScan";
    case PlanOp::kExpandEdge:
      return "ExpandEdge";
    case PlanOp::kMultiwayExpand:
      return "MultiwayExpand";
    case PlanOp::kPathSearch:
      return "PathSearch";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kLeftOuterJoin:
      return "LeftOuterJoin";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kGraphUnion:
      return "GraphUnion";
    case PlanOp::kGraphIntersect:
      return "GraphIntersect";
    case PlanOp::kGraphMinus:
      return "GraphMinus";
  }
  return "?";
}

PlanPtr MakePlan(PlanOp op, std::vector<PlanPtr> children) {
  auto node = std::make_unique<PlanNode>(op);
  node->children = std::move(children);
  return node;
}

void AppendDistinctGroups(const LabelGroups& from, LabelGroups* groups) {
  for (const auto& group : from) {
    if (std::find(groups->begin(), groups->end(), group) == groups->end()) {
      groups->push_back(group);
    }
  }
}

std::vector<std::string> MultiwayNodeVars(const PlanNode& node) {
  std::vector<std::string> vars;
  auto add = [&vars](const std::string& v) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
    }
  };
  for (const MultiwayEdge& me : node.multi_edges) {
    add(me.from_var);
    add(me.to_var);
  }
  return vars;
}

std::vector<std::string> MultiwayEliminationOrder(
    const PlanNode& node, const std::set<std::string>& bound) {
  const std::vector<std::string> all = MultiwayNodeVars(node);
  std::set<std::string> placed = bound;
  std::vector<std::string> order;
  while (true) {
    std::string best;
    size_t best_edges = 0;
    for (const std::string& v : all) {
      if (placed.count(v) > 0) continue;
      size_t incident = 0;
      for (const MultiwayEdge& me : node.multi_edges) {
        const bool touches_v = me.from_var == v || me.to_var == v;
        const std::string& other = me.from_var == v ? me.to_var
                                                    : me.from_var;
        if (touches_v && placed.count(other) > 0) ++incident;
      }
      // First appearance wins ties (`all` is in appearance order and the
      // comparison is strict).
      if (best.empty() || incident > best_edges) {
        best = v;
        best_edges = incident;
      }
    }
    if (best.empty()) return order;
    order.push_back(best);
    placed.insert(best);
  }
}

namespace {

void AppendPushed(const std::vector<const Expr*>& pushed,
                  std::ostringstream* out) {
  if (pushed.empty()) return;
  *out << " push={";
  for (size_t i = 0; i < pushed.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << pushed[i]->ToString();
  }
  *out << "}";
}

}  // namespace

std::string PlanNode::Describe() const {
  std::ostringstream out;
  out << PlanOpName(op);
  switch (op) {
    case PlanOp::kNodeScan:
      out << " " << gcore::ToString(*node, node_labels);
      if (!graph.empty()) out << " on " << graph;
      AppendPushed(pushed, &out);
      break;
    case PlanOp::kExpandEdge:
      out << " (" << from_var << ")"
          << gcore::ToString(*edge, edge_labels, *to, node_labels);
      if (!graph.empty()) out << " on " << graph;
      AppendPushed(pushed, &out);
      break;
    case PlanOp::kMultiwayExpand: {
      out << " cycle=[";
      for (size_t i = 0; i < multi_edges.size(); ++i) {
        if (i > 0) out << ", ";
        const MultiwayEdge& me = multi_edges[i];
        NodePattern to_node;
        to_node.var = me.to_var;
        out << "(" << me.from_var << ")"
            << gcore::ToString(*me.edge, me.labels, to_node, {});
      }
      out << "]";
      if (!graph.empty()) out << " on " << graph;
      AppendPushed(pushed, &out);
      break;
    }
    case PlanOp::kPathSearch:
      out << " (" << from_var << ")"
          << gcore::ToString(*path, *to, node_labels);
      if (!graph.empty()) out << " on " << graph;
      AppendPushed(pushed, &out);
      break;
    case PlanOp::kFilter: {
      // Left-nested like the parser's AND chain, so an unfolded WHERE
      // prints as the query wrote it.
      std::string text = conjuncts.front()->ToString();
      for (size_t i = 1; i < conjuncts.size(); ++i) {
        text = "(" + text + " AND " + conjuncts[i]->ToString() + ")";
      }
      out << " " << text;
      break;
    }
    case PlanOp::kProject: {
      out << " [";
      for (size_t i = 0; i < output.size(); ++i) {
        if (i > 0) out << ", ";
        out << output[i];
      }
      out << "] dedup";
      if (parallelism > 0) out << " parallelism=" << parallelism;
      break;
    }
    case PlanOp::kHashJoin:
      if (swap_build) out << " swap_build";
      break;
    case PlanOp::kLeftOuterJoin:
    case PlanOp::kGraphUnion:
    case PlanOp::kGraphIntersect:
    case PlanOp::kGraphMinus:
      break;
  }
  if (est_rows >= 0.0 || actual_rows >= 0 || actual_ms >= 0.0) {
    // Limited precision, never truncated to an integer: sub-1 estimates
    // (the ranking signal on selective plans) stay visible, and huge
    // cross-product estimates print in scientific notation. Actual row
    // counts (EXPLAIN ANALYZE) are exact; actual_ms is the operator's
    // own measured wall time.
    out << "  (";
    bool first = true;
    auto sep = [&out, &first] {
      if (!first) out << " ";
      first = false;
    };
    if (est_rows >= 0.0) {
      sep();
      out << "est_rows=" << std::setprecision(3) << est_rows;
    }
    if (actual_rows >= 0) {
      sep();
      out << "actual_rows=" << actual_rows;
    }
    if (actual_ms >= 0.0) {
      sep();
      out << "actual_ms=" << std::setprecision(3) << actual_ms;
    }
    if (inner_evals > 0) {
      sep();
      out << "inner_evals=" << inner_evals;
    }
    out << ")";
  }
  return out.str();
}

void AppendChildLines(const std::vector<std::string>& child, bool last,
                      std::vector<std::string>* lines) {
  for (size_t j = 0; j < child.size(); ++j) {
    if (j == 0) {
      lines->push_back((last ? "└─ " : "├─ ") + child[j]);
    } else {
      lines->push_back((last ? "   " : "│  ") + child[j]);
    }
  }
}

std::vector<std::string> PlanNode::RenderLines() const {
  std::vector<std::string> lines{Describe()};
  for (size_t i = 0; i < children.size(); ++i) {
    AppendChildLines(children[i]->RenderLines(), i + 1 == children.size(),
                     &lines);
  }
  return lines;
}

std::string PlanNode::ToString() const {
  const std::vector<std::string> lines = RenderLines();
  std::ostringstream out;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out << "\n";
    out << lines[i];
  }
  return out.str();
}

}  // namespace gcore
