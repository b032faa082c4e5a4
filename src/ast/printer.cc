#include "ast/printer.h"

namespace gcore {

namespace {

std::string PrintSetStatement(const SetStatement& s) {
  switch (s.kind) {
    case SetStatement::Kind::kSetProperty:
      return "SET " + s.var + "." + s.key + " := " + s.value->ToString();
    case SetStatement::Kind::kSetLabel:
      return "SET " + s.var + ":" + s.label;
    case SetStatement::Kind::kCopy:
      return "SET " + s.var + " = " + s.from_var;
    case SetStatement::Kind::kRemoveProperty:
      return "REMOVE " + s.var + "." + s.key;
    case SetStatement::Kind::kRemoveLabel:
      return "REMOVE " + s.var + ":" + s.label;
  }
  return "?";
}

}  // namespace

std::string PrintConstructClause(const ConstructClause& construct) {
  std::string out = "CONSTRUCT ";
  for (size_t i = 0; i < construct.items.size(); ++i) {
    if (i > 0) out += ", ";
    const ConstructItem& item = construct.items[i];
    if (!item.graph_ref.empty()) {
      out += item.graph_ref;
      continue;
    }
    out += item.pattern->ToString();
    for (const auto& s : item.sets) {
      out += " " + PrintSetStatement(s);
    }
    if (item.when != nullptr) out += " WHEN " + item.when->ToString();
  }
  return out;
}

std::string PrintMatchClause(const MatchClause& match) {
  std::string out = "MATCH ";
  for (size_t i = 0; i < match.patterns.size(); ++i) {
    if (i > 0) out += ", ";
    out += match.patterns[i].ToString();
  }
  if (match.where != nullptr) out += " WHERE " + match.where->ToString();
  for (const auto& opt : match.optionals) {
    out += " OPTIONAL ";
    for (size_t i = 0; i < opt.patterns.size(); ++i) {
      if (i > 0) out += ", ";
      out += opt.patterns[i].ToString();
    }
    if (opt.where != nullptr) out += " WHERE " + opt.where->ToString();
  }
  return out;
}

std::string PrintSelectClause(const SelectClause& select) {
  std::string out = "SELECT ";
  if (select.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += select.items[i].expr->ToString();
    if (!select.items[i].alias.empty()) {
      out += " AS " + select.items[i].alias;
    }
  }
  return out;
}

std::string PrintBasicQuery(const BasicQuery& basic) {
  std::string out;
  if (basic.select.has_value()) {
    out += PrintSelectClause(*basic.select);
  } else if (basic.construct.has_value()) {
    out += PrintConstructClause(*basic.construct);
  }
  if (basic.match.has_value()) {
    out += " " + PrintMatchClause(*basic.match);
  } else if (!basic.from_table.empty()) {
    out += " FROM " + basic.from_table;
  }
  if (basic.select.has_value()) {
    const SelectClause& select = *basic.select;
    if (!select.order_by.empty()) {
      out += " ORDER BY ";
      for (size_t i = 0; i < select.order_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += select.order_by[i].expr->ToString();
        if (select.order_by[i].descending) out += " DESC";
      }
    }
    if (select.limit >= 0) out += " LIMIT " + std::to_string(select.limit);
  }
  return out;
}

std::string PrintQueryBody(const QueryBody& body) {
  switch (body.kind) {
    case QueryBody::Kind::kBasic:
      return PrintBasicQuery(*body.basic);
    case QueryBody::Kind::kGraphRef:
      return body.graph_ref;
    case QueryBody::Kind::kUnion:
      return PrintQueryBody(*body.left) + " UNION " +
             PrintQueryBody(*body.right);
    case QueryBody::Kind::kIntersect:
      return PrintQueryBody(*body.left) + " INTERSECT " +
             PrintQueryBody(*body.right);
    case QueryBody::Kind::kMinus:
      return PrintQueryBody(*body.left) + " MINUS " +
             PrintQueryBody(*body.right);
  }
  return "?";
}

namespace {

std::string PrintPathClause(const PathClause& path) {
  std::string out = "PATH " + path.name + " = ";
  for (size_t i = 0; i < path.patterns.size(); ++i) {
    if (i > 0) out += ", ";
    out += path.patterns[i].ToString();
  }
  if (path.where != nullptr) out += " WHERE " + path.where->ToString();
  if (path.cost != nullptr) out += " COST " + path.cost->ToString();
  return out;
}

std::string PrintGraphClause(const GraphClause& graph) {
  std::string out = "GRAPH ";
  if (graph.is_view) out += "VIEW ";
  out += graph.name + " AS (" + PrintQuery(*graph.query) + ")";
  return out;
}

}  // namespace

std::string PrintQuery(const Query& query) {
  std::string out;
  if (query.explain) {
    out += query.explain_analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ";
  }
  for (const auto& p : query.path_clauses) {
    out += PrintPathClause(p) + " ";
  }
  for (const auto& g : query.graph_clauses) {
    out += PrintGraphClause(g) + " ";
  }
  if (query.body != nullptr) out += PrintQueryBody(*query.body);
  return out;
}

std::string Query::ToString() const { return PrintQuery(*this); }

}  // namespace gcore
