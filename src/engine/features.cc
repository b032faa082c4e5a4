#include "engine/features.h"

#include <algorithm>

namespace gcore {

const char* QueryFeatureToString(QueryFeature feature) {
  switch (feature) {
    case QueryFeature::kHomomorphicMatching:
      return "Matching all patterns (Homomorphism)";
    case QueryFeature::kLiteralMatching:
      return "Matching literal values";
    case QueryFeature::kKShortestPaths:
      return "Matching k shortest paths";
    case QueryFeature::kAllShortestPaths:
      return "Matching all shortest paths";
    case QueryFeature::kWeightedShortestPaths:
      return "Matching weighted shortest paths";
    case QueryFeature::kOptionalMatching:
      return "(multi-segment) optional matching";
    case QueryFeature::kMultipleGraphs:
      return "Querying multiple graphs";
    case QueryFeature::kQueriesOnPaths:
      return "Queries on paths";
    case QueryFeature::kFilteringMatches:
      return "Filtering matches";
    case QueryFeature::kFilteringPathExpressions:
      return "Filtering path expressions";
    case QueryFeature::kValueJoins:
      return "Value joins";
    case QueryFeature::kCartesianProduct:
      return "Cartesian product";
    case QueryFeature::kListMembership:
      return "List membership";
    case QueryFeature::kGraphSetOperations:
      return "Set operations on graphs";
    case QueryFeature::kImplicitExistential:
      return "Existential subqueries - Implicit";
    case QueryFeature::kExplicitExistential:
      return "Existential subqueries - Explicit";
    case QueryFeature::kGraphConstruction:
      return "Graph construction";
    case QueryFeature::kGraphAggregation:
      return "Graph aggregation";
    case QueryFeature::kGraphProjection:
      return "Graph projection";
    case QueryFeature::kGraphViews:
      return "Graph views";
    case QueryFeature::kPropertyAddition:
      return "Property addition";
    case QueryFeature::kTabularProjection:
      return "Tabular projection (SELECT)";
    case QueryFeature::kTabularImport:
      return "Tabular import (FROM/ON table)";
  }
  return "?";
}

namespace {

class Detector {
 public:
  std::set<QueryFeature> features;

  void Add(QueryFeature f) { features.insert(f); }

  void VisitExpr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kBinary:
        if (expr.binary_op == BinaryOp::kIn ||
            expr.binary_op == BinaryOp::kSubsetOf) {
          Add(QueryFeature::kListMembership);
        }
        if (expr.binary_op == BinaryOp::kEq &&
            expr.args[0]->kind == Expr::Kind::kProperty &&
            expr.args[1]->kind == Expr::Kind::kProperty &&
            expr.args[0]->var != expr.args[1]->var) {
          Add(QueryFeature::kValueJoins);
        }
        if (expr.binary_op == BinaryOp::kEq &&
            (expr.args[1]->kind == Expr::Kind::kLiteral ||
             expr.args[0]->kind == Expr::Kind::kLiteral)) {
          Add(QueryFeature::kLiteralMatching);
        }
        break;
      case Expr::Kind::kExists:
        Add(QueryFeature::kExplicitExistential);
        if (expr.subquery != nullptr) VisitQuery(*expr.subquery);
        break;
      case Expr::Kind::kGraphPattern:
        Add(QueryFeature::kImplicitExistential);
        if (expr.pattern != nullptr) VisitPattern(*expr.pattern);
        break;
      default:
        break;
    }
    for (const auto& arg : expr.args) {
      if (arg != nullptr) VisitExpr(*arg);
    }
    for (const auto& arm : expr.case_arms) {
      if (arm.condition != nullptr) VisitExpr(*arm.condition);
      if (arm.result != nullptr) VisitExpr(*arm.result);
    }
    if (expr.case_else != nullptr) VisitExpr(*expr.case_else);
  }

  void VisitPattern(const GraphPattern& pattern) {
    auto visit_props = [&](const std::vector<PropPattern>& props) {
      for (const auto& p : props) {
        if (p.mode == PropPattern::Mode::kFilter) {
          Add(QueryFeature::kLiteralMatching);
        }
        if (p.mode == PropPattern::Mode::kAssign) {
          Add(QueryFeature::kPropertyAddition);
          if (p.value != nullptr) VisitExpr(*p.value);
        }
        if (p.value != nullptr && p.mode == PropPattern::Mode::kFilter) {
          VisitExpr(*p.value);
        }
      }
    };
    visit_props(pattern.start.props);
    for (const auto& hop : pattern.hops) {
      if (hop.kind == PatternHop::Kind::kEdge) {
        visit_props(hop.edge.props);
        if (!hop.edge.group_by.empty()) {
          Add(QueryFeature::kGraphAggregation);
        }
      } else {
        visit_props(hop.path.props);
        switch (hop.path.mode) {
          case PathPattern::Mode::kShortest:
            if (hop.path.k > 1) {
              Add(QueryFeature::kKShortestPaths);
            } else {
              Add(QueryFeature::kAllShortestPaths);
            }
            break;
          case PathPattern::Mode::kAll:
          case PathPattern::Mode::kReachability:
            Add(QueryFeature::kAllShortestPaths);
            break;
          case PathPattern::Mode::kStoredMatch:
            Add(QueryFeature::kQueriesOnPaths);
            break;
        }
        if (hop.path.rpq != nullptr && hop.path.rpq->ReferencesView()) {
          Add(QueryFeature::kWeightedShortestPaths);
        }
      }
      if (!hop.to.group_by.empty()) Add(QueryFeature::kGraphAggregation);
    }
    if (!pattern.start.group_by.empty()) {
      Add(QueryFeature::kGraphAggregation);
    }
  }

  void VisitMatch(const MatchClause& match) {
    Add(QueryFeature::kHomomorphicMatching);
    std::set<std::string> on_graphs;
    for (const auto& p : match.patterns) {
      VisitPattern(p);
      on_graphs.insert(p.on_graph);
    }
    if (on_graphs.size() > 1) Add(QueryFeature::kMultipleGraphs);
    if (match.patterns.size() > 1) {
      // Cartesian product when two patterns share no variables.
      std::vector<std::set<std::string>> vars;
      for (const auto& p : match.patterns) {
        std::vector<std::string> v;
        p.CollectBoundVariables(&v);
        vars.emplace_back(v.begin(), v.end());
      }
      for (size_t i = 0; i < vars.size(); ++i) {
        for (size_t j = i + 1; j < vars.size(); ++j) {
          bool disjoint = true;
          for (const auto& v : vars[i]) {
            if (vars[j].count(v) > 0) {
              disjoint = false;
              break;
            }
          }
          if (disjoint) Add(QueryFeature::kCartesianProduct);
        }
      }
    }
    if (match.where != nullptr) {
      Add(QueryFeature::kFilteringMatches);
      VisitExpr(*match.where);
    }
    if (!match.optionals.empty()) Add(QueryFeature::kOptionalMatching);
    for (const auto& block : match.optionals) {
      for (const auto& p : block.patterns) VisitPattern(p);
      if (block.where != nullptr) {
        Add(QueryFeature::kFilteringMatches);
        VisitExpr(*block.where);
      }
    }
  }

  void VisitConstruct(const ConstructClause& construct) {
    Add(QueryFeature::kGraphConstruction);
    bool graph_ref_seen = false;
    for (const auto& item : construct.items) {
      if (!item.graph_ref.empty()) {
        graph_ref_seen = true;
        continue;
      }
      VisitPattern(*item.pattern);
      for (const auto& hop : item.pattern->hops) {
        if (hop.kind == PatternHop::Kind::kPath) {
          Add(QueryFeature::kGraphProjection);
        }
      }
      for (const auto& s : item.sets) {
        if (s.kind == SetStatement::Kind::kSetProperty) {
          Add(QueryFeature::kPropertyAddition);
          if (s.value != nullptr) VisitExpr(*s.value);
        }
      }
      if (item.when != nullptr) VisitExpr(*item.when);
    }
    if (graph_ref_seen && construct.items.size() > 1) {
      Add(QueryFeature::kGraphSetOperations);  // shorthand union
    }
  }

  void VisitBody(const QueryBody& body) {
    switch (body.kind) {
      case QueryBody::Kind::kBasic: {
        const BasicQuery& basic = *body.basic;
        if (basic.construct.has_value()) VisitConstruct(*basic.construct);
        if (basic.select.has_value()) {
          Add(QueryFeature::kTabularProjection);
          for (const auto& item : basic.select->items) {
            VisitExpr(*item.expr);
          }
        }
        if (basic.match.has_value()) VisitMatch(*basic.match);
        if (!basic.from_table.empty()) Add(QueryFeature::kTabularImport);
        break;
      }
      case QueryBody::Kind::kGraphRef:
        break;
      default:
        Add(QueryFeature::kGraphSetOperations);
        VisitBody(*body.left);
        VisitBody(*body.right);
        break;
    }
  }

  void VisitQuery(const Query& query) {
    for (const auto& p : query.path_clauses) {
      for (const auto& pattern : p.patterns) VisitPattern(pattern);
      if (p.where != nullptr) {
        Add(QueryFeature::kFilteringPathExpressions);
        VisitExpr(*p.where);
      }
      if (p.cost != nullptr) {
        Add(QueryFeature::kWeightedShortestPaths);
        VisitExpr(*p.cost);
      }
    }
    for (const auto& g : query.graph_clauses) {
      Add(QueryFeature::kGraphViews);
      if (g.query != nullptr) VisitQuery(*g.query);
    }
    if (query.body != nullptr) VisitBody(*query.body);
  }
};

}  // namespace

std::set<QueryFeature> DetectFeatures(const Query& query) {
  Detector detector;
  detector.VisitQuery(query);
  return detector.features;
}

std::vector<std::string> FeatureReport(const Query& query) {
  std::vector<std::string> lines;
  for (QueryFeature f : DetectFeatures(query)) {
    lines.push_back(QueryFeatureToString(f));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace gcore
