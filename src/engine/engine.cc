#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "engine/tabular.h"
#include "engine/validator.h"
#include "eval/binding_ops.h"
#include "eval/constructor.h"
#include "graph/graph_ops.h"
#include "parser/parser.h"
#include "plan/executor.h"
#include "plan/explain.h"

namespace gcore {

std::string QueryResult::ToString() const {
  if (graph.has_value()) return graph->ToString();
  if (table.has_value()) return table->ToString();
  return "<empty result>";
}

namespace {

/// Collects the names of PATH views referenced by the regexes of a
/// pattern (first-occurrence order).
void CollectPatternViewRefs(const GraphPattern& pattern,
                            std::vector<std::string>* out) {
  for (const auto& hop : pattern.hops) {
    if (hop.kind == PatternHop::Kind::kPath && hop.path.rpq != nullptr) {
      hop.path.rpq->CollectViewRefs(out);
    }
  }
}

void CollectPatternViewRefs(const std::vector<GraphPattern>& patterns,
                            std::vector<std::string>* out) {
  for (const auto& pattern : patterns) CollectPatternViewRefs(pattern, out);
}

}  // namespace

QueryEngine::QueryEngine(GraphCatalog* catalog) : catalog_(catalog) {
  // Eager plan-cache invalidation: a re-registered or dropped graph
  // evicts its entries immediately. A listener racing an in-flight
  // insert cannot resurrect a stale plan: Execute skips the insert when
  // the catalog's mutation epoch moved during the execution, and the
  // version validation at lookup backstops everything else.
  invalidation_listener_ = catalog_->AddInvalidationListener(
      [this](const std::string& graph) {
        plan_cache_.InvalidateGraph(graph);
      });
}

QueryEngine::~QueryEngine() {
  catalog_->RemoveInvalidationListener(invalidation_listener_);
}

QuerySession QueryEngine::CreateSession() { return CreateSession(options_); }

QuerySession QueryEngine::CreateSession(EngineOptions options) {
  return QuerySession(this, options);
}

Matcher QueryEngine::MakeMatcher(Scope* scope) {
  MatcherContext ctx;
  static_cast<EngineOptions&>(ctx) = scope->options;
  ctx.catalog = catalog_;
  ctx.views = &scope->views;
  ctx.default_graph = catalog_->default_graph();
  ctx.exists_cb = [this, scope](const Query& subquery) {
    return ExistsRelation(subquery, scope);
  };
  return Matcher(ctx);
}

bool QueryEngine::CacheableShape(const Query& query) {
  if (query.explain) return false;
  if (!query.path_clauses.empty() || !query.graph_clauses.empty()) {
    return false;
  }
  if (query.body == nullptr ||
      query.body->kind != QueryBody::Kind::kBasic) {
    return false;
  }
  const BasicQuery& basic = *query.body->basic;
  if (basic.match.has_value()) {
    auto has_subquery =
        [](const std::vector<GraphPattern>& patterns) {
          for (const auto& p : patterns) {
            if (p.on_subquery != nullptr) return true;
          }
          return false;
        };
    if (has_subquery(basic.match->patterns)) return false;
    for (const auto& block : basic.match->optionals) {
      if (has_subquery(block.patterns)) return false;
    }
  }
  return true;
}

void QueryEngine::CollectPlanGraphs(const PlanNode& plan,
                                    const std::string& default_graph,
                                    std::vector<std::string>* out) {
  const std::string& name = plan.graph.empty() ? default_graph : plan.graph;
  if (std::find(out->begin(), out->end(), name) == out->end()) {
    out->push_back(name);
  }
  for (const auto& child : plan.children) {
    CollectPlanGraphs(*child, default_graph, out);
  }
}

Result<QueryResult> QueryEngine::Execute(const std::string& query_text) {
  return Execute(query_text, options_);
}

Result<QueryResult> QueryEngine::Execute(const std::string& query_text,
                                         const EngineOptions& options) {
  // One reader epoch per execution: raw graph/stats pointers handed out
  // by the catalog stay valid even if another session re-registers the
  // graph mid-flight (the old image is retired, not destroyed).
  GraphCatalog::ReaderGuard guard(catalog_);

  // Mutation epoch at entry, i.e. before any graph image is pinned. An
  // unchanged epoch at insert time proves the versions read then are the
  // ones the plan was built against (see below).
  const uint64_t catalog_epoch = catalog_->MutationEpoch();

  PlanCacheKey key;
  key.text = NormalizeQueryText(query_text);
  key.graph = catalog_->default_graph();
  key.knobs = options.Fingerprint();

  Scope scope;
  scope.options = options;

  // Hit: skip parse + plan, execute the cached tree. The shared_ptr keeps
  // the entry (query AST + plan) alive even if it is evicted mid-flight.
  if (std::shared_ptr<const PlanCache::Entry> entry =
          plan_cache_.Lookup(key, *catalog_)) {
    if (entry->plan != nullptr) {
      scope.cache_basic = entry->query->body->basic.get();
      scope.cached_plan = entry->plan.get();
    }
    return ExecuteParsed(*entry->query, &scope);
  }

  // Miss: parse, execute (capturing the optimized plan of a cacheable
  // body), then insert.
  GCORE_ASSIGN_OR_RETURN(auto parsed, ParseQuery(query_text));
  std::shared_ptr<const Query> query = std::move(parsed);
  const bool cacheable = CacheableShape(*query);
  if (cacheable) scope.cache_basic = query->body->basic.get();
  auto result = ExecuteParsed(*query, &scope);
  if (!result.ok()) return result;
  if (cacheable) {
    PlanCache::Entry entry;
    entry.query = query;
    if (scope.built_plan != nullptr) {
      plan_cache_.RecordPlanBuild();
      std::vector<std::string> graphs;
      CollectPlanGraphs(*scope.built_plan, key.graph, &graphs);
      for (const auto& g : graphs) {
        entry.graph_versions.emplace_back(g, catalog_->GraphVersion(g));
      }
      entry.plan =
          std::shared_ptr<const PlanNode>(scope.built_plan.release());
    } else {
      // Match-less (FROM <table> / unit) or legacy-walk execution: the
      // entry still saves the re-parse, pinned to the default graph.
      entry.graph_versions.emplace_back(key.graph,
                                        catalog_->GraphVersion(key.graph));
    }
    // The versions above were read after execution. If a registration
    // raced the execution (epoch moved), they may describe a newer
    // catalog state than the graphs the plan was actually built against
    // — inserting would cache a stale plan that validates as fresh. Skip
    // the insert; the next execution re-plans and caches cleanly.
    if (catalog_->MutationEpoch() == catalog_epoch) {
      plan_cache_.Insert(key, std::move(entry));
    }
  }
  return result;
}

Result<QueryResult> QueryEngine::Execute(const Query& query) {
  return Execute(query, options_);
}

Result<QueryResult> QueryEngine::Execute(const Query& query,
                                         const EngineOptions& options) {
  GraphCatalog::ReaderGuard guard(catalog_);
  Scope scope;
  scope.options = options;
  return ExecuteParsed(query, &scope);
}

Result<QueryResult> QueryEngine::ExecuteParsed(const Query& query,
                                               Scope* scope) {
  GCORE_RETURN_NOT_OK(ValidateQuery(query));
  // Plain EXPLAIN never executes; EXPLAIN ANALYZE runs the query through
  // an instrumented executor — like normal execution it may register
  // query-local graphs, which must not outlive the query.
  auto result = query.explain
                    ? (query.explain_analyze ? ExplainAnalyze(query, scope)
                                             : Explain(query, scope))
                    : ExecuteWithScope(query, scope);
  for (const auto& name : scope->local_graphs) {
    catalog_->DropGraph(name);
  }
  return result;
}

Result<QueryResult> QueryEngine::Explain(const Query& query, Scope* scope) {
  // Planning never executes: head clauses, ON subqueries and path views
  // stay unmaterialized, so their locations degrade to unknown estimates.
  Matcher matcher = MakeMatcher(scope);
  GCORE_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                         ExplainQuery(query, &matcher));
  Table table({"plan"});
  for (auto& line : lines) {
    Status st = table.AddRow({Value::String(std::move(line))});
    (void)st;
  }
  QueryResult result;
  result.table = std::move(table);
  return result;
}

Result<QueryResult> QueryEngine::ExplainAnalyze(const Query& query,
                                                Scope* scope) {
  std::vector<std::string> lines;
  for (const auto& path_clause : query.path_clauses) {
    scope->pending_paths.push_back(&path_clause);
    lines.push_back("PathView " + path_clause.name +
                    " (materialized lazily on first reference)");
  }
  for (const auto& graph_clause : query.graph_clauses) {
    // Head clauses execute for real — the body runs against their
    // graphs — but only the body's binding pipeline is instrumented.
    GCORE_RETURN_NOT_OK(EvalGraphClause(graph_clause, scope));
    lines.push_back(std::string(graph_clause.is_view ? "GraphView "
                                                     : "Graph ") +
                    graph_clause.name + " AS (materialized)");
  }
  if (query.body != nullptr) {
    // Same dispatch as ExecuteWithScope: a top-level SELECT is the one
    // basic body allowed to produce a table; everything else evaluates
    // as a graph body (set operations included, with their typing
    // checks), so ANALYZE fails exactly where plain execution would.
    if (query.body->kind == QueryBody::Kind::kBasic &&
        query.body->basic->select.has_value()) {
      GCORE_ASSIGN_OR_RETURN(QueryResult finished,
                             AnalyzeBasic(*query.body->basic, scope,
                                          &lines));
      (void)finished;
    } else {
      GCORE_ASSIGN_OR_RETURN(PathPropertyGraph graph,
                             AnalyzeGraphBody(*query.body, scope, &lines));
      (void)graph;
    }
  }
  Table table({"plan"});
  for (auto& line : lines) {
    Status st = table.AddRow({Value::String(std::move(line))});
    (void)st;
  }
  QueryResult result;
  result.table = std::move(table);
  return result;
}

Result<PathPropertyGraph> QueryEngine::AnalyzeGraphBody(
    const QueryBody& body, Scope* scope, std::vector<std::string>* lines) {
  switch (body.kind) {
    case QueryBody::Kind::kBasic: {
      GCORE_ASSIGN_OR_RETURN(QueryResult r,
                             AnalyzeBasic(*body.basic, scope, lines));
      if (!r.graph.has_value()) {
        return Status::BindError(
            "SELECT queries cannot participate in graph set operations");
      }
      return std::move(*r.graph);
    }
    case QueryBody::Kind::kGraphRef: {
      GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* g,
                             catalog_->Lookup(body.graph_ref));
      lines->push_back("Graph " + body.graph_ref);
      return PathPropertyGraph(*g);
    }
    case QueryBody::Kind::kUnion:
    case QueryBody::Kind::kIntersect:
    case QueryBody::Kind::kMinus: {
      const PlanOp op = body.kind == QueryBody::Kind::kUnion
                            ? PlanOp::kGraphUnion
                            : body.kind == QueryBody::Kind::kIntersect
                                  ? PlanOp::kGraphIntersect
                                  : PlanOp::kGraphMinus;
      lines->push_back(PlanOpName(op));
      std::vector<std::string> left_lines;
      std::vector<std::string> right_lines;
      GCORE_ASSIGN_OR_RETURN(PathPropertyGraph left,
                             AnalyzeGraphBody(*body.left, scope,
                                              &left_lines));
      GCORE_ASSIGN_OR_RETURN(PathPropertyGraph right,
                             AnalyzeGraphBody(*body.right, scope,
                                              &right_lines));
      AppendChildLines(left_lines, /*last=*/false, lines);
      AppendChildLines(right_lines, /*last=*/true, lines);
      switch (body.kind) {
        case QueryBody::Kind::kUnion:
          return GraphUnion(std::move(left), std::move(right));
        case QueryBody::Kind::kIntersect:
          return GraphIntersect(left, right);
        default:
          return GraphMinus(left, right);
      }
    }
  }
  return Status::EvaluationError("unhandled query body kind");
}

Result<QueryResult> QueryEngine::AnalyzeBasic(const BasicQuery& basic,
                                              Scope* scope,
                                              std::vector<std::string>* lines) {
  lines->push_back(basic.select.has_value() ? "Select" : "Construct");
  // The exact execution path, instrumented: EvalBindings prepares path
  // views and ON-(subquery) locations as usual (so the plan runs against
  // resolved graphs, unlike plain EXPLAIN) and, given the stats sink,
  // runs the MATCH through the ExecStats-recording executor.
  ExecStats stats;
  PlanPtr plan;
  MatchRun run;
  GCORE_ASSIGN_OR_RETURN(BindingTable bindings,
                         EvalBindings(basic, scope, &run, &stats, &plan));
  std::vector<std::string> sub;
  if (plan != nullptr) {
    stats.AnnotateActuals(plan.get());
    sub = plan->RenderLines();
  } else if (!basic.from_table.empty()) {
    sub.push_back("TableScan " + basic.from_table + "  (actual_rows=" +
                  std::to_string(bindings.NumRows()) + ")");
  } else {
    sub.push_back("Unit");
  }
  // The consuming tail runs too (EXPLAIN ANALYZE executes the whole
  // query); only the binding pipeline is rendered.
  GCORE_ASSIGN_OR_RETURN(QueryResult finished,
                         FinishBasic(basic, std::move(bindings), scope,
                                     &run));
  AppendChildLines(sub, /*last=*/true, lines);
  return finished;
}

Result<QueryResult> QueryEngine::ExecuteWithScope(const Query& query,
                                                  Scope* scope) {
  for (const auto& path_clause : query.path_clauses) {
    // Lazy: materialized on first use against the graph actually matched.
    scope->pending_paths.push_back(&path_clause);
  }
  std::string last_graph_clause;
  for (const auto& graph_clause : query.graph_clauses) {
    GCORE_RETURN_NOT_OK(EvalGraphClause(graph_clause, scope));
    last_graph_clause = graph_clause.name;
  }

  QueryResult result;
  if (query.body == nullptr) {
    // Head-only statement (e.g. a bare GRAPH VIEW definition, lines
    // 39-47): the result is the last defined graph, or the empty graph.
    if (!last_graph_clause.empty()) {
      GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* g,
                             catalog_->Lookup(last_graph_clause));
      result.graph = *g;
    } else {
      result.graph = PathPropertyGraph();
    }
    return result;
  }

  if (query.body->kind == QueryBody::Kind::kBasic &&
      query.body->basic->select.has_value()) {
    return EvalBasic(*query.body->basic, scope);
  }
  GCORE_ASSIGN_OR_RETURN(PathPropertyGraph graph,
                         EvalBody(*query.body, scope));
  result.graph = std::move(graph);
  return result;
}

Status QueryEngine::EvalGraphClause(const GraphClause& clause, Scope* scope) {
  // The subquery sees already-registered graphs and the enclosing PATH
  // clauses.
  auto result = ExecuteWithScope(*clause.query, scope);
  GCORE_RETURN_NOT_OK(result.status());
  if (!result->graph.has_value()) {
    return Status::BindError("GRAPH clause '" + clause.name +
                             "' requires a graph-typed query");
  }
  catalog_->RegisterGraph(clause.name, std::move(*result->graph));
  if (!clause.is_view) scope->local_graphs.push_back(clause.name);
  return Status::OK();
}

Status QueryEngine::MaterializePathViewsFor(const MatchClause& match,
                                            Scope* scope) {
  std::vector<std::string> refs;
  CollectPatternViewRefs(match.patterns, &refs);
  for (const auto& block : match.optionals) {
    CollectPatternViewRefs(block.patterns, &refs);
  }
  if (refs.empty()) return Status::OK();

  // Target graph: the ON graph of the first pattern referencing a view
  // (the default graph when none).
  std::string target_graph;
  for (const auto& p : match.patterns) {
    std::vector<std::string> local;
    CollectPatternViewRefs(p, &local);
    if (!local.empty()) {
      target_graph = p.on_graph;
      break;
    }
  }
  if (target_graph.empty()) target_graph = catalog_->default_graph();

  // Transitive closure over view references.
  auto find_pending = [&](const std::string& name) -> const PathClause* {
    for (const PathClause* c : scope->pending_paths) {
      if (c->name == name) return c;
    }
    return nullptr;
  };
  std::set<std::string> needed;
  std::vector<std::string> queue = refs;
  while (!queue.empty()) {
    const std::string name = queue.back();
    queue.pop_back();
    if (needed.count(name) > 0 || scope->views.Has(name)) continue;
    const PathClause* clause = find_pending(name);
    if (clause == nullptr) {
      return Status::NotFound("PATH view '" + name + "' is not defined");
    }
    needed.insert(name);
    CollectPatternViewRefs(clause->patterns, &queue);
  }

  // Materialize in head-clause order so nested references resolve first.
  for (const PathClause* clause : scope->pending_paths) {
    if (needed.count(clause->name) == 0 || scope->views.Has(clause->name)) {
      continue;
    }
    GCORE_ASSIGN_OR_RETURN(PathViewRelation relation,
                           MaterializePathView(*clause, target_graph, scope));
    scope->views.Register(std::move(relation));
  }
  return Status::OK();
}

Result<PathViewRelation> QueryEngine::MaterializePathView(
    const PathClause& clause, const std::string& graph_name, Scope* scope) {
  if (clause.patterns.empty()) {
    return Status::BindError("PATH clause '" + clause.name +
                             "' has no pattern");
  }
  MatcherContext ctx;
  static_cast<EngineOptions&>(ctx) = scope->options;
  ctx.catalog = catalog_;
  ctx.views = &scope->views;
  ctx.default_graph = graph_name;
  ctx.exists_cb = [this, scope](const Query& subquery) {
    return ExistsRelation(subquery, scope);
  };
  Matcher matcher(ctx);

  // First pattern is the walk pattern: its elements form the segment body.
  GCORE_ASSIGN_OR_RETURN(ChainResult detail,
                         matcher.EvalChainDetailed(clause.patterns.front()));
  BindingTable table = std::move(detail.table);
  // Additional comma-separated patterns (non-linear path patterns,
  // footnote 3) constrain via join.
  for (size_t i = 1; i < clause.patterns.size(); ++i) {
    GCORE_ASSIGN_OR_RETURN(ChainResult extra,
                           matcher.EvalChainDetailed(clause.patterns[i]));
    table = TableJoin(table, extra.table);
  }

  GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* view_graph,
                         matcher.ResolveGraph(""));
  ExprEvaluator eval = matcher.MakeEvaluator(view_graph);

  if (clause.where != nullptr) {
    GCORE_ASSIGN_OR_RETURN(
        table, matcher.FilterByConjuncts(std::move(table),
                                         {clause.where.get()}, view_graph));
  }

  PathViewRelation relation(clause.name);
  for (size_t r = 0; r < table.NumRows(); ++r) {
    double cost = 1.0;  // default hop cost (Appendix A.4)
    if (clause.cost != nullptr) {
      GCORE_ASSIGN_OR_RETURN(Datum d, eval.Eval(*clause.cost, table, r));
      if (d.kind() != Datum::Kind::kValues || !d.values().is_singleton() ||
          !d.values().single().is_numeric()) {
        return Status::EvaluationError("PATH '" + clause.name +
                                       "' COST must evaluate to a number");
      }
      cost = d.values().single().NumericAsDouble();
      if (!(cost > 0.0)) {
        return Status::EvaluationError(
            "PATH '" + clause.name +
            "' COST must be numerical and > 0 (Appendix A.4)");
      }
    }

    // Segment body: walk the chain's element columns. They alternate
    // node, connector, node, connector, ..., node.
    PathViewSegment segment;
    segment.cost = cost;
    const auto& cols = detail.element_columns;
    {
      const Datum& first = table.Get(r, cols.front());
      if (first.kind() != Datum::Kind::kNode) {
        return Status::BindError("PATH pattern start is not a node");
      }
      segment.body.nodes.push_back(first.node());
    }
    for (size_t i = 1; i + 1 < cols.size(); i += 2) {
      const Datum& connector = table.Get(r, cols[i]);
      const Datum& target = table.Get(r, cols[i + 1]);
      if (target.kind() != Datum::Kind::kNode) {
        return Status::BindError("PATH pattern element is not a node");
      }
      if (connector.kind() == Datum::Kind::kEdge) {
        segment.body.edges.push_back(connector.edge());
        segment.body.nodes.push_back(target.node());
      } else if (connector.kind() == Datum::Kind::kPath) {
        // Splice a nested path view walk (skip the junction node).
        const PathBody& nested = connector.path().body;
        for (size_t j = 0; j < nested.edges.size(); ++j) {
          segment.body.edges.push_back(nested.edges[j]);
          segment.body.nodes.push_back(nested.nodes[j + 1]);
        }
      } else {
        return Status::BindError(
            "PATH pattern connector is neither edge nor path");
      }
    }
    segment.src = segment.body.nodes.front();
    segment.dst = segment.body.nodes.back();
    GCORE_RETURN_NOT_OK(relation.AddSegment(std::move(segment)));
  }
  return relation;
}

Status QueryEngine::MaterializeOnLocations(
    const MatchClause& match, Scope* scope,
    std::map<const GraphPattern*, std::string>* overrides) {
  auto materialize_locations =
      [&](const std::vector<GraphPattern>& patterns) -> Status {
    for (const auto& p : patterns) {
      if (p.on_subquery == nullptr) continue;
      GCORE_ASSIGN_OR_RETURN(QueryResult sub,
                             ([&]() -> Result<QueryResult> {
                               return ExecuteWithScope(*p.on_subquery,
                                                       scope);
                             })());
      if (!sub.graph.has_value()) {
        return Status::BindError(
            "ON (subquery) must produce a graph, not a table");
      }
      const std::string name =
          "__location" +
          std::to_string(temp_graph_seq_.fetch_add(
              1, std::memory_order_relaxed));
      catalog_->RegisterGraph(name, std::move(*sub.graph));
      scope->local_graphs.push_back(name);
      overrides->emplace(&p, name);
    }
    return Status::OK();
  };
  GCORE_RETURN_NOT_OK(materialize_locations(match.patterns));
  for (const auto& block : match.optionals) {
    GCORE_RETURN_NOT_OK(materialize_locations(block.patterns));
  }
  return Status::OK();
}

Result<BindingTable> QueryEngine::EvalBindings(
    const BasicQuery& basic, Scope* scope, MatchRun* run, ExecStats* stats,
    std::unique_ptr<PlanNode>* plan_out) {
  if (basic.match.has_value()) {
    GCORE_RETURN_NOT_OK(MaterializePathViewsFor(*basic.match, scope));

    // ON (subquery) locations: evaluate each to a temporary catalog graph
    // (Appendix A.2: ⟦α ON Q⟧_G = ⟦α⟧_{⟦Q⟧_G}).
    MatchRun local;
    if (run == nullptr) run = &local;
    GCORE_RETURN_NOT_OK(
        MaterializeOnLocations(*basic.match, scope, &run->overrides));

    auto eval = [&](Matcher* matcher) -> Result<BindingTable> {
      if (stats != nullptr) {
        return matcher->EvalMatchClauseAnalyzed(*basic.match, stats,
                                                plan_out);
      }
      // Plan-cache hooks apply only to the query body's own basic query
      // (EXISTS subqueries re-enter here with a different BasicQuery).
      if (scope->cache_basic == &basic) {
        if (scope->cached_plan != nullptr) {
          return matcher->EvalMatchClauseWithPlan(*basic.match,
                                                  *scope->cached_plan);
        }
        return matcher->EvalMatchClausePlanning(*basic.match,
                                                &scope->built_plan);
      }
      return matcher->EvalMatchClause(*basic.match);
    };
    MatcherContext ctx = MakeMatcher(scope).context();
    if (!run->overrides.empty()) ctx.location_overrides = &run->overrides;
    run->matcher = std::make_unique<Matcher>(std::move(ctx));
    return eval(run->matcher.get());
  }
  if (!basic.from_table.empty()) {
    GCORE_ASSIGN_OR_RETURN(const Table* table,
                           catalog_->LookupTable(basic.from_table));
    return TableAsBindings(*table);
  }
  return BindingTable::Unit();
}

Result<QueryResult> QueryEngine::EvalBasic(const BasicQuery& basic,
                                           Scope* scope) {
  MatchRun run;
  GCORE_ASSIGN_OR_RETURN(BindingTable bindings,
                         EvalBindings(basic, scope, &run));
  return FinishBasic(basic, std::move(bindings), scope, &run);
}

Result<QueryResult> QueryEngine::FinishBasic(const BasicQuery& basic,
                                             BindingTable bindings,
                                             Scope* scope, MatchRun* run) {
  // The tail reads λ/σ from the graph versions the MATCH pinned; a body
  // without MATCH pins on first use here.
  if (run->matcher == nullptr) {
    run->matcher = std::make_unique<Matcher>(MakeMatcher(scope).context());
  }
  Matcher& matcher = *run->matcher;
  auto resolve_graph = [&matcher](const std::string& name) {
    auto g = matcher.ResolveGraph(name);
    return g.ok() ? *g : nullptr;
  };
  QueryResult result;
  if (basic.select.has_value()) {
    const SelectClause& select = *basic.select;
    std::vector<std::string> columns;
    bool any_aggregate = false;
    for (const auto& item : select.items) {
      columns.push_back(!item.alias.empty() ? item.alias
                                            : item.expr->ToString());
      if (item.expr->ContainsAggregate()) any_aggregate = true;
    }
    Table table(columns);

    // λ/σ lookups resolve through per-column provenance; the default
    // graph is only a fallback and may legitimately be absent (e.g. all
    // patterns carry ON).
    // The matcher lives through the whole projection: its snapshot cache
    // pins every snapshot the compiled programs below gather from.
    const std::string& default_name = catalog_->default_graph();
    const PathPropertyGraph* default_graph =
        default_name.empty() ? nullptr : resolve_graph(default_name);
    // EXISTS inner relations are kept for the whole projection.
    CorrelatedMemo correlated;
    ExprEvaluator eval(default_graph, catalog_);
    eval.set_provenance_resolver(resolve_graph);
    eval.set_exists_callback(
        [this, scope](const Query& subquery) {
          return ExistsRelation(subquery, scope);
        },
        &correlated);

    auto cell_of = [](const Datum& d) -> Value {
      if (d.kind() == Datum::Kind::kValues && d.values().is_singleton()) {
        return d.values().single();
      }
      if (d.IsUnbound() ||
          (d.kind() == Datum::Kind::kValues && d.values().empty())) {
        return Value::Null();
      }
      return Value::String(d.ToString());
    };

    if (any_aggregate) {
      std::vector<size_t> all_rows(bindings.NumRows());
      for (size_t r = 0; r < all_rows.size(); ++r) all_rows[r] = r;
      std::vector<Value> row;
      for (const auto& item : select.items) {
        GCORE_ASSIGN_OR_RETURN(
            Datum d, eval.EvalWithGroup(*item.expr, bindings, all_rows));
        row.push_back(cell_of(d));
      }
      Status st = table.AddRow(std::move(row));
      (void)st;
    } else {
      // Projection with the Section 5 "slicing, sorting" extensions:
      // ORDER BY keys are evaluated against the binding rows, then
      // DISTINCT and LIMIT apply to the projected cells.
      struct ProjectedRow {
        std::vector<Value> keys;
        std::vector<Value> cells;
      };
      std::vector<ProjectedRow> rows;
      rows.reserve(bindings.NumRows());
      // Computed projections run vectorized (eval/expr_vec.h) when the
      // expression compiles: one column-major batch per ORDER BY key and
      // select item, then a row-major assembly loop. Rows a kernel could
      // not decide — and every expression under use_planner = false —
      // evaluate through the row evaluator inside that same loop, so
      // row-level errors surface for exactly the (row, expression) the
      // serial loop would reach first.
      const size_t num_keys = select.order_by.size();
      std::vector<const Expr*> exprs;
      exprs.reserve(num_keys + select.items.size());
      for (const auto& key : select.order_by) exprs.push_back(key.expr.get());
      for (const auto& item : select.items) exprs.push_back(item.expr.get());
      std::vector<std::vector<Datum>> vec_vals(exprs.size());
      std::vector<std::vector<uint8_t>> vec_fb(exprs.size());
      std::vector<uint8_t> vectorized(exprs.size(), 0);
      if (scope->options.use_planner && bindings.NumRows() > 0) {
        std::vector<size_t> all(bindings.NumRows());
        std::iota(all.begin(), all.end(), size_t{0});
        for (size_t e = 0; e < exprs.size(); ++e) {
          auto prog =
              matcher.VecProgramFor(*exprs[e], bindings, eval, default_graph);
          if (prog != nullptr) {
            prog->EvalValues(bindings, all.data(), all.size(), &vec_vals[e],
                             &vec_fb[e]);
            vectorized[e] = 1;
          }
        }
      }
      auto eval_cell = [&](size_t e, size_t r) -> Result<Value> {
        if (vectorized[e] && vec_fb[e][r] == 0) return cell_of(vec_vals[e][r]);
        GCORE_ASSIGN_OR_RETURN(Datum d, eval.Eval(*exprs[e], bindings, r));
        return cell_of(d);
      };
      for (size_t r = 0; r < bindings.NumRows(); ++r) {
        ProjectedRow out;
        for (size_t e = 0; e < num_keys; ++e) {
          GCORE_ASSIGN_OR_RETURN(Value v, eval_cell(e, r));
          out.keys.push_back(std::move(v));
        }
        for (size_t e = num_keys; e < exprs.size(); ++e) {
          GCORE_ASSIGN_OR_RETURN(Value v, eval_cell(e, r));
          out.cells.push_back(std::move(v));
        }
        rows.push_back(std::move(out));
      }
      if (!select.order_by.empty()) {
        std::stable_sort(
            rows.begin(), rows.end(),
            [&](const ProjectedRow& a, const ProjectedRow& b) {
              for (size_t k = 0; k < select.order_by.size(); ++k) {
                const int cmp = a.keys[k].Compare(b.keys[k]);
                if (cmp != 0) {
                  return select.order_by[k].descending ? cmp > 0 : cmp < 0;
                }
              }
              return false;
            });
      }
      std::set<std::vector<Value>> seen;
      int64_t emitted = 0;
      for (auto& row : rows) {
        if (select.limit >= 0 && emitted >= select.limit) break;
        if (select.distinct && !seen.insert(row.cells).second) continue;
        ++emitted;
        Status st = table.AddRow(std::move(row.cells));
        (void)st;
      }
    }
    result.table = std::move(table);
    return result;
  }

  if (!basic.construct.has_value()) {
    return Status::BindError("basic query lacks a CONSTRUCT clause");
  }
  ConstructorContext ctx;
  ctx.catalog = catalog_;
  ctx.default_graph = catalog_->default_graph();
  // The spec mode of every layer: the row-at-a-time constructor.
  ctx.use_spec = !scope->options.use_planner;
  ctx.resolve_graph = resolve_graph;
  ctx.exists_cb = [this, scope](const Query& subquery) {
    return ExistsRelation(subquery, scope);
  };
  Constructor constructor(ctx);
  GCORE_ASSIGN_OR_RETURN(PathPropertyGraph graph,
                         constructor.EvalConstruct(*basic.construct,
                                                   bindings));
  result.graph = std::move(graph);
  return result;
}

Result<PathPropertyGraph> QueryEngine::EvalBody(const QueryBody& body,
                                                Scope* scope) {
  switch (body.kind) {
    case QueryBody::Kind::kBasic: {
      GCORE_ASSIGN_OR_RETURN(QueryResult r, EvalBasic(*body.basic, scope));
      if (!r.graph.has_value()) {
        return Status::BindError(
            "SELECT queries cannot participate in graph set operations");
      }
      return std::move(*r.graph);
    }
    case QueryBody::Kind::kGraphRef: {
      GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* g,
                             catalog_->Lookup(body.graph_ref));
      return PathPropertyGraph(*g);
    }
    case QueryBody::Kind::kUnion:
    case QueryBody::Kind::kIntersect:
    case QueryBody::Kind::kMinus: {
      GCORE_ASSIGN_OR_RETURN(PathPropertyGraph left,
                             EvalBody(*body.left, scope));
      GCORE_ASSIGN_OR_RETURN(PathPropertyGraph right,
                             EvalBody(*body.right, scope));
      switch (body.kind) {
        case QueryBody::Kind::kUnion:
          return GraphUnion(std::move(left), std::move(right));
        case QueryBody::Kind::kIntersect:
          return GraphIntersect(left, right);
        default:
          return GraphMinus(left, right);
      }
    }
  }
  return Status::EvaluationError("unhandled query body kind");
}

Result<BindingTable> QueryEngine::ExistsRelation(const Query& subquery,
                                                 Scope* scope) {
  // Correlated evaluation (Appendix A.2): ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω. A basic
  // subquery answers with its bindings, which the caller's memo
  // semijoins with each outer row (CONSTRUCT over a non-empty binding set
  // yields a non-empty graph). Other bodies are uncorrelated: a nullary
  // table with one row iff their graph is non-empty.
  const QueryBody* body = subquery.body.get();
  auto nonempty = [](bool any) {
    return any ? BindingTable::Unit() : BindingTable();
  };
  if (body == nullptr) return nonempty(false);
  if (body->kind == QueryBody::Kind::kGraphRef) {
    GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* g,
                           catalog_->Lookup(body->graph_ref));
    return nonempty(!g->Empty());
  }
  if (body->kind != QueryBody::Kind::kBasic) {
    GCORE_ASSIGN_OR_RETURN(QueryResult result,
                           ExecuteWithScope(subquery, scope));
    return nonempty(result.graph.has_value() && !result.graph->Empty());
  }
  return EvalBindings(*body->basic, scope);
}

}  // namespace gcore
