// The G-CORE query engine: the public entry point of gcore-cpp.
//
//   GraphCatalog catalog;
//   catalog.RegisterGraph("social_graph", MakeSocialGraph(catalog.ids()));
//   catalog.SetDefaultGraph("social_graph");
//   QueryEngine engine(&catalog);
//   auto result = engine.Execute(
//       "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'");
//
// Concurrent serving goes through sessions: each QuerySession freezes the
// engine's evaluation knobs (an immutable EngineOptions copy) at creation,
// so N threads can execute through one engine/catalog without racing knob
// mutation, each query pinned to a consistent (graph, snapshot, stats)
// view even under concurrent re-registration:
//
//   QuerySession session = engine.CreateSession();
//   std::thread worker([&] {
//     auto r = session.Execute("SELECT n.firstName MATCH (n:Person)");
//   });
//
// Repeated queries pay near-zero planning cost: Execute-by-text consults
// a bounded LRU plan cache keyed on (normalized text, default graph,
// graph version, knob fingerprint) before parsing and planning;
// re-registering a graph invalidates its entries. Hit/miss/eviction
// counters are exposed via plan_cache_counters().
//
// Execution follows Appendix A: PATH head clauses become weighted path
// views, GRAPH / GRAPH VIEW clauses register (materialized) graphs, the
// body evaluates CONSTRUCT∘MATCH per basic query and combines full graph
// queries with the set operations of A.5. The Section 5 extensions
// (SELECT, FROM <table>, ON <table>) produce/consume tables.
#ifndef GCORE_ENGINE_ENGINE_H_
#define GCORE_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/options.h"
#include "engine/plan_cache.h"
#include "eval/matcher.h"
#include "graph/catalog.h"
#include "paths/path_view.h"
#include "snb/table.h"

namespace gcore {

class QuerySession;

/// Outcome of a query: a graph (the normal, closed case) or a table
/// (SELECT extension).
struct QueryResult {
  std::optional<PathPropertyGraph> graph;
  std::optional<Table> table;

  bool IsGraph() const { return graph.has_value(); }
  bool IsTable() const { return table.has_value(); }
  std::string ToString() const;
};

class QueryEngine {
 public:
  /// The engine does not own the catalog; GRAPH VIEW definitions persist
  /// into it across Execute calls (and the engine hooks the catalog's
  /// invalidation listeners for its plan cache).
  explicit QueryEngine(GraphCatalog* catalog);
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Parses and executes `query_text` under the engine's default options,
  /// consulting the plan cache first. Thread-safe against other Execute
  /// calls (but not against concurrent set_* knob mutation — freeze knobs
  /// into sessions for concurrent serving).
  Result<QueryResult> Execute(const std::string& query_text);
  /// Same, under explicitly supplied (typically session-frozen) options.
  Result<QueryResult> Execute(const std::string& query_text,
                              const EngineOptions& options);

  /// Executes an already-parsed query (no plan-cache consultation — the
  /// cache needs the text key).
  Result<QueryResult> Execute(const Query& query);
  Result<QueryResult> Execute(const Query& query,
                              const EngineOptions& options);

  /// A session with the engine's current options frozen in (or explicit
  /// ones). Sessions are cheap value handles; create one per serving
  /// thread.
  QuerySession CreateSession();
  QuerySession CreateSession(EngineOptions options);

  GraphCatalog* catalog() { return catalog_; }

  /// Default evaluation knobs, forwarded into every MatcherContext the
  /// engine creates (planner on/off for differential testing, optimizer
  /// rules for ablation). Not synchronized: configure before spawning
  /// concurrent sessions — sessions carry their own frozen copy.
  const EngineOptions& options() const { return options_; }
  void set_options(const EngineOptions& options) { options_ = options; }
  /// Off = the spec mode of every layer (common/options.h).
  void set_use_planner(bool on) { options_.use_planner = on; }
  void set_enable_pushdown(bool on) { options_.enable_pushdown = on; }
  /// Cycle → MultiwayExpand rewrite (worst-case-optimal multiway joins);
  /// off keeps binary join trees — the bench_wcoj ablation mode.
  void set_enable_multiway(bool on) { options_.enable_multiway = on; }
  /// Morsel-parallel execution degree (0 = one worker per hardware
  /// thread, 1 = serial) and morsel granularity (0 = default; tests use
  /// tiny morsels to exercise multi-chunk execution on toy data).
  void set_parallelism(size_t n) { options_.parallelism = n; }
  void set_morsel_size(size_t n) { options_.morsel_size = n; }

  /// Plan-cache introspection (tests, the serving bench). Capacity 0
  /// disables caching — the cold re-plan-every-call mode.
  PlanCacheCounters plan_cache_counters() const {
    return plan_cache_.counters();
  }
  size_t plan_cache_size() const { return plan_cache_.size(); }
  void set_plan_cache_capacity(size_t n) { plan_cache_.set_capacity(n); }
  void clear_plan_cache() { plan_cache_.Clear(); }

 private:
  /// Per-execution scope: path views (materialized + pending clause ASTs),
  /// query-local graph names, the frozen options of this execution and
  /// the plan-cache hooks of its outermost basic query.
  struct Scope {
    PathViewRegistry views;
    std::vector<const PathClause*> pending_paths;
    std::vector<std::string> local_graphs;
    /// Options this execution runs under (the engine default or a
    /// session's frozen copy) — every MakeMatcher reads these.
    EngineOptions options;
    /// Plan-cache hit: execute this plan for `cache_basic` instead of
    /// planning (owned by the cache entry, which outlives the scope).
    const PlanNode* cached_plan = nullptr;
    /// Plan-cache miss on a cacheable query: EvalBindings deposits the
    /// freshly optimized plan of `cache_basic` here for insertion.
    std::unique_ptr<PlanNode> built_plan;
    /// The one basic query the cache slot refers to (the query body's
    /// own; EXISTS subqueries re-enter EvalBindings and must not touch
    /// the slot).
    const BasicQuery* cache_basic = nullptr;
  };

  /// The post-parse execution path shared by every entry point:
  /// validation, EXPLAIN dispatch, local-graph cleanup.
  Result<QueryResult> ExecuteParsed(const Query& query, Scope* scope);

  Result<QueryResult> ExecuteWithScope(const Query& query, Scope* scope);
  Result<PathPropertyGraph> EvalBody(const QueryBody& body, Scope* scope);
  Result<QueryResult> EvalBasic(const BasicQuery& basic, Scope* scope);
  Status EvalGraphClause(const GraphClause& clause, Scope* scope);

  /// The matcher that ran a basic query's MATCH, kept alive through the
  /// consuming tail: its per-query graph pins are the versions SELECT and
  /// CONSTRUCT read λ/σ from. `overrides` are the ON (subquery) locations
  /// the matcher's context points to.
  struct MatchRun {
    std::map<const GraphPattern*, std::string> overrides;
    std::unique_ptr<Matcher> matcher;
  };

  /// Binding-producing part of a basic query (MATCH / FROM / unit). A
  /// non-null `run` receives the matcher that ran the MATCH. A non-null
  /// `stats` instruments the MATCH pipeline (EXPLAIN ANALYZE): actual
  /// rows record per operator and the executed plan is handed out
  /// through `plan_out` (null for FROM/unit bodies).
  Result<BindingTable> EvalBindings(const BasicQuery& basic, Scope* scope,
                                    MatchRun* run = nullptr,
                                    ExecStats* stats = nullptr,
                                    std::unique_ptr<PlanNode>* plan_out =
                                        nullptr);
  /// Consuming tail of a basic query: SELECT projection or CONSTRUCT
  /// over already-computed bindings, resolving graphs through `run`'s
  /// matcher (made here when the body has no MATCH).
  Result<QueryResult> FinishBasic(const BasicQuery& basic,
                                  BindingTable bindings, Scope* scope,
                                  MatchRun* run);
  /// Evaluates every ON (subquery) location of `match` to a temporary
  /// catalog graph and records pattern → name in `overrides`
  /// (Appendix A.2: ⟦α ON Q⟧_G = ⟦α⟧_{⟦Q⟧_G}). Temporary names draw from
  /// an engine-wide atomic counter so concurrent sessions cannot collide.
  Status MaterializeOnLocations(
      const MatchClause& match, Scope* scope,
      std::map<const GraphPattern*, std::string>* overrides);

  /// Materializes every pending PATH view (transitively) referenced by the
  /// match clause, against the graph its first referencing pattern runs
  /// on. PATH views read properties of the graph they are applied to
  /// (wKnows reads nr_messages of social_graph1), hence the laziness.
  Status MaterializePathViewsFor(const MatchClause& match, Scope* scope);
  Result<PathViewRelation> MaterializePathView(const PathClause& clause,
                                               const std::string& graph_name,
                                               Scope* scope);

  /// Inner relation of a correlated EXISTS (the ExistsCallback behind
  /// every matcher, SELECT projection and constructor the engine wires):
  /// a basic subquery's bindings, else a nullary table with one row iff
  /// the subquery's graph is non-empty. The evaluator that owns the
  /// callback keeps the result in its CorrelatedMemo and semijoins it
  /// with each outer row, so one evaluation runs — and resolves the
  /// inner graphs of — each subquery at most once, and never when no row
  /// reaches the EXISTS.
  Result<BindingTable> ExistsRelation(const Query& subquery, Scope* scope);

  Matcher MakeMatcher(Scope* scope);

  /// True when Execute-by-text may cache this query's parse + plan: a
  /// plain (non-EXPLAIN) single-basic-query body without head clauses or
  /// ON (subquery) locations — the shapes whose planning depends only on
  /// (text, default graph, graph versions, knobs).
  static bool CacheableShape(const Query& query);
  /// Distinct graph locations the plan's operators touch (empty location
  /// = the resolved default), for version recording.
  static void CollectPlanGraphs(const PlanNode& plan,
                                const std::string& default_graph,
                                std::vector<std::string>* out);

  /// EXPLAIN: plans (without executing) and renders the optimized plan
  /// as a one-column table.
  Result<QueryResult> Explain(const Query& query, Scope* scope);

  /// EXPLAIN ANALYZE: plans, *executes* through an ExecStats-instrumented
  /// executor (head clauses run for real; the CONSTRUCT/SELECT tail and
  /// graph set operations run too, results discarded — execution errors
  /// surface exactly as they would without ANALYZE) and renders the plan
  /// with actual_rows annotated next to every estimate. Always analyzes
  /// the planner pipeline, regardless of set_use_planner (whose spec mode
  /// still runs the plan's filters through the row evaluator).
  Result<QueryResult> ExplainAnalyze(const Query& query, Scope* scope);
  /// Instrumented mirror of EvalBody: renders into `lines` while
  /// evaluating (set operations included, with EvalBody's graph-typing
  /// checks).
  Result<PathPropertyGraph> AnalyzeGraphBody(const QueryBody& body,
                                             Scope* scope,
                                             std::vector<std::string>* lines);
  /// Instrumented mirror of EvalBasic; returns the finished result.
  Result<QueryResult> AnalyzeBasic(const BasicQuery& basic, Scope* scope,
                                   std::vector<std::string>* lines);

  GraphCatalog* catalog_;
  EngineOptions options_;
  PlanCache plan_cache_;
  uint64_t invalidation_listener_ = 0;
  /// Engine-wide sequence for temporary catalog names (__locationN):
  /// concurrent sessions materializing ON (subquery) locations must not
  /// register under colliding names.
  std::atomic<uint64_t> temp_graph_seq_{0};
};

/// A serving handle: one engine, frozen evaluation knobs. Sessions are
/// copyable value objects; Execute is safe to call from many threads (one
/// session shared, or one session per thread — both work, the engine and
/// catalog do the synchronization).
class QuerySession {
 public:
  Result<QueryResult> Execute(const std::string& query_text) {
    return engine_->Execute(query_text, options_);
  }

  const EngineOptions& options() const { return options_; }
  QueryEngine* engine() { return engine_; }

 private:
  friend class QueryEngine;
  QuerySession(QueryEngine* engine, EngineOptions options)
      : engine_(engine), options_(options) {}

  QueryEngine* engine_;
  EngineOptions options_;
};

}  // namespace gcore

#endif  // GCORE_ENGINE_ENGINE_H_
