// The traced pass: every request is timed through one Execute, then —
// when decomposable — re-run layer by layer through the engine's own
// entry points with a span around each call. Spans live in memory and are
// written once, as Chrome trace-event JSON, when the run ends.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "engine/plan_cache.h"
#include "engine/validator.h"
#include "eval/constructor.h"
#include "harness.h"
#include "parser/parser.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace gcore {
namespace e2e {

int Tracer::Begin(const std::string& name, int parent, int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  spans_[span].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
}

std::vector<double> Tracer::SelfTimesMs() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].push_back(static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start_us, s.start_us),
                         std::min(spans_[c].end_us, s.end_us));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = (s.end_us - s.start_us - covered) / 1000.0;
  }
  return self;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::InvalidArgument("cannot write " + path);
  const std::vector<double> self = SelfTimesMs();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"request\": %lld, \"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.start_us,
                 s.end_us - s.start_us, i, s.parent,
                 static_cast<long long>(s.request), self[i] * 1000.0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::InvalidArgument("cannot write " + path);
}

namespace {

bool ContainsExists(const std::string& normalized) {
  return normalized.find("EXISTS") != std::string::npos;
}

/// A request is decomposable when its body is a single basic MATCH query
/// with no head clauses, no ON-subquery or table input and no EXISTS (the
/// subquery callback is engine-private). Everything else is timed as one
/// opaque Execute.
bool Decomposable(const std::string& text, const GraphCatalog& catalog) {
  if (ContainsExists(NormalizeQueryText(text))) return false;
  auto parsed = ParseQuery(text);
  if (!parsed.ok()) return false;
  const Query& q = **parsed;
  if (q.explain || !q.path_clauses.empty() || !q.graph_clauses.empty() ||
      q.body == nullptr || q.body->kind != QueryBody::Kind::kBasic) {
    return false;
  }
  const BasicQuery& basic = *q.body->basic;
  if (!basic.match.has_value()) return false;  // FROM <table> or unit
  auto plain = [&](const std::vector<GraphPattern>& patterns) {
    for (const auto& p : patterns) {
      if (p.on_subquery != nullptr) return false;
      if (!p.on_graph.empty() && catalog.HasTable(p.on_graph)) return false;
    }
    return true;
  };
  if (!plain(basic.match->patterns)) return false;
  for (const auto& block : basic.match->optionals) {
    if (!plain(block.patterns)) return false;
  }
  return true;
}

/// Per-layer accumulators over the traced pass.
struct LayerTotals {
  std::map<std::string, double> layer_ms;  // layer → Σ ms (decomposed)
  std::map<std::string, double> op_ms;     // PlanOp → Σ ms (decomposed)
  size_t decomposed = 0;
  size_t constructs = 0;
  double construct_objects = 0.0;
  double rows_examined = 0.0;
  double result_rows = 0.0;
  std::vector<double> self_ms;
  std::vector<double> coverage;  // Σ layers / Execute, per decomposed
  std::vector<double> opaque_ms;
  std::vector<double> refreeze_ms;
  std::vector<double> restats_ms;
};

void AddOpTimes(const PlanNode& node, const ExecStats& stats,
                LayerTotals* totals) {
  const double ms = stats.TimeMs(&node);
  if (ms >= 0.0) totals->op_ms[PlanOpName(node.op)] += ms;
  const int64_t rows = stats.Rows(&node);
  if (rows >= 0) totals->rows_examined += static_cast<double>(rows);
  for (const auto& child : node.children) AddOpTimes(*child, stats, totals);
}

/// Re-runs `text` through the layer entry points under `parent`, adding
/// the layers' summed time to `layers_ms`. Returns the composed result (a
/// graph for CONSTRUCT, nothing for SELECT — its tail is engine-private
/// and stays in engine.self_ms).
Result<std::optional<QueryResult>> Decompose(const std::string& text,
                                             const Workload& w,
                                             GraphCatalog* catalog,
                                             Tracer* tracer, int parent,
                                             int64_t request,
                                             LayerTotals* totals,
                                             double* layers_ms) {
  auto timed = [&](const char* name, auto&& fn) {
    const int span = tracer->Begin(name, parent, request);
    auto out = fn();
    tracer->End(span);
    totals->layer_ms[name] += tracer->DurationMs(span);
    *layers_ms += tracer->DurationMs(span);
    return out;
  };
  timed("engine.normalize", [&] { return NormalizeQueryText(text); });
  GCORE_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                         timed("parser.parse", [&] { return ParseQuery(text); }));
  GCORE_RETURN_NOT_OK(
      timed("engine.validate", [&] { return ValidateQuery(*query); }));
  const BasicQuery& basic = *query->body->basic;
  const MatchClause& match = *basic.match;

  // A fresh Matcher over the context the engine builds: the session's
  // options, the catalog, and the default graph — replaced by the
  // clause-level ON graph when the patterns name exactly one, which is
  // what the engine's matcher resolves "" to.
  PathViewRegistry views;
  MatcherContext ctx;
  static_cast<EngineOptions&>(ctx) = w.options;
  ctx.catalog = catalog;
  ctx.views = &views;
  const std::string clause_on = ClauseOnOverride(match);
  ctx.default_graph =
      clause_on.empty() ? catalog->default_graph() : clause_on;
  Matcher matcher(ctx);

  GCORE_ASSIGN_OR_RETURN(PlanPtr plan, timed("plan.plan", [&]() -> Result<PlanPtr> {
    GCORE_RETURN_NOT_OK(matcher.ResolveGraph("").status());
    Planner planner(&matcher, PlannerOptions::FromContext(matcher.context()));
    return planner.PlanMatch(match);
  }));

  ExecStats stats;
  ExecContext exec;
  exec.parallelism = w.options.parallelism;
  exec.morsel_size = w.options.morsel_size;
  GCORE_ASSIGN_OR_RETURN(BindingTable bindings, timed("plan.exec", [&] {
    return Executor(&matcher, exec, &stats).Run(*plan);
  }));
  AddOpTimes(*plan, stats, totals);
  totals->result_rows += static_cast<double>(std::max<size_t>(
      bindings.NumRows(), 1));

  if (!basic.construct.has_value()) return std::optional<QueryResult>();
  ConstructorContext cctx;
  cctx.catalog = catalog;
  cctx.default_graph = catalog->default_graph();
  Constructor constructor(cctx);
  GCORE_ASSIGN_OR_RETURN(PathPropertyGraph graph,
                         timed("eval.construct", [&] {
                           return constructor.EvalConstruct(*basic.construct,
                                                            bindings);
                         }));
  ++totals->constructs;
  totals->construct_objects += static_cast<double>(
      graph.NumNodes() + graph.NumEdges() + graph.NumPaths());
  QueryResult result;
  result.graph = std::move(graph);
  return std::optional<QueryResult>(std::move(result));
}

}  // namespace

Result<size_t> RunTracedPass(const Workload& w, Env* env, Tracer* tracer,
                             MetricSet* metrics) {
  GraphCatalog* catalog = env->catalog.get();
  // Plan cache off: every Execute then parses and plans, so it covers the
  // same layers as its decomposed re-run. The cache's effect is measured
  // in the timed window (engine.plan_cache.*).
  QueryEngine engine(catalog);
  engine.set_options(w.options);
  engine.set_plan_cache_capacity(0);
  QuerySession session = engine.CreateSession(w.options);
  const uint32_t write_cls =
      w.writes.empty() ? ~0u : w.text_class[w.writes.front()];

  std::map<uint32_t, bool> decomposable;
  for (uint32_t id : w.trace_requests) {
    if (w.text_class[id] != write_cls && decomposable.count(id) == 0) {
      decomposable[id] = Decomposable(w.texts[id], *catalog);
    }
  }

  // Untraced serial pass over the same requests: the overhead baseline.
  double untraced_ms = 0.0;
  for (uint32_t id : w.trace_requests) {
    const auto t = Clock::now();
    auto r = session.Execute(w.texts[id]);
    untraced_ms += MsSince(t);
    if (!r.ok()) return r.status();
  }

  LayerTotals totals;
  double traced_ms = 0.0;
  size_t mismatches = 0;
  for (size_t i = 0; i < w.trace_requests.size(); ++i) {
    const uint32_t id = w.trace_requests[i];
    const std::string& text = w.texts[id];
    const int64_t req = static_cast<int64_t>(i);
    const int root = tracer->Begin("request", -1, req);
    const int exec_span = tracer->Begin("engine.execute", root, req);
    auto r = session.Execute(text);
    tracer->End(exec_span);
    if (!r.ok()) return r.status();
    const double exec_ms = tracer->DurationMs(exec_span);
    traced_ms += exec_ms;

    if (w.text_class[id] == write_cls) {
      totals.opaque_ms.push_back(exec_ms);
      // The write retired `live`'s snapshot and stats; the next reader
      // would pay for both.
      int s = tracer->Begin("graph.refreeze", root, req);
      GCORE_RETURN_NOT_OK(catalog->Snapshot(w.default_graph).status());
      tracer->End(s);
      totals.refreeze_ms.push_back(tracer->DurationMs(s));
      s = tracer->Begin("graph.restats", root, req);
      GCORE_RETURN_NOT_OK(catalog->Stats(w.default_graph).status());
      tracer->End(s);
      totals.restats_ms.push_back(tracer->DurationMs(s));
    } else if (decomposable[id]) {
      const int dec = tracer->Begin("decomposed", root, req);
      double layers_ms = 0.0;
      GCORE_ASSIGN_OR_RETURN(
          std::optional<QueryResult> composed,
          Decompose(text, w, catalog, tracer, dec, req, &totals, &layers_ms));
      tracer->End(dec);
      ++totals.decomposed;
      totals.self_ms.push_back(exec_ms - layers_ms);
      totals.coverage.push_back(layers_ms / exec_ms);
      if (composed.has_value() &&
          Fingerprint(*composed) != Fingerprint(*r)) {
        ++mismatches;
        std::fprintf(stderr, "trace: composed result differs from Execute: %s\n",
                     text.c_str());
      }
    } else {
      totals.opaque_ms.push_back(exec_ms);
    }
    tracer->End(root);
  }

  const size_t n = totals.decomposed;
  auto per_request = [&](const std::string& metric, double sum) {
    metrics->Set(metric, n == 0 ? 0.0 : sum / static_cast<double>(n), "ms", n);
  };
  for (const char* layer : {"engine.normalize", "parser.parse",
                            "engine.validate", "plan.plan", "plan.exec"}) {
    per_request(std::string(layer) + "_ms", totals.layer_ms[layer]);
  }
  for (const auto& [op, ms] : totals.op_ms) {
    per_request("plan.op." + op + "_ms", ms);
  }
  metrics->Set("plan.rows_examined_per_result",
               totals.result_rows > 0.0
                   ? totals.rows_examined / totals.result_rows
                   : 0.0,
               "ratio", n);
  if (totals.constructs > 0) {
    const double construct_ms = totals.layer_ms["eval.construct"];
    metrics->Set("eval.construct_ms",
                 construct_ms / static_cast<double>(totals.constructs), "ms",
                 totals.constructs);
    metrics->Set("eval.construct_us_per_object",
                 1000.0 * construct_ms /
                     std::max(totals.construct_objects, 1.0),
                 "us", totals.constructs);
  }
  if (n > 0) {
    metrics->Set("engine.self_ms", Mean(totals.self_ms), "ms", n);
    metrics->Set("trace.layer_sum_ratio", Median(totals.coverage), "ratio", n);
  }
  if (!totals.opaque_ms.empty()) {
    metrics->Set("engine.opaque_ms", Mean(totals.opaque_ms), "ms",
                 totals.opaque_ms.size());
  }
  if (!totals.refreeze_ms.empty()) {
    metrics->Set("graph.refreeze_ms", Mean(totals.refreeze_ms), "ms",
                 totals.refreeze_ms.size());
    metrics->Set("graph.restats_ms", Mean(totals.restats_ms), "ms",
                 totals.restats_ms.size());
  }
  const size_t requests = w.trace_requests.size();
  metrics->Set("trace.request_ms", traced_ms / static_cast<double>(requests),
               "ms", requests);
  metrics->Set("trace.overhead_pct",
               100.0 * (traced_ms - untraced_ms) / untraced_ms, "%", requests);
  return mismatches;
}

}  // namespace e2e
}  // namespace gcore
