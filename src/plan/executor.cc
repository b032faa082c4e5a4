#include "plan/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "eval/binding_ops.h"
#include "eval/matcher.h"
#include "paths/frontier.h"
#include "plan/wcoj.h"

namespace gcore {

void ExecStats::Record(const PlanNode* node, size_t rows) {
  std::lock_guard<std::mutex> lk(mu_);
  rows_[node] += rows;
}

void ExecStats::RecordTime(const PlanNode* node, double ms) {
  std::lock_guard<std::mutex> lk(mu_);
  ms_[node] += ms;
}

void ExecStats::RecordInnerEvals(const PlanNode* node, uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  inner_evals_[node] += n;
}

int64_t ExecStats::Rows(const PlanNode* node) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rows_.find(node);
  return it == rows_.end() ? -1 : static_cast<int64_t>(it->second);
}

double ExecStats::TimeMs(const PlanNode* node) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = ms_.find(node);
  return it == ms_.end() ? -1.0 : it->second;
}

uint64_t ExecStats::InnerEvals(const PlanNode* node) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = inner_evals_.find(node);
  return it == inner_evals_.end() ? 0 : it->second;
}

void ExecStats::AnnotateActuals(PlanNode* plan) const {
  const int64_t rows = Rows(plan);
  if (rows >= 0) plan->actual_rows = rows;
  const double ms = TimeMs(plan);
  if (ms >= 0.0) plan->actual_ms = ms;
  plan->inner_evals = InnerEvals(plan);
  for (auto& child : plan->children) AnnotateActuals(child.get());
}

namespace {
/// Elapsed wall time since `t0` in milliseconds (operator self-timing
/// for EXPLAIN ANALYZE's actual_ms).
double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

bool ExprParallelSafe(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kExists:
    case Expr::Kind::kGraphPattern:
    case Expr::Kind::kAggregate:
      return false;
    default:
      break;
  }
  for (const auto& arg : expr.args) {
    if (arg != nullptr && !ExprParallelSafe(*arg)) return false;
  }
  for (const auto& arm : expr.case_arms) {
    if (arm.condition != nullptr && !ExprParallelSafe(*arm.condition)) {
      return false;
    }
    if (arm.result != nullptr && !ExprParallelSafe(*arm.result)) return false;
  }
  if (expr.case_else != nullptr && !ExprParallelSafe(*expr.case_else)) {
    return false;
  }
  return true;
}

namespace {

/// An operator's output: an ordered list of morsel tables sharing one
/// schema (and column provenance), never empty, so an empty result still
/// carries the binding schema.
using Morsels = std::vector<BindingTable>;

/// One operator of the physical pipeline.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;
  /// Evaluates the children (a join's build side first), then this
  /// operator's own work.
  virtual Result<Morsels> Run() = 0;
};

using OpPtr = std::unique_ptr<PhysicalOp>;

bool ExprsParallelSafe(const std::vector<const Expr*>& exprs) {
  for (const Expr* e : exprs) {
    if (e != nullptr && !ExprParallelSafe(*e)) return false;
  }
  return true;
}

bool PropsParallelSafe(const std::vector<PropPattern>& props) {
  for (const auto& p : props) {
    if (p.value != nullptr && !ExprParallelSafe(*p.value)) return false;
  }
  return true;
}

Morsels OneMorsel(BindingTable table) {
  Morsels out;
  out.push_back(std::move(table));
  return out;
}

/// Runs `op` into one table. Its morsels share a schema (and column
/// provenance), so columns concatenate directly (bulk range appends, no
/// row walks); each morsel is freed once appended.
Result<BindingTable> Drain(PhysicalOp* op) {
  GCORE_ASSIGN_OR_RETURN(Morsels morsels, op->Run());
  BindingTable out = std::move(morsels.front());
  for (size_t i = 1; i < morsels.size(); ++i) {
    out.AppendTable(morsels[i]);
    morsels[i] = BindingTable();
  }
  return out;
}

/// An empty table with `like`'s schema and column provenance.
BindingTable EmptyLike(const BindingTable& like) {
  BindingTable out(like.columns());
  for (const auto& [var, graph] : like.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  return out;
}

/// Splits `chunk` into <= morsel_rows-row tables (at least one, so empty
/// chunks still propagate the schema), appending to `out`. Morsels are
/// column-range slices — bulk copies of the dense kind/slot arrays, not
/// row-by-row moves.
void SplitIntoMorsels(BindingTable chunk, size_t morsel_rows, Morsels* out) {
  if (chunk.NumRows() <= morsel_rows) {
    out->push_back(std::move(chunk));
    return;
  }
  for (size_t lo = 0; lo < chunk.NumRows(); lo += morsel_rows) {
    const size_t hi = std::min(chunk.NumRows(), lo + morsel_rows);
    out->push_back(chunk.Slice(lo, hi));
  }
}

/// One fused per-morsel stage of a pipeline: `prepare` runs once on the
/// calling thread (graph resolution, adjacency warm-up — anything that
/// mutates shared runtime state); `fn` transforms one morsel and, when
/// `thread_safe`, may run concurrently on ParallelFor's threads.
struct Stage {
  std::function<Status()> prepare;
  std::function<Result<BindingTable>(BindingTable)> fn;
  bool thread_safe = true;
};

/// Morsel-parallel pipeline segment: slices its child's output into
/// morsels and applies the fused stages to each through ParallelFor, every
/// result in its morsel's slot, so the output is in input order at every
/// parallelism degree. With parallelism 1 — or when any stage's
/// expressions could re-enter the runtime (EXISTS, pattern predicates) —
/// the morsels run serially, in order, on the calling thread; so does a
/// one-morsel input. Once a morsel fails, later morsels are skipped and
/// the lowest failing morsel's status is returned: the error serial
/// evaluation returns.
class PipelineOp : public PhysicalOp {
 public:
  PipelineOp(OpPtr child, ExecContext exec)
      : child_(std::move(child)), exec_(exec) {}

  void AddStage(Stage stage) { stages_.push_back(std::move(stage)); }

  Result<Morsels> Run() override {
    bool safe = true;
    for (const auto& stage : stages_) {
      if (stage.prepare) GCORE_RETURN_NOT_OK(stage.prepare());
      safe = safe && stage.thread_safe;
    }
    Morsels morsels;
    {
      GCORE_ASSIGN_OR_RETURN(Morsels input, child_->Run());
      for (auto& chunk : input) {
        SplitIntoMorsels(std::move(chunk), exec_.MorselRows(), &morsels);
      }
    }
    const size_t n = morsels.size();
    Morsels out(n);
    std::vector<Status> errors(n, Status::OK());
    std::atomic<size_t> first_failed{n};
    ParallelFor(safe ? exec_.parallelism : 1, n, [&](size_t i) {
      if (i > first_failed.load()) return;  // a lower morsel already failed
      auto result = ApplyStages(std::move(morsels[i]));
      if (result.ok()) {
        out[i] = std::move(result).value();
        return;
      }
      errors[i] = result.status();
      size_t seen = first_failed.load();
      while (i < seen && !first_failed.compare_exchange_weak(seen, i)) {
      }
    });
    if (first_failed < n) return errors[first_failed];
    return out;
  }

 private:
  Result<BindingTable> ApplyStages(BindingTable morsel) const {
    for (const auto& stage : stages_) {
      GCORE_ASSIGN_OR_RETURN(morsel, stage.fn(std::move(morsel)));
    }
    return morsel;
  }

  OpPtr child_;
  ExecContext exec_;
  std::vector<Stage> stages_;
};

/// NodeScan: all admitted nodes of the operator's graph as one table (the
/// pipeline above slices it into morsels). Pushed predicates run as a
/// pipeline stage above (which then owns the operator's actual-row
/// recording — est_rows of a scan includes its pushed conjuncts, so
/// actual_rows must too).
class NodeScanOp : public PhysicalOp {
 public:
  NodeScanOp(Matcher* rt, const PlanNode* plan, ExecStats* stats)
      : rt_(rt), plan_(plan), stats_(stats) {}

  Result<Morsels> Run() override {
    const auto t0 = std::chrono::steady_clock::now();
    GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* graph,
                           rt_->ResolveGraph(plan_->graph));
    GCORE_ASSIGN_OR_RETURN(
        BindingTable table,
        rt_->MatchStartNode(*plan_->node, plan_->node_labels, *graph,
                            graph->name(), plan_->var));
    if (stats_ != nullptr && plan_->pushed.empty()) {
      stats_->Record(plan_, table.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
    }
    return OneMorsel(std::move(table));
  }

 private:
  Matcher* rt_;
  const PlanNode* plan_;
  ExecStats* stats_;
};

/// PathSearch: one path hop (stored / SHORTEST / ALL / reachability). A
/// breaker: the batched path kernels inside ExpandPathHop want the whole
/// source set at once — one multi-source wave / batched k-shortest launch
/// instead of N independent traversals — so the op concatenates its input
/// (as HashJoin does with its build side) and expands it in a single
/// internally-parallel call. Rows, row order and fresh path ids match
/// per-row serial evaluation at every degree: the kernels are
/// degree-invariant and the matcher draws ids in row-emission order.
class PathSearchOp : public PhysicalOp {
 public:
  PathSearchOp(Matcher* rt, const PlanNode* plan, OpPtr child,
               ExecStats* stats)
      : rt_(rt), plan_(plan), child_(std::move(child)), stats_(stats) {}

  Result<Morsels> Run() override {
    GCORE_ASSIGN_OR_RETURN(BindingTable input, Drain(child_.get()));
    // Own-work timing starts after the child ran: actual_ms is this
    // operator's search + filter time, not its input's.
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t evals = rt_->inner_evals();
    GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* graph,
                           rt_->ResolveGraph(plan_->graph));
    GCORE_ASSIGN_OR_RETURN(
        BindingTable expanded,
        rt_->ExpandPathHop(std::move(input), plan_->from_var, *plan_->path,
                           plan_->path_var, *plan_->to, plan_->node_labels,
                           plan_->to_var, *graph, graph->name()));
    GCORE_ASSIGN_OR_RETURN(
        BindingTable filtered,
        rt_->FilterByConjuncts(std::move(expanded), plan_->pushed, graph));
    if (stats_ != nullptr) {
      stats_->Record(plan_, filtered.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
      stats_->RecordInnerEvals(plan_, rt_->inner_evals() - evals);
    }
    return OneMorsel(std::move(filtered));
  }

 private:
  Matcher* rt_;
  const PlanNode* plan_;
  OpPtr child_;
  ExecStats* stats_;
};

/// Residual WHERE filter over aggregate-bearing predicates: a pipeline
/// breaker, because aggregates range over the whole binding table, not
/// one morsel.
class DrainingFilterOp : public PhysicalOp {
 public:
  DrainingFilterOp(Matcher* rt, const PlanNode* plan, OpPtr child,
                   ExecStats* stats)
      : rt_(rt), plan_(plan), child_(std::move(child)), stats_(stats) {}

  Result<Morsels> Run() override {
    GCORE_ASSIGN_OR_RETURN(BindingTable table, Drain(child_.get()));
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t evals = rt_->inner_evals();
    const PathPropertyGraph* graph = nullptr;
    auto resolved = rt_->ResolveGraph(plan_->graph);
    if (resolved.ok()) graph = *resolved;
    GCORE_ASSIGN_OR_RETURN(
        BindingTable filtered,
        rt_->FilterByConjuncts(std::move(table), plan_->conjuncts, graph));
    if (stats_ != nullptr) {
      stats_->Record(plan_, filtered.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
      stats_->RecordInnerEvals(plan_, rt_->inner_evals() - evals);
    }
    return OneMorsel(std::move(filtered));
  }

 private:
  Matcher* rt_;
  const PlanNode* plan_;
  OpPtr child_;
  ExecStats* stats_;
};

/// Natural join (HashJoin) or OPTIONAL's left outer join (LeftOuterJoin)
/// of two subplans, both run by StreamingJoinProbe. The build side runs
/// first and is concatenated; the probe side's morsels are then probed
/// one by one, each freed once probed, so no probe-side copy is made.
class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(const PlanNode* plan, OpPtr left, OpPtr right, ExecStats* stats)
      : plan_(plan),
        left_(std::move(left)),
        right_(std::move(right)),
        stats_(stats) {}

  Result<Morsels> Run() override {
    // Orientation is fixed at *plan* time: provenance and schema always
    // follow the left side (canonical order), and a swap_build plan
    // builds over the left when statistics predicted the right side much
    // larger — the planner's build-side rule. Never a runtime size check,
    // so execution stays deterministic for a given plan. The streamed
    // result is pinned byte-identical to draining both sides and calling
    // TableJoin (swapped: with the inputs reversed, columns re-merged into
    // the canonical order) or, for ⟕, TableLeftOuterJoin: the planner
    // never swaps a LeftOuterJoin, so the main plan on the left is probed
    // and the OPTIONAL block built over.
    PhysicalOp* build_op = plan_->swap_build ? left_.get() : right_.get();
    PhysicalOp* probe_op = plan_->swap_build ? right_.get() : left_.get();
    GCORE_ASSIGN_OR_RETURN(BindingTable build, Drain(build_op));
    GCORE_ASSIGN_OR_RETURN(Morsels probe_side, probe_op->Run());
    // Own-work timing covers hash-table build, every probe and the final
    // merge — not the children.
    const auto t0 = std::chrono::steady_clock::now();
    StreamingJoinProbe probe(std::move(build), plan_->swap_build,
                             plan_->op == PlanOp::kLeftOuterJoin);
    for (auto& morsel : probe_side) {
      probe.Probe(morsel);
      morsel = BindingTable();
    }
    BindingTable joined = probe.Finish();
    if (stats_ != nullptr) {
      stats_->Record(plan_, joined.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
    }
    return OneMorsel(std::move(joined));
  }

 private:
  const PlanNode* plan_;
  OpPtr left_;
  OpPtr right_;
  ExecStats* stats_;
};

/// Final projection: the column slicing runs as a per-morsel stage below
/// (its morsels arrive here already slimmed, in input order); this
/// breaker merges them through a fused dedup sink, restoring set
/// semantics without a whole-table second pass.
class ProjectMergeOp : public PhysicalOp {
 public:
  ProjectMergeOp(const PlanNode* plan, OpPtr child, ExecStats* stats)
      : plan_(plan), child_(std::move(child)), stats_(stats) {}

  Result<Morsels> Run() override {
    GCORE_ASSIGN_OR_RETURN(Morsels morsels, child_->Run());
    // Own-work timing covers only the dedup-merge inserts.
    const auto t0 = std::chrono::steady_clock::now();
    BindingTable out = EmptyLike(morsels.front());
    RowDedupSink sink(&out);
    for (auto& morsel : morsels) {
      for (size_t r = 0; r < morsel.NumRows(); ++r) sink.InsertFrom(morsel, r);
      morsel = BindingTable();
    }
    if (stats_ != nullptr) {
      stats_->Record(plan_, out.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
    }
    return OneMorsel(std::move(out));
  }

 private:
  const PlanNode* plan_;
  OpPtr child_;
  ExecStats* stats_;
};

/// Appends a stage to `child` if it is already a pipeline (stage fusion:
/// one fan-out runs scan filters, expansions and projections of a segment
/// back-to-back per morsel); otherwise opens a new pipeline.
OpPtr FuseStage(OpPtr child, Stage stage, ExecContext exec) {
  auto* pipeline = dynamic_cast<PipelineOp*>(child.get());
  if (pipeline == nullptr) {
    auto fresh = std::make_unique<PipelineOp>(std::move(child), exec);
    pipeline = fresh.get();
    child = std::move(fresh);
  }
  pipeline->AddStage(std::move(stage));
  return child;
}

/// Shared stage state resolved once by Stage::prepare on the calling
/// thread (graph resolution may register table-as-graph entries in the
/// catalog; adjacency warm-up fills the Matcher cache) and read by every
/// morsel's stage run.
struct ResolvedGraph {
  const PathPropertyGraph* graph = nullptr;
};

/// Wraps a stage transform with actual-row and wall-time recording
/// against `plan` (per-morsel counts and times accumulate; stages may run
/// on ParallelFor's threads, which ExecStats tolerates — thread times sum,
/// so a parallel stage's actual_ms can exceed the query's wall clock). A stage
/// that is not thread-safe may evaluate correlated predicates; it runs
/// serially, so the growth of the runtime's inner-evaluation count across
/// the call is its own.
std::function<Result<BindingTable>(BindingTable)> Recorded(
    std::function<Result<BindingTable>(BindingTable)> fn, Matcher* rt,
    const PlanNode* plan, ExecStats* stats, bool thread_safe) {
  if (stats == nullptr) return fn;
  return [fn = std::move(fn), rt, plan, stats, thread_safe](
             BindingTable morsel) -> Result<BindingTable> {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t evals = thread_safe ? 0 : rt->inner_evals();
    GCORE_ASSIGN_OR_RETURN(BindingTable out, fn(std::move(morsel)));
    stats->Record(plan, out.NumRows());
    stats->RecordTime(plan, MsSince(t0));
    if (!thread_safe) stats->RecordInnerEvals(plan, rt->inner_evals() - evals);
    return out;
  };
}

Stage MakePushedFilterStage(Matcher* rt, const PlanNode* plan,
                            ExecStats* stats) {
  auto resolved = std::make_shared<ResolvedGraph>();
  Stage stage;
  stage.prepare = [rt, plan, resolved]() -> Status {
    GCORE_ASSIGN_OR_RETURN(resolved->graph, rt->ResolveGraph(plan->graph));
    return Status::OK();
  };
  stage.thread_safe = ExprsParallelSafe(plan->pushed);
  stage.fn = Recorded(
      [rt, plan, resolved](BindingTable morsel) {
        return rt->FilterByConjuncts(std::move(morsel), plan->pushed,
                                     resolved->graph);
      },
      rt, plan, stats, stage.thread_safe);
  return stage;
}

Stage MakeExpandEdgeStage(Matcher* rt, const PlanNode* plan,
                          ExecStats* stats) {
  auto resolved = std::make_shared<ResolvedGraph>();
  Stage stage;
  stage.prepare = [rt, plan, resolved]() -> Status {
    GCORE_ASSIGN_OR_RETURN(resolved->graph, rt->ResolveGraph(plan->graph));
    rt->Snapshot(*resolved->graph);  // warm the snapshot cache up front
    return Status::OK();
  };
  stage.thread_safe = ExprsParallelSafe(plan->pushed) &&
                      PropsParallelSafe(plan->edge->props) &&
                      PropsParallelSafe(plan->to->props);
  stage.fn = Recorded(
      [rt, plan, resolved](BindingTable morsel) -> Result<BindingTable> {
        GCORE_ASSIGN_OR_RETURN(
            BindingTable expanded,
            rt->ExpandEdgeHop(std::move(morsel), plan->from_var, *plan->edge,
                              plan->edge_labels, plan->edge_var, *plan->to,
                              plan->node_labels, plan->to_var,
                              *resolved->graph, resolved->graph->name()));
        return rt->FilterByConjuncts(std::move(expanded), plan->pushed,
                                     resolved->graph);
      },
      rt, plan, stats, stage.thread_safe);
  return stage;
}

/// MultiwayExpand: the worst-case-optimal cycle intersection (wcoj.h)
/// runs as a fused per-morsel stage exactly like ExpandEdge — every input
/// row expands independently, so the pipeline's per-morsel result slots
/// keep output deterministic at every degree.
Stage MakeMultiwayExpandStage(Matcher* rt, const PlanNode* plan,
                              ExecStats* stats) {
  auto resolved = std::make_shared<ResolvedGraph>();
  Stage stage;
  stage.prepare = [rt, plan, resolved]() -> Status {
    GCORE_ASSIGN_OR_RETURN(resolved->graph, rt->ResolveGraph(plan->graph));
    rt->Snapshot(*resolved->graph);  // warm the snapshot cache up front
    return Status::OK();
  };
  // The rewrite only absorbs literal-filter props (admission needs no row
  // context), so thread safety hinges on the pushed conjuncts alone.
  stage.thread_safe = ExprsParallelSafe(plan->pushed);
  stage.fn = Recorded(
      [rt, plan, resolved](BindingTable morsel) -> Result<BindingTable> {
        GCORE_ASSIGN_OR_RETURN(
            BindingTable expanded,
            MultiwayExpandChunk(rt, *plan, *resolved->graph,
                                resolved->graph->name(), morsel));
        return rt->FilterByConjuncts(std::move(expanded), plan->pushed,
                                     resolved->graph);
      },
      rt, plan, stats, stage.thread_safe);
  return stage;
}

Stage MakeResidualFilterStage(Matcher* rt, const PlanNode* plan,
                              ExecStats* stats) {
  auto resolved = std::make_shared<ResolvedGraph>();
  Stage stage;
  stage.prepare = [rt, plan, resolved]() -> Status {
    // The fallback graph for λ/σ lookups of provenance-less columns;
    // legitimately absent when every pattern carries its own ON.
    auto graph = rt->ResolveGraph(plan->graph);
    if (graph.ok()) resolved->graph = *graph;
    return Status::OK();
  };
  stage.thread_safe = ExprsParallelSafe(plan->conjuncts);
  stage.fn = Recorded(
      [rt, plan, resolved](BindingTable morsel) {
        return rt->FilterByConjuncts(std::move(morsel), plan->conjuncts,
                                     resolved->graph);
      },
      rt, plan, stats, stage.thread_safe);
  return stage;
}

Stage MakeProjectStage(Matcher* rt, const PlanNode* plan) {
  Stage stage;
  stage.fn = [rt, plan](BindingTable morsel) -> Result<BindingTable> {
    return rt->ProjectChunk(morsel, &plan->output);
  };
  stage.thread_safe = true;
  return stage;
}

/// Builds the operator tree for `plan`, fusing stateless operators into
/// the pipeline below them.
Result<OpPtr> Build(const PlanNode& plan, Matcher* rt, ExecContext exec,
                    ExecStats* stats) {
  auto build_child = [&](size_t i) {
    return Build(*plan.children[i], rt, exec, stats);
  };
  switch (plan.op) {
    case PlanOp::kNodeScan: {
      OpPtr scan(new NodeScanOp(rt, &plan, stats));
      if (plan.pushed.empty()) return scan;
      return FuseStage(std::move(scan), MakePushedFilterStage(rt, &plan, stats),
                       exec);
    }
    case PlanOp::kExpandEdge: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, build_child(0));
      return FuseStage(std::move(child), MakeExpandEdgeStage(rt, &plan, stats),
                       exec);
    }
    case PlanOp::kMultiwayExpand: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, build_child(0));
      return FuseStage(std::move(child),
                       MakeMultiwayExpandStage(rt, &plan, stats), exec);
    }
    case PlanOp::kPathSearch: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, build_child(0));
      return OpPtr(new PathSearchOp(rt, &plan, std::move(child), stats));
    }
    case PlanOp::kFilter: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, build_child(0));
      if (std::any_of(plan.conjuncts.begin(), plan.conjuncts.end(),
                      [](const Expr* c) { return c->ContainsAggregate(); })) {
        return OpPtr(
            new DrainingFilterOp(rt, &plan, std::move(child), stats));
      }
      return FuseStage(std::move(child),
                       MakeResidualFilterStage(rt, &plan, stats), exec);
    }
    case PlanOp::kHashJoin:
    case PlanOp::kLeftOuterJoin: {
      GCORE_ASSIGN_OR_RETURN(OpPtr left, build_child(0));
      GCORE_ASSIGN_OR_RETURN(OpPtr right, build_child(1));
      return OpPtr(
          new HashJoinOp(&plan, std::move(left), std::move(right), stats));
    }
    case PlanOp::kProject: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, build_child(0));
      OpPtr sliced =
          FuseStage(std::move(child), MakeProjectStage(rt, &plan), exec);
      return OpPtr(new ProjectMergeOp(&plan, std::move(sliced), stats));
    }
    case PlanOp::kGraphUnion:
    case PlanOp::kGraphIntersect:
    case PlanOp::kGraphMinus:
      return Status::EvaluationError(
          std::string(PlanOpName(plan.op)) +
          " is a graph-level operator; the engine combines basic-query "
          "results above the binding pipeline");
  }
  return Status::EvaluationError("unhandled plan operator");
}

}  // namespace

Executor::Executor(Matcher* runtime, ExecContext exec, ExecStats* stats)
    : runtime_(runtime), exec_(exec), stats_(stats) {}

Result<BindingTable> Executor::Run(const PlanNode& plan) {
  GCORE_ASSIGN_OR_RETURN(OpPtr root, Build(plan, runtime_, exec_, stats_));
  return Drain(root.get());
}

}  // namespace gcore
