#include "plan/executor.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "eval/binding_ops.h"
#include "eval/matcher.h"
#include "plan/wcoj.h"

namespace gcore {

size_t ExecContext::Degree() const {
  if (parallelism > 0) return parallelism;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

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

using OpPtr = std::unique_ptr<PhysicalOp>;
using Chunk = std::optional<BindingTable>;

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

/// Lifts a table result into the chunk protocol (Result's implicit
/// conversions do not chain through std::optional).
Result<Chunk> AsChunk(Result<BindingTable> result) {
  if (!result.ok()) return result.status();
  return Chunk(std::move(result).value());
}

Result<Chunk> Exhausted() { return Chunk(); }

/// Pulls every chunk of `op` into one table. Chunks of one operator share
/// a schema (and column provenance), so columns concatenate directly
/// (bulk range appends, no row walks).
Result<BindingTable> Drain(PhysicalOp* op) {
  BindingTable out;
  bool first = true;
  while (true) {
    GCORE_ASSIGN_OR_RETURN(std::optional<BindingTable> chunk, op->Next());
    if (!chunk.has_value()) break;
    if (first) {
      out = std::move(*chunk);
      first = false;
      continue;
    }
    out.AppendTable(*chunk);
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
void SplitIntoMorsels(BindingTable chunk, size_t morsel_rows,
                      std::deque<BindingTable>* out) {
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
/// coordinator thread (graph resolution, adjacency warm-up — anything
/// that mutates shared runtime state); `fn` transforms one morsel and,
/// when `thread_safe`, may run concurrently on worker threads.
struct Stage {
  std::function<Status()> prepare;
  std::function<Result<BindingTable>(BindingTable)> fn;
  bool thread_safe = true;
};

/// Morsel-parallel pipeline segment: pulls chunks from `child`, re-slices
/// them into morsels, applies the fused stages to each morsel and emits
/// results in input order (deterministic at every parallelism degree).
/// With parallelism 1 — or when any stage's expressions could re-enter
/// the runtime (EXISTS, pattern predicates) — everything runs serially
/// on the calling thread, which is exactly the pre-morsel behavior.
class PipelineOp : public PhysicalOp {
 public:
  PipelineOp(OpPtr child, ExecContext exec)
      : child_(std::move(child)), exec_(exec) {}

  ~PipelineOp() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      abort_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void AddStage(Stage stage) { stages_.push_back(std::move(stage)); }

  Result<Chunk> Next() override {
    if (!started_) {
      started_ = true;
      for (auto& stage : stages_) {
        if (stage.prepare) GCORE_RETURN_NOT_OK(stage.prepare());
      }
      bool safe = !stages_.empty();
      for (const auto& stage : stages_) safe = safe && stage.thread_safe;
      if (safe && exec_.Degree() > 1) StartWorkers();
    }
    return workers_.empty() ? SerialNext() : ParallelNext();
  }

 private:
  Result<BindingTable> ApplyStages(BindingTable morsel) {
    for (const auto& stage : stages_) {
      GCORE_ASSIGN_OR_RETURN(morsel, stage.fn(std::move(morsel)));
    }
    return morsel;
  }

  Result<Chunk> SerialNext() {
    while (true) {
      if (!pending_.empty()) {
        BindingTable morsel = std::move(pending_.front());
        pending_.pop_front();
        return AsChunk(ApplyStages(std::move(morsel)));
      }
      GCORE_ASSIGN_OR_RETURN(Chunk chunk, child_->Next());
      if (!chunk.has_value()) return Exhausted();
      SplitIntoMorsels(std::move(*chunk), exec_.MorselRows(), &pending_);
    }
  }

  void StartWorkers() {
    // Loop over a local bound: a fast worker may drain the whole source
    // and decrement active_workers_ before the next thread is spawned.
    const size_t degree = exec_.Degree();
    {
      std::lock_guard<std::mutex> lk(mu_);
      active_workers_ = degree;
    }
    workers_.reserve(degree);
    for (size_t t = 0; t < degree; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Workers pull the (serial) child under the pipeline mutex, transform
  /// morsels unlocked, and deposit results keyed by sequence number.
  void WorkerLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      if (abort_) break;
      if (pending_.empty()) {
        if (source_done_) break;
        auto chunk = child_->Next();
        if (!chunk.ok()) {
          error_ = chunk.status();
          abort_ = true;
          break;
        }
        if (!chunk->has_value()) {
          source_done_ = true;
          break;
        }
        SplitIntoMorsels(std::move(**chunk), exec_.MorselRows(), &pending_);
        continue;
      }
      BindingTable morsel = std::move(pending_.front());
      pending_.pop_front();
      const size_t seq = next_seq_++;
      lk.unlock();
      auto result = ApplyStages(std::move(morsel));
      lk.lock();
      if (!result.ok()) {
        if (error_.ok()) error_ = result.status();
        abort_ = true;
      } else {
        done_.emplace(seq, std::move(*result));
      }
      cv_.notify_all();
    }
    --active_workers_;
    cv_.notify_all();
  }

  Result<Chunk> ParallelNext() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] {
      return abort_ || done_.count(emit_seq_) > 0 ||
             (active_workers_ == 0 && emit_seq_ >= next_seq_);
    });
    if (abort_) return error_.ok() ? Status::EvaluationError(
                                         "pipeline aborted")
                                   : error_;
    auto it = done_.find(emit_seq_);
    if (it == done_.end()) return Exhausted();
    BindingTable chunk = std::move(it->second);
    done_.erase(it);
    ++emit_seq_;
    return Chunk(std::move(chunk));
  }

  OpPtr child_;
  ExecContext exec_;
  std::vector<Stage> stages_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BindingTable> pending_;
  std::map<size_t, BindingTable> done_;
  std::vector<std::thread> workers_;
  size_t active_workers_ = 0;
  size_t next_seq_ = 0;
  size_t emit_seq_ = 0;
  bool source_done_ = false;
  bool abort_ = false;
  Status error_ = Status::OK();
};

/// NodeScan: all admitted nodes of the operator's graph, emitted as
/// fixed-size morsels. Pushed predicates run as a pipeline stage above
/// (which then owns the operator's actual-row recording — est_rows of a
/// scan includes its pushed conjuncts, so actual_rows must too).
class NodeScanOp : public PhysicalOp {
 public:
  NodeScanOp(Matcher* rt, const PlanNode* plan, ExecContext exec,
             ExecStats* stats)
      : rt_(rt), plan_(plan), exec_(exec), stats_(stats) {}

  Result<std::optional<BindingTable>> Next() override {
    const auto t0 = std::chrono::steady_clock::now();
    if (!started_) {
      started_ = true;
      GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* graph,
                             rt_->ResolveGraph(plan_->graph));
      GCORE_ASSIGN_OR_RETURN(
          table_,
          rt_->MatchStartNode(*plan_->node, *graph, graph->name(),
                              plan_->var));
      offset_ = 0;
      if (table_.Empty()) {
        emitted_empty_ = true;
        return Emit(std::move(table_), t0);
      }
    }
    if (emitted_empty_ || offset_ >= table_.NumRows()) return Exhausted();
    const size_t morsel = exec_.MorselRows();
    if (offset_ == 0 && table_.NumRows() <= morsel) {
      offset_ = table_.NumRows();
      return Emit(std::move(table_), t0);
    }
    const size_t hi = std::min(table_.NumRows(), offset_ + morsel);
    BindingTable chunk = table_.Slice(offset_, hi);
    offset_ = hi;
    return Emit(std::move(chunk), t0);
  }

 private:
  Result<Chunk> Emit(BindingTable chunk,
                     std::chrono::steady_clock::time_point t0) {
    if (stats_ != nullptr && plan_->pushed.empty()) {
      stats_->Record(plan_, chunk.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
    }
    return Chunk(std::move(chunk));
  }

  Matcher* rt_;
  const PlanNode* plan_;
  ExecContext exec_;
  ExecStats* stats_;
  BindingTable table_;
  size_t offset_ = 0;
  bool started_ = false;
  bool emitted_empty_ = false;
};

/// PathSearch: one path hop (stored / SHORTEST / ALL / reachability) per
/// pulled chunk. A breaker: the child's chunks arrive at morsel
/// granularity, but the batched path kernels inside ExpandPathHop want
/// the whole source set at once — one multi-source wave / batched
/// k-shortest launch instead of N independent traversals — so the op
/// drains its input (as HashJoin does) and expands it in a single
/// internally-parallel call. Rows, row order and fresh path ids match
/// per-row serial evaluation at every degree: the kernels are
/// degree-invariant and the matcher draws ids in row-emission order,
/// which made the old per-morsel temp-id remap machinery obsolete.
class PathSearchOp : public PhysicalOp {
 public:
  PathSearchOp(Matcher* rt, const PlanNode* plan, OpPtr child,
               ExecContext exec, ExecStats* stats)
      : rt_(rt),
        plan_(plan),
        child_(std::move(child)),
        exec_(exec),
        stats_(stats) {}

  Result<std::optional<BindingTable>> Next() override {
    if (done_) return Exhausted();
    done_ = true;
    GCORE_ASSIGN_OR_RETURN(BindingTable input, Drain(child_.get()));
    // Own-work timing starts after the child is drained: actual_ms is
    // this operator's search + filter time, not its input's.
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t evals = rt_->inner_evals();
    GCORE_ASSIGN_OR_RETURN(const PathPropertyGraph* graph,
                           rt_->ResolveGraph(plan_->graph));
    GCORE_ASSIGN_OR_RETURN(
        BindingTable expanded,
        rt_->ExpandPathHop(std::move(input), plan_->from_var, *plan_->path,
                           plan_->path_var, *plan_->to, plan_->to_var, *graph,
                           graph->name()));
    GCORE_ASSIGN_OR_RETURN(
        BindingTable filtered,
        rt_->FilterByConjuncts(std::move(expanded), plan_->pushed, graph));
    if (stats_ != nullptr) {
      stats_->Record(plan_, filtered.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
      stats_->RecordInnerEvals(plan_, rt_->inner_evals() - evals);
    }
    return Chunk(std::move(filtered));
  }

 private:
  Matcher* rt_;
  const PlanNode* plan_;
  OpPtr child_;
  ExecContext exec_;
  ExecStats* stats_;
  bool done_ = false;
};

/// Residual WHERE filter over aggregate-bearing predicates: a pipeline
/// breaker, because aggregates range over the whole binding table, not
/// one morsel.
class DrainingFilterOp : public PhysicalOp {
 public:
  DrainingFilterOp(Matcher* rt, const PlanNode* plan, OpPtr child,
                   ExecStats* stats)
      : rt_(rt), plan_(plan), child_(std::move(child)), stats_(stats) {}

  Result<std::optional<BindingTable>> Next() override {
    if (done_) return Exhausted();
    done_ = true;
    GCORE_ASSIGN_OR_RETURN(BindingTable table, Drain(child_.get()));
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t evals = rt_->inner_evals();
    const PathPropertyGraph* graph = nullptr;
    auto resolved = rt_->ResolveGraph(plan_->graph);
    if (resolved.ok()) graph = *resolved;
    GCORE_ASSIGN_OR_RETURN(
        BindingTable filtered,
        rt_->FilterByConjuncts(std::move(table), {plan_->predicate}, graph));
    if (stats_ != nullptr) {
      stats_->Record(plan_, filtered.NumRows());
      stats_->RecordTime(plan_, MsSince(t0));
      stats_->RecordInnerEvals(plan_, rt_->inner_evals() - evals);
    }
    return Chunk(std::move(filtered));
  }

 private:
  Matcher* rt_;
  const PlanNode* plan_;
  OpPtr child_;
  ExecStats* stats_;
  bool done_ = false;
};

/// Natural join (HashJoin) or OPTIONAL's left outer join (LeftOuterJoin)
/// of two subplans, both run by StreamingJoinProbe. Only the build side
/// is drained; the probe side's chunks are joined as they arrive, so
/// probing overlaps whatever pipeline is still producing them.
class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(const PlanNode* plan, OpPtr left, OpPtr right, ExecStats* stats)
      : plan_(plan),
        left_(std::move(left)),
        right_(std::move(right)),
        stats_(stats) {}

  Result<std::optional<BindingTable>> Next() override {
    if (done_) return Exhausted();
    done_ = true;
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
    // Own-work timing covers hash-table build, every probe and the final
    // merge — but not the probe child's Next() calls in between.
    double own_ms = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    StreamingJoinProbe probe(std::move(build), plan_->swap_build,
                             plan_->op == PlanOp::kLeftOuterJoin);
    own_ms += MsSince(t0);
    while (true) {
      GCORE_ASSIGN_OR_RETURN(std::optional<BindingTable> chunk,
                             probe_op->Next());
      if (!chunk.has_value()) break;
      t0 = std::chrono::steady_clock::now();
      probe.Probe(*chunk);
      own_ms += MsSince(t0);
    }
    t0 = std::chrono::steady_clock::now();
    BindingTable joined = probe.Finish();
    own_ms += MsSince(t0);
    if (stats_ != nullptr) {
      stats_->Record(plan_, joined.NumRows());
      stats_->RecordTime(plan_, own_ms);
    }
    return Chunk(std::move(joined));
  }

 private:
  const PlanNode* plan_;
  OpPtr left_;
  OpPtr right_;
  ExecStats* stats_;
  bool done_ = false;
};

/// Final projection: the column slicing runs as a per-morsel stage below
/// (its chunks arrive here already slimmed, in input order); this breaker
/// merges them through a fused dedup sink, restoring set semantics
/// without a whole-table second pass.
class ProjectMergeOp : public PhysicalOp {
 public:
  ProjectMergeOp(const PlanNode* plan, OpPtr child, ExecStats* stats)
      : plan_(plan), child_(std::move(child)), stats_(stats) {}

  Result<std::optional<BindingTable>> Next() override {
    if (done_) return Exhausted();
    done_ = true;
    BindingTable out;
    std::unique_ptr<RowDedupSink> sink;
    // Own-work timing covers only the dedup-merge inserts, not the
    // child's chunk production between them.
    double own_ms = 0.0;
    while (true) {
      GCORE_ASSIGN_OR_RETURN(Chunk chunk, child_->Next());
      if (!chunk.has_value()) break;
      const auto t0 = std::chrono::steady_clock::now();
      if (sink == nullptr) {
        out = EmptyLike(*chunk);
        sink = std::make_unique<RowDedupSink>(&out);
      }
      for (size_t r = 0; r < chunk->NumRows(); ++r) {
        sink->InsertFrom(*chunk, r);
      }
      own_ms += MsSince(t0);
    }
    if (stats_ != nullptr) {
      stats_->Record(plan_, out.NumRows());
      stats_->RecordTime(plan_, own_ms);
    }
    return Chunk(std::move(out));
  }

 private:
  const PlanNode* plan_;
  OpPtr child_;
  ExecStats* stats_;
  bool done_ = false;
};

}  // namespace

Executor::Executor(Matcher* runtime, ExecContext exec, ExecStats* stats)
    : runtime_(runtime), exec_(exec), stats_(stats) {}

namespace {

/// Appends a stage to `child` if it is already a pipeline (stage fusion:
/// one worker pool runs scan filters, expansions and projections of a
/// segment back-to-back per morsel); otherwise opens a new pipeline.
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

/// Shared stage state resolved once by Stage::prepare on the coordinator
/// (graph resolution may register table-as-graph entries in the catalog;
/// adjacency warm-up fills the Matcher cache) and read by workers.
struct ResolvedGraph {
  const PathPropertyGraph* graph = nullptr;
};

/// Wraps a stage transform with actual-row and wall-time recording
/// against `plan` (per-morsel counts and times accumulate; stages may run
/// on worker threads, which ExecStats tolerates — worker times sum, so a
/// parallel stage's actual_ms can exceed the query's wall clock). A stage
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
    rt->Snapshot(*resolved->graph);  // warm the snapshot cache off the workers
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
                              plan->edge_var, *plan->to, plan->to_var,
                              *resolved->graph, resolved->graph->name()));
        return rt->FilterByConjuncts(std::move(expanded), plan->pushed,
                                     resolved->graph);
      },
      rt, plan, stats, stage.thread_safe);
  return stage;
}

/// MultiwayExpand: the worst-case-optimal cycle intersection (wcoj.h)
/// runs as a fused per-morsel stage exactly like ExpandEdge — every input
/// row expands independently, so the morsel protocol's ordered
/// reassembly keeps output deterministic at every degree.
Stage MakeMultiwayExpandStage(Matcher* rt, const PlanNode* plan,
                              ExecStats* stats) {
  auto resolved = std::make_shared<ResolvedGraph>();
  Stage stage;
  stage.prepare = [rt, plan, resolved]() -> Status {
    GCORE_ASSIGN_OR_RETURN(resolved->graph, rt->ResolveGraph(plan->graph));
    rt->Snapshot(*resolved->graph);  // warm the snapshot cache off the workers
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
  stage.thread_safe = ExprParallelSafe(*plan->predicate);
  stage.fn = Recorded(
      [rt, plan, resolved](BindingTable morsel) {
        return rt->FilterByConjuncts(std::move(morsel), {plan->predicate},
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

}  // namespace

Result<std::unique_ptr<PhysicalOp>> Executor::Build(const PlanNode& plan) {
  switch (plan.op) {
    case PlanOp::kNodeScan: {
      OpPtr scan(new NodeScanOp(runtime_, &plan, exec_, stats_));
      if (plan.pushed.empty()) return scan;
      return FuseStage(std::move(scan),
                       MakePushedFilterStage(runtime_, &plan, stats_),
                       exec_);
    }
    case PlanOp::kExpandEdge: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, Build(*plan.children[0]));
      return FuseStage(std::move(child),
                       MakeExpandEdgeStage(runtime_, &plan, stats_), exec_);
    }
    case PlanOp::kMultiwayExpand: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, Build(*plan.children[0]));
      return FuseStage(std::move(child),
                       MakeMultiwayExpandStage(runtime_, &plan, stats_),
                       exec_);
    }
    case PlanOp::kPathSearch: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, Build(*plan.children[0]));
      return OpPtr(
          new PathSearchOp(runtime_, &plan, std::move(child), exec_,
                           stats_));
    }
    case PlanOp::kFilter: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, Build(*plan.children[0]));
      if (plan.predicate->ContainsAggregate()) {
        return OpPtr(new DrainingFilterOp(runtime_, &plan, std::move(child),
                                          stats_));
      }
      return FuseStage(std::move(child),
                       MakeResidualFilterStage(runtime_, &plan, stats_),
                       exec_);
    }
    case PlanOp::kHashJoin:
    case PlanOp::kLeftOuterJoin: {
      GCORE_ASSIGN_OR_RETURN(OpPtr left, Build(*plan.children[0]));
      GCORE_ASSIGN_OR_RETURN(OpPtr right, Build(*plan.children[1]));
      return OpPtr(
          new HashJoinOp(&plan, std::move(left), std::move(right), stats_));
    }
    case PlanOp::kProject: {
      GCORE_ASSIGN_OR_RETURN(OpPtr child, Build(*plan.children[0]));
      OpPtr sliced = FuseStage(std::move(child),
                               MakeProjectStage(runtime_, &plan), exec_);
      return OpPtr(new ProjectMergeOp(&plan, std::move(sliced), stats_));
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

Result<BindingTable> Executor::Run(const PlanNode& plan) {
  GCORE_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalOp> root, Build(plan));
  return Drain(root.get());
}

}  // namespace gcore
