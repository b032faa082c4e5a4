// The physical operator pipeline: runs an optimized logical plan against
// the Matcher runtime, producing the existing BindingTable.
//
// Operator-at-a-time execution over morsels: every operator evaluates its
// children, then its own work, into an ordered list of morsel tables.
// The stateless operators between pipeline breakers (pushed filters,
// edge expansion, residual WHERE, projection) are fused into per-morsel
// stages that a pipeline runs over its input's morsels with ParallelFor
// (paths/frontier.h), each result in its morsel's slot, so execution is
// deterministic at every parallelism degree, a query never holds more
// than `degree` threads, and a failing pipeline reports the error serial
// evaluation reports. HashJoin and LeftOuterJoin concatenate their build
// side and probe the probe side's morsels one by one through one
// hash-join kernel with fused duplicate elimination (StreamingJoinProbe,
// eval/binding_ops.h); they, PathSearch and the final Project are the
// pipeline breakers.
#ifndef GCORE_PLAN_EXECUTOR_H_
#define GCORE_PLAN_EXECUTOR_H_

#include <cstddef>
#include <map>
#include <mutex>

#include "common/result.h"
#include "eval/binding.h"
#include "plan/plan.h"

namespace gcore {

class Matcher;

/// Per-operator actual row counts, collected while a plan executes
/// (EXPLAIN ANALYZE). Operators record the rows they output (fused
/// stages: per morsel) against their PlanNode; counts accumulate, and
/// recording is thread-safe because fused stages run on ParallelFor's
/// threads. Attribution matches the estimator's: an operator's
/// count includes its pushed-down conjuncts, exactly what est_rows
/// predicts for it.
class ExecStats {
 public:
  /// Adds `rows` to the count of `node`. Thread-safe.
  void Record(const PlanNode* node, size_t rows);

  /// Adds `ms` of measured operator work time to `node`. Thread-safe;
  /// per-morsel slices accumulate, and parallel stages accumulate across
  /// workers (so a stage's total can exceed the query's wall clock).
  void RecordTime(const PlanNode* node, double ms);

  /// Adds `n` inner-relation evaluations of correlated predicates
  /// (EXISTS, pattern predicates) run by `node`'s work. Thread-safe.
  void RecordInnerEvals(const PlanNode* node, uint64_t n);

  /// Rows recorded for `node`; negative when it never executed.
  int64_t Rows(const PlanNode* node) const;

  /// Milliseconds recorded for `node`; negative when it was never timed.
  double TimeMs(const PlanNode* node) const;

  /// Inner evaluations recorded for `node` (0 when none).
  uint64_t InnerEvals(const PlanNode* node) const;

  /// Copies the recorded counts and times into PlanNode::actual_rows /
  /// actual_ms / inner_evals over `plan`'s subtree (operators that never
  /// ran stay at -1, so EXPLAIN ANALYZE renders them estimate-only).
  void AnnotateActuals(PlanNode* plan) const;

 private:
  mutable std::mutex mu_;
  std::map<const PlanNode*, uint64_t> rows_;
  std::map<const PlanNode*, double> ms_;
  std::map<const PlanNode*, uint64_t> inner_evals_;
};

/// Execution-wide knobs of the physical pipeline.
struct ExecContext {
  /// Threads a pipeline fans its morsels out to (ResolveParallelism:
  /// 0 = one per hardware thread); 1 = serial execution (the
  /// differential-test mode — morsel boundaries still exist but
  /// everything runs on the calling thread in input order).
  size_t parallelism = 0;
  /// Rows per morsel: pipelines slice their input at this granularity.
  /// 0 = the default.
  size_t morsel_size = 0;

  static constexpr size_t kDefaultMorselRows = 1024;

  /// Resolved morsel size (>= 1).
  size_t MorselRows() const {
    return morsel_size == 0 ? kDefaultMorselRows : morsel_size;
  }
};

class Executor {
 public:
  /// `runtime` supplies graph resolution, adjacency caches and the
  /// pattern-element primitives; it must outlive the execution. A
  /// non-null `stats` instruments every operator with actual-row
  /// recording (EXPLAIN ANALYZE); it must outlive the pipeline.
  explicit Executor(Matcher* runtime, ExecContext exec = ExecContext(),
                    ExecStats* stats = nullptr);

  /// Builds the operator pipeline for `plan` and runs it.
  Result<BindingTable> Run(const PlanNode& plan);

 private:
  Matcher* runtime_;
  ExecContext exec_;
  ExecStats* stats_;
};

/// True when evaluating `expr` never re-enters the Matcher runtime:
/// EXISTS subqueries, implicit pattern predicates and aggregates are the
/// re-entrant (or whole-table) constructs. Stages whose expressions are
/// all parallel-safe may run on ParallelFor's threads.
bool ExprParallelSafe(const Expr& expr);

}  // namespace gcore

#endif  // GCORE_PLAN_EXECUTOR_H_
