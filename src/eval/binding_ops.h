// The binding-set algebra of Appendix A.1:
//
//   Ω1 ∪ Ω2   union
//   Ω1 ⋈ Ω2   natural join over compatible bindings
//   Ω1 ⋉ Ω2   semijoin (filter Ω1 by compatibility with Ω2)
//   Ω1 ∖ Ω2   anti-semijoin
//   Ω1 ⟕ Ω2   left outer join = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2)
//
// Compatibility: µ1 ∼ µ2 iff they agree on every variable bound in both.
// An unbound entry (variable outside dom(µ)) is compatible with anything.
#ifndef GCORE_EVAL_BINDING_OPS_H_
#define GCORE_EVAL_BINDING_OPS_H_

#include <memory>

#include "eval/binding.h"

namespace gcore {

/// Ω1 ∪ Ω2 over the merged schema. Duplicate elimination is fused into
/// output construction (RowDedupSink) — the result is a set without a
/// second pass.
BindingTable TableUnion(const BindingTable& a, const BindingTable& b);

/// Ω1 ⋈ Ω2: one output row µ1 ∪ µ2 per compatible pair. Dedup is fused
/// into output construction: each merged row is hashed once, while hot,
/// and appended only if new — duplicates are never materialized and no
/// trailing whole-table rehash is needed.
BindingTable TableJoin(const BindingTable& a, const BindingTable& b);

/// Ω1 ⋈ Ω2 with a hash-partitioned build and a morsel-parallel probe:
/// build rows are partitioned by shared-column hash, probe morsels run
/// on `parallelism` worker threads each with its own seen-set, and the
/// per-morsel fragments are merged in probe order re-using the hashes
/// computed by the workers. Output rows *and their order* are identical
/// to TableJoin for every parallelism value (falls back to the serial
/// fused path for small inputs, parallelism <= 1, or probe rows with
/// unbound shared columns, whose candidate enumeration order is
/// index-dependent). `morsel_rows` sets the probe-morsel granularity
/// (0 = default; the executor threads ExecContext::morsel_size through
/// so tests can force the partitioned path on tiny inputs).
BindingTable TableJoinParallel(const BindingTable& a, const BindingTable& b,
                               size_t parallelism, size_t morsel_rows = 0);

/// Streaming probe side of Ω1 ⋈ Ω2: the build table is indexed once up
/// front, then probe chunks are pushed in arrival order — the hash join
/// no longer drains its probe input, so probing overlaps the upstream
/// pipeline that is still producing it. Dedup state spans chunks, so the
/// result is pinned byte-identical (rows *and* order) to draining the
/// probe side and calling TableJoinParallel(probe, build). With
/// `swap_output`, Finish() re-merges the probe-first columns into the
/// canonical build-first schema of TableJoin(build, probe): the planner
/// requests this (PlanNode::swap_build) when statistics predict the
/// right join input dwarfs the left, so the left is built over and the
/// right probed, and only row order (probe order) differs from the
/// unswapped join.
class StreamingJoinProbe {
 public:
  StreamingJoinProbe(BindingTable build, bool swap_output);
  ~StreamingJoinProbe();
  StreamingJoinProbe(const StreamingJoinProbe&) = delete;
  StreamingJoinProbe& operator=(const StreamingJoinProbe&) = delete;

  /// Joins one probe chunk against the build table. All chunks must share
  /// one schema (they come from one operator); the first chunk fixes the
  /// output schema exactly as draining would.
  void Probe(const BindingTable& chunk);
  /// The joined table. No chunks pushed behaves as an empty probe input.
  BindingTable Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2) with a morsel-parallel probe that
/// computes both sides in one pass (rows matching nothing during the
/// join probe are exactly the ∖ side) — OPTIONAL blocks stop serializing
/// the pipeline. Byte-identical to TableLeftOuterJoin at every
/// parallelism.
BindingTable TableLeftOuterJoinParallel(const BindingTable& a,
                                        const BindingTable& b,
                                        size_t parallelism,
                                        size_t morsel_rows = 0);

/// Reusable probe side of Ω ⋉ Ω2: `inner` (Ω2) is hash-indexed once on
/// the columns it shares with `outer_schema` (only its column names are
/// read), then each outer row is answered by one bucket lookup plus
/// compatibility checks of the candidates. Any(outer, row) is exactly
/// !TableSemijoin({row}, inner).Empty(); with no shared columns it is
/// !inner.Empty() on every row. `inner` must outlive the probe and stay
/// unmodified.
class SemijoinProbe {
 public:
  SemijoinProbe(const BindingTable& outer_schema, const BindingTable& inner);
  ~SemijoinProbe();
  SemijoinProbe(SemijoinProbe&&) noexcept;
  SemijoinProbe& operator=(SemijoinProbe&&) noexcept;

  /// True when some inner row is compatible with row `row` of `outer`,
  /// whose columns must be outer_columns().
  bool Any(const BindingTable& outer, size_t row) const;
  /// The outer schema the index was built for.
  const std::vector<std::string>& outer_columns() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Ω1 ⋉ Ω2: rows of Ω1 with at least one compatible row in Ω2.
BindingTable TableSemijoin(const BindingTable& a, const BindingTable& b);

/// Ω1 ∖ Ω2: rows of Ω1 with no compatible row in Ω2.
BindingTable TableAntijoin(const BindingTable& a, const BindingTable& b);

/// Ω1 ⟕ Ω2.
BindingTable TableLeftOuterJoin(const BindingTable& a, const BindingTable& b);

}  // namespace gcore

#endif  // GCORE_EVAL_BINDING_OPS_H_
