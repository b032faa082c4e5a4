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
/// output construction (one seen set over the output rows) — the result
/// is a set without a second pass.
BindingTable TableUnion(const BindingTable& a, const BindingTable& b);

/// Ω1 ⋈ Ω2: one output row µ1 ∪ µ2 per compatible pair. Dedup is fused
/// into output construction: each merged row is hashed once, while hot,
/// and appended only if new — duplicates are never materialized and no
/// trailing whole-table rehash is needed.
BindingTable TableJoin(const BindingTable& a, const BindingTable& b);

/// Streaming probe side of Ω1 ⋈ Ω2 — the one hash-join kernel every
/// HashJoin and LeftOuterJoin operator runs: the build table is indexed
/// once up front, then probe chunks are pushed in arrival order, so the
/// join never drains its probe input and probing overlaps the upstream
/// pipeline that is still producing it. Dedup state spans chunks, so the
/// result is pinned byte-identical (rows *and* order) to draining the
/// probe side and calling TableJoin(probe, build).
///
/// With `swap_output`, Finish() re-merges the probe-first columns into
/// the canonical build-first schema of TableJoin(build, probe): the
/// planner requests this (PlanNode::swap_build) when statistics predict
/// the right join input dwarfs the left, so the left is built over and
/// the right probed, and only row order (probe order) differs from the
/// unswapped join.
///
/// With `left_outer` (exclusive with `swap_output`), the probe side is
/// Ω1 and the build side Ω2 of Ω1 ⟕ Ω2: every probe row that finds no
/// compatible build row is kept, and Finish() appends those rows, in
/// arrival order, after the joined ones with the build side's extra
/// columns unbound — byte-identical to TableLeftOuterJoin(probe, build).
class StreamingJoinProbe {
 public:
  StreamingJoinProbe(BindingTable build, bool swap_output,
                     bool left_outer = false);
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

/// Ω1 ⟕ Ω2, composed literally as (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2): the executable
/// spec the streaming probe's left-outer mode is pinned to.
BindingTable TableLeftOuterJoin(const BindingTable& a, const BindingTable& b);

}  // namespace gcore

#endif  // GCORE_EVAL_BINDING_OPS_H_
