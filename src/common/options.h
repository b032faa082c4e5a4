// The engine's evaluation knobs, extracted into one value type.
//
// One EngineOptions instance travels the whole pipeline: QueryEngine
// stores its defaults, QuerySession freezes a copy at session creation
// (so concurrent sessions can never race knob mutation), MatcherContext
// and PlannerOptions inherit the struct (the fields below *are* their
// fields — no copy-by-hand forwarding), and Fingerprint() keys the plan
// cache so sessions with different knobs never share a cached plan.
//
// Three booleans (use_planner and the two optimizer rules) span an
// 8-point configuration lattice; join enumeration and the statistics-
// backed cost model are not knobs — every plan uses them.
#ifndef GCORE_COMMON_OPTIONS_H_
#define GCORE_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace gcore {

struct EngineOptions {
  /// Evaluate through the fast paths (default). Off is the spec mode of
  /// every layer, kept for differential tests: the pre-planner recursive
  /// tree-walk for MATCH (the executable spec of Appendix A.2), the
  /// row-at-a-time ExprEvaluator for every filter and projection, and the
  /// row-at-a-time constructor for CONSTRUCT.
  bool use_planner = true;
  /// Optimizer rule: selection pushdown of single-variable WHERE
  /// conjuncts into chain evaluation.
  bool enable_pushdown = true;
  /// Optimizer rule: cyclic patterns → MultiwayExpand worst-case-optimal
  /// intersection when its estimated C_out beats the binary plan's.
  /// Requires usable statistics.
  bool enable_multiway = true;
  /// Morsel-parallel execution degree: 0 = one worker per hardware
  /// thread, 1 = serial (the differential-test mode).
  size_t parallelism = 0;
  /// Rows per executor morsel; 0 = the ExecContext default.
  size_t morsel_size = 0;

  /// Stable fingerprint of every knob, a component of the plan-cache key:
  /// two option sets fingerprint equal iff a plan built under one is the
  /// plan the other would build (and annotate) too.
  uint64_t Fingerprint() const {
    uint64_t f = 0;
    f |= static_cast<uint64_t>(use_planner) << 0;
    f |= static_cast<uint64_t>(enable_pushdown) << 1;
    f |= static_cast<uint64_t>(enable_multiway) << 2;
    // Mix the two size knobs in with distinct odd multipliers (the knob
    // space is tiny; this only has to separate, not avalanche).
    f ^= static_cast<uint64_t>(parallelism) * 0x9e3779b97f4a7c15ull;
    f ^= static_cast<uint64_t>(morsel_size) * 0xc2b2ae3d27d4eb4full;
    return f;
  }

  friend bool operator==(const EngineOptions& a, const EngineOptions& b) {
    return a.use_planner == b.use_planner &&
           a.enable_pushdown == b.enable_pushdown &&
           a.enable_multiway == b.enable_multiway &&
           a.parallelism == b.parallelism && a.morsel_size == b.morsel_size;
  }
  friend bool operator!=(const EngineOptions& a, const EngineOptions& b) {
    return !(a == b);
  }
};

}  // namespace gcore

#endif  // GCORE_COMMON_OPTIONS_H_
