// Set-semantics duplicate elimination for tests that build a table with
// duplicates on purpose. It goes through the public API — the
// RowDedupSink every fused operator builds its output with — so the
// first occurrence of each binding survives, in input order.
#ifndef GCORE_TESTS_EVAL_DEDUP_H_
#define GCORE_TESTS_EVAL_DEDUP_H_

#include "eval/binding.h"

namespace gcore {

/// `t`'s distinct rows, same schema and provenance.
inline BindingTable Deduplicated(const BindingTable& t) {
  BindingTable out = t.Slice(0, 0);
  RowDedupSink sink(&out);
  for (size_t r = 0; r < t.NumRows(); ++r) sink.InsertFrom(t, r);
  return out;
}

}  // namespace gcore

#endif  // GCORE_TESTS_EVAL_DEDUP_H_
