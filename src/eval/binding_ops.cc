#include "eval/binding_ops.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

namespace gcore {

namespace {

/// Column positions shared by two schemas: pairs (col in a, col in b).
std::vector<std::pair<size_t, size_t>> SharedColumns(const BindingTable& a,
                                                     const BindingTable& b) {
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t i = 0; i < a.columns().size(); ++i) {
    const size_t j = b.ColumnIndex(a.columns()[i]);
    if (j != BindingTable::kNpos) shared.emplace_back(i, j);
  }
  return shared;
}

/// µ1 ∼ µ2 on the shared columns, tested column-wise (no Datum is
/// materialized: dense cells compare kind bytes and raw ids).
bool CompatibleAt(const BindingTable& a, size_t ra, const BindingTable& b,
                  size_t rb,
                  const std::vector<std::pair<size_t, size_t>>& shared) {
  for (const auto& [ia, ib] : shared) {
    const Column& ca = a.ColumnAt(ia);
    const Column& cb = b.ColumnAt(ib);
    if (ca.BoundAt(ra) && cb.BoundAt(rb) &&
        !Column::CellsEqual(ca, ra, cb, rb)) {
      return false;
    }
  }
  return true;
}

/// Output schema of a join: a's columns then b's extra columns, with
/// provenance merged.
BindingTable JoinSchema(const BindingTable& a, const BindingTable& b,
                        std::vector<size_t>* b_extra) {
  std::vector<std::string> columns = a.columns();
  for (size_t j = 0; j < b.columns().size(); ++j) {
    if (a.ColumnIndex(b.columns()[j]) == BindingTable::kNpos) {
      b_extra->push_back(j);
      columns.push_back(b.columns()[j]);
    }
  }
  BindingTable out(std::move(columns));
  for (const auto& [var, graph] : a.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  for (const auto& [var, graph] : b.column_graphs()) {
    if (out.ColumnGraph(var).empty()) out.SetColumnGraph(var, graph);
  }
  return out;
}

/// Hash index over b's rows where all shared columns are bound; rows with
/// an unbound shared column must be checked linearly against everything.
///
/// Buckets are keyed by the *combined hash* of the shared cells rather
/// than by owned key vectors: probing and building walk the typed key
/// columns directly (ValueSets and path pointers stay untouched on this
/// hot path), and hash collisions are harmless because every candidate is
/// re-verified with CompatibleAt() by the caller.
struct ProbeIndex {
  std::unordered_map<size_t, std::vector<size_t>> keyed;
  std::vector<size_t> wildcard;

  /// Combined hash of the shared columns of row `r` of `t`, reading side
  /// `kPairMember` of each pair; false when any of them is unbound.
  template <size_t kPairMember>
  static bool HashSharedAt(
      const BindingTable& t, size_t r,
      const std::vector<std::pair<size_t, size_t>>& shared, size_t* hash) {
    size_t h = 0;
    for (const auto& cols : shared) {
      const Column& c = t.ColumnAt(std::get<kPairMember>(cols));
      if (!c.BoundAt(r)) return false;
      h = HashCombine(h, c.HashAt(r));
    }
    *hash = h;
    return true;
  }

  ProbeIndex(const BindingTable& b,
             const std::vector<std::pair<size_t, size_t>>& shared) {
    keyed.reserve(b.NumRows());
    for (size_t r = 0; r < b.NumRows(); ++r) {
      size_t h = 0;
      if (HashSharedAt<1>(b, r, shared, &h)) {
        keyed[h].push_back(r);
      } else {
        wildcard.push_back(r);
      }
    }
  }

  /// Calls fn(row index in b) for each candidate potentially compatible
  /// with row `ra` of `a`; the caller must still verify with
  /// CompatibleAt().
  template <typename Fn>
  void ForEachCandidate(const BindingTable& a, size_t ra,
                        const std::vector<std::pair<size_t, size_t>>& shared,
                        Fn fn) const {
    size_t h = 0;
    if (HashSharedAt<0>(a, ra, shared, &h)) {
      auto it = keyed.find(h);
      if (it != keyed.end()) {
        for (size_t r : it->second) fn(r);
      }
    } else {
      // Some a-side shared column unbound: any keyed bucket may match.
      for (const auto& [k, rows] : keyed) {
        for (size_t r : rows) fn(r);
      }
    }
    for (size_t r : wildcard) fn(r);
  }
};

}  // namespace

BindingTable TableUnion(const BindingTable& a, const BindingTable& b) {
  std::vector<size_t> b_extra;
  BindingTable out = JoinSchema(a, b, &b_extra);
  RowIndexSet seen;
  seen.Reserve(a.NumRows() + b.NumRows());
  const size_t unbound_hash = Datum().Hash();

  // a-side: out's prefix is exactly a's columns, extras pad with kUnbound.
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    size_t h = a.RowHash(ra);
    for (size_t k = 0; k < b_extra.size(); ++k) {
      h = HashCombine(h, unbound_hash);
    }
    const bool fresh = seen.InsertIfNew(h, out.NumRows(), [&](size_t i) {
      for (size_t c = 0; c < a.NumColumns(); ++c) {
        if (!Column::CellsEqual(out.ColumnAt(c), i, a.ColumnAt(c), ra)) {
          return false;
        }
      }
      for (size_t c = a.NumColumns(); c < out.NumColumns(); ++c) {
        if (out.ColumnAt(c).BoundAt(i)) return false;
      }
      return true;
    });
    if (fresh) out.AppendRowFrom(a, ra);
  }

  // b-side: scatter b's columns into out positions; the rest stay unbound.
  std::vector<size_t> src_of_out(out.NumColumns(), BindingTable::kNpos);
  for (size_t j = 0; j < b.columns().size(); ++j) {
    src_of_out[out.ColumnIndex(b.columns()[j])] = j;
  }
  for (size_t rb = 0; rb < b.NumRows(); ++rb) {
    size_t h = 0;
    for (size_t c = 0; c < out.NumColumns(); ++c) {
      h = HashCombine(h, src_of_out[c] == BindingTable::kNpos
                             ? unbound_hash
                             : b.ColumnAt(src_of_out[c]).HashAt(rb));
    }
    const bool fresh = seen.InsertIfNew(h, out.NumRows(), [&](size_t i) {
      for (size_t c = 0; c < out.NumColumns(); ++c) {
        if (src_of_out[c] == BindingTable::kNpos) {
          if (out.ColumnAt(c).BoundAt(i)) return false;
        } else if (!Column::CellsEqual(out.ColumnAt(c), i,
                                       b.ColumnAt(src_of_out[c]), rb)) {
          return false;
        }
      }
      return true;
    });
    if (!fresh) continue;
    for (size_t c = 0; c < out.NumColumns(); ++c) {
      if (src_of_out[c] == BindingTable::kNpos) {
        out.MutableColumn(c).AppendUnbound();
      } else {
        out.MutableColumn(c).AppendFrom(b.ColumnAt(src_of_out[c]), rb);
      }
    }
    out.CommitRow();
  }
  return out;
}

namespace {

/// Duplicate elimination fused into join-output construction, one level
/// deeper than RowDedupSink: the merged row's hash and equality are
/// computed straight from the (probe row, build row) index pair over the
/// typed key columns, so duplicate pairs are rejected *before* a merged
/// row is ever materialized — and accepted pairs append column-wise
/// (dense cells are two array pushes; nothing row-shaped exists at all).
class JoinDedupSink {
 public:
  JoinDedupSink(BindingTable* out, const BindingTable& a,
                const BindingTable& b,
                const std::vector<std::pair<size_t, size_t>>& shared,
                const std::vector<size_t>& b_extra)
      : out_(out), a_(&a), b_(b), b_extra_(b_extra) {
    shared_of_a_.assign(a.NumColumns(), BindingTable::kNpos);
    for (const auto& [ia, ib] : shared) shared_of_a_[ia] = ib;
  }

  /// Re-points the probe side at another table with the same schema; the
  /// dedup state carries over (the streaming probe joins one chunk at a
  /// time against a common build table).
  void SetProbe(const BindingTable& a) { a_ = &a; }

  /// The column/row the merged row reads at position `i` of the a-prefix
  /// (bound a-value wins; unbound shared positions fill from b).
  std::pair<const Column*, size_t> MergedSrc(size_t ra, size_t rb,
                                             size_t i) const {
    const Column& ca = a_->ColumnAt(i);
    if (ca.BoundAt(ra) || shared_of_a_[i] == BindingTable::kNpos) {
      return {&ca, ra};
    }
    return {&b_.ColumnAt(shared_of_a_[i]), rb};
  }

  /// Appends µ1 ∪ µ2 unless an equal row is already present; the merged
  /// row is only constructed on first occurrence.
  void InsertPair(size_t ra, size_t rb) {
    // Reproduces HashRow over the would-be merged row (a-prefix, then
    // b-extras) without building it.
    size_t h = 0;
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      h = HashCombine(h, col->HashAt(row));
    }
    for (size_t j : b_extra_) h = HashCombine(h, b_.ColumnAt(j).HashAt(rb));
    const bool fresh = seen_.InsertIfNew(h, out_->NumRows(), [&](size_t i) {
      return MergedEquals(i, ra, rb);
    });
    if (!fresh) return;
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      out_->MutableColumn(i).AppendFrom(*col, row);
    }
    for (size_t k = 0; k < b_extra_.size(); ++k) {
      out_->MutableColumn(a_->NumColumns() + k)
          .AppendFrom(b_.ColumnAt(b_extra_[k]), rb);
    }
    out_->CommitRow();
  }

  /// Appends µ1 with every b-extra unbound (a row of the ⟕'s ∖ side)
  /// unless an equal row is already present — the same dedup TableUnion
  /// applies to (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2).
  void InsertUnmatched(size_t ra) {
    const size_t unbound_hash = Datum().Hash();
    size_t h = a_->RowHash(ra);
    for (size_t k = 0; k < b_extra_.size(); ++k) {
      h = HashCombine(h, unbound_hash);
    }
    const bool fresh = seen_.InsertIfNew(h, out_->NumRows(), [&](size_t i) {
      for (size_t c = 0; c < a_->NumColumns(); ++c) {
        if (!Column::CellsEqual(out_->ColumnAt(c), i, a_->ColumnAt(c), ra)) {
          return false;
        }
      }
      for (size_t c = a_->NumColumns(); c < out_->NumColumns(); ++c) {
        if (out_->ColumnAt(c).BoundAt(i)) return false;
      }
      return true;
    });
    if (!fresh) return;
    for (size_t c = 0; c < a_->NumColumns(); ++c) {
      out_->MutableColumn(c).AppendFrom(a_->ColumnAt(c), ra);
    }
    for (size_t c = a_->NumColumns(); c < out_->NumColumns(); ++c) {
      out_->MutableColumn(c).AppendUnbound();
    }
    out_->CommitRow();
  }

 private:
  bool MergedEquals(size_t stored, size_t ra, size_t rb) const {
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      if (!Column::CellsEqual(out_->ColumnAt(i), stored, *col, row)) {
        return false;
      }
    }
    for (size_t k = 0; k < b_extra_.size(); ++k) {
      if (!Column::CellsEqual(out_->ColumnAt(a_->NumColumns() + k), stored,
                              b_.ColumnAt(b_extra_[k]), rb)) {
        return false;
      }
    }
    return true;
  }

  BindingTable* out_;
  /// The current probe table (re-pointable, see SetProbe).
  const BindingTable* a_;
  const BindingTable& b_;
  const std::vector<size_t>& b_extra_;
  /// ia → ib for shared columns, kNpos elsewhere.
  std::vector<size_t> shared_of_a_;
  RowIndexSet seen_;
};

}  // namespace

BindingTable TableJoin(const BindingTable& a, const BindingTable& b) {
  std::vector<size_t> b_extra;
  BindingTable out = JoinSchema(a, b, &b_extra);
  const auto shared = SharedColumns(a, b);
  const ProbeIndex index(b, shared);
  JoinDedupSink sink(&out, a, b, shared, b_extra);
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    index.ForEachCandidate(a, ra, shared, [&](size_t rb) {
      if (CompatibleAt(a, ra, b, rb, shared)) sink.InsertPair(ra, rb);
    });
  }
  return out;
}

/// Owns the build index and the chunk-spanning dedup state; lazily
/// initialized from the first probe chunk (which fixes the schema the
/// same way draining the probe side would).
struct StreamingJoinProbe::Impl {
  BindingTable build;
  bool swap_output;
  bool left_outer;
  bool started = false;
  std::vector<std::pair<size_t, size_t>> shared;
  std::vector<size_t> b_extra;
  /// Accumulated join output in probe-first column order.
  BindingTable out;
  /// The probe side's columns and provenance (the swap-output re-merge
  /// rebuilds the canonical schema from them); in left-outer mode also
  /// the probe rows that matched no build row, in arrival order.
  BindingTable unmatched;
  std::optional<ProbeIndex> index;
  std::optional<JoinDedupSink> sink;

  Impl(BindingTable b, bool swap, bool outer)
      : build(std::move(b)), swap_output(swap), left_outer(outer) {}

  void Start(const BindingTable& chunk) {
    started = true;
    shared = SharedColumns(chunk, build);
    out = JoinSchema(chunk, build, &b_extra);
    unmatched = BindingTable(chunk.columns());
    for (const auto& [var, graph] : chunk.column_graphs()) {
      unmatched.SetColumnGraph(var, graph);
    }
    index.emplace(build, shared);
    sink.emplace(&out, chunk, build, shared, b_extra);
  }
};

StreamingJoinProbe::StreamingJoinProbe(BindingTable build, bool swap_output,
                                       bool left_outer)
    : impl_(new Impl(std::move(build), swap_output, left_outer)) {}

StreamingJoinProbe::~StreamingJoinProbe() = default;

void StreamingJoinProbe::Probe(const BindingTable& chunk) {
  Impl& s = *impl_;
  if (!s.started) s.Start(chunk);
  s.sink->SetProbe(chunk);
  std::vector<size_t> missed;
  for (size_t ra = 0; ra < chunk.NumRows(); ++ra) {
    bool matched = false;
    s.index->ForEachCandidate(chunk, ra, s.shared, [&](size_t rb) {
      if (!CompatibleAt(chunk, ra, s.build, rb, s.shared)) return;
      matched = true;
      s.sink->InsertPair(ra, rb);
    });
    if (s.left_outer && !matched) missed.push_back(ra);
  }
  s.unmatched.AppendRowsFrom(chunk, missed);
}

BindingTable StreamingJoinProbe::Finish() {
  Impl& s = *impl_;
  // No chunks at all: behave exactly like joining the empty table a
  // drained probe side would have produced.
  if (!s.started) s.Start(BindingTable());
  if (s.left_outer) {
    // (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2): the rows that matched nothing follow the
    // joined rows in probe order, deduplicated through the join's own
    // seen set, so the joined rows are not hashed a second time as
    // TableUnion would.
    s.sink->SetProbe(s.unmatched);
    for (size_t r = 0; r < s.unmatched.NumRows(); ++r) {
      s.sink->InsertUnmatched(r);
    }
  }
  if (!s.swap_output) return std::move(s.out);
  // Canonical build-first schema, every column moved wholesale from the
  // equally-named probe-first column. Cell values agree pair-by-pair with
  // the unswapped join (a bound shared cell equals the cell it matched; an
  // unbound one was filled from the other side either way), so only row
  // order differs.
  std::vector<size_t> extra;
  BindingTable canonical = JoinSchema(s.build, s.unmatched, &extra);
  std::vector<size_t> kept(canonical.NumColumns());
  for (size_t c = 0; c < canonical.NumColumns(); ++c) {
    kept[c] = s.out.ColumnIndex(canonical.columns()[c]);
  }
  canonical.AdoptProjectedColumnsMove(std::move(s.out), kept);
  return canonical;
}

/// Existence needs one inner row per distinct key, not every row: inner
/// rows whose shared cells are all bound are deduplicated on those cells
/// into `keys` (a compatible bound outer key must equal one of them);
/// rows with an unbound shared cell stay in `wildcard` and are checked
/// against every outer row.
struct SemijoinProbe::Impl {
  const BindingTable& inner;
  std::vector<std::string> outer_columns;
  std::vector<std::pair<size_t, size_t>> shared;
  RowIndexSet keys;
  /// Inner row of each distinct key, in first-appearance order.
  std::vector<size_t> key_rows;
  std::vector<size_t> wildcard;

  Impl(const BindingTable& outer_schema, const BindingTable& b)
      : inner(b),
        outer_columns(outer_schema.columns()),
        shared(SharedColumns(outer_schema, b)) {
    keys.Reserve(b.NumRows());
    for (size_t r = 0; r < b.NumRows(); ++r) {
      size_t h = 0;
      if (!ProbeIndex::HashSharedAt<1>(b, r, shared, &h)) {
        wildcard.push_back(r);
        continue;
      }
      const bool fresh = keys.InsertIfNew(h, key_rows.size(), [&](size_t k) {
        for (const auto& cols : shared) {
          const Column& c = b.ColumnAt(cols.second);
          if (!Column::CellsEqual(c, key_rows[k], c, r)) return false;
        }
        return true;
      });
      if (fresh) key_rows.push_back(r);
    }
  }

  bool Any(const BindingTable& a, size_t ra) const {
    size_t h = 0;
    if (ProbeIndex::HashSharedAt<0>(a, ra, shared, &h)) {
      if (keys.Contains(h, [&](size_t k) {
            return CompatibleAt(a, ra, inner, key_rows[k], shared);
          })) {
        return true;
      }
    } else {
      // Some outer shared cell unbound: any key may match.
      for (size_t r : key_rows) {
        if (CompatibleAt(a, ra, inner, r, shared)) return true;
      }
    }
    for (size_t r : wildcard) {
      if (CompatibleAt(a, ra, inner, r, shared)) return true;
    }
    return false;
  }
};

SemijoinProbe::SemijoinProbe(const BindingTable& outer_schema,
                             const BindingTable& inner)
    : impl_(new Impl(outer_schema, inner)) {}

SemijoinProbe::~SemijoinProbe() = default;
SemijoinProbe::SemijoinProbe(SemijoinProbe&&) noexcept = default;
SemijoinProbe& SemijoinProbe::operator=(SemijoinProbe&&) noexcept = default;

bool SemijoinProbe::Any(const BindingTable& outer, size_t row) const {
  return impl_->Any(outer, row);
}

const std::vector<std::string>& SemijoinProbe::outer_columns() const {
  return impl_->outer_columns;
}

namespace {

/// Rows of `a` whose probe answer equals `keep`, with a's schema and
/// provenance (the shared body of ⋉ and ∖).
BindingTable FilterBySemijoin(const BindingTable& a, const BindingTable& b,
                              bool keep) {
  BindingTable out(a.columns());
  for (const auto& [var, graph] : a.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  const SemijoinProbe probe(a, b);
  std::vector<size_t> kept;
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    if (probe.Any(a, ra) == keep) kept.push_back(ra);
  }
  out.AppendRowsFrom(a, kept);
  return out;
}

}  // namespace

BindingTable TableSemijoin(const BindingTable& a, const BindingTable& b) {
  return FilterBySemijoin(a, b, true);
}

BindingTable TableAntijoin(const BindingTable& a, const BindingTable& b) {
  return FilterBySemijoin(a, b, false);
}

BindingTable TableLeftOuterJoin(const BindingTable& a,
                                const BindingTable& b) {
  BindingTable joined = TableJoin(a, b);
  BindingTable missing = TableAntijoin(a, b);
  return TableUnion(joined, missing);
}

}  // namespace gcore
