// Tests for bindings and the binding-set algebra of Appendix A.1.
#include "eval/binding.h"

#include <gtest/gtest.h>

#include "eval/binding_ops.h"
#include "tests/eval/dedup.h"

namespace gcore {
namespace {

Datum N(uint64_t id) { return Datum::OfNode(NodeId(id)); }
Datum V(const char* s) { return Datum::OfValue(Value::String(s)); }

BindingTable Make(std::vector<std::string> columns,
                  std::vector<BindingRow> rows) {
  BindingTable t(std::move(columns));
  for (auto& row : rows) {
    EXPECT_TRUE(t.AddRow(std::move(row)).ok());
  }
  return t;
}

TEST(Datum, KindsAndEquality) {
  EXPECT_TRUE(Datum().IsUnbound());
  EXPECT_EQ(N(1), N(1));
  EXPECT_NE(N(1), N(2));
  EXPECT_NE(N(1), Datum::OfEdge(EdgeId(1)));  // different kinds never equal
  EXPECT_EQ(V("x"), V("x"));
  EXPECT_EQ(Datum(), Datum());
}

TEST(Datum, PathComparesByIdentity) {
  auto p1 = std::make_shared<PathValue>();
  p1->id = PathId(7);
  auto p2 = std::make_shared<PathValue>();
  p2->id = PathId(7);
  p2->cost = 99;  // identity only
  EXPECT_EQ(Datum::OfPath(p1), Datum::OfPath(p2));
}

TEST(Datum, HashConsistency) {
  EXPECT_EQ(N(5).Hash(), N(5).Hash());
  EXPECT_EQ(V("a").Hash(), V("a").Hash());
}

TEST(BindingTable, UnitIsJoinIdentity) {
  BindingTable unit = BindingTable::Unit();
  EXPECT_EQ(unit.NumRows(), 1u);
  EXPECT_EQ(unit.NumColumns(), 0u);
  BindingTable t = Make({"x"}, {{N(1)}, {N(2)}});
  BindingTable joined = TableJoin(unit, t);
  EXPECT_EQ(joined.NumRows(), 2u);
  EXPECT_EQ(joined.NumColumns(), 1u);
}

TEST(BindingTable, GetAbsentColumnIsUnbound) {
  BindingTable t = Make({"x"}, {{N(1)}});
  EXPECT_TRUE(t.Get(0, "nope").IsUnbound());
  EXPECT_EQ(t.Get(0, "x"), N(1));
}

TEST(BindingTable, AddColumnExtendsRows) {
  BindingTable t = Make({"x"}, {{N(1)}});
  t.AddColumn("y");
  EXPECT_TRUE(t.Get(0, "y").IsUnbound());
}

TEST(BindingTable, RowArityChecked) {
  BindingTable t({"x", "y"});
  EXPECT_FALSE(t.AddRow({N(1)}).ok());
}

TEST(BindingTable, DeduplicateSetSemantics) {
  const BindingTable t = Deduplicated(Make({"x"}, {{N(1)}, {N(1)}, {N(2)}}));
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(BindingTable, DeduplicateKeepsFirstOccurrenceOrder) {
  const BindingTable t =
      Deduplicated(Make({"x"}, {{N(3)}, {N(1)}, {N(3)}, {N(2)}, {N(1)}}));
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.Get(0, "x"), N(3));
  EXPECT_EQ(t.Get(1, "x"), N(1));
  EXPECT_EQ(t.Get(2, "x"), N(2));
}

TEST(RowDedupSink, FusedConstructionIsDuplicateFree) {
  BindingTable t({"x", "y"});
  RowDedupSink sink(&t);
  EXPECT_TRUE(sink.Insert({N(1), N(10)}));
  EXPECT_FALSE(sink.Insert({N(1), N(10)}));
  EXPECT_TRUE(sink.Insert({N(1), N(11)}));
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(RowDedupSink, IndexesPreexistingRows) {
  BindingTable t = Make({"x"}, {{N(1)}, {N(2)}});
  RowDedupSink sink(&t);
  EXPECT_FALSE(sink.Insert({N(2)}));
  EXPECT_TRUE(sink.Insert({N(3)}));
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST(BindingTable, ColumnGraphProvenance) {
  BindingTable t({"x"});
  t.SetColumnGraph("x", "social_graph");
  EXPECT_EQ(t.ColumnGraph("x"), "social_graph");
  EXPECT_EQ(t.ColumnGraph("y"), "");
}

// --- ⋈ ------------------------------------------------------------------------

TEST(TableJoin, NaturalJoinOnSharedColumn) {
  BindingTable a = Make({"x", "y"}, {{N(1), N(10)}, {N(2), N(20)}});
  BindingTable b = Make({"y", "z"}, {{N(10), V("a")}, {N(99), V("b")}});
  BindingTable j = TableJoin(a, b);
  ASSERT_EQ(j.NumRows(), 1u);
  EXPECT_EQ(j.Get(0, "x"), N(1));
  EXPECT_EQ(j.Get(0, "z"), V("a"));
}

TEST(TableJoin, DisjointColumnsIsCartesianProduct) {
  // "Graph patterns that do not have variables in common lead to the
  // Cartesian product of variable bindings" (Section 3).
  BindingTable a = Make({"x"}, {{N(1)}, {N(2)}});
  BindingTable b = Make({"y"}, {{N(10)}, {N(20)}, {N(30)}});
  EXPECT_EQ(TableJoin(a, b).NumRows(), 6u);
}

TEST(TableJoin, UnboundSharedColumnIsCompatible) {
  BindingTable a = Make({"x", "y"}, {{N(1), Datum()}});
  BindingTable b = Make({"y"}, {{N(10)}});
  BindingTable j = TableJoin(a, b);
  ASSERT_EQ(j.NumRows(), 1u);
  // Merged row takes the bound value.
  EXPECT_EQ(j.Get(0, "y"), N(10));
}

TEST(TableJoin, DeduplicatesMergedRows) {
  // Duplicate input rows collapse in the fused output set.
  BindingTable a = Make({"x", "y"}, {{N(1), N(10)}, {N(1), N(10)}});
  BindingTable b = Make({"y", "z"}, {{N(10), V("a")}});
  EXPECT_EQ(TableJoin(a, b).NumRows(), 1u);
}

TEST(TableJoin, EmptyOperandYieldsEmpty) {
  BindingTable a = Make({"x"}, {});
  BindingTable b = Make({"x"}, {{N(1)}});
  EXPECT_TRUE(TableJoin(a, b).Empty());
  EXPECT_TRUE(TableJoin(b, a).Empty());
}

// --- streaming probe -----------------------------------------------------------

/// Pushes `probe` through a StreamingJoinProbe in chunks of `chunk_rows`
/// (the last one ragged), as the executor would on arriving morsels.
BindingTable StreamJoin(const BindingTable& probe, const BindingTable& build,
                        bool swap_output, size_t chunk_rows,
                        bool left_outer = false) {
  StreamingJoinProbe stream(build, swap_output, left_outer);
  for (size_t lo = 0; lo < probe.NumRows(); lo += chunk_rows) {
    BindingTable chunk(probe.columns());
    for (const auto& [var, graph] : probe.column_graphs()) {
      chunk.SetColumnGraph(var, graph);
    }
    std::vector<size_t> rows;
    const size_t hi = std::min(probe.NumRows(), lo + chunk_rows);
    for (size_t r = lo; r < hi; ++r) rows.push_back(r);
    chunk.AppendRowsFrom(probe, rows);
    stream.Probe(chunk);
  }
  return stream.Finish();
}

void ExpectSameRowsAndOrder(const BindingTable& got,
                            const BindingTable& want) {
  ASSERT_EQ(got.NumRows(), want.NumRows());
  ASSERT_EQ(got.columns(), want.columns());
  for (size_t r = 0; r < want.NumRows(); ++r) {
    ASSERT_EQ(got.Row(r), want.Row(r)) << "row " << r;
  }
}

TEST(StreamingJoinProbe, PinnedToDrainedJoinAtEveryChunking) {
  // Duplicates across chunk boundaries exercise the chunk-spanning dedup
  // state; unbound shared cells on either side exercise the wildcard
  // paths; left rows whose x the build side never binds have no partner,
  // so the left outer join's ∖ side is non-empty (and holds duplicates).
  BindingTable a({"x", "y"});
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(a.AddRow({N(i % 120), N(10000 + i % 40)}).ok());
  }
  ASSERT_TRUE(a.AddRow({N(7), Datum::Unbound()}).ok());
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(a.AddRow({N(500 + i % 20), N(10000 + i % 20)}).ok());
  }
  ASSERT_TRUE(a.AddRow({N(600), Datum::Unbound()}).ok());
  BindingTable b({"x", "y", "z"});
  for (uint64_t j = 0; j < 200; ++j) {
    ASSERT_TRUE(
        b.AddRow({N(j % 120), N(10000 + j % 40), N(20000 + j % 60)}).ok());
  }
  ASSERT_TRUE(b.AddRow({N(7), Datum::Unbound(), N(20001)}).ok());
  ASSERT_TRUE(b.AddRow({Datum::Unbound(), N(10003), N(20002)}).ok());
  const BindingTable drained = TableJoin(a, b);
  const BindingTable outer = TableLeftOuterJoin(a, b);
  ASSERT_GT(outer.NumRows(), drained.NumRows());
  for (size_t chunk_rows : {1, 7, 64, 100000}) {
    ExpectSameRowsAndOrder(StreamJoin(a, b, /*swap_output=*/false,
                                      chunk_rows),
                           drained);
    ExpectSameRowsAndOrder(StreamJoin(a, b, /*swap_output=*/false,
                                      chunk_rows, /*left_outer=*/true),
                           outer);
  }
}

TEST(StreamingJoinProbe, SwapOutputPinnedToReversedTableJoin) {
  BindingTable a({"x", "y"});
  a.SetColumnGraph("x", "ga");
  a.SetColumnGraph("y", "ga");
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(a.AddRow({N(i % 20), N(10000 + i % 15)}).ok());
  }
  BindingTable b({"y", "z"});
  b.SetColumnGraph("y", "gb");
  b.SetColumnGraph("z", "gb");
  for (uint64_t j = 0; j < 300; ++j) {
    ASSERT_TRUE(b.AddRow({N(10000 + j % 15), N(20000 + j % 45)}).ok());
  }
  // Swapped, the stream builds over a and probes b: rows and their order
  // are those of TableJoin(b, a), re-merged into the canonical schema of
  // TableJoin(a, b) — its column order and a-first provenance.
  const BindingTable reversed = TableJoin(b, a);
  const BindingTable canonical = TableJoin(a, b);
  for (size_t chunk_rows : {3, 50, 100000}) {
    const BindingTable got =
        StreamJoin(b, a, /*swap_output=*/true, chunk_rows);
    EXPECT_EQ(got.columns(), canonical.columns());
    for (const std::string& col : canonical.columns()) {
      EXPECT_EQ(got.ColumnGraph(col), canonical.ColumnGraph(col)) << col;
    }
    ASSERT_EQ(got.NumRows(), reversed.NumRows());
    for (size_t r = 0; r < reversed.NumRows(); ++r) {
      for (const std::string& col : canonical.columns()) {
        ASSERT_EQ(got.Get(r, col), reversed.Get(r, col))
            << "row " << r << " column " << col << " chunk " << chunk_rows;
      }
    }
  }
}

TEST(StreamingJoinProbe, NoChunksBehavesAsEmptyDrainedProbe) {
  BindingTable build = Make({"y"}, {{N(1)}, {N(2)}});
  {
    StreamingJoinProbe stream(build, /*swap_output=*/false);
    const BindingTable out = stream.Finish();
    // Drain of a chunkless operator yields the default empty table; the
    // join of that with the build side keeps only the build columns.
    EXPECT_EQ(out.NumRows(), 0u);
    EXPECT_EQ(out.columns(), build.columns());
  }
  {
    StreamingJoinProbe stream(build, /*swap_output=*/true);
    const BindingTable out = stream.Finish();
    EXPECT_EQ(out.NumRows(), 0u);
    EXPECT_EQ(out.columns(), build.columns());
  }
  {
    StreamingJoinProbe stream(build, /*swap_output=*/false,
                              /*left_outer=*/true);
    ExpectSameRowsAndOrder(stream.Finish(),
                           TableLeftOuterJoin(BindingTable(), build));
  }
}

// --- ∪ -------------------------------------------------------------------------

TEST(TableUnion, MergesSchemasAndDeduplicates) {
  BindingTable a = Make({"x"}, {{N(1)}});
  BindingTable b = Make({"x", "y"}, {{N(1), Datum()}, {N(2), N(20)}});
  BindingTable u = TableUnion(a, b);
  // {x:1} from a equals {x:1,y:⊥} from b after schema alignment.
  EXPECT_EQ(u.NumRows(), 2u);
  EXPECT_EQ(u.NumColumns(), 2u);
}

// --- ⋉ and ∖ ---------------------------------------------------------------------

TEST(TableSemijoin, KeepsCompatibleRows) {
  BindingTable a = Make({"x", "y"}, {{N(1), N(10)}, {N(2), N(20)}});
  BindingTable b = Make({"y"}, {{N(10)}});
  BindingTable s = TableSemijoin(a, b);
  ASSERT_EQ(s.NumRows(), 1u);
  EXPECT_EQ(s.Get(0, "x"), N(1));
  EXPECT_EQ(s.NumColumns(), 2u);  // schema of the left side only
}

TEST(TableAntijoin, KeepsIncompatibleRows) {
  BindingTable a = Make({"x", "y"}, {{N(1), N(10)}, {N(2), N(20)}});
  BindingTable b = Make({"y"}, {{N(10)}});
  BindingTable s = TableAntijoin(a, b);
  ASSERT_EQ(s.NumRows(), 1u);
  EXPECT_EQ(s.Get(0, "x"), N(2));
}

TEST(TableAntijoin, EmptyRightKeepsAll) {
  BindingTable a = Make({"x"}, {{N(1)}, {N(2)}});
  BindingTable b = Make({"x"}, {});
  EXPECT_EQ(TableAntijoin(a, b).NumRows(), 2u);
}

// --- ⟕ -----------------------------------------------------------------------------

TEST(TableLeftOuterJoin, PreservesUnmatchedLeftRows) {
  BindingTable a = Make({"x"}, {{N(1)}, {N(2)}});
  BindingTable b = Make({"x", "msg"}, {{N(1), V("hello")}});
  BindingTable j = TableLeftOuterJoin(a, b);
  ASSERT_EQ(j.NumRows(), 2u);
  // Row for x=2 exists with msg unbound.
  bool found_unmatched = false;
  for (size_t r = 0; r < j.NumRows(); ++r) {
    if (j.Get(r, "x") == N(2)) {
      EXPECT_TRUE(j.Get(r, "msg").IsUnbound());
      found_unmatched = true;
    }
  }
  EXPECT_TRUE(found_unmatched);
}

TEST(TableLeftOuterJoin, EquivalentToJoinWhenAllMatch) {
  BindingTable a = Make({"x"}, {{N(1)}});
  BindingTable b = Make({"x", "y"}, {{N(1), N(5)}});
  BindingTable outer = TableLeftOuterJoin(a, b);
  BindingTable inner = TableJoin(a, b);
  EXPECT_EQ(outer.NumRows(), inner.NumRows());
}

TEST(TableLeftOuterJoin, MultipleMatchesMultiplyRows) {
  BindingTable a = Make({"x"}, {{N(1)}});
  BindingTable b = Make({"x", "y"}, {{N(1), N(5)}, {N(1), N(6)}});
  EXPECT_EQ(TableLeftOuterJoin(a, b).NumRows(), 2u);
}

// Parameterized algebraic law: ⟕ = ⋈ ∪ ∖ (the defining identity).
class OuterJoinLaw : public ::testing::TestWithParam<int> {};

TEST_P(OuterJoinLaw, DefinitionHolds) {
  const int seed = GetParam();
  auto rnd_table = [&](int salt) {
    BindingTable t({"x", "y"});
    for (int i = 0; i < 6; ++i) {
      const uint64_t vx = static_cast<uint64_t>((seed * 7 + salt * 3 + i) % 4);
      const uint64_t vy = static_cast<uint64_t>((seed * 5 + salt + i * 2) % 4);
      EXPECT_TRUE(t.AddRow({N(vx + 1), N(vy + 1)}).ok());
    }
    return Deduplicated(t);
  };
  BindingTable a = rnd_table(1);
  BindingTable b = rnd_table(2);
  const BindingTable lhs = Deduplicated(TableLeftOuterJoin(a, b));
  const BindingTable rhs =
      Deduplicated(TableUnion(TableJoin(a, b), TableAntijoin(a, b)));
  EXPECT_EQ(lhs.NumRows(), rhs.NumRows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OuterJoinLaw, ::testing::Range(0, 8));

}  // namespace
}  // namespace gcore
