// Tests for the column-major Ω storage: the row-oriented API must be a
// faithful adapter over the kind/slot/overflow arrays (round-trip
// equality for every Datum kind, including kUnbound and the heavy
// kinds), and the column-wise hash/equality fast paths must reproduce
// the seed's row-walk formulas bit-for-bit — the dedup sinks and join
// probes rely on exactly that equivalence.
#include <gtest/gtest.h>

#include <vector>

#include "eval/binding.h"
#include "eval/binding_ops.h"
#include "tests/eval/dedup.h"

namespace gcore {
namespace {

Datum N(uint64_t id) { return Datum::OfNode(NodeId(id)); }
Datum E(uint64_t id) { return Datum::OfEdge(EdgeId(id)); }
Datum V(const std::string& s) { return Datum::OfValue(Value::String(s)); }

Datum P(uint64_t id, bool from_graph = false) {
  auto pv = std::make_shared<PathValue>();
  pv->id = PathId(id);
  pv->body.nodes = {NodeId(1), NodeId(2)};
  pv->body.edges = {EdgeId(7)};
  pv->from_graph = from_graph;
  return Datum::OfPath(std::move(pv));
}

/// One row of every kind plus mixed-kind rows: the adapter must
/// round-trip all of them.
std::vector<BindingRow> AllKindRows() {
  return {
      {Datum::Unbound(), N(1), V("a")},
      {N(2), E(3), Datum::Unbound()},
      {P(9), Datum::OfNodeList({NodeId(1), NodeId(2)}),
       Datum::OfEdgeList({EdgeId(5)})},
      {Datum::OfValues(ValueSet({Value::Int(1), Value::Int(2)})), N(4), E(6)},
      {Datum::Unbound(), Datum::Unbound(), Datum::Unbound()},
      {N(2), E(3), V("a")},  // duplicate-ish shapes for dedup paths
  };
}

BindingTable AllKindTable() {
  BindingTable t({"x", "y", "z"});
  for (auto& row : AllKindRows()) {
    EXPECT_TRUE(t.AddRow(std::move(row)).ok());
  }
  return t;
}

TEST(ColumnarRoundTrip, RowApiMatchesInsertedRows) {
  const std::vector<BindingRow> rows = AllKindRows();
  BindingTable t = AllKindTable();
  ASSERT_EQ(t.NumRows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(t.Row(r), rows[r]) << "row " << r;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ(t.At(r, c), rows[r][c]) << "cell " << r << "," << c;
    }
  }
  EXPECT_EQ(t.Get(1, "x"), N(2));
  EXPECT_TRUE(t.Get(0, "absent").IsUnbound());
}

TEST(ColumnarRoundTrip, HeavyKindsKeepPayloads) {
  BindingTable t = AllKindTable();
  EXPECT_EQ(t.At(2, 0).path().id, PathId(9));
  EXPECT_EQ(t.At(2, 0).path().body.nodes.size(), 2u);
  EXPECT_EQ(t.At(2, 1).node_list(),
            (std::vector<NodeId>{NodeId(1), NodeId(2)}));
  EXPECT_EQ(t.At(2, 2).edge_list(), (std::vector<EdgeId>{EdgeId(5)}));
  EXPECT_EQ(t.At(3, 0).values().size(), 2u);
}

TEST(ColumnarRoundTrip, AddColumnPadsWithUnbound) {
  BindingTable t = AllKindTable();
  const size_t c = t.AddColumn("w");
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(t.AddColumn("x"), 0u);  // existing name returns its index
  for (size_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_TRUE(t.At(r, c).IsUnbound());
  }
  t.SetCell(2, c, V("set"));
  EXPECT_EQ(t.At(2, c), V("set"));
  t.SetCell(2, c, N(11));  // heavy -> dense overwrite
  EXPECT_EQ(t.At(2, c), N(11));
  t.SetCell(2, c, V("again"));  // dense -> heavy
  EXPECT_EQ(t.At(2, c), V("again"));
}

TEST(ColumnarRoundTrip, SliceAndAppendPreserveRows) {
  BindingTable t = AllKindTable();
  BindingTable slice = t.Slice(1, 4);
  ASSERT_EQ(slice.NumRows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(slice.Row(r), t.Row(r + 1)) << "row " << r;
  }
  // Re-assembling slices reproduces the table.
  BindingTable glued(t.columns());
  glued.AppendTable(t.Slice(0, 2));
  glued.AppendTable(t.Slice(2, t.NumRows()));
  ASSERT_EQ(glued.NumRows(), t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(glued.Row(r), t.Row(r)) << "row " << r;
  }
  // Row-index gather.
  BindingTable gathered(t.columns());
  gathered.AppendRowsFrom(t, {5, 0, 2});
  ASSERT_EQ(gathered.NumRows(), 3u);
  EXPECT_EQ(gathered.Row(0), t.Row(5));
  EXPECT_EQ(gathered.Row(1), t.Row(0));
  EXPECT_EQ(gathered.Row(2), t.Row(2));
  // Single-row append with unbound padding for extra columns.
  BindingTable wider({"x", "y", "z", "extra"});
  wider.AppendRowFrom(t, 3);
  ASSERT_EQ(wider.NumRows(), 1u);
  EXPECT_EQ(wider.At(0, 0), t.At(3, 0));
  EXPECT_TRUE(wider.At(0, 3).IsUnbound());
}

// --- hash stability -----------------------------------------------------------

/// The seed's row-walk hash, reproduced literally: HashCombine over
/// Datum::Hash of the materialized row. RowHash must equal it so every
/// dedup sink and join key built over columns sees the seed's hashes.
size_t SeedRowWalkHash(const BindingRow& row) {
  size_t h = 0;
  for (const Datum& d : row) {
    h = h ^ (d.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2));
  }
  return h;
}

TEST(ColumnarHashStability, RowHashMatchesRowWalk) {
  BindingTable t = AllKindTable();
  for (size_t r = 0; r < t.NumRows(); ++r) {
    const BindingRow row = t.Row(r);
    EXPECT_EQ(t.RowHash(r), HashRow(row)) << "row " << r;
    EXPECT_EQ(t.RowHash(r), SeedRowWalkHash(row)) << "row " << r;
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      EXPECT_EQ(t.ColumnAt(c).HashAt(r), row[c].Hash())
          << "cell " << r << "," << c;
    }
  }
}

TEST(ColumnarHashStability, DatumKindFormulasPinned) {
  // The per-kind formulas of the seed, pinned so the columnar fast paths
  // can never drift from persisted expectations.
  EXPECT_EQ(Datum::Unbound().Hash(), size_t{0x5bd1e995});
  EXPECT_EQ(N(42).Hash(), std::hash<uint64_t>{}(42) ^ 0x10);
  EXPECT_EQ(E(42).Hash(), std::hash<uint64_t>{}(42) ^ 0x20);
  EXPECT_EQ(P(42).Hash(), std::hash<PathId>{}(PathId(42)) ^ 0x30);
  EXPECT_EQ(V("a").Hash(), ValueSet(Value::String("a")).Hash() ^ 0x40);
}

TEST(ColumnarHashStability, CellEqualityMatchesDatumEquality) {
  BindingTable t = AllKindTable();
  for (size_t i = 0; i < t.NumRows(); ++i) {
    for (size_t j = 0; j < t.NumRows(); ++j) {
      EXPECT_EQ(BindingTable::RowsEqual(t, i, t, j), t.Row(i) == t.Row(j))
          << i << " vs " << j;
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        EXPECT_EQ(
            Column::CellsEqual(t.ColumnAt(c), i, t.ColumnAt(c), j),
            t.At(i, c) == t.At(j, c))
            << i << "," << j << " col " << c;
        EXPECT_EQ(t.ColumnAt(c).EqualsAt(i, t.At(j, c)),
                  t.At(i, c) == t.At(j, c));
      }
    }
  }
}

TEST(ColumnarDedup, SinkInsertFromMatchesRowInsert) {
  BindingTable src = AllKindTable();
  // Row-materializing sink.
  BindingTable by_row(src.columns());
  RowDedupSink row_sink(&by_row);
  for (size_t r = 0; r < src.NumRows(); ++r) row_sink.Insert(src.Row(r));
  // Columnar sink.
  BindingTable by_col(src.columns());
  RowDedupSink col_sink(&by_col);
  for (size_t r = 0; r < src.NumRows(); ++r) col_sink.InsertFrom(src, r);
  ASSERT_EQ(by_col.NumRows(), by_row.NumRows());
  for (size_t r = 0; r < by_row.NumRows(); ++r) {
    EXPECT_EQ(by_col.Row(r), by_row.Row(r)) << "row " << r;
  }
  // Duplicates collapse identically either way.
  EXPECT_FALSE(col_sink.InsertFrom(src, 0));
  EXPECT_FALSE(row_sink.Insert(src.Row(0)));
}

/// Pseudo-random property check: RowDedupSink dedup and TableJoin over
/// columnar storage agree with a row-materialized reference model.
TEST(ColumnarDedup, DeduplicateMatchesRowModel) {
  for (int seed = 0; seed < 8; ++seed) {
    BindingTable t({"x", "y"});
    for (int i = 0; i < 40; ++i) {
      const uint64_t vx = static_cast<uint64_t>((seed * 7 + i * 3) % 5);
      const uint64_t vy = static_cast<uint64_t>((seed * 5 + i * 2) % 4);
      BindingRow row;
      row.push_back(vx == 0 ? Datum::Unbound() : N(vx));
      row.push_back(vy == 0 ? V("v" + std::to_string(vy % 3)) : N(100 + vy));
      ASSERT_TRUE(t.AddRow(std::move(row)).ok());
    }
    // Reference: first-occurrence dedup over materialized rows.
    std::vector<BindingRow> reference;
    for (size_t r = 0; r < t.NumRows(); ++r) {
      const BindingRow row = t.Row(r);
      bool dup = false;
      for (const auto& kept : reference) {
        if (kept == row) {
          dup = true;
          break;
        }
      }
      if (!dup) reference.push_back(row);
    }
    t = Deduplicated(t);
    ASSERT_EQ(t.NumRows(), reference.size()) << "seed " << seed;
    for (size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(t.Row(r), reference[r]) << "seed " << seed << " row " << r;
    }
  }
}

TEST(ColumnarProjection, UnitTableSurvivesZeroColumnOps) {
  BindingTable unit = BindingTable::Unit();
  EXPECT_EQ(unit.NumRows(), 1u);
  EXPECT_EQ(unit.RowHash(0), HashRow({}));
  BindingTable copy = unit.Slice(0, 1);
  EXPECT_EQ(copy.NumRows(), 1u);
  EXPECT_TRUE(copy.Row(0).empty());
}

}  // namespace
}  // namespace gcore
