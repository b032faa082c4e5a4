// Snapshot persistence tests: the saved arena must round-trip through
// both loaders (read-back and mmap) bit-exactly, reconstruct the full
// PPG it was frozen from, survive the degenerate shapes the writer can
// meet, reject corrupt files, and — end to end — serve byte-identical
// query results through GraphCatalog::RegisterSnapshotFile.
#include "graph/snapshot_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "graph/catalog.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "paths/k_shortest.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/gcore_" + name + ".snap";
}

/// Exercises every cell encoding the arena writer has: multi-labels,
/// parallel edges, a self-loop, all inline kinds, a non-calendar date
/// (overflow singleton), multi-valued sets, interned-string sharing
/// across node and edge columns, and a labeled stored path with
/// properties.
PathPropertyGraph MakeRichGraph(IdAllocator* ids) {
  GraphBuilder b("rich", ids);
  const NodeId p0 = b.AddNode({"Person"}, {{"age", int64_t{30}},
                                           {"name", "alice"},
                                           {"score", 2.5},
                                           {"shared", "both"}});
  const NodeId p1 = b.AddNode({"Person", "Admin"},
                              {{"age", int64_t{41}},
                               {"active", true},
                               {"since", Value::OfDate({2015, 3, 9})}});
  const NodeId t0 = b.AddNode({"Tag"}, {{"misc", Value::Null()}});
  const NodeId bare = b.AddNode();
  // Non-calendar date: epoch days cannot encode it, so it must travel
  // out of line and come back field-exact.
  b.AddNodePropertyValue(p1, "odd", Value::OfDate({2015, 2, 37}));
  b.AddNodePropertyValue(p0, "employer", Value::String("CWI"));
  b.AddNodePropertyValue(p0, "employer", Value::String("MIT"));
  const EdgeId k0 = b.AddEdge(p0, p1, "knows", {{"since", int64_t{2010}},
                                                {"shared", "both"}});
  b.AddEdge(p0, p1, "knows", {{"since", int64_t{2011}}});
  b.AddEdge(p1, t0, "hasInterest");
  b.AddEdge(bare, bare, "");
  b.AddEdgePropertyValue(k0, "weight", Value::Double(0.5));
  auto path = b.AddPath({p0, p1}, {k0}, {"toAdmin"}, {{"trust", 0.95}});
  EXPECT_TRUE(path.ok()) << path.status().ToString();
  return b.Build();
}

bool SameBytes(const ArenaBuffer& a, const ArenaBuffer& b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Shared round-trip core: save, load both ways, and pin that every
/// loaded image is byte-identical to the frozen one and reconstructs the
/// source PPG exactly.
void ExpectRoundTrips(const PathPropertyGraph& g, const std::string& tag) {
  const GraphSnapshot frozen(g);
  const std::string path = TempPath(tag);
  ASSERT_TRUE(SaveSnapshot(frozen, path).ok());

  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameBytes((*loaded)->arena(), frozen.arena()));

  auto mapped = MmapSnapshotFile(path, /*verify_checksum=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(SameBytes((*mapped)->arena(), frozen.arena()));

  for (const auto& snap : {*loaded, *mapped}) {
    EXPECT_EQ(snap->num_nodes(), g.NumNodes());
    EXPECT_EQ(snap->num_edges(), g.NumEdges());
    EXPECT_EQ(snap->num_paths(), g.NumPaths());
    // Exact inverse: the reconstruction renders identically to the
    // source, and freezing it again packs the identical arena.
    const PathPropertyGraph back = snap->ReconstructGraph(g.name());
    EXPECT_EQ(back.ToString(), g.ToString());
    EXPECT_TRUE(SameBytes(GraphSnapshot(back).arena(), frozen.arena()));
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, RoundTripsRichGraph) {
  IdAllocator ids;
  ExpectRoundTrips(MakeRichGraph(&ids), "rich");
}

TEST(SnapshotIo, RoundTripsToyGraphsWithStoredPaths) {
  IdAllocator ids;
  // example_graph carries the labeled + propertied stored path 301.
  ExpectRoundTrips(snb::MakeExampleGraph(&ids), "example");
  ExpectRoundTrips(snb::MakeSocialGraph(&ids), "social");
}

TEST(SnapshotIo, RoundTripsDegenerateShapes) {
  ExpectRoundTrips(PathPropertyGraph("empty"), "empty");
  {
    IdAllocator ids;
    GraphBuilder b("zero-label", &ids);
    const NodeId a = b.AddNode({}, {{"k", int64_t{1}}});
    const NodeId c = b.AddNode();
    b.AddEdge(a, c, "");  // the empty label still interns
    ExpectRoundTrips(b.Build(), "zero_label");
  }
  {
    IdAllocator ids;
    GraphBuilder b("zero-edge", &ids);
    b.AddNode({"Only"}, {{"k", "v"}});
    b.AddNode({"Only"});
    ExpectRoundTrips(b.Build(), "zero_edge");
  }
}

TEST(SnapshotIo, LoadedCellsMatchSourceValues) {
  IdAllocator ids;
  const PathPropertyGraph g = MakeRichGraph(&ids);
  const std::string path = TempPath("cells");
  ASSERT_TRUE(SaveSnapshot(GraphSnapshot(g), path).ok());
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GraphSnapshot& snap = **loaded;
  std::remove(path.c_str());

  // Every σ cell of every object survives the encode→file→decode chain.
  g.ForEachNode([&](NodeId id) {
    const DenseNodeIndex n = snap.adjacency().IndexOf(id);
    for (const auto& [key, values] : g.Properties(id).entries()) {
      const auto* col = snap.NodeColumn(key);
      ASSERT_NE(col, nullptr) << key;
      EXPECT_EQ(snap.CellValues(*col, n), values) << key;
    }
  });
  g.ForEachEdge([&](EdgeId id, NodeId, NodeId) {
    const DenseEdgeIndex e = snap.FindEdge(id);
    ASSERT_NE(e, GraphSnapshot::kNoEdge);
    for (const auto& [key, values] : g.Properties(id).entries()) {
      const auto* col = snap.EdgeColumn(key);
      ASSERT_NE(col, nullptr) << key;
      EXPECT_EQ(snap.CellValues(*col, e), values) << key;
    }
  });

  // Interned-string dedup survives: the value shared by a node column
  // and an edge column resolves to one pool id on the loaded image.
  const uint32_t shared = snap.InternedString("both");
  ASSERT_NE(shared, GraphSnapshot::kNoString);
  const auto* ncol = snap.NodeColumn("shared");
  const auto* ecol = snap.EdgeColumn("shared");
  ASSERT_NE(ncol, nullptr);
  ASSERT_NE(ecol, nullptr);
  bool found_node = false, found_edge = false;
  for (size_t i = 0; i < ncol->size(); ++i) {
    if (ncol->KindAt(i) == GraphSnapshot::PropKind::kString) {
      EXPECT_EQ(ncol->StringIdAt(i), shared);
      found_node = true;
    }
  }
  for (size_t i = 0; i < ecol->size(); ++i) {
    if (ecol->KindAt(i) == GraphSnapshot::PropKind::kString) {
      EXPECT_EQ(ecol->StringIdAt(i), shared);
      found_edge = true;
    }
  }
  EXPECT_TRUE(found_node);
  EXPECT_TRUE(found_edge);
}

TEST(SnapshotIo, RejectsCorruptFiles) {
  IdAllocator ids;
  const PathPropertyGraph g = MakeRichGraph(&ids);
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(SaveSnapshot(GraphSnapshot(g), path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto write = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  };

  // Truncated header.
  write(bytes.substr(0, 16));
  EXPECT_FALSE(LoadSnapshotFile(path).ok());
  EXPECT_FALSE(MmapSnapshotFile(path).ok());

  // Truncated payload.
  write(bytes.substr(0, bytes.size() - 9));
  EXPECT_FALSE(LoadSnapshotFile(path).ok());
  EXPECT_FALSE(MmapSnapshotFile(path).ok());

  // Bad magic.
  {
    std::string flipped = bytes;
    flipped[0] = static_cast<char>(flipped[0] ^ 0xff);
    write(flipped);
    EXPECT_FALSE(LoadSnapshotFile(path).ok());
    EXPECT_FALSE(MmapSnapshotFile(path).ok());
  }

  // A flipped payload byte fails the read loader's checksum, and the
  // mmap loader's when verification is requested.
  {
    std::string flipped = bytes;
    flipped[flipped.size() - 1] =
        static_cast<char>(flipped[flipped.size() - 1] ^ 0xff);
    write(flipped);
    const auto r = LoadSnapshotFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
    EXPECT_FALSE(MmapSnapshotFile(path, /*verify_checksum=*/true).ok());
  }

  // An unknown format version is rejected outright (no migration).
  {
    std::string future = bytes;
    future[8] = static_cast<char>(0x7f);  // version field, little-endian
    write(future);
    const auto r = LoadSnapshotFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("version"), std::string::npos);
  }

  EXPECT_FALSE(LoadSnapshotFile(TempPath("missing")).ok());
  std::remove(path.c_str());
}

/// The acceptance differential: a freshly frozen catalog and one serving
/// a file-loaded snapshot must answer the full query mix byte-identically
/// — point lookup, expand, and the CONSTRUCT path query that reads the
/// reconstructed PPG through the evaluation tail.
TEST(SnapshotIo, CatalogServesLoadedSnapshotByteIdentically) {
  const char* const kMix[] = {
      "SELECT n.firstName AS name MATCH (n:Person) "
      "WHERE n.employer = 'Acme'",
      "SELECT n.firstName AS src, m.firstName AS dst "
      "MATCH (n:Person)-[:knows]->(m:Person)",
      "CONSTRUCT (n) MATCH (n:Person)-/<:knows*>/->(m:Person) "
      "WHERE m.firstName = 'Frank'",
      // Guided-tour lines 23-27: k-shortest reconstruction over the image.
      "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE (n:Person) AND (m:Person) "
      "AND n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
  };

  GraphCatalog fresh;
  snb::RegisterToyData(&fresh);
  QueryEngine fresh_engine(&fresh);
  // Both sides draw the fresh path ids of the stored-path CONSTRUCT from
  // the same counter value, so its output compares byte for byte too.
  const uint64_t last_path_id = fresh.ids()->NextPath().value();
  std::vector<std::string> expected;
  for (const char* q : kMix) {
    auto r = fresh_engine.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->ToString());
  }

  auto snap = fresh.Snapshot("social_graph");
  ASSERT_TRUE(snap.ok());
  const std::string path = TempPath("social");
  ASSERT_TRUE(SaveSnapshot(**snap, path).ok());

  for (const bool use_mmap : {false, true}) {
    GraphCatalog served;
    ASSERT_TRUE(
        served.RegisterSnapshotFile("social_graph", path, use_mmap).ok());
    served.ids()->ReservePathUpTo(last_path_id);
    served.SetDefaultGraph("social_graph");
    EXPECT_GT(served.GraphVersion("social_graph"), 0u);

    // The loaded image pre-seeds the snapshot cache: the first read-path
    // request must hand back an attached snapshot without freezing.
    auto cached = served.Snapshot("social_graph");
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ((*cached)->num_nodes(), (*snap)->num_nodes());

    // Loaded ids are reserved: fresh allocations never collide.
    auto graph = served.LookupShared("social_graph");
    ASSERT_TRUE(graph.ok());
    const NodeId fresh_id = served.ids()->NextNode();
    EXPECT_FALSE((*graph)->HasNode(fresh_id));

    QueryEngine engine(&served);
    for (size_t q = 0; q < expected.size(); ++q) {
      auto r = engine.Execute(kMix[q]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->ToString(), expected[q]) << "use_mmap=" << use_mmap;
    }

    // Re-registering from file again bumps the version (epoch machinery
    // treats it like any registration).
    const uint64_t v = served.GraphVersion("social_graph");
    ASSERT_TRUE(
        served.RegisterSnapshotFile("social_graph", path, use_mmap).ok());
    EXPECT_GT(served.GraphVersion("social_graph"), v);
  }
  std::remove(path.c_str());
}

// The path kernels read only the image: k-shortest over a loaded file,
// with no PPG behind it, returns the costs and bodies it returns over the
// frozen original.
TEST(SnapshotIo, KShortestOverLoadedImageMatchesFrozen) {
  IdAllocator ids;
  snb::GeneratorOptions options;
  options.seed = 7;
  options.num_persons = 120;
  const PathPropertyGraph g = snb::Generate(options, &ids);
  const GraphSnapshot frozen(g);
  const std::string path = TempPath("kshortest");
  ASSERT_TRUE(SaveSnapshot(frozen, path).ok());
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto mapped = MmapSnapshotFile(path, /*verify_checksum=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<NodeId> node_ids = g.NodeIds();
  size_t multi_hop = 0;
  for (const char* regex : {":knows*", ":knows+ !Person", "(:knows-)+"}) {
    auto rpq = ParseRpq(regex);
    ASSERT_TRUE(rpq.ok()) << rpq.status().ToString();
    const Nfa nfa = Nfa::Compile(**rpq);
    for (size_t i = 0; i < node_ids.size(); i += 37) {
      PathSearchContext ctx;
      ctx.nfa = &nfa;
      ctx.snap = &frozen;
      auto want = KShortestPathsFrom(ctx, node_ids[i], 3);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (const GraphSnapshot* image : {loaded->get(), mapped->get()}) {
        ctx.snap = image;
        auto got = KShortestPathsFrom(ctx, node_ids[i], 3);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->size(), want->size()) << regex;
        for (const auto& [dst, paths] : *want) {
          const auto it = got->find(dst);
          ASSERT_NE(it, got->end()) << regex << " " << ToString(dst);
          ASSERT_EQ(it->second.size(), paths.size());
          for (size_t p = 0; p < paths.size(); ++p) {
            EXPECT_EQ(it->second[p].cost, paths[p].cost);
            EXPECT_EQ(it->second[p].body.nodes, paths[p].body.nodes);
            EXPECT_EQ(it->second[p].body.edges, paths[p].body.edges);
            if (paths[p].body.edges.size() > 1) ++multi_hop;
          }
        }
      }
    }
  }
  EXPECT_GT(multi_hop, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcore
