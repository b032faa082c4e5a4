// Tests for the CSR adjacency snapshot.
#include "graph/adjacency.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace gcore {
namespace {

struct SmallGraph {
  PathPropertyGraph g;
  SmallGraph() {
    for (uint64_t i = 1; i <= 4; ++i) g.AddNode(NodeId(i));
    EXPECT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
    EXPECT_TRUE(g.AddEdge(EdgeId(11), NodeId(1), NodeId(3)).ok());
    EXPECT_TRUE(g.AddEdge(EdgeId(12), NodeId(3), NodeId(1)).ok());
    EXPECT_TRUE(g.AddEdge(EdgeId(13), NodeId(2), NodeId(2)).ok());  // self loop
  }
};

TEST(AdjacencyIndex, DenseNumberingIsIdOrdered) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  ASSERT_EQ(adj.num_nodes(), 4u);
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(adj.IdOf(adj.IndexOf(NodeId(i))), NodeId(i));
    EXPECT_EQ(adj.IndexOf(NodeId(i)), i - 1);
  }
}

TEST(AdjacencyIndex, FindAgreesWithContainsAndIndexOf) {
  PathPropertyGraph g;
  for (uint64_t i : {2, 5, 9}) g.AddNode(NodeId(i));
  AdjacencyIndex adj(g);
  for (uint64_t i = 0; i <= 10; ++i) {
    const DenseNodeIndex got = adj.Find(NodeId(i));
    if (adj.Contains(NodeId(i))) {
      EXPECT_EQ(got, adj.IndexOf(NodeId(i))) << i;
    } else {
      EXPECT_EQ(got, adj.num_nodes()) << i;
    }
  }
  EXPECT_EQ(AdjacencyIndex(PathPropertyGraph()).Find(NodeId(1)), 0u);
}

TEST(AdjacencyIndex, OutListsForwardHalfEdges) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  auto [b, e] = adj.Out(adj.IndexOf(NodeId(1)));
  ASSERT_EQ(e - b, 2);
  EXPECT_EQ(b[0].edge, EdgeId(10));
  EXPECT_TRUE(b[0].forward);
  EXPECT_EQ(adj.IdOf(b[0].neighbor), NodeId(2));
  EXPECT_EQ(b[1].edge, EdgeId(11));
  EXPECT_EQ(adj.IdOf(b[1].neighbor), NodeId(3));
}

TEST(AdjacencyIndex, InListsBackwardHalfEdges) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  auto [b, e] = adj.In(adj.IndexOf(NodeId(1)));
  ASSERT_EQ(e - b, 1);
  EXPECT_EQ(b[0].edge, EdgeId(12));
  EXPECT_FALSE(b[0].forward);
  EXPECT_EQ(adj.IdOf(b[0].neighbor), NodeId(3));
}

TEST(AdjacencyIndex, SelfLoopAppearsBothDirections) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  const DenseNodeIndex two = adj.IndexOf(NodeId(2));
  auto [ob, oe] = adj.Out(two);
  auto [ib, ie] = adj.In(two);
  int loop_out = 0, loop_in = 0;
  for (auto* it = ob; it != oe; ++it) {
    if (it->edge == EdgeId(13)) ++loop_out;
  }
  for (auto* it = ib; it != ie; ++it) {
    if (it->edge == EdgeId(13)) ++loop_in;
  }
  EXPECT_EQ(loop_out, 1);
  EXPECT_EQ(loop_in, 1);
}

TEST(AdjacencyIndex, AllNeighborsExposesBothSpans) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  auto all = adj.AllNeighbors(adj.IndexOf(NodeId(1)));
  EXPECT_EQ(all.size(), 3u);
  EXPECT_FALSE(all.empty());
  // The spans alias the CSR storage: Out first, then In.
  EXPECT_EQ(all.out.begin, adj.Out(adj.IndexOf(NodeId(1))).first);
  EXPECT_EQ(all.in.begin, adj.In(adj.IndexOf(NodeId(1))).first);
  ASSERT_EQ(all.out.size(), 2u);
  ASSERT_EQ(all.in.size(), 1u);
  EXPECT_EQ(all.out.begin[0].edge, EdgeId(10));
  EXPECT_EQ(all.in.begin[0].edge, EdgeId(12));
}

TEST(AdjacencyIndex, EmptyGraph) {
  PathPropertyGraph g;
  AdjacencyIndex adj(g);
  EXPECT_EQ(adj.num_nodes(), 0u);
  EXPECT_FALSE(adj.Contains(NodeId(1)));
}

TEST(AdjacencyIndex, IsolatedNodeHasNoNeighbors) {
  SmallGraph f;
  AdjacencyIndex adj(f.g);
  auto [ob, oe] = adj.Out(adj.IndexOf(NodeId(4)));
  auto [ib, ie] = adj.In(adj.IndexOf(NodeId(4)));
  EXPECT_EQ(ob, oe);
  EXPECT_EQ(ib, ie);
}

TEST(AdjacencyIndex, DeterministicNeighborOrder) {
  // Neighbor lists sorted by (neighbor, edge id) — the fixed order the
  // deterministic shortest-path tiebreak relies on.
  PathPropertyGraph g;
  for (uint64_t i = 1; i <= 5; ++i) g.AddNode(NodeId(i));
  ASSERT_TRUE(g.AddEdge(EdgeId(30), NodeId(1), NodeId(5)).ok());
  ASSERT_TRUE(g.AddEdge(EdgeId(20), NodeId(1), NodeId(3)).ok());
  ASSERT_TRUE(g.AddEdge(EdgeId(25), NodeId(1), NodeId(3)).ok());
  AdjacencyIndex adj(g);
  auto [b, e] = adj.Out(adj.IndexOf(NodeId(1)));
  ASSERT_EQ(e - b, 3);
  EXPECT_EQ(b[0].edge, EdgeId(20));
  EXPECT_EQ(b[1].edge, EdgeId(25));
  EXPECT_EQ(b[2].edge, EdgeId(30));
}

}  // namespace
}  // namespace gcore
