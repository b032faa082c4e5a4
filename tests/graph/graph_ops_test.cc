// Tests for the graph-level set operations of Appendix A.5.
#include "graph/graph_ops.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace gcore {
namespace {

// Two overlapping graphs sharing node/edge identities (as query outputs
// share identities with inputs).
struct Fixture {
  PathPropertyGraph g1;
  PathPropertyGraph g2;

  Fixture() {
    g1.AddNode(NodeId(1));
    g1.AddNode(NodeId(2));
    g1.AddNode(NodeId(3));
    g1.AddLabel(NodeId(1), "A");
    g1.SetProperty(NodeId(1), "k", ValueSet({Value::Int(1), Value::Int(2)}));
    EXPECT_TRUE(g1.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
    g1.AddLabel(EdgeId(10), "e");
    EXPECT_TRUE(g1.AddEdge(EdgeId(11), NodeId(2), NodeId(3)).ok());
    PathBody body;
    body.nodes = {NodeId(1), NodeId(2), NodeId(3)};
    body.edges = {EdgeId(10), EdgeId(11)};
    EXPECT_TRUE(g1.AddPath(PathId(100), body).ok());
    g1.AddLabel(PathId(100), "p");

    g2.AddNode(NodeId(2));
    g2.AddNode(NodeId(3));
    g2.AddNode(NodeId(4));
    g2.AddLabel(NodeId(2), "B");
    g2.SetProperty(NodeId(2), "k", ValueSet(Value::Int(2)));
    EXPECT_TRUE(g2.AddEdge(EdgeId(11), NodeId(2), NodeId(3)).ok());
    g2.AddLabel(EdgeId(11), "f");
  }
};

TEST(GraphOps, ConsistentWhenSharedStructureAgrees) {
  Fixture f;
  EXPECT_TRUE(Consistent(f.g1, f.g2));
}

TEST(GraphOps, InconsistentWhenSharedEdgeDiffers) {
  Fixture f;
  PathPropertyGraph g3;
  g3.AddNode(NodeId(2));
  g3.AddNode(NodeId(3));
  // Same edge id 11, flipped ρ.
  ASSERT_TRUE(g3.AddEdge(EdgeId(11), NodeId(3), NodeId(2)).ok());
  EXPECT_FALSE(Consistent(f.g1, g3));
  // Union/intersection of inconsistent graphs are the empty PPG.
  EXPECT_TRUE(GraphUnion(f.g1, g3).Empty());
  EXPECT_TRUE(GraphIntersect(f.g1, g3).Empty());
}

TEST(GraphOps, UnionMembersAreSetUnions) {
  Fixture f;
  PathPropertyGraph u = GraphUnion(f.g1, f.g2);
  EXPECT_EQ(u.NumNodes(), 4u);
  EXPECT_EQ(u.NumEdges(), 2u);
  EXPECT_EQ(u.NumPaths(), 1u);
}

TEST(GraphOps, UnionMergesLabelsAndProperties) {
  Fixture f;
  PathPropertyGraph u = GraphUnion(f.g1, f.g2);
  // Node 2 carries labels from both sides; property sets union per key.
  EXPECT_TRUE(u.Labels(NodeId(2)).Contains("B"));
  EXPECT_TRUE(u.Labels(EdgeId(11)).Contains("f"));
  EXPECT_EQ(u.Property(NodeId(1), "k").size(), 2u);
}

TEST(GraphOps, UnionIsCommutativeUpToEquality) {
  Fixture f;
  EXPECT_TRUE(GraphEquals(GraphUnion(f.g1, f.g2), GraphUnion(f.g2, f.g1)));
}

TEST(GraphOps, IntersectKeepsOnlySharedMembers) {
  Fixture f;
  PathPropertyGraph i = GraphIntersect(f.g1, f.g2);
  EXPECT_EQ(i.NumNodes(), 2u);  // 2, 3
  EXPECT_EQ(i.NumEdges(), 1u);  // 11
  EXPECT_EQ(i.NumPaths(), 0u);
  EXPECT_TRUE(i.HasNode(NodeId(2)));
  EXPECT_TRUE(i.HasEdge(EdgeId(11)));
}

TEST(GraphOps, IntersectIntersectsLabelsAndProperties) {
  Fixture f;
  PathPropertyGraph i = GraphIntersect(f.g1, f.g2);
  // Node 2 has no shared labels; edge 11 has {} vs {f} -> {}.
  EXPECT_TRUE(i.Labels(NodeId(2)).empty());
  EXPECT_TRUE(i.Labels(EdgeId(11)).empty());
}

TEST(GraphOps, MinusDropsDanglingEdgesAndPaths) {
  Fixture f;
  // g1 ∖ g2: nodes {1}; edge 10 (1→2) dangles because 2 ∈ g2; path 100
  // references removed members so it is dropped too.
  PathPropertyGraph d = GraphMinus(f.g1, f.g2);
  EXPECT_EQ(d.NumNodes(), 1u);
  EXPECT_TRUE(d.HasNode(NodeId(1)));
  EXPECT_EQ(d.NumEdges(), 0u);
  EXPECT_EQ(d.NumPaths(), 0u);
}

TEST(GraphOps, MinusKeepsSurvivingStructure) {
  PathPropertyGraph a;
  a.AddNode(NodeId(1));
  a.AddNode(NodeId(2));
  ASSERT_TRUE(a.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  PathPropertyGraph b;
  b.AddNode(NodeId(99));
  PathPropertyGraph d = GraphMinus(a, b);
  EXPECT_EQ(d.NumNodes(), 2u);
  EXPECT_EQ(d.NumEdges(), 1u);
}

TEST(GraphOps, MinusRestrictsLambdaSigmaFromLeft) {
  Fixture f;
  PathPropertyGraph d = GraphMinus(f.g1, f.g2);
  EXPECT_TRUE(d.Labels(NodeId(1)).Contains("A"));
  EXPECT_EQ(d.Property(NodeId(1), "k").size(), 2u);
}

TEST(GraphOps, UnionWithEmptyIsIdentity) {
  Fixture f;
  PathPropertyGraph empty;
  EXPECT_TRUE(GraphEquals(GraphUnion(f.g1, empty), f.g1));
  EXPECT_TRUE(GraphEquals(GraphUnion(empty, f.g1), f.g1));
}

TEST(GraphOps, IntersectWithSelfIsIdentity) {
  Fixture f;
  EXPECT_TRUE(GraphEquals(GraphIntersect(f.g1, f.g1), f.g1));
}

TEST(GraphOps, MinusSelfIsEmpty) {
  Fixture f;
  EXPECT_TRUE(GraphMinus(f.g1, f.g1).Empty());
}

TEST(GraphOps, GraphEqualsDetectsPropertyDifference) {
  Fixture f;
  PathPropertyGraph copy = f.g1;
  EXPECT_TRUE(GraphEquals(f.g1, copy));
  copy.SetProperty(NodeId(1), "k", ValueSet(Value::Int(9)));
  EXPECT_FALSE(GraphEquals(f.g1, copy));
}

TEST(GraphOps, GraphEqualsDetectsStructuralDifference) {
  Fixture f;
  PathPropertyGraph copy = f.g1;
  copy.AddNode(NodeId(99));
  EXPECT_FALSE(GraphEquals(f.g1, copy));
}

// Algebraic laws as a parameterized sweep over generated graph pairs.
class GraphOpsLaws : public ::testing::TestWithParam<uint64_t> {
 protected:
  static PathPropertyGraph Random(uint64_t seed) {
    PathPropertyGraph g;
    // Small deterministic pseudo-random graph over a shared id universe so
    // instances overlap.
    uint64_t state = seed * 2654435761u + 1;
    auto next = [&]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    for (int i = 0; i < 8; ++i) {
      if (next() % 3 != 0) g.AddNode(NodeId(1 + next() % 10));
    }
    for (int i = 0; i < 10; ++i) {
      const NodeId a(1 + next() % 10);
      const NodeId b(1 + next() % 10);
      if (g.HasNode(a) && g.HasNode(b)) {
        // Edge id determined by endpoints => any two instances agree on ρ.
        Status st =
            g.AddEdge(EdgeId(100 + a.value() * 10 + b.value()), a, b);
        (void)st;
      }
    }
    return g;
  }
};

TEST_P(GraphOpsLaws, UnionCommutes) {
  PathPropertyGraph a = Random(GetParam());
  PathPropertyGraph b = Random(GetParam() + 1000);
  EXPECT_TRUE(GraphEquals(GraphUnion(a, b), GraphUnion(b, a)));
  // In place: a moved-in accumulator, and both operands moved (the smaller
  // merges into the larger).
  EXPECT_TRUE(GraphEquals(GraphUnion(PathPropertyGraph(a), b),
                          GraphUnion(PathPropertyGraph(b), a)));
  EXPECT_TRUE(GraphEquals(
      GraphUnion(PathPropertyGraph(a), PathPropertyGraph(b)),
      GraphUnion(a, b)));
}

TEST_P(GraphOpsLaws, IntersectCommutes) {
  PathPropertyGraph a = Random(GetParam());
  PathPropertyGraph b = Random(GetParam() + 1000);
  EXPECT_TRUE(GraphEquals(GraphIntersect(a, b), GraphIntersect(b, a)));
}

TEST_P(GraphOpsLaws, UnionIdempotent) {
  PathPropertyGraph a = Random(GetParam());
  EXPECT_TRUE(GraphEquals(GraphUnion(a, a), a));
  EXPECT_TRUE(GraphEquals(GraphUnion(PathPropertyGraph(a), a), a));
  EXPECT_TRUE(
      GraphEquals(GraphUnion(PathPropertyGraph(a), PathPropertyGraph(a)), a));
}

TEST_P(GraphOpsLaws, IntersectSubsetOfUnion) {
  PathPropertyGraph a = Random(GetParam());
  PathPropertyGraph b = Random(GetParam() + 1000);
  PathPropertyGraph i = GraphIntersect(a, b);
  PathPropertyGraph u = GraphUnion(PathPropertyGraph(a), b);
  i.ForEachNode([&](NodeId n) { EXPECT_TRUE(u.HasNode(n)); });
  i.ForEachEdge([&](EdgeId e, NodeId, NodeId) { EXPECT_TRUE(u.HasEdge(e)); });
}

TEST_P(GraphOpsLaws, MinusDisjointFromRight) {
  PathPropertyGraph a = Random(GetParam());
  PathPropertyGraph b = Random(GetParam() + 1000);
  PathPropertyGraph d = GraphMinus(a, b);
  d.ForEachNode([&](NodeId n) { EXPECT_FALSE(b.HasNode(n)); });
  EXPECT_TRUE(d.Validate().ok());  // no dangling structure
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphOpsLaws, ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace gcore
