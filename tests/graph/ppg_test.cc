// Tests of the PPG data model (Definition 2.1) including the exact
// Example 2.2 instance of Figure 2.
#include "graph/ppg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "graph/graph_builder.h"
#include "graph/graph_ops.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

TEST(LabelSet, InsertRemoveContains) {
  LabelSet s;
  s.Insert("Person");
  s.Insert("Manager");
  s.Insert("Person");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains("Person"));
  EXPECT_TRUE(s.Contains("Manager"));
  s.Remove("Person");
  EXPECT_FALSE(s.Contains("Person"));
  s.Remove("NotThere");
  EXPECT_EQ(s.size(), 1u);
}

TEST(LabelSet, UnionIntersect) {
  LabelSet a({"A", "B"});
  LabelSet b({"B", "C"});
  LabelSet u = a;
  u.UnionWith(b);
  EXPECT_EQ(u, LabelSet({"A", "B", "C"}));
  LabelSet i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i, LabelSet({"B"}));
}

TEST(LabelSet, ToStringColonForm) {
  EXPECT_EQ(LabelSet({"Person", "Manager"}).ToString(), ":Manager:Person");
  EXPECT_EQ(LabelSet().ToString(), "");
}

TEST(PropertyMap, AbsentKeyIsEmptySet) {
  PropertyMap m;
  EXPECT_TRUE(m.Get("name").empty());
  EXPECT_FALSE(m.Has("name"));
}

TEST(PropertyMap, SetGetRemove) {
  PropertyMap m;
  m.Set("name", ValueSet(Value::String("Wagner")));
  EXPECT_TRUE(m.Has("name"));
  EXPECT_EQ(m.Get("name").single(), Value::String("Wagner"));
  m.Remove("name");
  EXPECT_FALSE(m.Has("name"));
}

TEST(PropertyMap, SettingEmptyErases) {
  PropertyMap m;
  m.Set("k", ValueSet(Value::Int(1)));
  m.Set("k", ValueSet());
  EXPECT_FALSE(m.Has("k"));
}

TEST(PropertyMap, AddBuildsMultiValued) {
  PropertyMap m;
  m.Add("employer", Value::String("CWI"));
  m.Add("employer", Value::String("MIT"));
  m.Add("employer", Value::String("CWI"));
  EXPECT_EQ(m.Get("employer").size(), 2u);
}

TEST(PropertyMap, UnionIntersectPerKey) {
  PropertyMap a;
  a.Set("k", ValueSet({Value::Int(1), Value::Int(2)}));
  a.Set("only_a", ValueSet(Value::Int(9)));
  PropertyMap b;
  b.Set("k", ValueSet({Value::Int(2), Value::Int(3)}));

  PropertyMap u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Get("k").size(), 3u);
  EXPECT_TRUE(u.Has("only_a"));

  PropertyMap i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Get("k"), ValueSet(Value::Int(2)));
  EXPECT_FALSE(i.Has("only_a"));
}

TEST(PathPropertyGraph, AddNodeIdempotent) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  g.AddLabel(NodeId(1), "Person");
  g.AddNode(NodeId(1));
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_TRUE(g.Labels(NodeId(1)).Contains("Person"));
}

TEST(PathPropertyGraph, EdgeRequiresMemberEndpoints) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  EXPECT_FALSE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  g.AddNode(NodeId(2));
  EXPECT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  EXPECT_EQ(g.EdgeEndpoints(EdgeId(10)), std::make_pair(NodeId(1), NodeId(2)));
}

TEST(PathPropertyGraph, EdgeIdentityViolationRejected) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  g.AddNode(NodeId(2));
  ASSERT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  // Same id, same ρ: fine. Different ρ: identity violation.
  EXPECT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  EXPECT_FALSE(g.AddEdge(EdgeId(10), NodeId(2), NodeId(1)).ok());
}

TEST(PathPropertyGraph, MultipleEdgesBetweenSamePair) {
  // "The function ρ allows us to have several edges between the same pairs
  // of nodes" (Section 2).
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  g.AddNode(NodeId(2));
  ASSERT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  ASSERT_TRUE(g.AddEdge(EdgeId(11), NodeId(1), NodeId(2)).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(PathPropertyGraph, PathValidationConditionThree) {
  // δ(p) must concatenate adjacent member edges, traversable in either
  // direction (condition (3) of Definition 2.1).
  PathPropertyGraph g;
  for (uint64_t i = 1; i <= 3; ++i) g.AddNode(NodeId(i));
  ASSERT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  ASSERT_TRUE(g.AddEdge(EdgeId(11), NodeId(3), NodeId(2)).ok());  // reversed

  PathBody ok_body;
  ok_body.nodes = {NodeId(1), NodeId(2), NodeId(3)};
  ok_body.edges = {EdgeId(10), EdgeId(11)};  // 11 crossed backwards
  EXPECT_TRUE(g.AddPath(PathId(100), ok_body).ok());

  PathBody bad_nodes;
  bad_nodes.nodes = {NodeId(1), NodeId(3)};
  bad_nodes.edges = {EdgeId(10)};  // 10 does not connect 1-3
  EXPECT_FALSE(g.AddPath(PathId(101), bad_nodes).ok());

  PathBody bad_arity;
  bad_arity.nodes = {NodeId(1)};
  bad_arity.edges = {EdgeId(10)};
  EXPECT_FALSE(g.AddPath(PathId(102), bad_arity).ok());
}

TEST(PathPropertyGraph, ZeroLengthPathAllowed) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  PathBody body;
  body.nodes = {NodeId(1)};
  EXPECT_TRUE(g.AddPath(PathId(100), body).ok());
  EXPECT_EQ(g.Path(PathId(100)).Length(), 0u);
}

TEST(PathPropertyGraph, PathsHaveLabelsAndProperties) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  PathBody body;
  body.nodes = {NodeId(1)};
  ASSERT_TRUE(g.AddPath(PathId(100), body).ok());
  g.AddLabel(PathId(100), "toWagner");
  g.SetProperty(PathId(100), "trust", ValueSet(Value::Double(0.95)));
  EXPECT_TRUE(g.Labels(PathId(100)).Contains("toWagner"));
  EXPECT_DOUBLE_EQ(g.Property(PathId(100), "trust").single().AsDouble(), 0.95);
}

TEST(PathPropertyGraph, ValidateDetectsWellFormedness) {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  g.AddNode(NodeId(2));
  ASSERT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  EXPECT_TRUE(g.Validate().ok());
}

TEST(PathPropertyGraph, DescendingInsertionEqualsAscending) {
  // Members inserted below the largest present id land at their sorted
  // position: the same members in either order make the same graph.
  auto build = [](bool descending) {
    PathPropertyGraph g;
    std::vector<uint64_t> order;
    for (uint64_t i = 1; i <= 40; ++i) order.push_back(i);
    if (descending) std::reverse(order.begin(), order.end());
    for (uint64_t i : order) {
      g.AddNode(NodeId(i * 7));
      g.AddLabel(NodeId(i * 7), "N" + std::to_string(i % 3));
      g.SetProperty(NodeId(i * 7), "v", ValueSet(Value::Int(i)));
    }
    for (uint64_t i : order) {
      if (i == 40) continue;
      EXPECT_TRUE(g.AddEdge(EdgeId(i * 5), NodeId(i * 7), NodeId(i * 7 + 7))
                      .ok());
      g.AddLabel(EdgeId(i * 5), "next");
    }
    for (uint64_t i : order) {
      if (i > 10) continue;
      PathBody body;
      body.nodes = {NodeId(i * 7), NodeId(i * 7 + 7)};
      body.edges = {EdgeId(i * 5)};
      EXPECT_TRUE(g.AddPath(PathId(100 - i), body).ok());
      g.SetProperty(PathId(100 - i), "len", ValueSet(Value::Int(1)));
    }
    return g;
  };
  const PathPropertyGraph up = build(false);
  const PathPropertyGraph down = build(true);
  EXPECT_TRUE(GraphEquals(up, down));
  EXPECT_EQ(up.NodeIds(), down.NodeIds());
  EXPECT_EQ(up.EdgeIds(), down.EdgeIds());
  EXPECT_EQ(up.PathIds(), down.PathIds());
  EXPECT_EQ(up.ToString(), down.ToString());
  EXPECT_TRUE(down.Validate().ok());
}

TEST(PathPropertyGraph, LookupOverUnevenIds) {
  // Dense runs, a far outlier and random ids: every member is found and
  // every neighbouring non-member is not.
  std::set<uint64_t> ids;
  for (uint64_t i = 1; i <= 100; ++i) ids.insert(i);
  for (uint64_t i = 5000; i <= 5010; ++i) ids.insert(i);
  ids.insert(uint64_t{1} << 40);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300; ++i) ids.insert(rng() % 1000000 + 1);
  PathPropertyGraph g;
  for (uint64_t id : ids) {
    g.AddNode(NodeId(id));
    g.SetProperty(NodeId(id), "v", ValueSet(Value::Int(id)));
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(g.HasNode(NodeId(id))) << id;
    EXPECT_EQ(g.Property(NodeId(id), "v").single(), Value::Int(id)) << id;
    for (uint64_t probe : {id - 1, id + 1}) {
      EXPECT_EQ(g.HasNode(NodeId(probe)), ids.count(probe) > 0) << probe;
    }
  }
  EXPECT_FALSE(g.HasNode(NodeId((uint64_t{1} << 40) + 1)));
  EXPECT_FALSE(PathPropertyGraph().HasNode(NodeId(1)));
}

TEST(PathPropertyGraph, BatchLookupMatchesSingleLookups) {
  // The same uneven ids, probed in ascending batches with repeats, gaps
  // before, between and after the members, and far jumps the gallop must
  // cross.
  std::set<uint64_t> ids;
  for (uint64_t i = 1; i <= 100; ++i) ids.insert(2 * i);
  ids.insert(uint64_t{1} << 40);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 300; ++i) ids.insert(rng() % 1000000 + 1);
  PathPropertyGraph g;
  NodeId prev;
  for (uint64_t id : ids) {
    g.AddNode(NodeId(id));
    if (prev.valid()) {
      ASSERT_TRUE(g.AddEdge(EdgeId(id), prev, NodeId(id)).ok());
    }
    prev = NodeId(id);
  }
  std::vector<uint64_t> probes = {0, 1, 2, 2, 3, 200, 201, 1000001,
                                  uint64_t{1} << 40, (uint64_t{1} << 40) + 1};
  for (int i = 0; i < 500; ++i) probes.push_back(rng() % 1100000);
  for (uint64_t id : ids) probes.push_back(id);
  std::sort(probes.begin(), probes.end());
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  for (uint64_t id : probes) {
    nodes.push_back(NodeId(id));
    edges.push_back(EdgeId(id));
  }
  const auto found_nodes = g.FindNodes(nodes);
  const auto found_edges = g.FindEdges(edges);
  ASSERT_EQ(found_nodes.size(), probes.size());
  ASSERT_EQ(found_edges.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(found_nodes[i], g.FindNode(nodes[i])) << probes[i];
    EXPECT_EQ(found_edges[i], g.FindEdge(edges[i])) << probes[i];
  }
  EXPECT_TRUE(g.FindNodes({}).empty());
  EXPECT_EQ(PathPropertyGraph().FindEdges(edges),
            std::vector<const PathPropertyGraph::EdgeData*>(edges.size()));
}

TEST(PathPropertyGraph, AscendingAppendEqualsUpsert) {
  PathPropertyGraph appended;
  PathPropertyGraph upserted;
  appended.Reserve(3, 2);
  for (uint64_t id : {3, 5, 9}) {
    appended.AppendNode(NodeId(id)).labels.Insert("N");
    upserted.UpsertNode(NodeId(id)).labels.Insert("N");
  }
  for (auto [id, src, dst] :
       {std::make_tuple(4, 3, 5), std::make_tuple(7, 9, 3)}) {
    appended.AppendEdge(EdgeId(id), NodeId(src), NodeId(dst))
        .props.Set("w", ValueSet(Value::Int(id)));
    auto out = upserted.UpsertEdge(EdgeId(id), NodeId(src), NodeId(dst));
    ASSERT_TRUE(out.ok());
    (*out)->props.Set("w", ValueSet(Value::Int(id)));
  }
  EXPECT_TRUE(appended.Validate().ok());
  EXPECT_TRUE(GraphEquals(appended, upserted));
  EXPECT_EQ(appended.EdgeEndpoints(EdgeId(7)),
            std::make_pair(NodeId(9), NodeId(3)));
}

// CONSTRUCT appends stored paths whose bodies it has just imported; the
// unchecked append builds the graph the checked upsert does.
TEST(PathPropertyGraph, PathAppendEqualsUpsert) {
  PathPropertyGraph appended;
  PathPropertyGraph upserted;
  for (PathPropertyGraph* g : {&appended, &upserted}) {
    for (uint64_t id : {1, 2, 3}) g->AddNode(NodeId(id));
    ASSERT_TRUE(g->AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
    ASSERT_TRUE(g->AddEdge(EdgeId(11), NodeId(3), NodeId(2)).ok());
  }
  PathBody forward;
  forward.nodes = {NodeId(1), NodeId(2)};
  forward.edges = {EdgeId(10)};
  PathBody across;  // the second edge walked against its direction
  across.nodes = {NodeId(1), NodeId(2), NodeId(3)};
  across.edges = {EdgeId(10), EdgeId(11)};
  PathBody single;
  single.nodes = {NodeId(3)};
  for (auto [id, body] : {std::make_pair(100, forward),
                          std::make_pair(101, across),
                          std::make_pair(105, single)}) {
    PathPropertyGraph::ObjectData& out = appended.AppendPath(PathId(id), body);
    out.labels.Insert("nearest");
    out.props.Set("len", ValueSet(Value::Int(body.Length())));
    auto upsert = upserted.UpsertPath(PathId(id), body);
    ASSERT_TRUE(upsert.ok());
    (*upsert)->labels.Insert("nearest");
    (*upsert)->props.Set("len", ValueSet(Value::Int(body.Length())));
  }
  EXPECT_TRUE(appended.Validate().ok());
  EXPECT_TRUE(GraphEquals(appended, upserted));
  EXPECT_EQ(appended.Path(PathId(101)), across);
}

// --- copy-on-write λ/σ -----------------------------------------------------------

/// Two nodes, an edge and a stored path, each with two labels and two
/// properties.
PathPropertyGraph CowGraph() {
  PathPropertyGraph g;
  g.AddNode(NodeId(1));
  g.AddNode(NodeId(2));
  EXPECT_TRUE(g.AddEdge(EdgeId(10), NodeId(1), NodeId(2)).ok());
  PathBody body;
  body.nodes = {NodeId(1), NodeId(2)};
  body.edges = {EdgeId(10)};
  EXPECT_TRUE(g.AddPath(PathId(100), body).ok());
  auto decorate = [&](auto id) {
    g.AddLabel(id, "A");
    g.AddLabel(id, "B");
    g.SetProperty(id, "k", ValueSet(Value::Int(1)));
    g.SetProperty(id, "m", ValueSet(Value::String("x")));
  };
  decorate(NodeId(1));
  decorate(NodeId(2));
  decorate(EdgeId(10));
  decorate(PathId(100));
  return g;
}

/// Every member's λ/σ copied out by value, independent of payload
/// sharing.
using Contents = std::vector<
    std::pair<std::vector<std::string>, std::map<std::string, ValueSet>>>;
Contents DeepContents(const PathPropertyGraph& g) {
  Contents out;
  auto add = [&](auto id) {
    out.emplace_back(g.Labels(id).labels(), g.Properties(id).entries());
  };
  add(NodeId(1));
  add(NodeId(2));
  add(EdgeId(10));
  add(PathId(100));
  return out;
}

/// Every λ/σ mutator, applied to node 1, edge 10 or path 100.
std::vector<std::pair<std::string, std::function<void(PathPropertyGraph*)>>>
Mutators() {
  std::vector<std::pair<std::string, std::function<void(PathPropertyGraph*)>>>
      out;
  auto add_for = [&](const std::string& kind, auto id) {
    out.emplace_back(kind + " AddLabel",
                     [id](PathPropertyGraph* g) { g->AddLabel(id, "C"); });
    out.emplace_back(kind + " RemoveLabel",
                     [id](PathPropertyGraph* g) { g->RemoveLabel(id, "A"); });
    out.emplace_back(kind + " SetLabels", [id](PathPropertyGraph* g) {
      g->SetLabels(id, LabelSet({"Z"}));
    });
    out.emplace_back(kind + " SetProperty", [id](PathPropertyGraph* g) {
      g->SetProperty(id, "k", ValueSet(Value::Int(9)));
    });
    out.emplace_back(kind + " RemoveProperty", [id](PathPropertyGraph* g) {
      g->RemoveProperty(id, "m");
    });
    out.emplace_back(kind + " SetProperties", [id](PathPropertyGraph* g) {
      PropertyMap props;
      props.Set("z", ValueSet(Value::Int(0)));
      g->SetProperties(id, std::move(props));
    });
  };
  add_for("node", NodeId(1));
  add_for("edge", EdgeId(10));
  add_for("path", PathId(100));
  out.emplace_back("UpsertNode edit", [](PathPropertyGraph* g) {
    PathPropertyGraph::ObjectData& data = g->UpsertNode(NodeId(1));
    data.labels.Insert("U");
    data.props.Add("k", Value::Int(5));
  });
  out.emplace_back("UpsertEdge edit", [](PathPropertyGraph* g) {
    auto data = g->UpsertEdge(EdgeId(10), NodeId(1), NodeId(2));
    ASSERT_TRUE(data.ok());
    (*data)->labels.Remove("B");
    (*data)->props.Remove("k");
  });
  out.emplace_back("UpsertPath edit", [](PathPropertyGraph* g) {
    PathBody body;
    body.nodes = {NodeId(1), NodeId(2)};
    body.edges = {EdgeId(10)};
    auto data = g->UpsertPath(PathId(100), body);
    ASSERT_TRUE(data.ok());
    (*data)->labels.UnionWith(LabelSet({"V"}));
    (*data)->props.Set("m", ValueSet(Value::String("y")));
  });
  return out;
}

TEST(CopyOnWrite, EditingACopyLeavesTheOriginal) {
  for (const auto& [name, mutate] : Mutators()) {
    const PathPropertyGraph original = CowGraph();
    const Contents before = DeepContents(original);
    PathPropertyGraph copy = original;
    mutate(&copy);
    EXPECT_EQ(DeepContents(original), before) << name;
    EXPECT_NE(DeepContents(copy), before) << name << " did not edit";
  }
}

TEST(CopyOnWrite, EditingTheOriginalLeavesACopy) {
  for (const auto& [name, mutate] : Mutators()) {
    PathPropertyGraph original = CowGraph();
    const Contents before = DeepContents(original);
    const PathPropertyGraph copy = original;
    mutate(&original);
    EXPECT_EQ(DeepContents(copy), before) << name;
    EXPECT_NE(DeepContents(original), before) << name << " did not edit";
  }
}

TEST(CopyOnWrite, AdoptedPayloadsDetachOnEdit) {
  // UnionWith into an empty set adopts the other's payload; an edit on
  // either side must not reach the other.
  const LabelSet a({"A"});
  LabelSet b;
  b.UnionWith(a);
  b.Insert("B");
  EXPECT_EQ(a, LabelSet({"A"}));
  EXPECT_EQ(b, LabelSet({"A", "B"}));
  LabelSet c = b;
  c.IntersectWith(a);
  EXPECT_EQ(b, LabelSet({"A", "B"}));
  EXPECT_EQ(c, LabelSet({"A"}));

  PropertyMap p;
  p.Set("k", ValueSet(Value::Int(1)));
  PropertyMap q;
  q.UnionWith(p);
  q.Add("k", Value::Int(2));
  EXPECT_EQ(p.Get("k"), ValueSet(Value::Int(1)));
  EXPECT_EQ(q.Get("k").size(), 2u);
  PropertyMap r = q;
  r.IntersectWith(p);
  EXPECT_EQ(q.Get("k").size(), 2u);
  EXPECT_EQ(r.Get("k"), ValueSet(Value::Int(1)));
}

// --- Example 2.2 (Figure 2) ----------------------------------------------------

class Example22 : public ::testing::Test {
 protected:
  IdAllocator ids;
  PathPropertyGraph g = snb::MakeExampleGraph(&ids);
};

TEST_F(Example22, IdentifierSets) {
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_EQ(g.NumEdges(), 7u);
  EXPECT_EQ(g.NumPaths(), 1u);
  for (uint64_t n = 101; n <= 106; ++n) EXPECT_TRUE(g.HasNode(NodeId(n)));
  for (uint64_t e = 201; e <= 207; ++e) EXPECT_TRUE(g.HasEdge(EdgeId(e)));
  EXPECT_TRUE(g.HasPath(PathId(301)));
}

TEST_F(Example22, LabelAssignments) {
  EXPECT_TRUE(g.Labels(NodeId(101)).Contains("Tag"));
  EXPECT_TRUE(g.Labels(NodeId(102)).Contains("Person"));
  EXPECT_TRUE(g.Labels(NodeId(102)).Contains("Manager"));
  EXPECT_TRUE(g.Labels(EdgeId(201)).Contains("hasInterest"));
  EXPECT_TRUE(g.Labels(PathId(301)).Contains("toWagner"));
}

TEST_F(Example22, PropertyAssignments) {
  EXPECT_EQ(g.Property(NodeId(101), "name").single(), Value::String("Wagner"));
  EXPECT_EQ(g.Property(EdgeId(205), "since").single(),
            Value::OfDate(Date{2014, 12, 1}));
  EXPECT_DOUBLE_EQ(g.Property(PathId(301), "trust").single().AsDouble(), 0.95);
}

TEST_F(Example22, RhoAssignments) {
  EXPECT_EQ(g.EdgeEndpoints(EdgeId(201)),
            std::make_pair(NodeId(102), NodeId(101)));
  EXPECT_EQ(g.EdgeEndpoints(EdgeId(207)),
            std::make_pair(NodeId(105), NodeId(103)));
}

TEST_F(Example22, DeltaAndNodesEdgesFunctions) {
  // δ(301) = [105, 207, 103, 202, 102]; nodes(301) and edges(301) are the
  // projections (Section 2).
  const PathBody& body = g.Path(PathId(301));
  EXPECT_EQ(body.nodes,
            (std::vector<NodeId>{NodeId(105), NodeId(103), NodeId(102)}));
  EXPECT_EQ(body.edges, (std::vector<EdgeId>{EdgeId(207), EdgeId(202)}));
  EXPECT_EQ(body.Length(), 2u);
}

TEST_F(Example22, ValidatesAsWellFormedPpg) {
  EXPECT_TRUE(g.Validate().ok());
}

// --- builder -------------------------------------------------------------------

TEST(GraphBuilder, FreshIdsAreDistinct) {
  IdAllocator ids;
  GraphBuilder b("t", &ids);
  const NodeId a = b.AddNode({"A"});
  const NodeId c = b.AddNode({"B"});
  EXPECT_NE(a, c);
}

TEST(GraphBuilder, ReservedIdsDoNotCollide) {
  IdAllocator ids;
  GraphBuilder b("t", &ids);
  b.AddNodeWithId(100, {"X"});
  const NodeId fresh = b.AddNode();
  EXPECT_GT(fresh.value(), 100u);
}

TEST(GraphBuilder, PropsViaInitializerList) {
  IdAllocator ids;
  GraphBuilder b("t", &ids);
  const NodeId n = b.AddNode({"Person"}, {{"name", "Ada"}, {"age", 36}});
  EXPECT_EQ(b.graph().Property(n, "name").single(), Value::String("Ada"));
  EXPECT_EQ(b.graph().Property(n, "age").single(), Value::Int(36));
}

TEST(IdAllocator, TypedCountersIndependent) {
  IdAllocator ids;
  const NodeId n = ids.NextNode();
  const EdgeId e = ids.NextEdge();
  const PathId p = ids.NextPath();
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(e.value(), 1u);
  EXPECT_EQ(p.value(), 1u);
}

}  // namespace
}  // namespace gcore
