// GraphSnapshot tests: the frozen columnar image must agree with the
// PathPropertyGraph it was built from on labels, topology, property
// cells and label spans; stats collected by sweeping the columns must
// match the PPG walk; the compiled
// SnapshotPred must agree with label and property admission read off the
// PPG itself; and the catalog must cache one snapshot per graph and
// invalidate it on re-register.
#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/expr.h"
#include "eval/matcher.h"
#include "graph/catalog.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "snb/generator.h"

namespace gcore {
namespace {

/// A graph exercising every encoding: multi-labels, parallel edges, a
/// self loop, int/double/string/bool/date/null cells, a multi-valued
/// property, and a key carried by both a node and an edge.
GraphBuilder MakeMixedGraph(IdAllocator* ids) {
  GraphBuilder b("mixed", ids);
  const NodeId p0 = b.AddNode({"Person"}, {{"age", int64_t{30}},
                                           {"name", "alice"},
                                           {"score", 2.5}});
  const NodeId p1 = b.AddNode({"Person", "Admin"},
                              {{"age", int64_t{41}},
                               {"name", "bob"},
                               {"active", true},
                               {"since", Value::OfDate({2015, 3, 9})}});
  const NodeId t0 = b.AddNode({"Tag"}, {{"name", "cats"}});
  const NodeId bare = b.AddNode();  // no labels, no properties
  b.AddNodePropertyValue(p0, "employer", Value::String("CWI"));
  b.AddNodePropertyValue(p0, "employer", Value::String("MIT"));
  b.AddNodePropertyValue(t0, "misc", Value::Null());
  const EdgeId k0 = b.AddEdge(p0, p1, "knows", {{"since", int64_t{2010}}});
  b.AddEdge(p0, p1, "knows", {{"since", int64_t{2011}}});  // parallel
  b.AddEdge(p1, t0, "hasInterest");
  b.AddEdge(bare, bare, "");  // self loop, unlabeled
  b.AddEdgePropertyValue(k0, "weight", Value::Double(0.5));
  Status st = b.AddPath({p0, p1}, {k0}).status();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return b;
}

/// Snapshot label set of a node/edge translated back to names.
template <typename Span>
LabelSet NamesOf(const GraphSnapshot& snap, Span ids) {
  std::vector<std::string> names;
  for (uint32_t id : ids) names.push_back(snap.LabelName(id));
  return LabelSet(std::move(names));
}

/// Every label, property cell and edge endpoint of the snapshot must
/// reproduce the PPG exactly; shared differential core for hand-built
/// and generated graphs.
void ExpectSnapshotMatchesGraph(const PathPropertyGraph& g) {
  const GraphSnapshot snap(g);
  const AdjacencyIndex& adj = snap.adjacency();
  ASSERT_EQ(snap.num_nodes(), g.NodeIds().size());
  ASSERT_EQ(snap.num_edges(), g.EdgeIds().size());

  g.ForEachNode([&](NodeId id) {
    const DenseNodeIndex n = adj.IndexOf(id);
    EXPECT_EQ(NamesOf(snap, snap.NodeLabelIds(n)), g.Labels(id));
    for (const std::string& label : g.Labels(id)) {
      const uint32_t lid = snap.LabelId(label);
      ASSERT_NE(lid, GraphSnapshot::kNoLabel) << label;
      EXPECT_TRUE(snap.NodeHasLabel(n, lid));
      const auto span = snap.NodesWithLabel(lid);
      EXPECT_TRUE(std::binary_search(span.begin(), span.end(), n)) << label;
    }
    for (const auto& [key, values] : g.Properties(id).entries()) {
      const auto* col = snap.NodeColumn(key);
      ASSERT_NE(col, nullptr) << key;
      EXPECT_EQ(snap.CellValues(*col, n), values) << key;
      for (const Value& v : values) {
        EXPECT_TRUE(snap.CellContains(*col, n, v)) << key;
      }
    }
  });

  g.ForEachEdge([&](EdgeId id, NodeId src, NodeId dst) {
    const DenseEdgeIndex e = snap.FindEdge(id);
    ASSERT_NE(e, GraphSnapshot::kNoEdge);
    EXPECT_EQ(snap.EdgeIndexOf(id), e);
    EXPECT_EQ(snap.EdgeIdOf(e), id);
    EXPECT_EQ(adj.IdOf(snap.EdgeSrc(e)), src);
    EXPECT_EQ(adj.IdOf(snap.EdgeDst(e)), dst);
    EXPECT_EQ(NamesOf(snap, snap.EdgeLabelIds(e)), g.Labels(id));
    for (const std::string& label : g.Labels(id)) {
      const uint32_t lid = snap.LabelId(label);
      ASSERT_NE(lid, GraphSnapshot::kNoLabel) << label;
      EXPECT_TRUE(snap.EdgeHasLabel(e, lid));
      const auto span = snap.EdgesWithLabel(lid);
      EXPECT_TRUE(std::binary_search(span.begin(), span.end(), e)) << label;
    }
    for (const auto& [key, values] : g.Properties(id).entries()) {
      const auto* col = snap.EdgeColumn(key);
      ASSERT_NE(col, nullptr) << key;
      EXPECT_EQ(snap.CellValues(*col, e), values) << key;
    }
  });

  // Per-label spans cover exactly the carriers (no phantom members).
  for (uint32_t lid = 0; lid < snap.num_labels(); ++lid) {
    size_t carriers = 0;
    g.ForEachNode([&](NodeId id) {
      if (g.Labels(id).Contains(snap.LabelName(lid))) ++carriers;
    });
    EXPECT_EQ(snap.NodesWithLabel(lid).size(), carriers)
        << snap.LabelName(lid);
  }
}

TEST(GraphSnapshot, MirrorsMixedGraph) {
  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  ExpectSnapshotMatchesGraph(b.graph());
}

TEST(GraphSnapshot, MirrorsGeneratedSnbGraph) {
  IdAllocator ids;
  snb::GeneratorOptions opts;
  opts.num_persons = 200;
  ExpectSnapshotMatchesGraph(snb::Generate(opts, &ids));
}

TEST(GraphSnapshot, TypedCellEncodings) {
  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  const GraphSnapshot snap(b.graph());
  const AdjacencyIndex& adj = snap.adjacency();
  using PropKind = GraphSnapshot::PropKind;

  const auto* age = snap.NodeColumn("age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->size(), snap.num_nodes());
  EXPECT_EQ(age->num_carriers(), 2u);
  const uint32_t p0 = adj.IndexOf(b.graph().NodeIds()[0]);
  EXPECT_EQ(age->KindAt(p0), PropKind::kInt);
  EXPECT_EQ(age->IntAt(p0), 30);

  const auto* name = snap.NodeColumn("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->KindAt(p0), PropKind::kString);
  EXPECT_EQ(snap.StringAt(name->StringIdAt(p0)), "alice");
  // Interned literals resolve to the same pool id a cell stores.
  EXPECT_EQ(snap.InternedString("alice"), name->StringIdAt(p0));
  EXPECT_EQ(snap.InternedString("nobody"), GraphSnapshot::kNoString);

  EXPECT_EQ(snap.NodeColumn("score")->KindAt(p0), PropKind::kDouble);
  EXPECT_EQ(snap.NodeColumn("score")->DoubleAt(p0), 2.5);

  const uint32_t p1 = adj.IndexOf(b.graph().NodeIds()[1]);
  EXPECT_EQ(snap.NodeColumn("active")->KindAt(p1), PropKind::kBool);
  EXPECT_TRUE(snap.NodeColumn("active")->BoolAt(p1));
  EXPECT_EQ(snap.NodeColumn("since")->KindAt(p1), PropKind::kDate);
  EXPECT_EQ(snap.NodeColumn("since")->DateDaysAt(p1),
            Date({2015, 3, 9}).ToEpochDays());

  // Multi-valued cells go out of line; null singletons stay inline.
  const auto* employer = snap.NodeColumn("employer");
  ASSERT_NE(employer, nullptr);
  EXPECT_EQ(employer->KindAt(p0), PropKind::kOverflow);
  EXPECT_EQ(employer->OverflowAt(p0).size(), 2u);
  const uint32_t t0 = adj.IndexOf(b.graph().NodeIds()[2]);
  EXPECT_EQ(snap.NodeColumn("misc")->KindAt(t0), PropKind::kNull);

  // Non-carriers are absent; an unknown key has no column at all.
  EXPECT_EQ(age->KindAt(t0), PropKind::kAbsent);
  EXPECT_TRUE(age->AbsentAt(t0));
  EXPECT_EQ(snap.NodeColumn("nope"), nullptr);
  EXPECT_EQ(snap.EdgeColumn("age"), nullptr);  // node-only key
}

TEST(GraphSnapshot, CellSemanticsMatchValueComparisons) {
  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  const GraphSnapshot snap(b.graph());
  const auto* age = snap.NodeColumn("age");
  const uint32_t p0 = snap.adjacency().IndexOf(b.graph().NodeIds()[0]);

  // Int cell vs double literal: numeric equality crosses types.
  EXPECT_TRUE(snap.CellEqualsSingleton(*age, p0, Value::Double(30.0)));
  EXPECT_TRUE(snap.CellContains(*age, p0, Value::Int(30)));
  EXPECT_FALSE(snap.CellContains(*age, p0, Value::Int(31)));
  bool ok = false;
  EXPECT_LT(snap.CompareCellSingleton(*age, p0, Value::Int(40), &ok), 0);
  EXPECT_TRUE(ok);
  // Cross-type rank: int sorts before string (Value::Compare ranks).
  EXPECT_LT(snap.CompareCellSingleton(*age, p0, Value::String("x"), &ok), 0);
  EXPECT_TRUE(ok);

  // A multi-valued cell is not a singleton: Contains works per element,
  // ordered comparison reports failure.
  const auto* employer = snap.NodeColumn("employer");
  EXPECT_TRUE(snap.CellContains(*employer, p0, Value::String("MIT")));
  EXPECT_FALSE(snap.CellEqualsSingleton(*employer, p0, Value::String("MIT")));
  snap.CompareCellSingleton(*employer, p0, Value::String("MIT"), &ok);
  EXPECT_FALSE(ok);

  // Absent cells contain nothing and compare as failure.
  const uint32_t t0 = snap.adjacency().IndexOf(b.graph().NodeIds()[2]);
  EXPECT_FALSE(snap.CellContains(*age, t0, Value::Int(30)));
  snap.CompareCellSingleton(*age, t0, Value::Int(30), &ok);
  EXPECT_FALSE(ok);
}

TEST(GraphSnapshot, StatsFromColumnsMatchAllCollectionPaths) {
  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  const GraphSnapshot snap(b.graph());
  const GraphStats from_columns = GraphStats::CollectFromSnapshot(snap);
  EXPECT_EQ(from_columns, GraphStats::Collect(b.graph()));
}

TEST(GraphSnapshot, StatsFromColumnsMatchOnGeneratedGraph) {
  IdAllocator ids;
  snb::GeneratorOptions opts;
  opts.num_persons = 150;
  const PathPropertyGraph g = snb::Generate(opts, &ids);
  const GraphSnapshot snap(g);
  EXPECT_EQ(GraphStats::CollectFromSnapshot(snap), GraphStats::Collect(g));
}

/// The admission oracle, read off the PPG: every label group has a member
/// among the object's labels, and every literal filter's value is among
/// the object's values for its key.
template <typename Id>
bool PpgAdmits(const PathPropertyGraph& g, Id id,
               const std::vector<std::vector<std::string>>& groups,
               const std::vector<PropPattern>& props) {
  const LabelSet& labels = g.Labels(id);
  auto carried = [&](const std::string& l) { return labels.Contains(l); };
  for (const auto& group : groups) {
    if (std::none_of(group.begin(), group.end(), carried)) return false;
  }
  for (const PropPattern& p : props) {
    if (!g.Property(id, p.key).Contains(p.value->value)) return false;
  }
  return true;
}

TEST(GraphSnapshot, PredicateAgreesWithAdmissionChecks) {
  GraphCatalog catalog;
  catalog.RegisterGraph("mixed", MakeMixedGraph(catalog.ids()).Build());
  auto looked = catalog.Lookup("mixed");
  ASSERT_TRUE(looked.ok());
  const PathPropertyGraph* g = *looked;
  auto cached = catalog.Snapshot("mixed");
  ASSERT_TRUE(cached.ok());
  const GraphSnapshot& snap = **cached;

  auto filter = [](const std::string& key, Value v) {
    PropPattern p;
    p.mode = PropPattern::Mode::kFilter;
    p.key = key;
    p.value = std::make_unique<Expr>();
    p.value->kind = Expr::Kind::kLiteral;
    p.value->value = std::move(v);
    return p;
  };

  // Label disjunction + literal property filter, including an unknown
  // label (dropped from its group) and a never-true unknown key.
  std::vector<NodePattern> patterns(4);
  patterns[0].label_groups = {{"Person"}};
  patterns[1].label_groups = {{"Tag", "Admin"}, {"Person"}};
  patterns[2].label_groups = {{"Ghost", "Person"}};
  patterns[2].props.push_back(filter("age", Value::Int(41)));
  patterns[3].props.push_back(filter("nope", Value::Int(1)));
  size_t admitted = 0;
  for (const NodePattern& pattern : patterns) {
    const SnapshotPred pred =
        SnapshotPred::ForNode(snap, pattern.label_groups, pattern.props);
    g->ForEachNode([&](NodeId id) {
      const bool expected =
          PpgAdmits(*g, id, pattern.label_groups, pattern.props);
      admitted += expected ? 1 : 0;
      EXPECT_EQ(pred.Admits(snap.adjacency().IndexOf(id)), expected)
          << "node " << id.value();
    });
  }
  // Persons p0, p1 / p1 / p1 (age 41) / none.
  EXPECT_EQ(admitted, 4u);

  EdgePattern ep;
  ep.label_groups = {{"knows", "hasInterest"}};
  ep.props.push_back(filter("since", Value::Int(2010)));
  const SnapshotPred epred =
      SnapshotPred::ForEdge(snap, ep.label_groups, ep.props);
  size_t admitted_edges = 0;
  g->ForEachEdge([&](EdgeId id, NodeId, NodeId) {
    const bool expected = PpgAdmits(*g, id, ep.label_groups, ep.props);
    admitted_edges += expected ? 1 : 0;
    EXPECT_EQ(epred.Admits(snap.EdgeIndexOf(id)), expected)
        << "edge " << id.value();
  });
  EXPECT_EQ(admitted_edges, 1u);  // k0 alone has since = 2010
}

TEST(GraphSnapshot, CatalogCachesAndInvalidatesWithStats) {
  GraphCatalog catalog;
  GraphBuilder b = MakeMixedGraph(catalog.ids());
  catalog.RegisterGraph("mixed", b.Build());

  auto first = catalog.Snapshot("mixed");
  ASSERT_TRUE(first.ok());
  auto again = catalog.Snapshot("mixed");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());  // cached, not rebuilt

  // Stats derive from the cached snapshot's columns.
  auto stats = catalog.Stats("mixed");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(**stats, GraphStats::CollectFromSnapshot(**first));

  // Re-registering drops the cached snapshot along with the stats.
  GraphBuilder rebuilt = MakeMixedGraph(catalog.ids());
  catalog.RegisterGraph("mixed", rebuilt.Build());
  auto fresh = catalog.Snapshot("mixed");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(first->get(), fresh->get());

  EXPECT_FALSE(catalog.Snapshot("nope").ok());
}

TEST(GraphSnapshot, LabelSpansOnOutOfRangeIdsAreEmpty) {
  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  const GraphSnapshot snap(b.graph());

  // kNoLabel is the documented LabelId miss sentinel; passing it (or any
  // out-of-range id) to the span accessors must yield an empty span, not
  // an out-of-bounds offset read.
  EXPECT_EQ(snap.LabelId("nope"), GraphSnapshot::kNoLabel);
  EXPECT_TRUE(snap.NodesWithLabel(GraphSnapshot::kNoLabel).empty());
  EXPECT_TRUE(snap.EdgesWithLabel(GraphSnapshot::kNoLabel).empty());
  EXPECT_TRUE(
      snap.NodesWithLabel(static_cast<uint32_t>(snap.num_labels())).empty());
  EXPECT_TRUE(
      snap.EdgesWithLabel(static_cast<uint32_t>(snap.num_labels())).empty());
}

/// Differential pin of satellite semantics: for every (cell, literal)
/// pair, CompareCellSingleton must order exactly as Value::Compare over
/// the materialized cell — including Date literals that are not calendar
/// dates, where epoch days alias distinct field triples.
TEST(GraphSnapshot, DateCellComparisonsMatchValueCompare) {
  // 2015-02-37 is not a calendar date; arithmetically it lands on the
  // same epoch day as 2015-03-09. The two literals must still be
  // distinguishable — distinct dates comparing equal would merge them in
  // ValueSets and admit wrong filter matches.
  const Date valid{2015, 3, 9};
  const Date aliasing{2015, 2, 37};
  ASSERT_FALSE(aliasing.IsValid());
  ASSERT_EQ(valid.ToEpochDays(), aliasing.ToEpochDays());
  EXPECT_NE(Value::OfDate(valid).Compare(Value::OfDate(aliasing)), 0);
  EXPECT_EQ(Value::OfDate(aliasing).Compare(Value::OfDate(aliasing)), 0);
  // The tie-break keeps the field-wise order: month 2 < month 3.
  EXPECT_LT(Value::OfDate(aliasing).Compare(Value::OfDate(valid)), 0);

  IdAllocator ids;
  GraphBuilder b = MakeMixedGraph(&ids);
  const GraphSnapshot snap(b.graph());
  const auto* since = snap.NodeColumn("since");
  ASSERT_NE(since, nullptr);
  const uint32_t p1 = snap.adjacency().IndexOf(b.graph().NodeIds()[1]);
  ASSERT_EQ(since->KindAt(p1), GraphSnapshot::PropKind::kDate);  // {2015,3,9}
  const Value cell = snap.CellValues(*since, p1).single();

  const Value literals[] = {
      Value::OfDate(valid),          Value::OfDate(aliasing),
      Value::OfDate({2015, 3, 8}),   Value::OfDate({2015, 2, 38}),
      Value::OfDate({2014, 14, 9}),  // month overflow aliasing 2015-02-09
      Value::OfDate({2015, 3, 10}),  Value::OfDate({2016, 1, 1}),
  };
  for (const Value& lit : literals) {
    bool ok = false;
    const int got = snap.CompareCellSingleton(*since, p1, lit, &ok);
    ASSERT_TRUE(ok) << lit.ToString();
    EXPECT_EQ(got, cell.Compare(lit)) << lit.ToString();
    EXPECT_EQ(snap.CellEqualsSingleton(*since, p1, lit),
              cell.Compare(lit) == 0)
        << lit.ToString();
    EXPECT_EQ(snap.CellContains(*since, p1, lit), cell.Compare(lit) == 0)
        << lit.ToString();
  }
  // The aliasing literal ties on epoch days but must not equal the cell.
  EXPECT_FALSE(snap.CellEqualsSingleton(*since, p1, Value::OfDate(aliasing)));

  // A non-calendar date stored as a cell goes out of line (epoch days
  // cannot represent it); comparisons against it run through the exact
  // Value path and observe the same total order.
  GraphBuilder b2("invalid-dates", &ids);
  const NodeId n = b2.AddNode({"X"}, {{"d", Value::OfDate(aliasing)}});
  const GraphSnapshot snap2(b2.graph());
  const auto* d = snap2.NodeColumn("d");
  ASSERT_NE(d, nullptr);
  const uint32_t nx = snap2.adjacency().IndexOf(n);
  ASSERT_EQ(d->KindAt(nx), GraphSnapshot::PropKind::kOverflow);
  bool ok = false;
  EXPECT_EQ(snap2.CompareCellSingleton(*d, nx, Value::OfDate(valid), &ok),
            Value::OfDate(aliasing).Compare(Value::OfDate(valid)));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(snap2.CellEqualsSingleton(*d, nx, Value::OfDate(aliasing)));
  EXPECT_FALSE(snap2.CellEqualsSingleton(*d, nx, Value::OfDate(valid)));
}

}  // namespace
}  // namespace gcore
