#include "eval/constructor.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/graph_ops.h"

namespace gcore {

namespace {

using ObjectData = PathPropertyGraph::ObjectData;

/// All labels mentioned by construct-side label groups (flattened: the
/// construct attaches every listed label).
std::vector<std::string> FlattenLabels(
    const std::vector<std::vector<std::string>>& groups) {
  std::vector<std::string> out;
  for (const auto& g : groups) {
    for (const auto& l : g) out.push_back(l);
  }
  return out;
}

constexpr uint32_t kNoGroup = ~uint32_t{0};

/// Open-addressed raw id → group number, numbering ids by first
/// appearance; sized up front for `capacity` distinct ids.
class IdGroups {
 public:
  explicit IdGroups(size_t capacity) {
    size_t slots = 16;
    while (slots < 2 * capacity) slots <<= 1;
    slots_.assign(slots, {kEmpty, 0});
  }

  /// Group of `id`; a first appearance takes the next number.
  uint32_t Insert(uint64_t id, bool* fresh) {
    const size_t mask = slots_.size() - 1;
    const uint64_t h = id * 0x9e3779b97f4a7c15ull;
    size_t pos = (h ^ (h >> 29)) & mask;
    while (slots_[pos].first != kEmpty) {
      if (slots_[pos].first == id) {
        *fresh = false;
        return slots_[pos].second;
      }
      pos = (pos + 1) & mask;
    }
    slots_[pos] = {id, size_};
    *fresh = true;
    return size_++;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // never a valid id
  std::vector<std::pair<uint64_t, uint32_t>> slots_;
  uint32_t size_ = 0;
};

struct SourceObjectHash {
  size_t operator()(const std::pair<const void*, uint64_t>& p) const {
    return HashCombine(std::hash<const void*>{}(p.first),
                       std::hash<uint64_t>{}(p.second));
  }
};

}  // namespace

size_t Constructor::KeyHash::operator()(const Key& key) const {
  size_t h = HashCombine(std::hash<uint64_t>{}(key.a),
                         std::hash<uint64_t>{}(key.b));
  for (const Datum& d : key.parts) h = HashCombine(h, d.Hash());
  return h;
}

Constructor::Constructor(ConstructorContext ctx) : ctx_(std::move(ctx)) {}

// Per-item construction state and logic.
struct Constructor::ItemState {
  Constructor* owner;
  const ConstructItem& item;
  const BindingTable& bindings;
  std::vector<size_t> rows;  // binding rows participating (post pre-filter)
  bool post_when = false;    // WHEN reads construct-defined variables
  std::set<std::string> set_vars;  // targets of SET/REMOVE statements

  // Effective (possibly generated) names per chain element.
  struct NodeCtor {
    const NodePattern* pattern;
    std::string name;
  };
  struct EdgeCtor {
    const EdgePattern* pattern;
    std::string name;
    size_t from_ctor;  // index into node_ctors
    size_t to_ctor;
  };
  struct PathCtor {
    const PathPattern* pattern;
    std::string name;
    size_t from_ctor;
    size_t to_ctor;
  };
  std::vector<NodeCtor> node_ctors;
  std::vector<EdgeCtor> edge_ctors;
  std::vector<PathCtor> path_ctors;

  // Build products: one per (constructor, group), each carrying its λ/σ
  // (ObjectData: copy-on-write handles, so a bound object's λ/σ share the
  // source graph's payloads until an edit). `rows` holds the group's
  // binding rows whenever assignments, SET statements or a post-WHEN read
  // them (always, in the spec); `rep` is the first.
  struct NodeBuild : ObjectData {
    NodeId id;
    size_t rep = 0;
    std::vector<size_t> rows;
    std::string var;
    bool dropped = false;
  };
  struct EdgeBuild : ObjectData {
    EdgeId id;
    NodeId src;
    NodeId dst;
    size_t rep = 0;
    std::vector<size_t> rows;
    std::string var;
    bool dropped = false;
  };
  struct PathBuild : ObjectData {
    PathId id;
    bool make_object = false;  // @p vs plain projection
    PathBody body;
    std::vector<NodeId> extra_nodes;  // projection mode (ALL)
    std::vector<EdgeId> extra_edges;
    size_t rep = 0;
    std::vector<size_t> rows;
    std::string var;
    const PathPropertyGraph* source;  // λ/σ source for body elements
    bool dropped = false;
  };
  std::vector<NodeBuild> node_builds;
  std::vector<EdgeBuild> edge_builds;
  std::vector<PathBuild> path_builds;

  // Spec: per node-constructor, row -> assigned node id.
  std::vector<std::unordered_map<size_t, NodeId>> node_assign;
  // Columnar: per node-constructor, a dense row-indexed vector (invalid id
  // = the row built no node there).
  std::vector<std::vector<NodeId>> node_of_row;

  ItemState(Constructor* owner, const ConstructItem& item,
            const BindingTable& bindings)
      : owner(owner), item(item), bindings(bindings) {}

  IdAllocator* ids() { return owner->ctx_.catalog->ids(); }

  const PathPropertyGraph* ProvenanceGraph(const std::string& var) const {
    const std::string& name = bindings.ColumnGraph(var);
    const std::string& resolved =
        name.empty() ? owner->ctx_.default_graph : name;
    if (resolved.empty()) return nullptr;
    if (owner->ctx_.resolve_graph) return owner->ctx_.resolve_graph(resolved);
    auto g = owner->ctx_.catalog->Lookup(resolved);
    return g.ok() ? *g : nullptr;
  }

  ExprEvaluator MakeEvaluator(const PathPropertyGraph* graph) const {
    ExprEvaluator eval(graph, owner->ctx_.catalog);
    if (owner->ctx_.resolve_graph) {
      eval.set_provenance_resolver(owner->ctx_.resolve_graph);
    }
    if (owner->ctx_.exists_cb) {
      eval.set_exists_callback(owner->ctx_.exists_cb, &owner->correlated_);
    }
    return eval;
  }

  /// new(x, key) in `table`, drawing a fresh id from `next` on first use.
  template <typename NextFn>
  static uint64_t Skolem(SkolemTable* table, const Key& key, NextFn next) {
    auto [it, inserted] = table->try_emplace(key, 0);
    if (inserted) it->second = next().value();
    return it->second;
  }
  NodeId NodeSkolem(const std::string& table, const Key& key) {
    return NodeId(Skolem(&owner->node_skolems_[table], key,
                         [&] { return ids()->NextNode(); }));
  }
  EdgeId EdgeSkolem(const std::string& table, const Key& key) {
    return EdgeId(Skolem(&owner->edge_skolems_[table], key,
                         [&] { return ids()->NextEdge(); }));
  }

  /// The GROUP list governing an unbound node constructor: its own, else
  /// one declared at another occurrence of the variable, else none (the
  /// whole binding row is the key).
  const std::vector<std::unique_ptr<Expr>>* NodeGroupList(
      const NodeCtor& nc) const {
    if (!nc.pattern->group_by.empty()) return &nc.pattern->group_by;
    auto cg = owner->clause_groups_.find(nc.name);
    return cg == owner->clause_groups_.end() ? nullptr : cg->second;
  }

  // --- setup -----------------------------------------------------------------

  void CollectConstructors() {
    int anon = 0;
    auto name_of = [&](const std::string& var) {
      return var.empty() ? "__ctor" + std::to_string(anon++) : var;
    };
    const GraphPattern& chain = *item.pattern;
    node_ctors.push_back({&chain.start, name_of(chain.start.var)});
    size_t prev = 0;
    for (const auto& hop : chain.hops) {
      node_ctors.push_back({&hop.to, name_of(hop.to.var)});
      const size_t to_idx = node_ctors.size() - 1;
      if (hop.kind == PatternHop::Kind::kEdge) {
        edge_ctors.push_back(
            {&hop.edge, name_of(hop.edge.var), prev, to_idx});
      } else {
        path_ctors.push_back(
            {&hop.path, name_of(hop.path.var), prev, to_idx});
      }
      prev = to_idx;
    }
    for (const auto& s : item.sets) set_vars.insert(s.var);
  }

  /// Names of variables this item creates or assigns properties to; WHEN
  /// conditions over these must be evaluated after construction.
  std::set<std::string> ConstructDefinedVars() const {
    std::set<std::string> defined;
    auto add_assigned = [&](const std::vector<PropPattern>& props,
                            const std::string& name) {
      for (const auto& p : props) {
        if (p.mode == PropPattern::Mode::kAssign) {
          defined.insert(name);
          return;
        }
      }
    };
    for (const auto& nc : node_ctors) {
      if (!bindings.HasColumn(nc.name) || nc.pattern->is_copy) {
        defined.insert(nc.name);
      }
      add_assigned(nc.pattern->props, nc.name);
    }
    for (const auto& ec : edge_ctors) {
      if (!bindings.HasColumn(ec.name) || ec.pattern->is_copy) {
        defined.insert(ec.name);
      }
      add_assigned(ec.pattern->props, ec.name);
    }
    for (const auto& pc : path_ctors) {
      add_assigned(pc.pattern->props, pc.name);
    }
    for (const auto& s : item.sets) defined.insert(s.var);
    return defined;
  }

  /// True when a build of `var` must carry its group rows: assignments,
  /// SET statements or a post-WHEN read them.
  bool NeedsRows(const std::string& var, bool has_props) const {
    return has_props || post_when || set_vars.count(var) > 0;
  }

  Key FullRowKey(size_t row) const {
    Key key;
    key.parts.reserve(bindings.NumColumns());
    for (size_t c = 0; c < bindings.NumColumns(); ++c) {
      key.parts.push_back(bindings.At(row, c));
    }
    return key;
  }

  Status AppendGroupExprs(const std::vector<std::unique_ptr<Expr>>& group_by,
                          size_t row, Key* key) const {
    ExprEvaluator eval = MakeEvaluator(nullptr);
    for (const auto& g : group_by) {
      GCORE_ASSIGN_OR_RETURN(Datum d, eval.Eval(*g, bindings, row));
      key->parts.push_back(std::move(d));
    }
    return Status::OK();
  }

  // --- property/label application ---------------------------------------------

  Status ApplyAssignments(const std::vector<PropPattern>& props,
                          const std::vector<size_t>& group_rows,
                          const PathPropertyGraph* eval_graph,
                          PropertyMap* out) const {
    if (props.empty()) return Status::OK();
    ExprEvaluator eval = MakeEvaluator(eval_graph);
    for (const auto& p : props) {
      if (p.mode != PropPattern::Mode::kAssign) {
        return Status::BindError(
            "MATCH-style property pattern in CONSTRUCT; use ':='");
      }
      GCORE_ASSIGN_OR_RETURN(Datum d,
                             eval.EvalWithGroup(*p.value, bindings,
                                                group_rows));
      if (d.IsUnbound()) continue;
      if (d.kind() != Datum::Kind::kValues) {
        return Status::TypeError("property assignment '" + p.key +
                                 "' did not evaluate to a literal");
      }
      out->Set(p.key, d.values());
    }
    return Status::OK();
  }

  // === the executable spec: row-at-a-time ========================================

  /// Rows grouped by key, groups in order of first appearance.
  struct KeyedGroups {
    std::unordered_map<Key, size_t, KeyHash> index;
    std::vector<std::pair<Key, std::vector<size_t>>> groups;

    /// Adds `row` to the group of `key`; returns the group's index.
    size_t Add(Key key, size_t row) {
      auto [it, inserted] = index.try_emplace(key, groups.size());
      if (inserted) groups.emplace_back(std::move(key), std::vector<size_t>());
      groups[it->second].second.push_back(row);
      return it->second;
    }
  };

  Status BuildNodesSpec() {
    node_assign.resize(node_ctors.size());
    for (size_t ci = 0; ci < node_ctors.size(); ++ci) {
      const NodeCtor& nc = node_ctors[ci];
      const NodePattern& pat = *nc.pattern;
      const bool column_bound = bindings.HasColumn(nc.name);
      const bool identity_bound = column_bound && !pat.is_copy;

      KeyedGroups groups;
      for (size_t r : rows) {
        Key key;
        if (identity_bound || pat.is_copy) {
          const Datum& d = bindings.Get(r, nc.name);
          if (d.IsUnbound()) continue;  // Ω'(x) undefined -> G∅ contribution
          if (d.kind() != Datum::Kind::kNode) return NotANode(nc.name);
          key.a = d.node().value();
        } else if (const auto* group_by = NodeGroupList(nc)) {
          GCORE_RETURN_NOT_OK(AppendGroupExprs(*group_by, r, &key));
        } else {
          key = FullRowKey(r);
        }
        groups.Add(std::move(key), r);
      }

      for (auto& [key, group_rows] : groups.groups) {
        NodeBuild build;
        build.var = nc.name;
        build.rows = group_rows;
        build.rep = group_rows.front();
        const size_t rep = build.rep;

        const PathPropertyGraph* source = nullptr;
        if (identity_bound) {
          build.id = bindings.Get(rep, nc.name).node();
          source = ProvenanceGraph(nc.name);
        } else if (pat.is_copy) {
          build.id = NodeSkolem(nc.name + "(copy)", key);
          source = ProvenanceGraph(nc.name);
        } else {
          build.id = NodeSkolem(nc.name, key);
        }

        // λ|v ∪ λS: existing labels/properties of the source object first.
        if (source != nullptr) {
          const NodeId src_id = bindings.Get(rep, nc.name).node();
          if (source->HasNode(src_id)) {
            build.labels = source->Labels(src_id);
            build.props = source->Properties(src_id);
          }
        }
        for (const auto& l : FlattenLabels(pat.label_groups)) {
          build.labels.Insert(l);
        }
        GCORE_RETURN_NOT_OK(ApplyAssignments(pat.props, build.rows,
                                             source, &build.props));

        for (size_t r : build.rows) node_assign[ci][r] = build.id;
        node_builds.push_back(std::move(build));
      }
    }
    return Status::OK();
  }

  Status BuildEdgesSpec() {
    for (const EdgeCtor& ec : edge_ctors) {
      const EdgePattern& pat = *ec.pattern;
      const bool column_bound = bindings.HasColumn(ec.name);
      const bool identity_bound = column_bound && !pat.is_copy;

      KeyedGroups groups;
      std::vector<std::pair<NodeId, NodeId>> ends;  // per group, last row's
      for (size_t r : rows) {
        auto from_it = node_assign[ec.from_ctor].find(r);
        auto to_it = node_assign[ec.to_ctor].find(r);
        if (from_it == node_assign[ec.from_ctor].end() ||
            to_it == node_assign[ec.to_ctor].end()) {
          continue;  // dangling-edge prevention
        }
        // Arrow orientation decides ρ.
        NodeId src = from_it->second;
        NodeId dst = to_it->second;
        if (pat.direction == EdgePattern::Direction::kLeft) {
          std::swap(src, dst);
        }

        Key key;
        if (identity_bound) {
          const Datum& d = bindings.Get(r, ec.name);
          if (d.IsUnbound()) continue;
          if (d.kind() != Datum::Kind::kEdge) return NotAnEdge(ec.name);
          // Re-using a bound edge requires its endpoints to be exactly the
          // endpoint bindings (Section 3: changing them violates identity).
          const PathPropertyGraph* source = ProvenanceGraph(ec.name);
          if (source != nullptr && source->HasEdge(d.edge())) {
            const auto [s, t] = source->EdgeEndpoints(d.edge());
            if (s != src || t != dst) return IdentityViolation(ec.name);
          }
          key.a = d.edge().value();
        } else {
          key.a = src.value();
          key.b = dst.value();
          if (!pat.group_by.empty()) {
            GCORE_RETURN_NOT_OK(AppendGroupExprs(pat.group_by, r, &key));
          }
          if (pat.is_copy) key.parts.push_back(bindings.Get(r, ec.name));
        }
        const size_t g = groups.Add(std::move(key), r);
        ends.resize(groups.groups.size());
        ends[g] = {src, dst};
      }

      for (size_t g = 0; g < groups.groups.size(); ++g) {
        const Key& key = groups.groups[g].first;
        EdgeBuild build;
        build.var = ec.name;
        build.rows = groups.groups[g].second;
        build.rep = build.rows.front();
        build.src = ends[g].first;
        build.dst = ends[g].second;
        const size_t rep = build.rep;

        const PathPropertyGraph* source = nullptr;
        if (identity_bound) {
          build.id = bindings.Get(rep, ec.name).edge();
          source = ProvenanceGraph(ec.name);
        } else {
          build.id = EdgeSkolem(pat.is_copy ? ec.name + "(copy)" : ec.name,
                                key);
          if (pat.is_copy) source = ProvenanceGraph(ec.name);
        }

        if (source != nullptr) {
          const Datum& d = bindings.Get(rep, ec.name);
          if (d.kind() == Datum::Kind::kEdge && source->HasEdge(d.edge())) {
            build.labels = source->Labels(d.edge());
            build.props = source->Properties(d.edge());
          }
        }
        for (const auto& l : FlattenLabels(pat.label_groups)) {
          build.labels.Insert(l);
        }
        GCORE_RETURN_NOT_OK(ApplyAssignments(pat.props, build.rows,
                                             source, &build.props));
        edge_builds.push_back(std::move(build));
      }
    }
    return Status::OK();
  }

  static Status IdentityViolation(const std::string& var) {
    return Status::BindError("bound edge '" + var +
                             "' constructed with different endpoints "
                             "(identity violation); use -[=" +
                             var + "]- to copy instead");
  }

  Status BuildPathsSpec() {
    for (const PathCtor& pc : path_ctors) {
      const PathPattern& pat = *pc.pattern;
      if (!bindings.HasColumn(pc.name)) return UnboundPath(pc.name);

      KeyedGroups groups;
      for (size_t r : rows) {
        const Datum& d = bindings.Get(r, pc.name);
        if (d.IsUnbound()) continue;
        if (d.kind() != Datum::Kind::kPath) return NotAPath(pc.name);
        Key key;
        key.a = d.path().id.value();
        groups.Add(std::move(key), r);
      }

      for (auto& [key, group_rows] : groups.groups) {
        const size_t rep = group_rows.front();
        GCORE_RETURN_NOT_OK(AddPathBuild(pat, pc.name,
                                         bindings.Get(rep, pc.name).path(),
                                         ProvenanceGraph(pc.name), rep,
                                         group_rows));
      }
    }
    return Status::OK();
  }

  static Status NotANode(const std::string& var) {
    return Status::TypeError("variable '" + var +
                             "' is not a node in CONSTRUCT");
  }
  static Status NotAnEdge(const std::string& var) {
    return Status::TypeError("variable '" + var +
                             "' is not an edge in CONSTRUCT");
  }
  static Status UnboundPath(const std::string& var) {
    return Status::BindError("path construct '/" + var +
                             "/' requires the variable to be bound in MATCH");
  }
  static Status NotAPath(const std::string& var) {
    return Status::TypeError("variable '" + var +
                             "' is not a path in CONSTRUCT");
  }

  /// One path group's build (shared by both paths: path groups are few).
  Status AddPathBuild(const PathPattern& pat, const std::string& var,
                      const PathValue& pv, const PathPropertyGraph* source,
                      size_t rep, std::vector<size_t> group_rows) {
    PathBuild build;
    build.var = var;
    build.rep = rep;
    build.rows = std::move(group_rows);
    build.make_object = pat.stored;
    build.source = source;
    if (build.source == nullptr) {
      return Status::BindError(
          "cannot resolve source graph for path variable '" + var + "'");
    }

    if (pv.projection.has_value()) {
      if (pat.stored) {
        return Status::Unsupported(
            "storing ALL-paths bindings (@" + var +
            ") is intractable; bind the variable without @ to project "
            "the paths into a graph");
      }
      build.extra_nodes = pv.projection->first;
      build.extra_edges = pv.projection->second;
    } else {
      build.body = pv.body;
    }

    if (pat.stored) {
      build.id = pv.id;
      if (pv.from_graph && build.source->HasPath(pv.id)) {
        build.labels = build.source->Labels(pv.id);
        build.props = build.source->Properties(pv.id);
      }
      for (const auto& l : FlattenLabels(pat.label_groups)) {
        build.labels.Insert(l);
      }
      GCORE_RETURN_NOT_OK(ApplyAssignments(pat.props, build.rows,
                                           build.source, &build.props));
    }
    path_builds.push_back(std::move(build));
    return Status::OK();
  }

  /// One contribution to a result member: a build, or a path-body element
  /// imported from its source graph (`data` null when the source lacks
  /// the node).
  struct Piece {
    uint64_t id;
    const ObjectData* data;
    NodeId src;  // edges only
    NodeId dst;
    bool build;
  };

  /// Adds every surviving build and path-body element to a fresh graph in
  /// ascending id order: a union does not depend on order, and the stable
  /// sort keeps each id's contributions in build order (node and edge
  /// builds, then path bodies).
  Result<PathPropertyGraph> AssembleSpec() {
    std::vector<Piece> nodes;
    std::vector<Piece> edges;
    for (const auto& b : node_builds) {
      if (!b.dropped) nodes.push_back({b.id.value(), &b, {}, {}, true});
    }
    for (const auto& b : edge_builds) {
      if (!b.dropped) edges.push_back({b.id.value(), &b, b.src, b.dst, true});
    }
    std::vector<const PathBuild*> stored;
    for (const auto& b : path_builds) {
      if (b.dropped) continue;
      // The walk's nodes and edges carry their λ/σ from the source graph.
      auto import_node = [&](NodeId n) {
        nodes.push_back({n.value(), b.source->FindNode(n), {}, {}, false});
      };
      auto import_edge = [&](EdgeId e) {
        const PathPropertyGraph::EdgeData* data = b.source->FindEdge(e);
        if (data == nullptr) return;
        import_node(data->src);
        import_node(data->dst);
        edges.push_back({e.value(), data, data->src, data->dst, false});
      };
      for (NodeId n : b.body.nodes) import_node(n);
      for (EdgeId e : b.body.edges) import_edge(e);
      for (NodeId n : b.extra_nodes) import_node(n);
      for (EdgeId e : b.extra_edges) import_edge(e);
      if (b.make_object) stored.push_back(&b);
    }
    auto by_id = [](const Piece& x, const Piece& y) { return x.id < y.id; };
    std::stable_sort(nodes.begin(), nodes.end(), by_id);
    std::stable_sort(edges.begin(), edges.end(), by_id);
    std::stable_sort(stored.begin(), stored.end(),
                     [](const PathBuild* x, const PathBuild* y) {
                       return x->id < y->id;
                     });

    PathPropertyGraph graph;
    auto merge = [](const Piece& p, ObjectData* into) {
      if (p.data == nullptr) return;
      into->labels.UnionWith(p.data->labels);
      into->props.UnionWith(p.data->props);
    };
    for (const Piece& p : nodes) merge(p, &graph.UpsertNode(NodeId(p.id)));
    for (const Piece& p : edges) {
      const EdgeId id(p.id);
      if (p.build && (!graph.HasNode(p.src) || !graph.HasNode(p.dst))) {
        continue;
      }
      auto into = graph.UpsertEdge(id, p.src, p.dst);
      if (into.ok()) {
        merge(p, *into);
        continue;
      }
      if (p.build) return into.status();
      // An import whose ρ differs from the edge's keeps the edge's ρ and
      // contributes its λ/σ.
      ObjectData merged{graph.Labels(id), graph.Properties(id)};
      merge(p, &merged);
      graph.SetLabels(id, std::move(merged.labels));
      graph.SetProperties(id, std::move(merged.props));
    }
    // Stored paths replace λ/σ: the last build of an id wins.
    for (const PathBuild* b : stored) {
      GCORE_RETURN_NOT_OK(graph.AddPath(b->id, b->body));
      graph.SetLabels(b->id, b->labels);
      graph.SetProperties(b->id, b->props);
    }
    return graph;
  }

  // === the columnar fast path =====================================================

  /// Evaluates a GROUP list per row: plain variables read their column
  /// cell directly, anything else runs the row evaluator.
  class GroupListEval {
   public:
    GroupListEval(const ItemState& state,
                  const std::vector<std::unique_ptr<Expr>>& group_by)
        : state_(state),
          group_by_(group_by),
          eval_(state.MakeEvaluator(nullptr)) {
      for (const auto& g : group_by) {
        cols_.push_back(g->kind == Expr::Kind::kVariable
                            ? state.bindings.ColumnIndex(g->var)
                            : BindingTable::kNpos);
      }
    }

    Status Append(size_t row, Key* key) const {
      for (size_t i = 0; i < group_by_.size(); ++i) {
        if (group_by_[i]->kind == Expr::Kind::kVariable) {
          key->parts.push_back(
              cols_[i] == BindingTable::kNpos
                  ? Datum()
                  : state_.bindings.ColumnAt(cols_[i]).DatumAt(row));
          continue;
        }
        GCORE_ASSIGN_OR_RETURN(
            Datum d, eval_.Eval(*group_by_[i], state_.bindings, row));
        key->parts.push_back(std::move(d));
      }
      return Status::OK();
    }

   private:
    const ItemState& state_;
    const std::vector<std::unique_ptr<Expr>>& group_by_;
    ExprEvaluator eval_;
    std::vector<size_t> cols_;
  };

  /// The rows of each group, in row order (only built when needed).
  std::vector<std::vector<size_t>> RowsByGroup(
      const std::vector<uint32_t>& group_of_row, size_t groups) const {
    std::vector<std::vector<size_t>> out(groups);
    for (size_t r : rows) {
      if (group_of_row[r] != kNoGroup) out[group_of_row[r]].push_back(r);
    }
    return out;
  }

  /// Keys of a first-appearance index, by group number.
  static std::vector<const Key*> KeysByGroup(
      const std::unordered_map<Key, uint32_t, KeyHash>& index) {
    std::vector<const Key*> out(index.size());
    for (const auto& [key, g] : index) out[g] = &key;
    return out;
  }

  Status BuildNodesColumnar() {
    const size_t n = bindings.NumRows();
    node_of_row.assign(node_ctors.size(), std::vector<NodeId>());
    for (size_t ci = 0; ci < node_ctors.size(); ++ci) {
      const NodeCtor& nc = node_ctors[ci];
      const NodePattern& pat = *nc.pattern;
      const size_t col = bindings.ColumnIndex(nc.name);
      const bool identity_bound = col != BindingTable::kNpos && !pat.is_copy;
      const bool by_id = identity_bound || pat.is_copy;
      std::vector<NodeId>& assign = node_of_row[ci];
      assign.assign(n, NodeId());
      if (by_id && col == BindingTable::kNpos) continue;  // (=x), x unbound

      // Row pass: each row's group, groups numbered by first appearance.
      std::vector<uint32_t> group_of_row(n, kNoGroup);
      std::vector<size_t> reps;
      std::unordered_map<Key, uint32_t, KeyHash> key_index;
      std::vector<NodeId> bound;  // by_id: each group's node
      if (by_id) {
        const Column& c = bindings.ColumnAt(col);
        IdGroups index(rows.size());
        for (size_t r : rows) {
          const Column::Kind kind = c.KindAt(r);
          if (kind == Column::Kind::kUnbound) continue;
          if (kind != Column::Kind::kNode) return NotANode(nc.name);
          bool fresh = false;
          group_of_row[r] = index.Insert(c.NodeAt(r).value(), &fresh);
          if (fresh) {
            reps.push_back(r);
            bound.push_back(c.NodeAt(r));
          }
        }
      } else {
        const auto* group_by = NodeGroupList(nc);
        std::optional<GroupListEval> group_eval;
        if (group_by != nullptr) group_eval.emplace(*this, *group_by);
        for (size_t r : rows) {
          Key key;
          if (group_eval.has_value()) {
            GCORE_RETURN_NOT_OK(group_eval->Append(r, &key));
          } else {
            key = FullRowKey(r);
          }
          auto [it, inserted] = key_index.try_emplace(
              std::move(key), static_cast<uint32_t>(reps.size()));
          if (inserted) reps.push_back(r);
          group_of_row[r] = it->second;
        }
      }

      // Group pass: identity, one source lookup, λ/σ, assignments.
      const PathPropertyGraph* source =
          by_id ? ProvenanceGraph(nc.name) : nullptr;
      const LabelSet pattern_labels(FlattenLabels(pat.label_groups));
      const bool needs_rows = NeedsRows(nc.name, !pat.props.empty());
      std::vector<std::vector<size_t>> group_rows;
      if (needs_rows) group_rows = RowsByGroup(group_of_row, reps.size());
      const std::vector<const Key*> keys = KeysByGroup(key_index);
      SkolemTable* skolems =
          identity_bound ? nullptr
                         : &owner->node_skolems_[pat.is_copy
                                                     ? nc.name + "(copy)"
                                                     : nc.name];
      auto next = [&] { return ids()->NextNode(); };
      std::vector<NodeId> group_ids(reps.size());
      node_builds.reserve(node_builds.size() + reps.size());
      for (size_t g = 0; g < reps.size(); ++g) {
        NodeBuild build;
        build.var = nc.name;
        build.rep = reps[g];
        if (identity_bound) {
          build.id = bound[g];
        } else if (pat.is_copy) {
          Key key;
          key.a = bound[g].value();
          build.id = NodeId(Skolem(skolems, key, next));
        } else {
          build.id = NodeId(Skolem(skolems, *keys[g], next));
        }
        const ObjectData* object =
            source != nullptr ? source->FindNode(bound[g]) : nullptr;
        if (object != nullptr) static_cast<ObjectData&>(build) = *object;
        build.labels.UnionWith(pattern_labels);
        if (needs_rows) {
          build.rows = std::move(group_rows[g]);
          GCORE_RETURN_NOT_OK(ApplyAssignments(pat.props, build.rows, source,
                                               &build.props));
        }
        group_ids[g] = build.id;
        node_builds.push_back(std::move(build));
      }
      for (size_t r : rows) {
        if (group_of_row[r] != kNoGroup) assign[r] = group_ids[group_of_row[r]];
      }
    }
    return Status::OK();
  }

  Status BuildEdgesColumnar() {
    constexpr size_t kNoRow = ~size_t{0};
    const size_t n = bindings.NumRows();
    for (const EdgeCtor& ec : edge_ctors) {
      const EdgePattern& pat = *ec.pattern;
      const size_t col = bindings.ColumnIndex(ec.name);
      const Column* column =
          col == BindingTable::kNpos ? nullptr : &bindings.ColumnAt(col);
      const bool identity_bound = column != nullptr && !pat.is_copy;
      const bool reversed = pat.direction == EdgePattern::Direction::kLeft;
      const std::vector<NodeId>& from = node_of_row[ec.from_ctor];
      const std::vector<NodeId>& to = node_of_row[ec.to_ctor];
      const PathPropertyGraph* source =
          identity_bound || pat.is_copy ? ProvenanceGraph(ec.name) : nullptr;

      // Row pass. A group keeps its first row and that row's endpoints, the
      // first row whose endpoints differ from those, and the last row's
      // endpoints (the build's ρ).
      struct Group {
        size_t rep;
        NodeId first_src;
        NodeId first_dst;
        NodeId src;
        NodeId dst;
        size_t divergent;
      };
      std::vector<Group> groups;
      std::vector<uint32_t> group_of_row(n, kNoGroup);
      std::unordered_map<Key, uint32_t, KeyHash> key_index;
      std::vector<EdgeId> bound;  // identity_bound: each group's edge
      size_t type_error_row = kNoRow;
      IdGroups id_index(identity_bound ? rows.size() : 0);
      std::optional<GroupListEval> group_eval;
      if (!identity_bound && !pat.group_by.empty()) {
        group_eval.emplace(*this, pat.group_by);
      }
      for (size_t r : rows) {
        NodeId src = from[r];
        NodeId dst = to[r];
        if (!src.valid() || !dst.valid()) continue;  // dangling prevention
        if (reversed) std::swap(src, dst);
        uint32_t g = 0;
        bool fresh = false;
        if (identity_bound) {
          const Column::Kind kind = column->KindAt(r);
          if (kind == Column::Kind::kUnbound) continue;
          if (kind != Column::Kind::kEdge) {
            type_error_row = r;
            break;
          }
          g = id_index.Insert(column->EdgeAt(r).value(), &fresh);
          if (fresh) bound.push_back(column->EdgeAt(r));
        } else {
          Key key;
          key.a = src.value();
          key.b = dst.value();
          if (group_eval.has_value()) {
            GCORE_RETURN_NOT_OK(group_eval->Append(r, &key));
          }
          if (pat.is_copy) {
            key.parts.push_back(column != nullptr ? column->DatumAt(r)
                                                  : Datum());
          }
          auto [it, inserted] = key_index.try_emplace(
              std::move(key), static_cast<uint32_t>(groups.size()));
          g = it->second;
          fresh = inserted;
        }
        if (fresh) {
          groups.push_back({r, src, dst, src, dst, kNoRow});
        } else {
          Group& group = groups[g];
          if (group.divergent == kNoRow &&
              (src != group.first_src || dst != group.first_dst)) {
            group.divergent = r;
          }
          group.src = src;
          group.dst = dst;
        }
        group_of_row[r] = g;
      }

      // A bound edge must keep its source endpoints (Section 3: changing
      // them violates identity). Checked per distinct edge; the earliest
      // violating row decides, as row by row.
      std::vector<const PathPropertyGraph::EdgeData*> objects(groups.size(),
                                                              nullptr);
      if (identity_bound && source != nullptr) {
        for (size_t g = 0; g < groups.size(); ++g) {
          objects[g] = source->FindEdge(bound[g]);
        }
        size_t violation = kNoRow;
        for (size_t g = 0; g < groups.size(); ++g) {
          if (objects[g] == nullptr) continue;
          const Group& group = groups[g];
          const bool rep_differs = objects[g]->src != group.first_src ||
                                   objects[g]->dst != group.first_dst;
          violation =
              std::min(violation, rep_differs ? group.rep : group.divergent);
        }
        if (violation != kNoRow) return IdentityViolation(ec.name);
      }
      if (type_error_row != kNoRow) return NotAnEdge(ec.name);

      // Group pass.
      const LabelSet pattern_labels(FlattenLabels(pat.label_groups));
      const bool needs_rows = NeedsRows(ec.name, !pat.props.empty());
      std::vector<std::vector<size_t>> group_rows;
      if (needs_rows) group_rows = RowsByGroup(group_of_row, groups.size());
      const std::vector<const Key*> keys = KeysByGroup(key_index);
      SkolemTable* skolems =
          identity_bound ? nullptr
                         : &owner->edge_skolems_[pat.is_copy
                                                     ? ec.name + "(copy)"
                                                     : ec.name];
      edge_builds.reserve(edge_builds.size() + groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        const Group& group = groups[g];
        EdgeBuild build;
        build.var = ec.name;
        build.rep = group.rep;
        build.src = group.src;
        build.dst = group.dst;
        const ObjectData* object = objects[g];
        if (identity_bound) {
          build.id = bound[g];
        } else {
          build.id = EdgeId(
              Skolem(skolems, *keys[g], [&] { return ids()->NextEdge(); }));
          if (source != nullptr && column != nullptr &&
              column->KindAt(group.rep) == Column::Kind::kEdge) {
            object = source->FindEdge(column->EdgeAt(group.rep));
          }
        }
        if (object != nullptr) static_cast<ObjectData&>(build) = *object;
        build.labels.UnionWith(pattern_labels);
        if (needs_rows) {
          build.rows = std::move(group_rows[g]);
          GCORE_RETURN_NOT_OK(ApplyAssignments(pat.props, build.rows, source,
                                               &build.props));
        }
        edge_builds.push_back(std::move(build));
      }
    }
    return Status::OK();
  }

  Status BuildPathsColumnar() {
    const size_t n = bindings.NumRows();
    for (const PathCtor& pc : path_ctors) {
      const PathPattern& pat = *pc.pattern;
      const size_t col = bindings.ColumnIndex(pc.name);
      if (col == BindingTable::kNpos) return UnboundPath(pc.name);
      const Column& column = bindings.ColumnAt(col);

      std::vector<uint32_t> group_of_row(n, kNoGroup);
      std::vector<size_t> reps;
      IdGroups index(rows.size());
      for (size_t r : rows) {
        const Column::Kind kind = column.KindAt(r);
        if (kind == Column::Kind::kUnbound) continue;
        if (kind != Column::Kind::kPath) return NotAPath(pc.name);
        bool fresh = false;
        group_of_row[r] =
            index.Insert(column.HeavyAt(r).path().id.value(), &fresh);
        if (fresh) reps.push_back(r);
      }

      const PathPropertyGraph* source = ProvenanceGraph(pc.name);
      std::vector<std::vector<size_t>> group_rows;
      if (NeedsRows(pc.name, !pat.props.empty())) {
        group_rows = RowsByGroup(group_of_row, reps.size());
      } else {
        group_rows.resize(reps.size());
      }
      for (size_t g = 0; g < reps.size(); ++g) {
        GCORE_RETURN_NOT_OK(AddPathBuild(pat, pc.name,
                                         column.HeavyAt(reps[g]).path(),
                                         source, reps[g],
                                         std::move(group_rows[g])));
      }
    }
    return Status::OK();
  }

  /// Adds every surviving build into a fresh graph in ascending id order.
  /// Members built more than once (a variable at two chain positions, a
  /// node on many path bodies) merge by set union; contributions that
  /// share a payload (the same source object) are skipped, so each
  /// distinct source object is merged once whatever its number of
  /// contributions, and path bodies import each (source, object) once.
  Result<PathPropertyGraph> AssembleColumnar() {
    std::vector<Piece> nodes;
    std::vector<Piece> edges;
    nodes.reserve(node_builds.size());
    edges.reserve(edge_builds.size());
    for (const NodeBuild& b : node_builds) {
      if (!b.dropped) nodes.push_back({b.id.value(), &b, {}, {}, true});
    }
    for (const EdgeBuild& b : edge_builds) {
      if (!b.dropped) edges.push_back({b.id.value(), &b, b.src, b.dst, true});
    }

    using SourceObject = std::pair<const void*, uint64_t>;
    std::unordered_set<SourceObject, SourceObjectHash> imported_nodes;
    std::unordered_set<SourceObject, SourceObjectHash> imported_edges;
    auto import_node = [&](const PathPropertyGraph& source, NodeId id) {
      if (imported_nodes.insert({&source, id.value()}).second) {
        nodes.push_back({id.value(), source.FindNode(id), {}, {}, false});
      }
    };
    auto import_edge = [&](const PathPropertyGraph& source, EdgeId id) {
      if (!imported_edges.insert({&source, id.value()}).second) return;
      const PathPropertyGraph::EdgeData* object = source.FindEdge(id);
      if (object == nullptr) return;
      import_node(source, object->src);
      import_node(source, object->dst);
      edges.push_back({id.value(), object, object->src, object->dst, false});
    };
    std::vector<size_t> stored;
    for (size_t i = 0; i < path_builds.size(); ++i) {
      const PathBuild& b = path_builds[i];
      if (b.dropped) continue;
      for (NodeId id : b.body.nodes) import_node(*b.source, id);
      for (EdgeId id : b.body.edges) import_edge(*b.source, id);
      for (NodeId id : b.extra_nodes) import_node(*b.source, id);
      for (EdgeId id : b.extra_edges) import_edge(*b.source, id);
      if (b.make_object) stored.push_back(i);
    }

    auto by_id = [](const Piece& x, const Piece& y) { return x.id < y.id; };
    std::stable_sort(nodes.begin(), nodes.end(), by_id);
    std::stable_sort(edges.begin(), edges.end(), by_id);

    PathPropertyGraph graph;
    // Unions one run of equal-id pieces into `out`.
    auto merge_run = [](const std::vector<Piece>& pieces, size_t begin,
                        size_t end, ObjectData* out) {
      for (size_t i = begin; i < end; ++i) {
        if (pieces[i].data == nullptr) continue;
        out->labels.UnionWith(pieces[i].data->labels);
        out->props.UnionWith(pieces[i].data->props);
      }
    };
    auto run_end = [](const std::vector<Piece>& pieces, size_t begin) {
      size_t end = begin + 1;
      while (end < pieces.size() && pieces[end].id == pieces[begin].id) ++end;
      return end;
    };

    for (size_t i = 0; i < nodes.size();) {
      const size_t end = run_end(nodes, i);
      merge_run(nodes, i, end, &graph.UpsertNode(NodeId(nodes[i].id)));
      i = end;
    }
    for (size_t i = 0; i < edges.size();) {
      const size_t end = run_end(edges, i);
      const Piece& first = edges[i];
      // Builds precede imports within a run: a second build with other
      // endpoints is an identity violation, a diverging import is not.
      for (size_t j = i + 1; j < end; ++j) {
        if (edges[j].build &&
            (edges[j].src != first.src || edges[j].dst != first.dst)) {
          return Status::InvalidArgument(
              "edge " + gcore::ToString(EdgeId(first.id)) +
              " re-added with different endpoints (identity violation)");
        }
      }
      GCORE_ASSIGN_OR_RETURN(
          ObjectData * out,
          graph.UpsertEdge(EdgeId(first.id), first.src, first.dst));
      merge_run(edges, i, end, out);
      i = end;
    }
    // Stored paths replace λ/σ: the last build of an id wins.
    std::stable_sort(stored.begin(), stored.end(), [&](size_t x, size_t y) {
      return path_builds[x].id < path_builds[y].id;
    });
    for (size_t i : stored) {
      PathBuild& b = path_builds[i];
      GCORE_ASSIGN_OR_RETURN(ObjectData * out,
                             graph.UpsertPath(b.id, std::move(b.body)));
      out->labels = std::move(b.labels);
      out->props = std::move(b.props);
    }
    return graph;
  }

  // === shared by both paths ========================================================

  // --- SET / REMOVE statements -----------------------------------------------------

  Status ApplySetStatements() {
    for (const auto& stmt : item.sets) {
      bool found = false;
      ExprEvaluator eval = MakeEvaluator(nullptr);
      auto apply = [&](auto& builds) -> Status {
        for (auto& build : builds) {
          if (build.var != stmt.var) continue;
          found = true;
          GCORE_RETURN_NOT_OK(ApplyOneSet(stmt, eval, build.rows,
                                          &build.labels, &build.props));
        }
        return Status::OK();
      };
      GCORE_RETURN_NOT_OK(apply(node_builds));
      GCORE_RETURN_NOT_OK(apply(edge_builds));
      GCORE_RETURN_NOT_OK(apply(path_builds));
      if (!found) {
        return Status::BindError("SET/REMOVE on '" + stmt.var +
                                 "' which is not constructed by this item");
      }
    }
    return Status::OK();
  }

  Status ApplyOneSet(const SetStatement& stmt, const ExprEvaluator& eval,
                     const std::vector<size_t>& group_rows, LabelSet* labels,
                     PropertyMap* props) const {
    switch (stmt.kind) {
      case SetStatement::Kind::kSetProperty: {
        GCORE_ASSIGN_OR_RETURN(
            Datum d, eval.EvalWithGroup(*stmt.value, bindings, group_rows));
        if (d.kind() != Datum::Kind::kValues) {
          return Status::TypeError("SET " + stmt.var + "." + stmt.key +
                                   " did not evaluate to a literal");
        }
        props->Set(stmt.key, d.values());
        return Status::OK();
      }
      case SetStatement::Kind::kSetLabel:
        labels->Insert(stmt.label);
        return Status::OK();
      case SetStatement::Kind::kCopy: {
        const size_t rep = group_rows.front();
        const Datum& from = bindings.Get(rep, stmt.from_var);
        const PathPropertyGraph* source = ProvenanceGraph(stmt.from_var);
        if (source == nullptr || from.IsUnbound()) return Status::OK();
        const LabelSet src_labels = DatumLabels(from, *source);
        labels->UnionWith(src_labels);
        switch (from.kind()) {
          case Datum::Kind::kNode:
            props->UnionWith(source->Properties(from.node()));
            break;
          case Datum::Kind::kEdge:
            props->UnionWith(source->Properties(from.edge()));
            break;
          case Datum::Kind::kPath:
            if (from.path().from_graph) {
              props->UnionWith(source->Properties(from.path().id));
            }
            break;
          default:
            break;
        }
        return Status::OK();
      }
      case SetStatement::Kind::kRemoveProperty:
        props->Remove(stmt.key);
        return Status::OK();
      case SetStatement::Kind::kRemoveLabel:
        labels->Remove(stmt.label);
        return Status::OK();
    }
    return Status::OK();
  }

  // --- WHEN (post-construction form) -------------------------------------------------

  Status ApplyPostWhen() {
    // Scratch graph with the constructed objects so property lookups on
    // construct variables see the assigned values: the last build of an
    // id sets its λ/σ, edge endpoints join as bare nodes. Inserted in
    // ascending id order (stable, so "last" keeps build order).
    std::vector<Piece> nodes;
    std::vector<Piece> edges;
    for (const auto& b : node_builds) {
      nodes.push_back({b.id.value(), &b, {}, {}, true});
    }
    for (const auto& b : edge_builds) {
      nodes.push_back({b.src.value(), nullptr, {}, {}, false});
      nodes.push_back({b.dst.value(), nullptr, {}, {}, false});
      edges.push_back({b.id.value(), &b, b.src, b.dst, true});
    }
    auto by_id = [](const Piece& x, const Piece& y) { return x.id < y.id; };
    std::stable_sort(nodes.begin(), nodes.end(), by_id);
    std::stable_sort(edges.begin(), edges.end(), by_id);
    PathPropertyGraph scratch;
    for (const Piece& p : nodes) {
      ObjectData& out = scratch.UpsertNode(NodeId(p.id));
      if (p.data != nullptr) out = *p.data;
    }
    for (const Piece& p : edges) {
      Status st = scratch.AddEdge(EdgeId(p.id), p.src, p.dst);
      (void)st;
      scratch.SetLabels(EdgeId(p.id), p.data->labels);
      scratch.SetProperties(EdgeId(p.id), p.data->props);
    }

    // Extended binding table: original columns plus construct variables.
    BindingTable extended(bindings.columns());
    for (const auto& [v, g] : bindings.column_graphs()) {
      extended.SetColumnGraph(v, g);
    }
    std::map<std::string, size_t> ctor_cols;
    for (const auto& b : node_builds) {
      if (ctor_cols.count(b.var) == 0 && !bindings.HasColumn(b.var)) {
        ctor_cols[b.var] = extended.AddColumn(b.var);
      }
    }
    for (const auto& b : edge_builds) {
      if (ctor_cols.count(b.var) == 0 && !bindings.HasColumn(b.var)) {
        ctor_cols[b.var] = extended.AddColumn(b.var);
      }
    }
    // Row index map original -> extended.
    std::unordered_map<size_t, size_t> row_map;
    for (size_t r : rows) {
      row_map[r] = extended.NumRows();
      extended.AppendRowFrom(bindings, r);
    }
    for (const auto& b : node_builds) {
      auto it = ctor_cols.find(b.var);
      if (it == ctor_cols.end()) continue;
      for (size_t r : b.rows) {
        extended.SetCell(row_map[r], it->second, Datum::OfNode(b.id));
      }
    }
    for (const auto& b : edge_builds) {
      auto it = ctor_cols.find(b.var);
      if (it == ctor_cols.end()) continue;
      for (size_t r : b.rows) {
        extended.SetCell(row_map[r], it->second, Datum::OfEdge(b.id));
      }
    }

    ExprEvaluator eval = MakeEvaluator(&scratch);

    auto group_passes = [&](size_t rep) -> Result<bool> {
      return eval.EvalPredicate(*item.when, extended, row_map[rep]);
    };

    for (auto& b : edge_builds) {
      GCORE_ASSIGN_OR_RETURN(bool keep, group_passes(b.rep));
      if (!keep) b.dropped = true;
    }
    for (auto& b : node_builds) {
      GCORE_ASSIGN_OR_RETURN(bool keep, group_passes(b.rep));
      if (!keep) {
        b.dropped = true;
        // Drop edges touching the dropped node (dangling prevention).
        for (auto& e : edge_builds) {
          if (e.src == b.id || e.dst == b.id) e.dropped = true;
        }
      }
    }
    for (auto& b : path_builds) {
      GCORE_ASSIGN_OR_RETURN(bool keep, group_passes(b.rep));
      if (!keep) b.dropped = true;
    }
    return Status::OK();
  }

  // --- driver ------------------------------------------------------------------------

  Result<PathPropertyGraph> Run(bool spec) {
    CollectConstructors();

    rows.clear();
    rows.reserve(bindings.NumRows());
    for (size_t r = 0; r < bindings.NumRows(); ++r) rows.push_back(r);

    // WHEN over match-bound data only: pre-filter rows.
    if (item.when != nullptr) {
      std::set<std::string> defined = ConstructDefinedVars();
      std::vector<std::string> mentioned;
      item.when->CollectVariables(&mentioned);
      for (const auto& v : mentioned) {
        if (defined.count(v) > 0) {
          post_when = true;
          break;
        }
      }
      if (!post_when) {
        ExprEvaluator eval = MakeEvaluator(nullptr);
        std::vector<size_t> kept;
        for (size_t r : rows) {
          GCORE_ASSIGN_OR_RETURN(bool keep,
                                 eval.EvalPredicate(*item.when, bindings, r));
          if (keep) kept.push_back(r);
        }
        rows = std::move(kept);
      }
    }

    if (spec) {
      GCORE_RETURN_NOT_OK(BuildNodesSpec());
      GCORE_RETURN_NOT_OK(BuildEdgesSpec());
      GCORE_RETURN_NOT_OK(BuildPathsSpec());
    } else {
      GCORE_RETURN_NOT_OK(BuildNodesColumnar());
      GCORE_RETURN_NOT_OK(BuildEdgesColumnar());
      GCORE_RETURN_NOT_OK(BuildPathsColumnar());
    }
    GCORE_RETURN_NOT_OK(ApplySetStatements());
    if (post_when) {
      GCORE_RETURN_NOT_OK(ApplyPostWhen());
    }
    return spec ? AssembleSpec() : AssembleColumnar();
  }
};

Result<PathPropertyGraph> Constructor::EvalItem(const ConstructItem& item,
                                                const BindingTable& bindings) {
  if (!item.graph_ref.empty()) {
    // The version the MATCH pinned, like every other λ/σ read of the
    // tail; a name the resolver cannot answer reports the catalog's error.
    const PathPropertyGraph* g =
        ctx_.resolve_graph ? ctx_.resolve_graph(item.graph_ref) : nullptr;
    if (g == nullptr) {
      GCORE_ASSIGN_OR_RETURN(g, ctx_.catalog->Lookup(item.graph_ref));
    }
    return PathPropertyGraph(*g);
  }
  if (!item.pattern.has_value()) {
    return Status::BindError("construct item has neither pattern nor graph");
  }
  ItemState state(this, item, bindings);
  return state.Run(ctx_.use_spec);
}

Result<PathPropertyGraph> Constructor::EvalConstruct(
    const ConstructClause& construct, const BindingTable& bindings) {
  node_skolems_.clear();
  edge_skolems_.clear();
  clause_groups_.clear();
  // Collect explicit GROUP declarations per construct variable across the
  // whole clause so later bare occurrences reuse them.
  for (const auto& item : construct.items) {
    if (!item.pattern.has_value()) continue;
    auto record = [&](const std::string& var,
                      const std::vector<std::unique_ptr<Expr>>& group_by) {
      if (!var.empty() && !group_by.empty()) {
        clause_groups_.emplace(var, &group_by);
      }
    };
    record(item.pattern->start.var, item.pattern->start.group_by);
    for (const auto& hop : item.pattern->hops) {
      record(hop.to.var, hop.to.group_by);
      if (hop.kind == PatternHop::Kind::kEdge) {
        record(hop.edge.var, hop.edge.group_by);
      }
    }
  }
  PathPropertyGraph result;
  bool first = true;
  for (const auto& item : construct.items) {
    GCORE_ASSIGN_OR_RETURN(PathPropertyGraph piece, EvalItem(item, bindings));
    if (first) {
      result = std::move(piece);
      first = false;
    } else {
      result = GraphUnion(std::move(result), std::move(piece));
    }
  }
  return result;
}

}  // namespace gcore
