#include "eval/constructor.h"

#include <algorithm>
#include <optional>
#include <set>
#include <type_traits>
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
/// appearance; the table doubles at half load, so it stays as small as
/// the distinct ids.
class IdGroups {
 public:
  /// Group of `id`; a first appearance takes the next number.
  uint32_t Insert(uint64_t id, bool* fresh) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    auto& slot = slots_[Probe(id)];
    *fresh = slot.first == kEmpty;
    if (*fresh) slot = {id, size_++};
    return slot.second;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // never a valid id

  size_t Probe(uint64_t id) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t h = id * 0x9e3779b97f4a7c15ull;
    size_t pos = (h ^ (h >> 29)) & mask;
    while (slots_[pos].first != kEmpty && slots_[pos].first != id) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }
  void Grow() {
    std::vector<std::pair<uint64_t, uint32_t>> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), {kEmpty, 0});
    for (const auto& slot : old) {
      if (slot.first != kEmpty) slots_[Probe(slot.first)] = slot;
    }
  }

  std::vector<std::pair<uint64_t, uint32_t>> slots_;
  uint32_t size_ = 0;
};

uint64_t RawId(uint64_t id) { return id; }
template <typename Tag>
uint64_t RawId(internal::ObjectId<Tag> id) {
  return id.value();
}

/// Entry i of a permutation (empty: the identity).
size_t Slot(const std::vector<uint32_t>& permutation, size_t i) {
  return permutation.empty() ? i : permutation[i];
}

/// `column` rearranged so entry p is the old entry order[p].
template <typename T>
std::vector<T> Permuted(std::vector<T> column,
                        const std::vector<uint32_t>& order) {
  if (order.empty()) return column;
  std::vector<T> out(column.size());
  for (size_t p = 0; p < out.size(); ++p) out[p] = std::move(column[order[p]]);
  return out;
}

/// The inverse permutation (empty stays empty).
std::vector<uint32_t> Inverse(const std::vector<uint32_t>& order) {
  std::vector<uint32_t> out(order.size());
  for (size_t p = 0; p < order.size(); ++p) {
    out[order[p]] = static_cast<uint32_t>(p);
  }
  return out;
}

/// The positions of `ids` by ascending id, ties in position order; empty
/// when the ids already ascend. A least-significant-digit radix sort over
/// the id bits in use: a few sequential passes where a comparison sort
/// would make log n random ones.
template <typename Id>
std::vector<uint32_t> AscendingOrder(const std::vector<Id>& ids) {
  if (std::is_sorted(ids.begin(), ids.end())) return {};
  std::vector<std::pair<uint64_t, uint32_t>> keyed(ids.size());
  uint64_t bits = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    keyed[i] = {RawId(ids[i]), static_cast<uint32_t>(i)};
    bits |= keyed[i].first;
  }
  std::vector<std::pair<uint64_t, uint32_t>> out(keyed.size());
  for (int shift = 0; shift < 64 && (bits >> shift) != 0; shift += 8) {
    size_t start[257] = {};
    for (const auto& k : keyed) ++start[((k.first >> shift) & 0xff) + 1];
    for (int d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const auto& k : keyed) out[start[(k.first >> shift) & 0xff]++] = k;
    keyed.swap(out);
  }
  std::vector<uint32_t> order(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) order[i] = keyed[i].second;
  return order;
}

/// Looks all `ids` up by one ascending merge over a store: `find` takes
/// them sorted and answers in that order. Entry i of the result answers
/// ids[i].
template <typename Id, typename Find>
auto FindInOrder(const std::vector<Id>& ids, Find find) {
  const std::vector<uint32_t> order = AscendingOrder(ids);
  if (order.empty()) return find(ids);
  std::vector<Id> sorted(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) sorted[i] = ids[order[i]];
  const auto found = find(sorted);
  std::remove_const_t<decltype(found)> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out[order[i]] = found[i];
  return out;
}

template <typename Id>
void SortUnique(std::vector<Id>* ids) {
  const std::vector<uint32_t> order = AscendingOrder(*ids);
  *ids = Permuted(std::move(*ids), order);
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

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

  // Build products: one column set per constructor (node_builds[i] belongs
  // to node_ctors[i], and so on), one entry per group. The columnar path
  // stores a node or edge constructor's entries in ascending id order and
  // `group_pos` maps group g (in order of first appearance) to its entry;
  // the spec and path constructors store them in group order. An entry's
  // λ/σ is its source object's, shared with the source graph (`source`,
  // null when there is none), unless the constructor edits it: a pattern
  // label, an assignment or a SET statement gives every entry of that
  // constructor its own copy in `own` (the spec always fills `own`). An
  // entry's binding rows are one offsets + rows array, filled whenever
  // assignments, SET statements or a post-WHEN read them (always, in the
  // spec).
  struct Builds {
    std::vector<uint64_t> ids;
    std::vector<size_t> reps;  // each group's first row
    std::vector<const ObjectData*> source;
    std::vector<ObjectData> own;  // empty, or one per entry
    // Entry p's rows are rows[row_start[p], row_start[p + 1]).
    std::vector<size_t> row_start;
    std::vector<size_t> rows;
    std::vector<uint32_t> group_pos;  // group -> entry; empty = the same
    std::vector<char> dropped;        // post-WHEN; empty = none dropped

    size_t size() const { return ids.size(); }
    /// Entry of the g-th group to appear.
    size_t Pos(size_t g) const { return Slot(group_pos, g); }
    const ObjectData* Data(size_t p) const {
      return own.empty() ? source[p] : &own[p];
    }
    bool Dropped(size_t p) const { return !dropped.empty() && dropped[p]; }
    /// Entry p's rows (empty unless collected), copied into `scratch`.
    const std::vector<size_t>& RowsOf(size_t p,
                                      std::vector<size_t>* scratch) const {
      scratch->clear();
      if (!row_start.empty()) {
        scratch->assign(rows.begin() + row_start[p],
                        rows.begin() + row_start[p + 1]);
      }
      return *scratch;
    }
    /// The spec's append: one group, its rows and its own λ/σ.
    void AddGroup(uint64_t id, const std::vector<size_t>& group_rows,
                  ObjectData data) {
      ids.push_back(id);
      reps.push_back(group_rows.front());
      source.push_back(nullptr);
      own.push_back(std::move(data));
      if (row_start.empty()) row_start.push_back(0);
      rows.insert(rows.end(), group_rows.begin(), group_rows.end());
      row_start.push_back(rows.size());
    }
  };
  struct EdgeBuilds : Builds {
    std::vector<NodeId> src;  // ρ
    std::vector<NodeId> dst;
  };
  struct PathBuilds : Builds {
    const PathPropertyGraph* graph = nullptr;  // λ/σ source of the bodies
    std::vector<const PathValue*> values;       // owned by the bindings
  };
  std::vector<Builds> node_builds;
  std::vector<EdgeBuilds> edge_builds;
  std::vector<PathBuilds> path_builds;

  // Spec: per node-constructor, row -> assigned node id.
  std::vector<std::unordered_map<size_t, NodeId>> node_assign;
  // Columnar: per node-constructor, each row's entry (kNoGroup = the row
  // built no node there).
  std::vector<std::vector<uint32_t>> node_pos_of_row;

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
    node_builds.resize(node_ctors.size());
    edge_builds.resize(edge_ctors.size());
    path_builds.resize(path_ctors.size());
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

  /// True when the groups of `var` must carry their rows: assignments,
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
        const size_t rep = group_rows.front();
        NodeId id;
        const PathPropertyGraph* source = nullptr;
        if (identity_bound) {
          id = bindings.Get(rep, nc.name).node();
          source = ProvenanceGraph(nc.name);
        } else if (pat.is_copy) {
          id = NodeSkolem(nc.name + "(copy)", key);
          source = ProvenanceGraph(nc.name);
        } else {
          id = NodeSkolem(nc.name, key);
        }

        // λ|v ∪ λS: existing labels/properties of the source object first.
        ObjectData data;
        if (source != nullptr) {
          const NodeId src_id = bindings.Get(rep, nc.name).node();
          if (source->HasNode(src_id)) {
            data.labels = source->Labels(src_id);
            data.props = source->Properties(src_id);
          }
        }
        for (const auto& l : FlattenLabels(pat.label_groups)) {
          data.labels.Insert(l);
        }
        GCORE_RETURN_NOT_OK(
            ApplyAssignments(pat.props, group_rows, source, &data.props));

        for (size_t r : group_rows) node_assign[ci][r] = id;
        node_builds[ci].AddGroup(id.value(), group_rows, std::move(data));
      }
    }
    return Status::OK();
  }

  Status BuildEdgesSpec() {
    for (size_t ei = 0; ei < edge_ctors.size(); ++ei) {
      const EdgeCtor& ec = edge_ctors[ei];
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

      EdgeBuilds& b = edge_builds[ei];
      for (size_t g = 0; g < groups.groups.size(); ++g) {
        const Key& key = groups.groups[g].first;
        const std::vector<size_t>& group_rows = groups.groups[g].second;
        const size_t rep = group_rows.front();

        EdgeId id;
        const PathPropertyGraph* source = nullptr;
        if (identity_bound) {
          id = bindings.Get(rep, ec.name).edge();
          source = ProvenanceGraph(ec.name);
        } else {
          id = EdgeSkolem(pat.is_copy ? ec.name + "(copy)" : ec.name, key);
          if (pat.is_copy) source = ProvenanceGraph(ec.name);
        }

        ObjectData data;
        if (source != nullptr) {
          const Datum& d = bindings.Get(rep, ec.name);
          if (d.kind() == Datum::Kind::kEdge && source->HasEdge(d.edge())) {
            data.labels = source->Labels(d.edge());
            data.props = source->Properties(d.edge());
          }
        }
        for (const auto& l : FlattenLabels(pat.label_groups)) {
          data.labels.Insert(l);
        }
        GCORE_RETURN_NOT_OK(
            ApplyAssignments(pat.props, group_rows, source, &data.props));
        b.AddGroup(id.value(), group_rows, std::move(data));
        b.src.push_back(ends[g].first);
        b.dst.push_back(ends[g].second);
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
    for (size_t pi = 0; pi < path_ctors.size(); ++pi) {
      const PathCtor& pc = path_ctors[pi];
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

      PathBuilds& b = path_builds[pi];
      b.graph = ProvenanceGraph(pc.name);
      b.row_start.push_back(0);
      for (auto& [key, group_rows] : groups.groups) {
        const size_t rep = group_rows.front();
        b.rows.insert(b.rows.end(), group_rows.begin(), group_rows.end());
        b.row_start.push_back(b.rows.size());
        // The table owns the path value; the Datum copy shares it.
        GCORE_RETURN_NOT_OK(AddPathBuild(
            pc, &bindings.Get(rep, pc.name).path(), rep, group_rows, &b));
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

  /// One path group's build (shared by both paths: path groups are few);
  /// the caller has recorded the group's rows. Every path group keeps its
  /// own λ/σ, which only a stored path (@p) emits.
  Status AddPathBuild(const PathCtor& pc, const PathValue* pv, size_t rep,
                      const std::vector<size_t>& group_rows, PathBuilds* b) {
    const PathPattern& pat = *pc.pattern;
    if (b->graph == nullptr) {
      return Status::BindError(
          "cannot resolve source graph for path variable '" + pc.name + "'");
    }
    if (pv->projection.has_value() && pat.stored) {
      return Status::Unsupported(
          "storing ALL-paths bindings (@" + pc.name +
          ") is intractable; bind the variable without @ to project "
          "the paths into a graph");
    }
    ObjectData data;
    if (pat.stored) {
      if (pv->from_graph && b->graph->HasPath(pv->id)) {
        data.labels = b->graph->Labels(pv->id);
        data.props = b->graph->Properties(pv->id);
      }
      for (const auto& l : FlattenLabels(pat.label_groups)) {
        data.labels.Insert(l);
      }
      GCORE_RETURN_NOT_OK(
          ApplyAssignments(pat.props, group_rows, b->graph, &data.props));
    }
    b->ids.push_back(pv->id.value());
    b->reps.push_back(rep);
    b->source.push_back(nullptr);
    b->own.push_back(std::move(data));
    b->values.push_back(pv);
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

  /// The nodes and edges of a path group's walk: its body, or its ALL
  /// projection.
  static std::pair<const std::vector<NodeId>*, const std::vector<EdgeId>*>
  Walk(const PathValue& pv) {
    if (pv.projection.has_value()) {
      return {&pv.projection->first, &pv.projection->second};
    }
    return {&pv.body.nodes, &pv.body.edges};
  }

  /// Adds the surviving stored paths (@p) in ascending id order. A stored
  /// path replaces λ/σ, so the last build of an id wins. The spec passes
  /// `check`; the columnar assembly, which has imported every body node
  /// and edge with its source ρ, appends a body unchecked unless some
  /// body edge was missing from its source graph or kept other endpoints.
  /// ALL projections and repeated ids always go through UpsertPath.
  Status AddStoredPaths(PathPropertyGraph* graph, bool check) const {
    struct Stored {
      uint64_t id;
      const PathBuilds* builds;
      size_t group;
    };
    std::vector<Stored> stored;
    for (size_t pi = 0; pi < path_builds.size(); ++pi) {
      if (!path_ctors[pi].pattern->stored) continue;
      const PathBuilds& b = path_builds[pi];
      for (size_t g = 0; g < b.size(); ++g) {
        if (!b.Dropped(g)) stored.push_back({b.ids[g], &b, g});
      }
    }
    std::stable_sort(
        stored.begin(), stored.end(),
        [](const Stored& x, const Stored& y) { return x.id < y.id; });
    for (size_t i = 0; i < stored.size(); ++i) {
      const Stored& s = stored[i];
      const PathValue& pv = *s.builds->values[s.group];
      ObjectData* out = nullptr;
      if (check || pv.projection.has_value() ||
          (i > 0 && stored[i - 1].id == s.id)) {
        GCORE_ASSIGN_OR_RETURN(out, graph->UpsertPath(PathId(s.id), pv.body));
      } else {
        out = &graph->AppendPath(PathId(s.id), pv.body);
      }
      *out = s.builds->own[s.group];
    }
    return Status::OK();
  }

  /// Adds every surviving build and path-body element to a fresh graph in
  /// ascending id order: a union does not depend on order, and the stable
  /// sort keeps each id's contributions in build order (node and edge
  /// builds, then path bodies).
  Result<PathPropertyGraph> AssembleSpec() {
    std::vector<Piece> nodes;
    std::vector<Piece> edges;
    for (const Builds& b : node_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        if (!b.Dropped(g)) nodes.push_back({b.ids[g], b.Data(g), {}, {}, true});
      }
    }
    for (const EdgeBuilds& b : edge_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        if (b.Dropped(g)) continue;
        edges.push_back({b.ids[g], b.Data(g), b.src[g], b.dst[g], true});
      }
    }
    for (const PathBuilds& b : path_builds) {
      // The walk's nodes and edges carry their λ/σ from the source graph.
      auto import_node = [&](NodeId n) {
        nodes.push_back({n.value(), b.graph->FindNode(n), {}, {}, false});
      };
      auto import_edge = [&](EdgeId e) {
        const PathPropertyGraph::EdgeData* data = b.graph->FindEdge(e);
        if (data == nullptr) return;
        import_node(data->src);
        import_node(data->dst);
        edges.push_back({e.value(), data, data->src, data->dst, false});
      };
      for (size_t g = 0; g < b.size(); ++g) {
        if (b.Dropped(g)) continue;
        const auto [walk_nodes, walk_edges] = Walk(*b.values[g]);
        for (NodeId n : *walk_nodes) import_node(n);
        for (EdgeId e : *walk_edges) import_edge(e);
      }
    }
    auto by_id = [](const Piece& x, const Piece& y) { return x.id < y.id; };
    std::stable_sort(nodes.begin(), nodes.end(), by_id);
    std::stable_sort(edges.begin(), edges.end(), by_id);

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
    GCORE_RETURN_NOT_OK(AddStoredPaths(&graph, /*check=*/true));
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

  /// Fills `b`'s entry rows as one offsets + rows array from each row's
  /// entry (a counting sort; row order within an entry).
  void CollectRows(const std::vector<uint32_t>& pos_of_row, size_t entries,
                   Builds* b) const {
    b->row_start.assign(entries + 1, 0);
    for (size_t r : rows) {
      if (pos_of_row[r] != kNoGroup) ++b->row_start[pos_of_row[r] + 1];
    }
    for (size_t p = 0; p < entries; ++p) {
      b->row_start[p + 1] += b->row_start[p];
    }
    b->rows.resize(b->row_start.back());
    std::vector<size_t> next(b->row_start.begin(), b->row_start.end() - 1);
    for (size_t r : rows) {
      if (pos_of_row[r] != kNoGroup) b->rows[next[pos_of_row[r]]++] = r;
    }
  }

  /// Result ids in group order: a bound constructor keeps its objects' ids
  /// (`bound`), any other draws new(x, key) per group, in group order (a
  /// copy keys on its source object's id).
  template <typename Id, typename NextFn>
  static std::vector<uint64_t> GroupIds(
      size_t groups, const std::vector<Id>& bound, bool is_copy,
      const std::unordered_map<Key, uint32_t, KeyHash>& key_index,
      SkolemTable* skolems, NextFn next) {
    std::vector<uint64_t> ids(groups);
    if (skolems == nullptr) {
      for (size_t g = 0; g < groups; ++g) ids[g] = bound[g].value();
      return ids;
    }
    std::vector<const Key*> keys(key_index.size());
    for (const auto& [key, g] : key_index) keys[g] = &key;
    for (size_t g = 0; g < ids.size(); ++g) {
      Key copy_key;
      if (is_copy) copy_key.a = bound[g].value();
      ids[g] = Skolem(skolems, is_copy ? copy_key : *keys[g], next);
    }
    return ids;
  }

  /// Stores the group-order `ids` (and `reps`) as entries in ascending id
  /// order; returns the order (entry -> group, empty when the groups
  /// already ascend) and maps `pos_of_row` from groups to entries.
  static std::vector<uint32_t> SortEntries(std::vector<uint64_t> ids,
                                           std::vector<size_t> reps,
                                           std::vector<uint32_t>* pos_of_row,
                                           Builds* b) {
    std::vector<uint32_t> order = AscendingOrder(ids);
    b->ids = Permuted(std::move(ids), order);
    b->reps = Permuted(std::move(reps), order);
    b->group_pos = Inverse(order);
    if (!order.empty()) {
      for (uint32_t& pos : *pos_of_row) {
        if (pos != kNoGroup) pos = b->group_pos[pos];
      }
    }
    return order;
  }

  /// Gives every entry of `b` its own λ/σ when the constructor edits them:
  /// the source object's plus the pattern labels, in id order, then the
  /// assignments in group order (so the first failing group decides).
  Status EditEntries(const std::string& var, const LabelSet& pattern_labels,
                     const std::vector<PropPattern>& props,
                     const PathPropertyGraph* source, Builds* b) const {
    if (pattern_labels.empty() && props.empty() && set_vars.count(var) == 0) {
      return Status::OK();
    }
    b->own.resize(b->size());
    for (size_t p = 0; p < b->size(); ++p) {
      if (b->source[p] != nullptr) b->own[p] = *b->source[p];
      b->own[p].labels.UnionWith(pattern_labels);
    }
    if (props.empty()) return Status::OK();
    std::vector<size_t> scratch;
    for (size_t g = 0; g < b->size(); ++g) {
      const size_t p = b->Pos(g);
      GCORE_RETURN_NOT_OK(ApplyAssignments(props, b->RowsOf(p, &scratch),
                                           source, &b->own[p].props));
    }
    return Status::OK();
  }

  Status BuildNodesColumnar() {
    const size_t n = bindings.NumRows();
    node_pos_of_row.assign(node_ctors.size(), std::vector<uint32_t>());
    for (size_t ci = 0; ci < node_ctors.size(); ++ci) {
      const NodeCtor& nc = node_ctors[ci];
      const NodePattern& pat = *nc.pattern;
      const size_t col = bindings.ColumnIndex(nc.name);
      const bool identity_bound = col != BindingTable::kNpos && !pat.is_copy;
      const bool by_id = identity_bound || pat.is_copy;
      std::vector<uint32_t>& pos_of_row = node_pos_of_row[ci];
      pos_of_row.assign(n, kNoGroup);
      if (by_id && col == BindingTable::kNpos) continue;  // (=x), x unbound

      // Row pass: each row's group, groups numbered by first appearance.
      std::vector<size_t> reps;
      std::unordered_map<Key, uint32_t, KeyHash> key_index;
      std::vector<NodeId> bound;  // by_id: each group's node
      if (by_id) {
        const Column& c = bindings.ColumnAt(col);
        IdGroups index;
        for (size_t r : rows) {
          const Column::Kind kind = c.KindAt(r);
          if (kind == Column::Kind::kUnbound) continue;
          if (kind != Column::Kind::kNode) return NotANode(nc.name);
          bool fresh = false;
          pos_of_row[r] = index.Insert(c.NodeAt(r).value(), &fresh);
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
          pos_of_row[r] = it->second;
        }
      }

      // Entries in id order; source objects by one ascending merge.
      Builds& b = node_builds[ci];
      SkolemTable* skolems =
          identity_bound
              ? nullptr
              : &owner->node_skolems_[pat.is_copy ? nc.name + "(copy)"
                                                  : nc.name];
      std::vector<uint64_t> group_ids =
          GroupIds(reps.size(), bound, pat.is_copy, key_index, skolems,
                   [&] { return ids()->NextNode(); });
      const std::vector<uint32_t> order = SortEntries(
          std::move(group_ids), std::move(reps), &pos_of_row, &b);
      const PathPropertyGraph* source =
          by_id ? ProvenanceGraph(nc.name) : nullptr;
      b.source.assign(b.size(), nullptr);
      if (source != nullptr) {
        b.source = FindInOrder(Permuted(std::move(bound), order),
                               [&](const std::vector<NodeId>& sorted) {
                                 return source->FindNodes(sorted);
                               });
      }
      if (NeedsRows(nc.name, !pat.props.empty())) {
        CollectRows(pos_of_row, b.size(), &b);
      }
      GCORE_RETURN_NOT_OK(EditEntries(nc.name,
                                      LabelSet(FlattenLabels(pat.label_groups)),
                                      pat.props, source, &b));
    }
    return Status::OK();
  }

  Status BuildEdgesColumnar() {
    constexpr size_t kNoRow = ~size_t{0};
    const size_t n = bindings.NumRows();
    for (size_t ei = 0; ei < edge_ctors.size(); ++ei) {
      const EdgeCtor& ec = edge_ctors[ei];
      const EdgePattern& pat = *ec.pattern;
      const size_t col = bindings.ColumnIndex(ec.name);
      const Column* column =
          col == BindingTable::kNpos ? nullptr : &bindings.ColumnAt(col);
      const bool identity_bound = column != nullptr && !pat.is_copy;
      // Arrow orientation decides ρ.
      const bool reversed = pat.direction == EdgePattern::Direction::kLeft;
      const size_t src_ctor = reversed ? ec.to_ctor : ec.from_ctor;
      const size_t dst_ctor = reversed ? ec.from_ctor : ec.to_ctor;
      const std::vector<uint32_t>& src_pos = node_pos_of_row[src_ctor];
      const std::vector<uint32_t>& dst_pos = node_pos_of_row[dst_ctor];
      const std::vector<uint64_t>& src_ids = node_builds[src_ctor].ids;
      const std::vector<uint64_t>& dst_ids = node_builds[dst_ctor].ids;
      const PathPropertyGraph* source =
          identity_bound || pat.is_copy ? ProvenanceGraph(ec.name) : nullptr;

      // Row pass. A group keeps its first row and that row's endpoints, the
      // first row whose endpoints differ from those, and its last row's
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
      std::vector<uint32_t> pos_of_row(n, kNoGroup);
      std::unordered_map<Key, uint32_t, KeyHash> key_index;
      std::vector<EdgeId> bound;  // identity_bound: each group's edge
      size_t type_error_row = kNoRow;
      IdGroups id_index;
      std::optional<GroupListEval> group_eval;
      if (!identity_bound && !pat.group_by.empty()) {
        group_eval.emplace(*this, pat.group_by);
      }
      for (size_t r : rows) {
        if (src_pos[r] == kNoGroup || dst_pos[r] == kNoGroup) {
          continue;  // dangling prevention
        }
        const NodeId src(src_ids[src_pos[r]]);
        const NodeId dst(dst_ids[dst_pos[r]]);
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
        pos_of_row[r] = g;
      }

      // Entries in id order; source objects by one ascending merge: a
      // bound edge's own, a copy's the edge its first row binds.
      EdgeBuilds& b = edge_builds[ei];
      std::vector<size_t> reps(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) reps[g] = groups[g].rep;
      SkolemTable* skolems =
          identity_bound
              ? nullptr
              : &owner->edge_skolems_[pat.is_copy ? ec.name + "(copy)"
                                                  : ec.name];
      std::vector<uint64_t> group_ids =
          GroupIds(groups.size(), bound, /*is_copy=*/false, key_index,
                   skolems, [&] { return ids()->NextEdge(); });
      const std::vector<uint32_t> order = SortEntries(
          std::move(group_ids), std::move(reps), &pos_of_row, &b);
      std::vector<const PathPropertyGraph::EdgeData*> objects(b.size(),
                                                              nullptr);
      if (source != nullptr && column != nullptr) {
        std::vector<EdgeId> wanted(b.size());
        for (size_t p = 0; p < b.size(); ++p) {
          const size_t rep = b.reps[p];
          if (column->KindAt(rep) == Column::Kind::kEdge) {
            wanted[p] = column->EdgeAt(rep);
          }
        }
        objects = FindInOrder(wanted, [&](const std::vector<EdgeId>& sorted) {
          return source->FindEdges(sorted);
        });
      }

      // A bound edge must keep its source endpoints (Section 3: changing
      // them violates identity). Checked per distinct edge; the earliest
      // violating row decides, as row by row.
      if (identity_bound) {
        size_t violation = kNoRow;
        for (size_t p = 0; p < b.size(); ++p) {
          if (objects[p] == nullptr) continue;
          const Group& group = groups[Slot(order, p)];
          const bool rep_differs = objects[p]->src != group.first_src ||
                                   objects[p]->dst != group.first_dst;
          violation =
              std::min(violation, rep_differs ? group.rep : group.divergent);
        }
        if (violation != kNoRow) return IdentityViolation(ec.name);
      }
      if (type_error_row != kNoRow) return NotAnEdge(ec.name);

      b.source.assign(objects.begin(), objects.end());
      b.src.resize(b.size());
      b.dst.resize(b.size());
      for (size_t p = 0; p < b.size(); ++p) {
        const Group& group = groups[Slot(order, p)];
        b.src[p] = group.src;
        b.dst[p] = group.dst;
      }
      if (NeedsRows(ec.name, !pat.props.empty())) {
        CollectRows(pos_of_row, b.size(), &b);
      }
      GCORE_RETURN_NOT_OK(EditEntries(ec.name,
                                      LabelSet(FlattenLabels(pat.label_groups)),
                                      pat.props, source, &b));
    }
    return Status::OK();
  }

  Status BuildPathsColumnar() {
    const size_t n = bindings.NumRows();
    for (size_t pi = 0; pi < path_ctors.size(); ++pi) {
      const PathCtor& pc = path_ctors[pi];
      const size_t col = bindings.ColumnIndex(pc.name);
      if (col == BindingTable::kNpos) return UnboundPath(pc.name);
      const Column& column = bindings.ColumnAt(col);

      std::vector<uint32_t> group_of_row(n, kNoGroup);
      std::vector<size_t> reps;
      IdGroups index;
      for (size_t r : rows) {
        const Column::Kind kind = column.KindAt(r);
        if (kind == Column::Kind::kUnbound) continue;
        if (kind != Column::Kind::kPath) return NotAPath(pc.name);
        bool fresh = false;
        group_of_row[r] =
            index.Insert(column.HeavyAt(r).path().id.value(), &fresh);
        if (fresh) reps.push_back(r);
      }

      PathBuilds& b = path_builds[pi];
      b.graph = ProvenanceGraph(pc.name);
      if (NeedsRows(pc.name, !pc.pattern->props.empty())) {
        CollectRows(group_of_row, reps.size(), &b);
      }
      std::vector<size_t> scratch;
      for (size_t g = 0; g < reps.size(); ++g) {
        GCORE_RETURN_NOT_OK(AddPathBuild(pc, &column.HeavyAt(reps[g]).path(),
                                         reps[g], b.RowsOf(g, &scratch), &b));
      }
    }
    return Status::OK();
  }

  /// Calls emit(id, contributions) once per distinct id of the runs
  /// (column sets whose ids ascend), ids ascending. `contributions` lists
  /// (run, entry) pairs in run order; a run holds each id at most once,
  /// and dropped entries are skipped.
  template <typename B, typename Emit>
  static Status MergeRuns(const std::vector<B*>& runs, Emit emit) {
    std::vector<size_t> pos(runs.size(), 0);
    std::vector<std::pair<size_t, size_t>> contributions;
    while (true) {
      uint64_t id = ~uint64_t{0};
      bool any = false;
      for (size_t r = 0; r < runs.size(); ++r) {
        const B& run = *runs[r];
        while (pos[r] < run.size() && run.Dropped(pos[r])) ++pos[r];
        if (pos[r] < run.size()) {
          id = std::min(id, run.ids[pos[r]]);
          any = true;
        }
      }
      if (!any) return Status::OK();
      contributions.clear();
      for (size_t r = 0; r < runs.size(); ++r) {
        if (pos[r] < runs[r]->size() && runs[r]->ids[pos[r]] == id) {
          contributions.push_back({r, pos[r]++});
        }
      }
      GCORE_RETURN_NOT_OK(emit(id, contributions));
    }
  }

  /// Merges the builds' id-sorted runs into a fresh graph's stores, ids
  /// ascending, each member appended once. Members built more than once
  /// (a variable at two chain positions, a node on many path bodies)
  /// merge by set union; a contribution holding the payload already there
  /// is skipped, so each distinct source object costs one handle copy.
  /// Path bodies are imported per path constructor: their distinct edges,
  /// then their nodes and those edges' endpoints, each read by one
  /// ascending merge over the source graph's store.
  Result<PathPropertyGraph> AssembleColumnar() {
    std::vector<Builds> node_imports(path_builds.size());
    std::vector<EdgeBuilds> edge_imports(path_builds.size());
    bool check_paths = false;
    for (size_t pi = 0; pi < path_builds.size(); ++pi) {
      const PathBuilds& b = path_builds[pi];
      if (b.size() == 0) continue;
      std::vector<NodeId> node_ids;
      std::vector<EdgeId> edge_ids;
      for (size_t g = 0; g < b.size(); ++g) {
        if (b.Dropped(g)) continue;
        const auto [walk_nodes, walk_edges] = Walk(*b.values[g]);
        node_ids.insert(node_ids.end(), walk_nodes->begin(),
                        walk_nodes->end());
        edge_ids.insert(edge_ids.end(), walk_edges->begin(),
                        walk_edges->end());
      }
      SortUnique(&edge_ids);
      EdgeBuilds& edges = edge_imports[pi];
      const auto found = b.graph->FindEdges(edge_ids);
      for (size_t i = 0; i < edge_ids.size(); ++i) {
        if (found[i] == nullptr) {
          check_paths = true;
          continue;
        }
        edges.ids.push_back(edge_ids[i].value());
        edges.source.push_back(found[i]);
        edges.src.push_back(found[i]->src);
        edges.dst.push_back(found[i]->dst);
        node_ids.push_back(found[i]->src);
        node_ids.push_back(found[i]->dst);
      }
      SortUnique(&node_ids);
      Builds& nodes = node_imports[pi];
      nodes.source = b.graph->FindNodes(node_ids);
      for (NodeId id : node_ids) nodes.ids.push_back(id.value());
    }

    // Builds come before imports within an id.
    std::vector<Builds*> node_runs;
    std::vector<EdgeBuilds*> edge_runs;
    size_t node_total = 0;
    size_t edge_total = 0;
    for (auto* builds : {&node_builds, &node_imports}) {
      for (Builds& b : *builds) {
        node_runs.push_back(&b);
        node_total += b.size();
      }
    }
    for (auto* builds : {&edge_builds, &edge_imports}) {
      for (EdgeBuilds& b : *builds) {
        edge_runs.push_back(&b);
        edge_total += b.size();
      }
    }

    PathPropertyGraph graph;
    graph.Reserve(node_total, edge_total);
    // Unions entry p of `b` into `out`. Assembly is the builds' last
    // reader, so an entry's own λ/σ moves into an empty member.
    auto merge = [](Builds* b, size_t p, ObjectData* out) {
      if (!b->own.empty() && out->labels.empty() && out->props.empty()) {
        *out = std::move(b->own[p]);
        return;
      }
      const ObjectData* data = b->Data(p);
      if (data == nullptr) return;
      out->labels.UnionWith(data->labels);
      out->props.UnionWith(data->props);
    };
    GCORE_RETURN_NOT_OK(MergeRuns(
        node_runs,
        [&](uint64_t id,
            const std::vector<std::pair<size_t, size_t>>& contributions) {
          ObjectData& out = graph.AppendNode(NodeId(id));
          for (auto [r, g] : contributions) merge(node_runs[r], g, &out);
          return Status::OK();
        }));

    // A build's ρ names nodes of its own item, which are members unless
    // post-WHEN dropped them; then the build is skipped, as in the spec.
    // An import's endpoints were imported with it.
    auto endpoints_kept = [&](size_t r, size_t g) {
      return !post_when || r >= edge_builds.size() ||
             (graph.HasNode(edge_runs[r]->src[g]) &&
              graph.HasNode(edge_runs[r]->dst[g]));
    };
    std::vector<std::pair<size_t, size_t>> kept;
    GCORE_RETURN_NOT_OK(MergeRuns(
        edge_runs,
        [&](uint64_t id,
            const std::vector<std::pair<size_t, size_t>>& contributions)
            -> Status {
          kept.clear();
          for (auto [r, g] : contributions) {
            if (endpoints_kept(r, g)) kept.push_back({r, g});
          }
          if (kept.empty()) return Status::OK();
          const EdgeBuilds& first = *edge_runs[kept[0].first];
          const NodeId src = first.src[kept[0].second];
          const NodeId dst = first.dst[kept[0].second];
          // A second build with other endpoints is an identity violation;
          // a diverging import is not.
          for (auto [r, g] : kept) {
            if (edge_runs[r]->src[g] == src && edge_runs[r]->dst[g] == dst) {
              continue;
            }
            if (r < edge_builds.size()) {
              return Status::InvalidArgument(
                  "edge " + gcore::ToString(EdgeId(id)) +
                  " re-added with different endpoints (identity violation)");
            }
            check_paths = true;
          }
          ObjectData& out = graph.AppendEdge(EdgeId(id), src, dst);
          for (auto [r, g] : kept) merge(edge_runs[r], g, &out);
          return Status::OK();
        }));

    GCORE_RETURN_NOT_OK(AddStoredPaths(&graph, check_paths));
    return graph;
  }

  // === shared by both paths ========================================================

  // --- SET / REMOVE statements -----------------------------------------------------

  Status ApplySetStatements() {
    std::vector<size_t> scratch;
    for (const auto& stmt : item.sets) {
      bool found = false;
      ExprEvaluator eval = MakeEvaluator(nullptr);
      auto apply = [&](const auto& ctors, auto* builds) -> Status {
        for (size_t c = 0; c < ctors.size(); ++c) {
          Builds& b = (*builds)[c];
          if (ctors[c].name != stmt.var || b.size() == 0) continue;
          found = true;
          // `SET x:L` / `REMOVE x:L` do not read the group: consecutive
          // groups that start from the same label set share one edited
          // copy.
          const bool label_edit =
              stmt.kind == SetStatement::Kind::kSetLabel ||
              stmt.kind == SetStatement::Kind::kRemoveLabel;
          LabelSet edited_from;
          LabelSet edited;
          for (size_t g = 0; g < b.size(); ++g) {
            ObjectData& data = b.own[b.Pos(g)];
            if (label_edit && g > 0 && data.labels == edited_from) {
              data.labels = edited;
              continue;
            }
            if (label_edit) edited_from = data.labels;
            GCORE_RETURN_NOT_OK(ApplyOneSet(stmt, eval,
                                            b.RowsOf(b.Pos(g), &scratch),
                                            &data.labels, &data.props));
            if (label_edit) edited = data.labels;
          }
        }
        return Status::OK();
      };
      GCORE_RETURN_NOT_OK(apply(node_ctors, &node_builds));
      GCORE_RETURN_NOT_OK(apply(edge_ctors, &edge_builds));
      GCORE_RETURN_NOT_OK(apply(path_ctors, &path_builds));
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
    for (const Builds& b : node_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        nodes.push_back({b.ids[g], b.Data(g), {}, {}, true});
      }
    }
    for (const EdgeBuilds& b : edge_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        nodes.push_back({b.src[g].value(), nullptr, {}, {}, false});
        nodes.push_back({b.dst[g].value(), nullptr, {}, {}, false});
        edges.push_back({b.ids[g], b.Data(g), b.src[g], b.dst[g], true});
      }
    }
    auto by_id = [](const Piece& x, const Piece& y) { return x.id < y.id; };
    std::stable_sort(nodes.begin(), nodes.end(), by_id);
    std::stable_sort(edges.begin(), edges.end(), by_id);
    const ObjectData none;
    PathPropertyGraph scratch;
    for (const Piece& p : nodes) {
      ObjectData& out = scratch.UpsertNode(NodeId(p.id));
      if (p.build) out = p.data != nullptr ? *p.data : none;
    }
    for (const Piece& p : edges) {
      Status st = scratch.AddEdge(EdgeId(p.id), p.src, p.dst);
      (void)st;
      const ObjectData& data = p.data != nullptr ? *p.data : none;
      scratch.SetLabels(EdgeId(p.id), data.labels);
      scratch.SetProperties(EdgeId(p.id), data.props);
    }

    // Extended binding table: original columns plus construct variables.
    BindingTable extended(bindings.columns());
    for (const auto& [v, g] : bindings.column_graphs()) {
      extended.SetColumnGraph(v, g);
    }
    std::vector<size_t> row_map(bindings.NumRows());
    for (size_t r : rows) {
      row_map[r] = extended.NumRows();
      extended.AppendRowFrom(bindings, r);
    }
    std::map<std::string, size_t> ctor_cols;
    auto fill = [&](const auto& ctors, const auto& builds, auto datum_of) {
      for (size_t c = 0; c < ctors.size(); ++c) {
        const Builds& b = builds[c];
        const std::string& var = ctors[c].name;
        if (b.size() == 0 || bindings.HasColumn(var)) continue;
        if (ctor_cols.count(var) == 0) ctor_cols[var] = extended.AddColumn(var);
        for (size_t g = 0; g < b.size(); ++g) {
          for (size_t i = b.row_start[g]; i < b.row_start[g + 1]; ++i) {
            extended.SetCell(row_map[b.rows[i]], ctor_cols[var],
                             datum_of(b.ids[g]));
          }
        }
      }
    };
    fill(node_ctors, node_builds,
         [](uint64_t id) { return Datum::OfNode(NodeId(id)); });
    fill(edge_ctors, edge_builds,
         [](uint64_t id) { return Datum::OfEdge(EdgeId(id)); });

    ExprEvaluator eval = MakeEvaluator(&scratch);
    auto evaluate = [&](auto* builds) -> Status {
      for (Builds& b : *builds) {
        b.dropped.assign(b.size(), 0);
        for (size_t g = 0; g < b.size(); ++g) {
          const size_t p = b.Pos(g);
          GCORE_ASSIGN_OR_RETURN(
              bool keep,
              eval.EvalPredicate(*item.when, extended, row_map[b.reps[p]]));
          b.dropped[p] = !keep;
        }
      }
      return Status::OK();
    };
    GCORE_RETURN_NOT_OK(evaluate(&edge_builds));
    GCORE_RETURN_NOT_OK(evaluate(&node_builds));
    // Drop edges touching a dropped node (dangling prevention).
    std::unordered_set<uint64_t> dropped_nodes;
    for (const Builds& b : node_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        if (b.dropped[g]) dropped_nodes.insert(b.ids[g]);
      }
    }
    for (EdgeBuilds& b : edge_builds) {
      for (size_t g = 0; g < b.size(); ++g) {
        if (dropped_nodes.count(b.src[g].value()) > 0 ||
            dropped_nodes.count(b.dst[g].value()) > 0) {
          b.dropped[g] = 1;
        }
      }
    }
    return evaluate(&path_builds);
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
