// The CONSTRUCT evaluator: Appendix A.3.
//
// Takes the binding set Ω produced by MATCH plus the input graph(s) and
// builds the result PPG:
//   * bound object variables keep their identities, and their labels and
//     properties are copied from the graph they were matched on;
//   * unbound construct variables are instantiated once per group — by the
//     explicit GROUP list, or by node identity / (source, destination)
//     identity by default — through a skolem function new(x, Ω'(Γ)) shared
//     across the whole clause so repeated occurrences of a variable refer
//     to the same new object;
//   * property assignments ({k := ξ} and SET x.k := ξ) may aggregate over
//     the rows of the group (COUNT(*) etc.);
//   * WHEN conditions suppress construction; conditions over assigned
//     properties (line 68: WHEN e.score > 0) are applied per group after
//     property computation;
//   * stored-path constructs (@p) materialize the bound walk and its path
//     object; plain path constructs project the walk's nodes and edges.
//
// Two implementations share the grouping contract below:
//
//   * the columnar fast path (the default) resolves each construct
//     variable's column and provenance graph once per item, reads ids
//     through Column::KindAt/NodeAt/EdgeAt and groups rows in hash tables
//     keyed on raw ids (a bound object's identity determines every other
//     attribute of it, so the id alone is its group key). Each
//     constructor's builds are columns (id, first row, source object, ρ,
//     rows only when read) stored in ascending id order, with the group
//     order kept as a permutation for the passes that need it. The
//     distinct bound ids are resolved by one ascending merge over the
//     source graph's id-sorted store (PathPropertyGraph::FindNodes /
//     FindEdges), path bodies import their distinct nodes and edges the
//     same way, and assembly merges the id-sorted runs straight into the
//     result's stores, each member appended once;
//   * the row-at-a-time executable spec (`ConstructorContext::use_spec`,
//     which the engine sets under `use_planner = false`) reads bindings by
//     column name, resolves provenance per row and inserts every
//     contribution, stably sorted by id, one at a time.
//     tests/eval/construct_differential_test.cc pins the two to identical
//     result graphs, ids included, and identical error codes.
//
// Both carry a bound object's λ/σ as copy-on-write handles (ppg.h): the
// result shares the source graph's payloads, and only an object that a
// pattern label, an assignment or a SET edits gets its own copy.
//
// Group contract (both paths): groups are formed in order of first
// appearance among the binding rows, and group keys compare with Datum
// equality (Datum::Hash / operator==, so Int(7) and Double(7.0) fall in one
// group, as they do under SELECT DISTINCT). Fresh skolem identities are
// drawn per item, node constructors before edge constructors, each in
// chain order and then in group order — so both paths allocate the same
// ids. Errors follow the same precedence on both paths: the earliest
// binding row decides type errors and identity violations, and group
// order decides assignment and SET errors.
#ifndef GCORE_EVAL_CONSTRUCTOR_H_
#define GCORE_EVAL_CONSTRUCTOR_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "eval/binding.h"
#include "eval/expr_eval.h"
#include "graph/catalog.h"

namespace gcore {

struct ConstructorContext {
  GraphCatalog* catalog = nullptr;
  std::string default_graph;
  /// Resolves the graph a binding column was matched on: the MATCH's own
  /// per-query pins (Matcher::ResolveGraph), so λ/σ come from the graph
  /// versions it read even if the catalog re-registered a name since.
  /// Unset, names resolve through the live catalog.
  ExprEvaluator::ProvenanceResolver resolve_graph;
  /// EXISTS in WHEN / SET: returns the subquery's uncorrelated bindings;
  /// the constructor keeps them for its lifetime and semijoins each row.
  ExprEvaluator::ExistsCallback exists_cb;
  /// Run the row-at-a-time executable spec instead of the columnar path.
  bool use_spec = false;
};

class Constructor {
 public:
  explicit Constructor(ConstructorContext ctx);

  /// ⟦CONSTRUCT f⟧ over the bindings Ω.
  Result<PathPropertyGraph> EvalConstruct(const ConstructClause& construct,
                                          const BindingTable& bindings);

 private:
  struct ItemState;

  /// A typed group / skolem key: raw ids where identity decides (a copied
  /// object's id; a default edge's source and destination) plus a Datum
  /// tuple (GROUP values, full-row bindings, an edge copy's source).
  struct Key {
    uint64_t a = 0;
    uint64_t b = 0;
    std::vector<Datum> parts;

    friend bool operator==(const Key& x, const Key& y) {
      return x.a == y.a && x.b == y.b && x.parts == y.parts;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  /// new(x, key) for one construct variable: key → raw object id.
  using SkolemTable = std::unordered_map<Key, uint64_t, KeyHash>;

  Result<PathPropertyGraph> EvalItem(const ConstructItem& item,
                                     const BindingTable& bindings);

  ConstructorContext ctx_;

  /// Clause-level skolem memory, one table per construct variable (copies
  /// `=x` under "x(copy)").
  std::unordered_map<std::string, SkolemTable> node_skolems_;
  std::unordered_map<std::string, SkolemTable> edge_skolems_;
  /// Clause-level grouping: a variable's GROUP list is declared at one
  /// occurrence and shared by all others (line 79 of the paper writes
  /// `(cust)-[:bought]->(prod)` after declaring GROUP on cust/prod).
  std::map<std::string, const std::vector<std::unique_ptr<Expr>>*>
      clause_groups_;
  /// Inner relations of the EXISTS predicates in WHEN / SET.
  CorrelatedMemo correlated_;
};

}  // namespace gcore

#endif  // GCORE_EVAL_CONSTRUCTOR_H_
