// Graph pattern AST: the MATCH-side and CONSTRUCT-side pattern grammars
// (Appendix A.2 and A.3).
//
// A pattern chain is a sequence  node (connector node)*  where a connector
// is an edge pattern (square brackets) or a path pattern (slashes). The
// same shapes serve MATCH (binding) and CONSTRUCT (instantiation); the
// construct-only members (GROUP, := assignments, copy syntax) are simply
// unused on the MATCH side and vice versa (regexes, SHORTEST/ALL).
#ifndef GCORE_AST_PATTERN_H_
#define GCORE_AST_PATTERN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/expr.h"
#include "paths/rpq.h"

namespace gcore {

/// One `{key <op> value}` entry inside a node/edge/path pattern.
struct PropPattern {
  enum class Mode {
    /// MATCH `{k = <literal-expr>}`: membership filter on σ(x, k).
    kFilter,
    /// MATCH `{k = var}` where var is fresh: unrolls the value set of k
    /// into one binding per element (p.9 of the paper).
    kBindVariable,
    /// CONSTRUCT `{k := expr}`: property assignment on the new object.
    kAssign,
  };
  Mode mode{};
  std::string key;
  std::string bind_var;         // kBindVariable
  std::unique_ptr<Expr> value;  // kFilter / kAssign
};

/// Conjunction of disjunctions: (n:Person) -> {{Person}};
/// (m:Post|Comment) -> {{Post, Comment}}.
using LabelGroups = std::vector<std::vector<std::string>>;

/// `(x :A|B {..})`, `(x GROUP e :Company {name := e})`, `(=n)`, `()`.
struct NodePattern {
  std::string var;  // empty for anonymous ()
  /// CONSTRUCT copy syntax `(=n)`: a fresh node copying labels/properties
  /// of the binding of `var`.
  bool is_copy = false;
  LabelGroups label_groups;
  std::vector<PropPattern> props;
  /// CONSTRUCT GROUP clause: explicit grouping expressions Γ.
  std::vector<std::unique_ptr<Expr>> group_by;
};

/// Edge connector `-[e:knows {..}]->`, `<-[:worksAt]-`, `-[=y]->`.
struct EdgePattern {
  enum class Direction {
    kRight,       // -[..]->
    kLeft,        // <-[..]-
    kUndirected,  // -[..]-   (matches either direction)
  };
  Direction direction = Direction::kRight;
  std::string var;  // empty for anonymous
  bool is_copy = false;  // -[=y]- copy syntax
  LabelGroups label_groups;
  std::vector<PropPattern> props;
  std::vector<std::unique_ptr<Expr>> group_by;  // CONSTRUCT GROUP
};

/// Path connector `-/../->`. MATCH forms:
///   -/@p:toWagner/->                 match a stored path (by label)
///   -/3 SHORTEST p <:knows*> COST c/-> k cheapest conforming walks
///   -/ALL p <:knows*>/->             all-paths graph projection
///   -/<:knows*>/->                   reachability test
/// CONSTRUCT forms:
///   -/@p:label {k := v}/->           store the path bound to p
///   -/p/->                           project p's nodes+edges into result
struct PathPattern {
  enum class Mode {
    kStoredMatch,    // @p with optional label filter, no regex
    kShortest,       // [k] SHORTEST (default k=1)
    kAll,            // ALL
    kReachability,   // bare regex, no variable
  };
  Mode mode = Mode::kReachability;
  /// SHORTEST multiplicity (the `3` in `3 SHORTEST`); 1 when absent.
  int64_t k = 1;
  bool stored = false;   // leading @ on the variable
  std::string var;       // empty for reachability
  std::string cost_var;  // COST c; empty when absent
  std::unique_ptr<RpqExpr> rpq;  // null for kStoredMatch / construct side
  LabelGroups label_groups;  // stored match/construct
  std::vector<PropPattern> props;  // construct side assignments
};

/// A connector plus the node that follows it.
struct PatternHop {
  enum class Kind { kEdge, kPath };
  Kind kind{};
  EdgePattern edge;  // kKind == kEdge
  PathPattern path;  // kKind == kPath
  NodePattern to;
};

struct Query;  // ast.h

/// One comma-separated pattern: `(a)-[e]->(b)-/.../->(c) [ON location]`.
/// The location is a graph name or a parenthesized full graph query
/// (Appendix A.2, `basicGraphPattern On fullGraphQuery`).
struct GraphPattern {
  GraphPattern();
  ~GraphPattern();
  GraphPattern(GraphPattern&&) noexcept;
  GraphPattern& operator=(GraphPattern&&) noexcept;

  NodePattern start;
  std::vector<PatternHop> hops;
  /// ON <name>; empty means the default graph (or the subquery below).
  std::string on_graph;
  /// ON (<full graph query>); evaluated by the engine before matching.
  std::unique_ptr<Query> on_subquery;

  /// Collects all variables bound by this pattern.
  void CollectBoundVariables(std::vector<std::string>* out) const;
  std::string ToString() const;
};

/// OPTIONAL block: patterns plus its own WHERE (lines 44-47).
struct OptionalBlock {
  std::vector<GraphPattern> patterns;
  std::unique_ptr<Expr> where;  // may be null
};

std::string ToString(const NodePattern& node);
std::string ToString(const EdgePattern& edge, const NodePattern& to);
std::string ToString(const PathPattern& path, const NodePattern& to);
/// The same renderings with `labels` in place of the elements' own label
/// groups (EXPLAIN prints an operator's effective label constraint).
std::string ToString(const NodePattern& node, const LabelGroups& labels);
std::string ToString(const EdgePattern& edge, const LabelGroups& edge_labels,
                     const NodePattern& to, const LabelGroups& to_labels);
std::string ToString(const PathPattern& path, const NodePattern& to,
                     const LabelGroups& to_labels);

}  // namespace gcore

#endif  // GCORE_AST_PATTERN_H_
