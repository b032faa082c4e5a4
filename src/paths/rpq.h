// Regular path expressions (RPQs): Appendix A.1.
//
//   r ::= _ | ℓ | ℓ⁻ | !ℓ | (r + r) | (r r) | (r)*
//
// ℓ / ℓ⁻ test an edge label along/against edge direction, !ℓ tests the
// label of the node at the current position (a zero-width assertion), `_`
// is the any-edge wildcard. We additionally support the usual derived
// operators + (one-or-more) and ? (optional), and `~name` references to
// PATH-clause views (Appendix A.4), which traverse a precomputed weighted
// binary relation.
#ifndef GCORE_PATHS_RPQ_H_
#define GCORE_PATHS_RPQ_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace gcore {

/// Node of a regular path expression tree.
class RpqExpr {
 public:
  enum class Kind {
    kAnyEdge,           // _
    kEdgeLabel,         // ℓ     (traverse an edge forward)
    kInverseEdgeLabel,  // ℓ⁻    (traverse an edge backward)
    kNodeLabel,         // !ℓ    (assert label on current node; zero-width)
    kViewRef,           // ~name (traverse one segment of a PATH view)
    kConcat,            // r1 r2 ... rn
    kAlt,               // r1 + r2 + ... + rn
    kStar,              // r*
    kPlus,              // r+  == r r*
    kOptional,          // r?  == r + ε
  };

  Kind kind() const { return kind_; }
  /// Label or view name for the atom kinds.
  const std::string& label() const { return label_; }
  const std::vector<std::unique_ptr<RpqExpr>>& children() const {
    return children_;
  }

  static std::unique_ptr<RpqExpr> AnyEdge();
  static std::unique_ptr<RpqExpr> EdgeLabel(std::string label);
  static std::unique_ptr<RpqExpr> InverseEdgeLabel(std::string label);
  static std::unique_ptr<RpqExpr> NodeLabel(std::string label);
  static std::unique_ptr<RpqExpr> ViewRef(std::string name);
  static std::unique_ptr<RpqExpr> Concat(
      std::vector<std::unique_ptr<RpqExpr>> children);
  static std::unique_ptr<RpqExpr> Alt(
      std::vector<std::unique_ptr<RpqExpr>> children);
  static std::unique_ptr<RpqExpr> Star(std::unique_ptr<RpqExpr> child);
  static std::unique_ptr<RpqExpr> Plus(std::unique_ptr<RpqExpr> child);
  static std::unique_ptr<RpqExpr> Optional(std::unique_ptr<RpqExpr> child);

  std::unique_ptr<RpqExpr> Clone() const;

  /// True when the expression (or a subexpression) references a PATH view.
  bool ReferencesView() const;
  /// Collects all view names referenced, in first-occurrence order.
  void CollectViewRefs(std::vector<std::string>* out) const;

  /// Surface rendering, e.g. ":knows*" or "(~wKnows)*".
  std::string ToString() const;

 protected:
  RpqExpr(Kind kind, std::string label,
          std::vector<std::unique_ptr<RpqExpr>> children)
      : kind_(kind), label_(std::move(label)), children_(std::move(children)) {}

 private:
  Kind kind_;
  std::string label_;
  std::vector<std::unique_ptr<RpqExpr>> children_;
};

}  // namespace gcore

#endif  // GCORE_PATHS_RPQ_H_
