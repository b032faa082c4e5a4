#include "paths/rpq.h"

namespace gcore {

namespace {
using Children = std::vector<std::unique_ptr<RpqExpr>>;

std::unique_ptr<RpqExpr> Make(RpqExpr::Kind kind, std::string label,
                              Children children) {
  // RpqExpr's constructor is private; this friend-free helper uses a local
  // subclass trick instead of exposing the constructor broadly.
  struct Ctor : RpqExpr {
    Ctor(Kind k, std::string l, Children c)
        : RpqExpr(k, std::move(l), std::move(c)) {}
  };
  return std::make_unique<Ctor>(kind, std::move(label), std::move(children));
}
}  // namespace

std::unique_ptr<RpqExpr> RpqExpr::AnyEdge() {
  return Make(Kind::kAnyEdge, "", {});
}
std::unique_ptr<RpqExpr> RpqExpr::EdgeLabel(std::string label) {
  return Make(Kind::kEdgeLabel, std::move(label), {});
}
std::unique_ptr<RpqExpr> RpqExpr::InverseEdgeLabel(std::string label) {
  return Make(Kind::kInverseEdgeLabel, std::move(label), {});
}
std::unique_ptr<RpqExpr> RpqExpr::NodeLabel(std::string label) {
  return Make(Kind::kNodeLabel, std::move(label), {});
}
std::unique_ptr<RpqExpr> RpqExpr::ViewRef(std::string name) {
  return Make(Kind::kViewRef, std::move(name), {});
}
std::unique_ptr<RpqExpr> RpqExpr::Concat(Children children) {
  return Make(Kind::kConcat, "", std::move(children));
}
std::unique_ptr<RpqExpr> RpqExpr::Alt(Children children) {
  return Make(Kind::kAlt, "", std::move(children));
}
std::unique_ptr<RpqExpr> RpqExpr::Star(std::unique_ptr<RpqExpr> child) {
  Children c;
  c.push_back(std::move(child));
  return Make(Kind::kStar, "", std::move(c));
}
std::unique_ptr<RpqExpr> RpqExpr::Plus(std::unique_ptr<RpqExpr> child) {
  Children c;
  c.push_back(std::move(child));
  return Make(Kind::kPlus, "", std::move(c));
}
std::unique_ptr<RpqExpr> RpqExpr::Optional(std::unique_ptr<RpqExpr> child) {
  Children c;
  c.push_back(std::move(child));
  return Make(Kind::kOptional, "", std::move(c));
}

std::unique_ptr<RpqExpr> RpqExpr::Clone() const {
  Children children;
  children.reserve(children_.size());
  for (const auto& c : children_) children.push_back(c->Clone());
  return Make(kind_, label_, std::move(children));
}

bool RpqExpr::ReferencesView() const {
  if (kind_ == Kind::kViewRef) return true;
  for (const auto& c : children_) {
    if (c->ReferencesView()) return true;
  }
  return false;
}

void RpqExpr::CollectViewRefs(std::vector<std::string>* out) const {
  if (kind_ == Kind::kViewRef) {
    for (const auto& existing : *out) {
      if (existing == label_) return;
    }
    out->push_back(label_);
    return;
  }
  for (const auto& c : children_) c->CollectViewRefs(out);
}

std::string RpqExpr::ToString() const {
  switch (kind_) {
    case Kind::kAnyEdge:
      return "_";
    case Kind::kEdgeLabel:
      return ":" + label_;
    case Kind::kInverseEdgeLabel:
      return ":" + label_ + "^";
    case Kind::kNodeLabel:
      return "!" + label_;
    case Kind::kViewRef:
      return "~" + label_;
    case Kind::kConcat: {
      std::string out;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " ";
        out += children_[i]->ToString();
      }
      return out;
    }
    case Kind::kAlt: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += "|";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kStar:
      return "(" + children_[0]->ToString() + ")*";
    case Kind::kPlus:
      return "(" + children_[0]->ToString() + ")+";
    case Kind::kOptional:
      return "(" + children_[0]->ToString() + ")?";
  }
  return "?";
}

}  // namespace gcore
