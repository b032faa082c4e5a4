#include "eval/expr_vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

#include "common/date.h"
#include "common/value.h"
#include "graph/adjacency.h"

namespace gcore {
namespace {

// --- batch cells --------------------------------------------------------------

// One evaluated cell: a tag byte plus a 64-bit payload. Singleton
// scalars are inline; strings and multi-valued sets index side tables
// in the per-call Scratch; kFallback marks a row the kernels cannot
// decide (the caller replays it through the row evaluator).
enum class Tag : uint8_t {
  kUnbound,   // variable outside dom(µ)
  kEmpty,     // ∅ (absent property / null literal)
  kNull,      // {null} — a singleton set containing the null value
  kBool,      // slot = 0/1
  kInt,       // slot = bit pattern of the int64_t
  kDouble,    // slot = bit pattern of the double
  kString,    // slot = Scratch::strs index
  kDate,      // slot = (uint32(year) << 16) | (month << 8) | day
  kSet,       // slot = Scratch::sets index; invariant: set size >= 2
  kNode,      // slot = raw NodeId
  kEdge,      // slot = raw EdgeId
  kFallback,  // replay this row through ExprEvaluator
};

struct Cell {
  Tag tag = Tag::kUnbound;
  uint64_t slot = 0;
};

// Per-call state: one Cell buffer per program node (each node runs at
// most once per batch) plus the side tables cells index into. Stack-
// local, which is what makes a shared program thread-safe.
struct Scratch {
  std::vector<std::vector<Cell>> bufs;
  std::vector<std::string_view> strs;
  std::vector<const ValueSet*> sets;
  std::deque<std::string> owned;  // concat results; deque keeps refs stable
};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Dates travel as packed fields rather than epoch days so non-calendar
// literals (2020-01-40) keep the field-wise identity Value::Compare's
// tie-break depends on.
uint64_t PackDate(const Date& d) {
  return (uint64_t{static_cast<uint32_t>(d.year)} << 16) |
         (uint64_t{d.month} << 8) | uint64_t{d.day};
}

Date UnpackDate(uint64_t slot) {
  Date d;
  d.year = static_cast<int32_t>(static_cast<uint32_t>(slot >> 16));
  d.month = static_cast<uint8_t>(slot >> 8);
  d.day = static_cast<uint8_t>(slot);
  return d;
}

Cell BoolCell(bool b) { return {Tag::kBool, b ? uint64_t{1} : uint64_t{0}}; }
Cell Fallback() { return {Tag::kFallback, 0}; }

// Encodes a single Value (an element of a singleton set).
Cell EncodeValue(const Value& v, Scratch* s) {
  if (v.is_null()) return {Tag::kNull, 0};
  if (v.is_bool()) return BoolCell(v.AsBool());
  if (v.is_int()) return {Tag::kInt, static_cast<uint64_t>(v.AsInt())};
  if (v.is_double()) return {Tag::kDouble, DoubleBits(v.AsDouble())};
  if (v.is_string()) {
    s->strs.push_back(v.AsString());
    return {Tag::kString, s->strs.size() - 1};
  }
  return {Tag::kDate, PackDate(v.AsDate())};
}

// The tags encoding a singleton {v} (contiguous by construction).
bool IsSingleton(Tag t) { return t >= Tag::kNull && t <= Tag::kDate; }

// Value::TypeRank over tags (only meaningful for singleton tags).
int RankOf(Tag t) {
  switch (t) {
    case Tag::kNull:
      return 0;
    case Tag::kBool:
      return 1;
    case Tag::kInt:
    case Tag::kDouble:
      return 2;
    case Tag::kString:
      return 3;
    default:
      return 4;  // kDate
  }
}

double NumOf(Cell c) {
  return c.tag == Tag::kInt
             ? static_cast<double>(static_cast<int64_t>(c.slot))
             : BitsDouble(c.slot);
}

template <typename T>
int Cmp(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// Mirrors Value::Compare over encoded singletons.
int CompareSingletons(Cell l, Cell r, const Scratch& s) {
  const int rl = RankOf(l.tag);
  const int rr = RankOf(r.tag);
  if (rl != rr) return rl < rr ? -1 : 1;
  switch (rl) {
    case 0:
      return 0;
    case 1:
      return Cmp(l.slot != 0, r.slot != 0);
    case 2:
      if (l.tag == Tag::kInt && r.tag == Tag::kInt) {
        return Cmp(static_cast<int64_t>(l.slot), static_cast<int64_t>(r.slot));
      }
      return Cmp(NumOf(l), NumOf(r));
    case 3: {
      const int c = s.strs[l.slot].compare(s.strs[r.slot]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default: {
      const Date a = UnpackDate(l.slot);
      const Date b = UnpackDate(r.slot);
      const int c = Cmp(a.ToEpochDays(), b.ToEpochDays());
      if (c != 0) return c;
      if (!(a == b)) return a < b ? -1 : 1;
      return 0;
    }
  }
}

Value MaterializeValue(Cell c, const Scratch& s) {
  switch (c.tag) {
    case Tag::kNull:
      return Value::Null();
    case Tag::kBool:
      return Value::Bool(c.slot != 0);
    case Tag::kInt:
      return Value::Int(static_cast<int64_t>(c.slot));
    case Tag::kDouble:
      return Value::Double(BitsDouble(c.slot));
    case Tag::kString:
      return Value::String(std::string(s.strs[c.slot]));
    default:
      return Value::OfDate(UnpackDate(c.slot));
  }
}

// ValueSet equality over encoded cells (∅ / singleton / stored set).
bool ValuesEqual(Cell l, Cell r, const Scratch& s) {
  const bool le = l.tag == Tag::kEmpty;
  const bool re = r.tag == Tag::kEmpty;
  if (le || re) return le && re;
  const bool ls = l.tag == Tag::kSet;
  const bool rs = r.tag == Tag::kSet;
  if (ls != rs) return false;  // stored sets hold >= 2 elements
  if (ls) return *s.sets[l.slot] == *s.sets[r.slot];
  return CompareSingletons(l, r, s) == 0;
}

// Three-state truthiness: kMaybe rows replay through the row evaluator
// (they would raise a type error — or are already fallback cells).
enum class Tru : uint8_t { kFalse, kTrue, kMaybe };

Tru Truthiness(Cell c) {
  switch (c.tag) {
    case Tag::kUnbound:
    case Tag::kEmpty:
      return Tru::kFalse;
    case Tag::kBool:
      return c.slot != 0 ? Tru::kTrue : Tru::kFalse;
    default:
      return Tru::kMaybe;
  }
}

// Mirrors expr_eval.cc's NumericResult: integral doubles collapse back
// to Int when the operands were ints.
Cell NumericCell(double v, bool prefer_int) {
  if (prefer_int && v == std::floor(v) && std::abs(v) < 9.2e18) {
    return {Tag::kInt, static_cast<uint64_t>(static_cast<int64_t>(v))};
  }
  return {Tag::kDouble, DoubleBits(v)};
}

// Gathers one property cell straight from a snapshot typed column.
Cell GatherCell(const GraphSnapshot::PropertyColumn& col, size_t i,
                const GraphSnapshot& snap, Scratch* s) {
  using PropKind = GraphSnapshot::PropKind;
  switch (col.KindAt(i)) {
    case PropKind::kAbsent:
      return {Tag::kEmpty, 0};
    case PropKind::kNull:
      return {Tag::kNull, 0};
    case PropKind::kBool:
      return BoolCell(col.BoolAt(i));
    case PropKind::kInt:
      return {Tag::kInt, col.SlotAt(i)};
    case PropKind::kDouble:
      return {Tag::kDouble, DoubleBits(col.DoubleAt(i))};
    case PropKind::kString:
      s->strs.push_back(snap.StringAt(col.StringIdAt(i)));
      return {Tag::kString, s->strs.size() - 1};
    case PropKind::kDate:
      return {Tag::kDate,
              PackDate(Date::FromEpochDays(col.DateDaysAt(i)))};
    case PropKind::kOverflow: {
      // Rare cells: multi-valued sets and slot-unencodable singletons
      // (e.g. non-calendar dates) — decode without a per-row fallback.
      const ValueSet& vs = col.OverflowAt(i);
      if (vs.is_singleton()) return EncodeValue(vs.single(), s);
      s->sets.push_back(&vs);
      return {Tag::kSet, s->sets.size() - 1};
    }
  }
  return Fallback();
}

Cell CompareOp(BinaryOp op, Cell l, Cell r, Scratch* s) {
  if (l.tag == Tag::kFallback || r.tag == Tag::kFallback) return Fallback();
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      bool eq;
      if (l.tag == Tag::kUnbound || r.tag == Tag::kUnbound) {
        eq = false;  // unbound never equals anything (µ ∼ semantics)
      } else {
        // Datum-kind classes: node vs edge vs literal set.
        const auto cls = [](Tag t) {
          return t == Tag::kNode ? 1 : (t == Tag::kEdge ? 2 : 0);
        };
        if (cls(l.tag) != cls(r.tag)) {
          eq = false;
        } else if (cls(l.tag) != 0) {
          eq = l.slot == r.slot;
        } else {
          eq = ValuesEqual(l, r, *s);
        }
      }
      return BoolCell(op == BinaryOp::kEq ? eq : !eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      // Order comparisons unwrap singletons; anything else is false
      // (AsValues maps objects to ∅, and ∅/sets are not singletons).
      if (!IsSingleton(l.tag) || !IsSingleton(r.tag)) return BoolCell(false);
      const int c = CompareSingletons(l, r, *s);
      switch (op) {
        case BinaryOp::kLt:
          return BoolCell(c < 0);
        case BinaryOp::kLe:
          return BoolCell(c <= 0);
        case BinaryOp::kGt:
          return BoolCell(c > 0);
        default:
          return BoolCell(c >= 0);
      }
    }
    case BinaryOp::kIn: {
      if (!IsSingleton(l.tag)) return BoolCell(false);
      if (IsSingleton(r.tag)) {
        return BoolCell(CompareSingletons(l, r, *s) == 0);
      }
      if (r.tag == Tag::kSet) {
        return BoolCell(s->sets[r.slot]->Contains(MaterializeValue(l, *s)));
      }
      return BoolCell(false);  // ∅ / objects contain nothing
    }
    default: {  // kSubsetOf
      const auto empty_set = [](Tag t) {
        return t == Tag::kEmpty || t == Tag::kUnbound || t == Tag::kNode ||
               t == Tag::kEdge;
      };
      if (empty_set(l.tag)) return BoolCell(true);  // ∅ ⊆ anything
      if (IsSingleton(l.tag)) {
        if (IsSingleton(r.tag)) {
          return BoolCell(CompareSingletons(l, r, *s) == 0);
        }
        if (r.tag == Tag::kSet) {
          return BoolCell(s->sets[r.slot]->Contains(MaterializeValue(l, *s)));
        }
        return BoolCell(false);
      }
      // l holds >= 2 elements; only another stored set can contain it.
      if (r.tag == Tag::kSet) {
        return BoolCell(s->sets[l.slot]->SubsetOf(*s->sets[r.slot]));
      }
      return BoolCell(false);
    }
  }
}

Cell ArithOp(BinaryOp op, Cell l, Cell r, Scratch* s) {
  if (l.tag == Tag::kFallback || r.tag == Tag::kFallback) return Fallback();
  if (op == BinaryOp::kAdd && IsSingleton(l.tag) && IsSingleton(r.tag) &&
      (l.tag == Tag::kString || r.tag == Tag::kString)) {
    s->owned.push_back(MaterializeValue(l, *s).ToString() +
                       MaterializeValue(r, *s).ToString());
    s->strs.push_back(s->owned.back());
    return {Tag::kString, s->strs.size() - 1};
  }
  const bool l_num = l.tag == Tag::kInt || l.tag == Tag::kDouble;
  const bool r_num = r.tag == Tag::kInt || r.tag == Tag::kDouble;
  // Non-numeric operands raise a type error on the row path — replay.
  if (!l_num || !r_num) return Fallback();
  const double a = NumOf(l);
  const double b = NumOf(r);
  const bool ints = l.tag == Tag::kInt && r.tag == Tag::kInt;
  switch (op) {
    case BinaryOp::kAdd:
      return NumericCell(a + b, ints);
    case BinaryOp::kSub:
      return NumericCell(a - b, ints);
    case BinaryOp::kMul:
      return NumericCell(a * b, ints);
    case BinaryOp::kDiv:
      // Division by zero errors on the row path; the result is always
      // double otherwise.
      if (b == 0.0) return Fallback();
      return {Tag::kDouble, DoubleBits(a / b)};
    default:  // kMod
      if (b == 0.0) return Fallback();
      return NumericCell(std::fmod(a, b), true);
  }
}

Datum MaterializeDatum(Cell c, const Scratch& s) {
  switch (c.tag) {
    case Tag::kUnbound:
      return Datum::Unbound();
    case Tag::kEmpty:
      return Datum::OfValues(ValueSet());
    case Tag::kNode:
      return Datum::OfNode(NodeId(c.slot));
    case Tag::kEdge:
      return Datum::OfEdge(EdgeId(c.slot));
    case Tag::kSet:
      return Datum::OfValues(*s.sets[c.slot]);
    default:
      return Datum::OfValue(MaterializeValue(c, s));
  }
}

enum class OpCode : uint8_t {
  kConst,      // every row gets the same cell
  kLoadVar,    // binding-column load
  kLoadProp,   // property gather through snapshot typed columns
  kLabelTest,  // x:ℓ1|ℓ2
  kNot,
  kNeg,
  kAndOr,      // short-circuit via sub-batch gather
  kCompare,    // Eq/Ne/Lt/Le/Gt/Ge/In/SubsetOf
  kArith,      // Add/Sub/Mul/Div/Mod
  kCase,
};

struct Node {
  OpCode op = OpCode::kConst;
  BinaryOp bop = BinaryOp::kEq;
  int a = -1;  // child node ids
  int b = -1;
  // kConst: an encoded value, or a bare tag when const_val is unset.
  Tag const_tag = Tag::kEmpty;
  std::unique_ptr<Value> const_val;
  // kLoadVar / kLoadProp / kLabelTest
  size_t col = BindingTable::kNpos;
  const GraphSnapshot* snap = nullptr;
  const GraphSnapshot::PropertyColumn* node_col = nullptr;
  const GraphSnapshot::PropertyColumn* edge_col = nullptr;
  std::vector<uint32_t> label_ids;
  // kCase: (condition, result) node ids + optional else.
  std::vector<std::pair<int, int>> arms;
  int else_node = -1;
};

}  // namespace

struct VecProgram::Impl {
  const Expr* expr = nullptr;
  std::vector<Node> nodes;
  int root = -1;

  int Add(Node n) {
    nodes.push_back(std::move(n));
    return static_cast<int>(nodes.size()) - 1;
  }

  int AddConst(Tag tag) {
    Node n;
    n.op = OpCode::kConst;
    n.const_tag = tag;
    return Add(std::move(n));
  }

  int AddConstValue(Value v) {
    Node n;
    n.op = OpCode::kConst;
    n.const_val = std::make_unique<Value>(std::move(v));
    return Add(std::move(n));
  }

  // Returns the compiled node id, or -1 when the subtree needs the full
  // row evaluator (callers then keep the row path for the whole
  // expression).
  int CompileNode(const Expr& e, const BindingTable& schema,
                  const ExprEvaluator& eval, const SnapshotFn& snapshots) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        // ⟦null⟧ = ∅ (the row evaluator's literal rule).
        if (e.value.is_null()) return AddConst(Tag::kEmpty);
        return AddConstValue(e.value);
      case Expr::Kind::kVariable: {
        const size_t col = schema.ColumnIndex(e.var);
        if (col == BindingTable::kNpos) return AddConst(Tag::kUnbound);
        Node n;
        n.op = OpCode::kLoadVar;
        n.col = col;
        return Add(std::move(n));
      }
      case Expr::Kind::kProperty: {
        const size_t col = schema.ColumnIndex(e.var);
        // σ on an unbound variable is ∅ for every row.
        if (col == BindingTable::kNpos) return AddConst(Tag::kEmpty);
        const PathPropertyGraph* graph = eval.GraphFor(schema, e.var);
        if (graph == nullptr) return AddConst(Tag::kEmpty);
        Node n;
        n.op = OpCode::kLoadProp;
        n.col = col;
        n.snap = &snapshots(*graph);
        n.node_col = n.snap->NodeColumn(e.key);
        n.edge_col = n.snap->EdgeColumn(e.key);
        return Add(std::move(n));
      }
      case Expr::Kind::kLabelTest: {
        const size_t col = schema.ColumnIndex(e.var);
        if (col == BindingTable::kNpos) return AddConstValue(Value::Bool(false));
        const PathPropertyGraph* graph = eval.GraphFor(schema, e.var);
        // The row path answers false when no graph resolves the labels.
        if (graph == nullptr) return AddConstValue(Value::Bool(false));
        Node n;
        n.op = OpCode::kLabelTest;
        n.col = col;
        n.snap = &snapshots(*graph);
        for (const std::string& label : e.labels) {
          const uint32_t id = n.snap->LabelId(label);
          // Misses can never match a member object; drop them.
          if (id != GraphSnapshot::kNoLabel) n.label_ids.push_back(id);
        }
        return Add(std::move(n));
      }
      case Expr::Kind::kUnary: {
        const int a = CompileNode(*e.args[0], schema, eval, snapshots);
        if (a < 0) return -1;
        Node n;
        n.op = e.unary_op == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg;
        n.a = a;
        return Add(std::move(n));
      }
      case Expr::Kind::kBinary: {
        const int a = CompileNode(*e.args[0], schema, eval, snapshots);
        if (a < 0) return -1;
        const int b = CompileNode(*e.args[1], schema, eval, snapshots);
        if (b < 0) return -1;
        Node n;
        n.bop = e.binary_op;
        n.a = a;
        n.b = b;
        switch (e.binary_op) {
          case BinaryOp::kAnd:
          case BinaryOp::kOr:
            n.op = OpCode::kAndOr;
            break;
          case BinaryOp::kEq:
          case BinaryOp::kNe:
          case BinaryOp::kLt:
          case BinaryOp::kLe:
          case BinaryOp::kGt:
          case BinaryOp::kGe:
          case BinaryOp::kIn:
          case BinaryOp::kSubsetOf:
            n.op = OpCode::kCompare;
            break;
          default:
            n.op = OpCode::kArith;
            break;
        }
        return Add(std::move(n));
      }
      case Expr::Kind::kCase: {
        Node n;
        n.op = OpCode::kCase;
        for (const CaseArm& arm : e.case_arms) {
          const int c = CompileNode(*arm.condition, schema, eval, snapshots);
          if (c < 0) return -1;
          const int r = CompileNode(*arm.result, schema, eval, snapshots);
          if (r < 0) return -1;
          n.arms.emplace_back(c, r);
        }
        if (e.case_else != nullptr) {
          n.else_node = CompileNode(*e.case_else, schema, eval, snapshots);
          if (n.else_node < 0) return -1;
        }
        return Add(std::move(n));
      }
      default:
        // kFunction / kAggregate / kIndex / kExists / kGraphPattern.
        return -1;
    }
  }

  void EvalNode(int id, const BindingTable& table, const size_t* rows,
                size_t n, Scratch* s) const {
    const Node& node = nodes[id];
    std::vector<Cell>& out = s->bufs[id];
    out.resize(n);
    switch (node.op) {
      case OpCode::kConst: {
        Cell c{node.const_tag, 0};
        if (node.const_val != nullptr) c = EncodeValue(*node.const_val, s);
        std::fill(out.begin(), out.end(), c);
        break;
      }
      case OpCode::kLoadVar: {
        const Column& col = table.ColumnAt(node.col);
        for (size_t i = 0; i < n; ++i) {
          const size_t r = rows[i];
          switch (col.KindAt(r)) {
            case Datum::Kind::kUnbound:
              out[i] = {Tag::kUnbound, 0};
              break;
            case Datum::Kind::kNode:
              out[i] = {Tag::kNode, col.NodeAt(r).value()};
              break;
            case Datum::Kind::kEdge:
              out[i] = {Tag::kEdge, col.EdgeAt(r).value()};
              break;
            case Datum::Kind::kValues: {
              const ValueSet& vs = col.HeavyAt(r).values();
              if (vs.empty()) {
                out[i] = {Tag::kEmpty, 0};
              } else if (vs.is_singleton()) {
                out[i] = EncodeValue(vs.single(), s);
              } else {
                s->sets.push_back(&vs);
                out[i] = {Tag::kSet, s->sets.size() - 1};
              }
              break;
            }
            default:
              // Paths and node/edge lists keep row semantics.
              out[i] = Fallback();
              break;
          }
        }
        break;
      }
      case OpCode::kLoadProp: {
        const Column& col = table.ColumnAt(node.col);
        const AdjacencyIndex& adj = node.snap->adjacency();
        for (size_t i = 0; i < n; ++i) {
          const size_t r = rows[i];
          switch (col.KindAt(r)) {
            case Datum::Kind::kUnbound:
              out[i] = {Tag::kEmpty, 0};
              break;
            case Datum::Kind::kNode: {
              const DenseNodeIndex idx = node.node_col == nullptr
                                             ? adj.num_nodes()
                                             : adj.Find(col.NodeAt(r));
              out[i] = idx == adj.num_nodes()
                           ? Cell{Tag::kEmpty, 0}  // non-carrier or non-member
                           : GatherCell(*node.node_col, idx, *node.snap, s);
              break;
            }
            case Datum::Kind::kEdge: {
              const DenseEdgeIndex e =
                  node.edge_col == nullptr
                      ? GraphSnapshot::kNoEdge
                      : node.snap->FindEdge(col.EdgeAt(r));
              out[i] = e == GraphSnapshot::kNoEdge
                           ? Cell{Tag::kEmpty, 0}
                           : GatherCell(*node.edge_col, e, *node.snap, s);
              break;
            }
            case Datum::Kind::kPath:
              // Stored-path σ and the virtual cost/length need the row
              // evaluator.
              out[i] = Fallback();
              break;
            default:
              out[i] = {Tag::kEmpty, 0};  // σ over literals/lists = ∅
              break;
          }
        }
        break;
      }
      case OpCode::kLabelTest: {
        const Column& col = table.ColumnAt(node.col);
        const AdjacencyIndex& adj = node.snap->adjacency();
        for (size_t i = 0; i < n; ++i) {
          const size_t r = rows[i];
          switch (col.KindAt(r)) {
            case Datum::Kind::kNode: {
              const DenseNodeIndex nidx = adj.Find(col.NodeAt(r));
              bool hit = false;
              if (nidx != adj.num_nodes()) {
                for (const uint32_t label : node.label_ids) {
                  if (node.snap->NodeHasLabel(nidx, label)) {
                    hit = true;
                    break;
                  }
                }
              }
              out[i] = BoolCell(hit);
              break;
            }
            case Datum::Kind::kEdge: {
              const DenseEdgeIndex eidx = node.snap->FindEdge(col.EdgeAt(r));
              bool hit = false;
              if (eidx != GraphSnapshot::kNoEdge) {
                for (const uint32_t label : node.label_ids) {
                  if (node.snap->EdgeHasLabel(eidx, label)) {
                    hit = true;
                    break;
                  }
                }
              }
              out[i] = BoolCell(hit);
              break;
            }
            case Datum::Kind::kPath:
              out[i] = Fallback();  // stored paths can carry labels
              break;
            default:
              // Unbound and literal bindings have no labels.
              out[i] = BoolCell(false);
              break;
          }
        }
        break;
      }
      case OpCode::kNot: {
        EvalNode(node.a, table, rows, n, s);
        const std::vector<Cell>& in = s->bufs[node.a];
        for (size_t i = 0; i < n; ++i) {
          switch (Truthiness(in[i])) {
            case Tru::kFalse:
              out[i] = BoolCell(true);
              break;
            case Tru::kTrue:
              out[i] = BoolCell(false);
              break;
            default:
              out[i] = Fallback();
              break;
          }
        }
        break;
      }
      case OpCode::kNeg: {
        EvalNode(node.a, table, rows, n, s);
        const std::vector<Cell>& in = s->bufs[node.a];
        for (size_t i = 0; i < n; ++i) {
          const Cell c = in[i];
          if (c.tag == Tag::kInt) {
            out[i] = NumericCell(-NumOf(c), true);
          } else if (c.tag == Tag::kDouble) {
            out[i] = NumericCell(-NumOf(c), false);
          } else {
            out[i] = Fallback();
          }
        }
        break;
      }
      case OpCode::kAndOr: {
        const bool is_and = node.bop == BinaryOp::kAnd;
        EvalNode(node.a, table, rows, n, s);
        const std::vector<Cell>& lhs = s->bufs[node.a];
        // Short-circuit as a selection-vector gather: only rows the
        // left side does not decide reach the right side — which also
        // suppresses right-side errors exactly like the row path.
        std::vector<size_t> sub_rows;
        std::vector<size_t> sub_pos;
        for (size_t i = 0; i < n; ++i) {
          switch (Truthiness(lhs[i])) {
            case Tru::kFalse:
              if (is_and) {
                out[i] = BoolCell(false);
              } else {
                sub_rows.push_back(rows[i]);
                sub_pos.push_back(i);
              }
              break;
            case Tru::kTrue:
              if (is_and) {
                sub_rows.push_back(rows[i]);
                sub_pos.push_back(i);
              } else {
                out[i] = BoolCell(true);
              }
              break;
            default:
              out[i] = Fallback();
              break;
          }
        }
        if (!sub_rows.empty()) {
          EvalNode(node.b, table, sub_rows.data(), sub_rows.size(), s);
          const std::vector<Cell>& rhs = s->bufs[node.b];
          for (size_t j = 0; j < sub_pos.size(); ++j) {
            switch (Truthiness(rhs[j])) {
              case Tru::kFalse:
                out[sub_pos[j]] = BoolCell(false);
                break;
              case Tru::kTrue:
                out[sub_pos[j]] = BoolCell(true);
                break;
              default:
                out[sub_pos[j]] = Fallback();
                break;
            }
          }
        }
        break;
      }
      case OpCode::kCompare: {
        EvalNode(node.a, table, rows, n, s);
        EvalNode(node.b, table, rows, n, s);
        const std::vector<Cell>& l = s->bufs[node.a];
        const std::vector<Cell>& r = s->bufs[node.b];
        for (size_t i = 0; i < n; ++i) {
          out[i] = CompareOp(node.bop, l[i], r[i], s);
        }
        break;
      }
      case OpCode::kArith: {
        EvalNode(node.a, table, rows, n, s);
        EvalNode(node.b, table, rows, n, s);
        const std::vector<Cell>& l = s->bufs[node.a];
        const std::vector<Cell>& r = s->bufs[node.b];
        for (size_t i = 0; i < n; ++i) {
          out[i] = ArithOp(node.bop, l[i], r[i], s);
        }
        break;
      }
      case OpCode::kCase: {
        // Progressive partition: rows not yet decided flow into the
        // next arm; each arm's condition/result runs once on exactly
        // the rows that reach it.
        std::vector<size_t> active_rows(rows, rows + n);
        std::vector<size_t> active_pos(n);
        std::iota(active_pos.begin(), active_pos.end(), size_t{0});
        for (const auto& arm : node.arms) {
          if (active_rows.empty()) break;
          EvalNode(arm.first, table, active_rows.data(), active_rows.size(),
                   s);
          const std::vector<Cell>& cond = s->bufs[arm.first];
          std::vector<size_t> hit_rows;
          std::vector<size_t> hit_pos;
          std::vector<size_t> next_rows;
          std::vector<size_t> next_pos;
          for (size_t j = 0; j < active_rows.size(); ++j) {
            switch (Truthiness(cond[j])) {
              case Tru::kTrue:
                hit_rows.push_back(active_rows[j]);
                hit_pos.push_back(active_pos[j]);
                break;
              case Tru::kFalse:
                next_rows.push_back(active_rows[j]);
                next_pos.push_back(active_pos[j]);
                break;
              default:
                out[active_pos[j]] = Fallback();
                break;
            }
          }
          if (!hit_rows.empty()) {
            EvalNode(arm.second, table, hit_rows.data(), hit_rows.size(), s);
            const std::vector<Cell>& res = s->bufs[arm.second];
            for (size_t k = 0; k < hit_pos.size(); ++k) {
              out[hit_pos[k]] = res[k];
            }
          }
          active_rows = std::move(next_rows);
          active_pos = std::move(next_pos);
        }
        if (!active_rows.empty()) {
          if (node.else_node >= 0) {
            EvalNode(node.else_node, table, active_rows.data(),
                     active_rows.size(), s);
            const std::vector<Cell>& res = s->bufs[node.else_node];
            for (size_t k = 0; k < active_pos.size(); ++k) {
              out[active_pos[k]] = res[k];
            }
          } else {
            for (const size_t pos : active_pos) out[pos] = {Tag::kEmpty, 0};
          }
        }
        break;
      }
    }
  }
};

VecProgram::VecProgram() : impl_(std::make_unique<Impl>()) {}
VecProgram::~VecProgram() = default;

const Expr& VecProgram::expr() const { return *impl_->expr; }

std::shared_ptr<const VecProgram> VecProgram::Compile(
    const Expr& expr, const BindingTable& schema, const ExprEvaluator& eval,
    const SnapshotFn& snapshots) {
  std::shared_ptr<VecProgram> program(new VecProgram());
  program->impl_->expr = &expr;
  program->impl_->root =
      program->impl_->CompileNode(expr, schema, eval, snapshots);
  if (program->impl_->root < 0) return nullptr;
  return program;
}

namespace {
// Batches are evaluated in bounded chunks so scratch side tables stay
// cache-resident regardless of morsel size.
constexpr size_t kBatchRows = 1024;
}  // namespace

Status VecProgram::FilterRows(const BindingTable& table, const size_t* rows,
                              size_t n, const ExprEvaluator& eval,
                              std::vector<size_t>* keep) const {
  Scratch s;
  s.bufs.resize(impl_->nodes.size());
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - base);
    s.strs.clear();
    s.sets.clear();
    s.owned.clear();
    impl_->EvalNode(impl_->root, table, rows + base, m, &s);
    const std::vector<Cell>& res = s.bufs[impl_->root];
    for (size_t i = 0; i < m; ++i) {
      const size_t r = rows[base + i];
      switch (Truthiness(res[i])) {
        case Tru::kTrue:
          keep->push_back(r);
          break;
        case Tru::kFalse:
          break;
        default: {
          // Replay in ascending row order: the serial loop's first
          // error (if any) is reproduced for exactly this row.
          GCORE_ASSIGN_OR_RETURN(bool ok,
                                 eval.EvalPredicate(*impl_->expr, table, r));
          if (ok) keep->push_back(r);
          break;
        }
      }
    }
  }
  return Status::OK();
}

void VecProgram::EvalValues(const BindingTable& table, const size_t* rows,
                            size_t n, std::vector<Datum>* out,
                            std::vector<uint8_t>* fallback) const {
  out->assign(n, Datum());
  fallback->assign(n, 0);
  Scratch s;
  s.bufs.resize(impl_->nodes.size());
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - base);
    s.strs.clear();
    s.sets.clear();
    s.owned.clear();
    impl_->EvalNode(impl_->root, table, rows + base, m, &s);
    const std::vector<Cell>& res = s.bufs[impl_->root];
    for (size_t i = 0; i < m; ++i) {
      if (res[i].tag == Tag::kFallback) {
        (*fallback)[base + i] = 1;
      } else {
        (*out)[base + i] = MaterializeDatum(res[i], s);
      }
    }
  }
}

}  // namespace gcore
