#include "engine/tabular.h"

namespace gcore {

PathPropertyGraph TableAsGraph(const Table& table, IdAllocator* ids) {
  PathPropertyGraph graph;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const NodeId id = ids->NextNode();
    graph.AddNode(id);
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Value& v = table.At(r, c);
      if (v.is_null()) continue;
      graph.SetProperty(id, table.columns()[c], ValueSet(v));
    }
  }
  return graph;
}

BindingTable TableAsBindings(const Table& table) {
  BindingTable bindings(table.columns());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    BindingRow row;
    row.reserve(table.NumColumns());
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Value& v = table.At(r, c);
      row.push_back(v.is_null() ? Datum::Unbound() : Datum::OfValue(v));
    }
    Status st = bindings.AddRow(std::move(row));
    (void)st;
  }
  return bindings;
}

}  // namespace gcore
