// Tabular extensions of Section 5: tables ↔ graphs / binding sets.
#ifndef GCORE_ENGINE_TABULAR_H_
#define GCORE_ENGINE_TABULAR_H_

#include "eval/binding.h"
#include "graph/graph_builder.h"
#include "snb/table.h"

namespace gcore {

/// "Interpreting tables as graphs": one isolated node per row, columns as
/// (singleton) properties. Fresh node identities from `ids`.
PathPropertyGraph TableAsGraph(const Table& table, IdAllocator* ids);

/// "Binding table inputs" (FROM <table>): one binding per row, columns as
/// value variables.
BindingTable TableAsBindings(const Table& table);

}  // namespace gcore

#endif  // GCORE_ENGINE_TABULAR_H_
