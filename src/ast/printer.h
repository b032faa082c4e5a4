// Query AST → query-text rendering.
//
// Used for debugging, error messages, and the Table 1 feature report. The
// output re-parses to an equivalent AST (round-trip tested).
#ifndef GCORE_AST_PRINTER_H_
#define GCORE_AST_PRINTER_H_

#include <string>

#include "ast/ast.h"

namespace gcore {

std::string PrintQuery(const Query& query);
std::string PrintQueryBody(const QueryBody& body);
std::string PrintBasicQuery(const BasicQuery& basic);
std::string PrintConstructClause(const ConstructClause& construct);
std::string PrintMatchClause(const MatchClause& match);
std::string PrintSelectClause(const SelectClause& select);

}  // namespace gcore

#endif  // GCORE_AST_PRINTER_H_
