// Graph-level set operations: Appendix A.5 of the paper.
//
// UNION / INTERSECT / MINUS on whole PPGs are defined over object
// *identities*. Two graphs are "consistent" when every shared edge has the
// same ρ and every shared path the same δ; union and intersection of
// inconsistent graphs are defined to be the empty PPG. Difference keeps
// only edges whose endpoints survive and paths whose full bodies survive
// (no dangling structure).
//
// Each operation walks the operands' id-sorted member stores (ppg.h) side
// by side in one pass instead of looking members up one at a time.
#ifndef GCORE_GRAPH_GRAPH_OPS_H_
#define GCORE_GRAPH_GRAPH_OPS_H_

#include "graph/ppg.h"

namespace gcore {

/// True when shared edges/paths agree on ρ/δ (Appendix A.5).
bool Consistent(const PathPropertyGraph& g1, const PathPropertyGraph& g2);

/// G1 ∪ G2. Labels and property value sets of shared objects are unioned.
/// Returns the empty PPG if the graphs are inconsistent.
///
/// Moves entries out of both operands; a shared object's λ/σ adopt or
/// skip the other side's copy-on-write payload, so an object whose λ/σ
/// payloads are the same on both sides costs no copy. The const overload
/// copies G2 first (one handle copy per member). The result is unnamed,
/// like a fresh graph.
PathPropertyGraph GraphUnion(PathPropertyGraph g1,
                             const PathPropertyGraph& g2);
PathPropertyGraph GraphUnion(PathPropertyGraph g1, PathPropertyGraph&& g2);

/// G1 ∩ G2. Shared objects keep the intersection of labels and per-key
/// value sets. Returns the empty PPG if the graphs are inconsistent.
PathPropertyGraph GraphIntersect(const PathPropertyGraph& g1,
                                 const PathPropertyGraph& g2);

/// G1 ∖ G2. N = N1∖N2; E keeps edges of E1∖E2 with both endpoints in N;
/// P keeps paths of P1∖P2 whose nodes and edges all survive. λ/σ restricted
/// from G1.
PathPropertyGraph GraphMinus(const PathPropertyGraph& g1,
                             const PathPropertyGraph& g2);

/// Structural + content equality (same members, same ρ/δ/λ/σ). Names are
/// ignored.
bool GraphEquals(const PathPropertyGraph& g1, const PathPropertyGraph& g2);

}  // namespace gcore

#endif  // GCORE_GRAPH_GRAPH_OPS_H_
