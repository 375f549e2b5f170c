//===- sat/Dimacs.h - DIMACS CNF reader/writer ------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DIMACS CNF serialization for the CDCL solver: lets the bit-blasted MBA
/// instances be exported to and cross-checked against external SAT tools,
/// and provides a convenient text format for solver unit tests.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SAT_DIMACS_H
#define MBA_SAT_DIMACS_H

#include "sat/SatTypes.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mba::sat {

/// A parsed CNF: clause list over variables 0..NumVars-1. Learnt clauses
/// (implied by Clauses; exported from a solver's learnt-clause DB for
/// debugging) are kept separate so consumers can ignore or inspect them.
struct CnfFormula {
  unsigned NumVars = 0;
  std::vector<std::vector<Lit>> Clauses;
  std::vector<std::vector<Lit>> LearntClauses;
};

/// Parses DIMACS text ("p cnf V C" header, clauses of nonzero integers
/// terminated by 0, 'c' comment lines). Returns std::nullopt on malformed
/// input, including a variable too large for Lit's packing (above
/// 2^31 - 1). Variables beyond the header count grow the formula. A
/// "c learnt" comment line switches subsequent clauses into
/// CnfFormula::LearntClauses (the writeDimacs IncludeLearnt round-trip).
std::optional<CnfFormula> parseDimacs(std::string_view Text);

/// Renders \p F as DIMACS text. With \p IncludeLearnt, the learnt-clause
/// DB follows the problem clauses behind a "c learnt" marker line —
/// standard DIMACS consumers skip the comment and read the learnt clauses
/// as (sound, implied) extra clauses, while parseDimacs restores them into
/// LearntClauses. The header counts problem clauses only.
std::string writeDimacs(const CnfFormula &F, bool IncludeLearnt = false);

} // namespace mba::sat

#endif // MBA_SAT_DIMACS_H
