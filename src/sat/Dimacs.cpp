//===- sat/Dimacs.cpp - DIMACS CNF reader/writer --------------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"

#include <cctype>
#include <cstdlib>

using namespace mba::sat;

namespace {
/// The largest DIMACS variable: V names Var V - 1, whose literals pack as
/// 2 * (V - 1) + sign and must stay below Lit's invalid code UINT32_MAX.
constexpr uint64_t MaxDimacsVar = (UINT32_MAX - 2) / 2 + 1;
} // namespace

std::optional<CnfFormula> mba::sat::parseDimacs(std::string_view Text) {
  CnfFormula F;
  size_t Pos = 0;
  auto SkipSpace = [&] {
    while (Pos < Text.size() &&
           std::isspace((unsigned char)Text[Pos]))
      ++Pos;
  };
  auto SkipLine = [&] {
    while (Pos < Text.size() && Text[Pos] != '\n')
      ++Pos;
  };
  std::vector<Lit> Current;
  bool SawHeader = false;
  bool InLearnt = false;
  while (true) {
    SkipSpace();
    if (Pos >= Text.size())
      break;
    char C = Text[Pos];
    if (C == 'c') {
      size_t LineStart = Pos;
      SkipLine();
      std::string_view Line = Text.substr(LineStart, Pos - LineStart);
      // Trailing \r (and any other whitespace) is insignificant.
      while (!Line.empty() && std::isspace((unsigned char)Line.back()))
        Line.remove_suffix(1);
      if (Line == "c learnt")
        InLearnt = true;
      continue;
    }
    if (C == 'p') {
      // "p cnf <vars> <clauses>"
      SkipLine(); // values are advisory; we grow on demand
      SawHeader = true;
      continue;
    }
    // Integer literal.
    bool Negative = false;
    if (C == '-') {
      Negative = true;
      ++Pos;
    }
    if (Pos >= Text.size() || !std::isdigit((unsigned char)Text[Pos]))
      return std::nullopt;
    // Checking every digit keeps V far from uint64_t overflow.
    uint64_t V = 0;
    while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos])) {
      V = V * 10 + (unsigned)(Text[Pos] - '0');
      if (V > MaxDimacsVar)
        return std::nullopt;
      ++Pos;
    }
    if (V == 0) {
      (InLearnt ? F.LearntClauses : F.Clauses).push_back(Current);
      Current.clear();
      continue;
    }
    Var Variable = (Var)(V - 1);
    if (Variable + 1 > F.NumVars)
      F.NumVars = Variable + 1;
    Current.push_back(Lit(Variable, Negative));
  }
  if (!Current.empty())
    return std::nullopt; // clause missing its 0 terminator
  (void)SawHeader;       // header is optional in practice
  return F;
}

std::string mba::sat::writeDimacs(const CnfFormula &F, bool IncludeLearnt) {
  std::string Out = "p cnf " + std::to_string(F.NumVars) + ' ' +
                    std::to_string(F.Clauses.size()) + '\n';
  auto AppendClause = [&Out](const std::vector<Lit> &Clause) {
    for (Lit L : Clause) {
      Out += L.negated() ? "-" : "";
      Out += std::to_string(L.var() + 1);
      Out += ' ';
    }
    Out += "0\n";
  };
  for (const auto &Clause : F.Clauses)
    AppendClause(Clause);
  if (IncludeLearnt && !F.LearntClauses.empty()) {
    Out += "c learnt\n";
    for (const auto &Clause : F.LearntClauses)
      AppendClause(Clause);
  }
  return Out;
}
