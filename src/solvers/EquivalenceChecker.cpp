//===- solvers/EquivalenceChecker.cpp - Solver backends -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/EquivalenceChecker.h"

using namespace mba;

const char *mba::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Equivalent:
    return "equivalent";
  case Verdict::NotEquivalent:
    return "not-equivalent";
  case Verdict::Timeout:
    return "timeout";
  }
  return "?";
}

EquivalenceChecker::~EquivalenceChecker() = default;

std::vector<std::unique_ptr<EquivalenceChecker>> mba::makeAllCheckers() {
  std::vector<std::unique_ptr<EquivalenceChecker>> Checkers;
  if (auto Z3 = makeZ3Checker())
    Checkers.push_back(std::move(Z3));
  Checkers.push_back(makeBlastChecker(false));
  Checkers.push_back(makeBlastChecker(true));
  Checkers.push_back(makeAigChecker());
  return Checkers;
}
