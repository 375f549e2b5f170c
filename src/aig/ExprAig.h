//===- aig/ExprAig.h - MBA expressions to AIG words -------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates MBA expressions into AIG words: each variable gets one input
/// word shared across every expression translated through the same
/// ExprAig, so both sides of an equivalence query see identical inputs,
/// and a subterm the two sides share is translated once.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AIG_EXPRAIG_H
#define MBA_AIG_EXPRAIG_H

#include "aig/AigBlaster.h"
#include "ast/Context.h"
#include "ast/Expr.h"

#include <unordered_map>

namespace mba::aig {

/// Expression-to-AIG translator with DAG sharing.
class ExprAig {
public:
  ExprAig(AigBlaster &Blaster) : Blaster(Blaster) {}

  /// Returns the word computing \p E. Shared sub-DAGs translate once,
  /// including across calls.
  AigBlaster::Word blast(const Expr *E);

  /// The input word assigned to variable \p V (created on first use).
  const AigBlaster::Word &inputWord(const Expr *V);

private:
  AigBlaster &Blaster;
  std::unordered_map<const Expr *, AigBlaster::Word> Memo;
  std::unordered_map<const Expr *, AigBlaster::Word> Inputs;
};

} // namespace mba::aig

#endif // MBA_AIG_EXPRAIG_H
