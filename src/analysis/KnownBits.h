//===- analysis/KnownBits.h - Known-bits dataflow analysis ------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward known-bits analysis over expression DAGs, in the style of a
/// compiler's computeKnownBits: for every node, which bits are provably 0
/// and which provably 1 on *all* inputs. The MBA signature machinery is
/// blind to constants that are not 0/-1 (a truth table has no column for
/// the 3 in `x & 3`); known-bits reasoning covers exactly that gap — e.g.
/// `(x*2) & 1` folds to 0 because multiplication by two clears bit 0 — so
/// the simplifier runs it as a folding pre-pass.
///
/// Known-bits is one of the three pluggable domains of the abstract-
/// interpretation framework in analysis/AbstractInterp.h; this header keeps
/// the historical standalone interface (moved here from src/mba).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_ANALYSIS_KNOWNBITS_H
#define MBA_ANALYSIS_KNOWNBITS_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/NodeMap.h"

#include <cstdint>

namespace mba {

/// Bit-level facts about a value. Invariant: Zero & One == 0; both are
/// subsets of the context mask.
struct KnownBits {
  uint64_t Zero = 0; ///< bits provably 0
  uint64_t One = 0;  ///< bits provably 1

  /// All bits decided (the value is the constant One).
  bool isConstant(uint64_t Mask) const { return (Zero | One) == Mask; }

  uint64_t knownMask() const { return Zero | One; }
};

/// Computes known bits for \p E (and memoizes every sub-node into \p Memo
/// when provided).
KnownBits computeKnownBits(const Context &Ctx, const Expr *E);
KnownBits
computeKnownBits(const Context &Ctx, const Expr *E,
                 NodeMap<KnownBits> &Memo);

/// Folds every sub-expression whose bits are all decided into the constant
/// it must equal. Returns \p E unchanged when nothing folds.
const Expr *foldKnownBits(Context &Ctx, const Expr *E);

} // namespace mba

#endif // MBA_ANALYSIS_KNOWNBITS_H
