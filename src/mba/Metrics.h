//===- mba/Metrics.h - MBA complexity metrics -------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complexity metrics the paper's study correlates with solving time
/// (Section 3.1 and Table 1):
///
///  * **MBA type** — linear / poly / non-poly (see Classify.h).
///  * **Number of variables**.
///  * **MBA alternation** — the number of operator edges that connect an
///    arithmetic computation with a bitwise one; the paper's key finding is
///    that this metric dominates solving time (Figure 3).
///  * **MBA length** — length of the printed expression string.
///  * **Number of terms** — addends after flattening the toplevel +/- spine.
///  * **Coefficient magnitude** — the largest |constant| appearing.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_METRICS_H
#define MBA_MBA_METRICS_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/NodeMap.h"
#include "mba/Classify.h"

#include <cstdint>

namespace mba {

/// Complexity measurements of one expression.
struct ComplexityMetrics {
  MBAKind Kind = MBAKind::Linear;
  unsigned NumVariables = 0;
  uint64_t Alternation = 0;
  size_t Length = 0;
  uint64_t NumTerms = 0;
  uint64_t MaxCoefficient = 0; ///< max |signed value| over all constants
};

/// The "MBA alternation" count of \p E: the number of (parent, child)
/// operator edges whose operator classes differ (arithmetic vs bitwise),
/// counted over the expression *tree* (a shared subtree contributes once
/// per occurrence). Leaf children never contribute.
///
/// Example: in (x&y) + 2*z the '+' has a bitwise left child, so the
/// alternation is 1 — exactly the paper's Section 3.1 example.
uint64_t mbaAlternation(const Expr *E);

/// Alternation counts of every node measured so far.
using AlternationMemo = NodeMap<uint64_t>;

/// mbaAlternation() over a caller-owned memo: walks only the nodes \p Memo
/// does not hold yet, and records them in it.
uint64_t mbaAlternation(const Expr *E, AlternationMemo &Memo);

/// Number of top-level addends: the leaves of the +/- (and unary -) spine.
/// A single non-sum expression counts as one term.
uint64_t countTerms(const Expr *E);

/// Largest |signed constant| appearing anywhere in \p E (0 if none).
uint64_t maxCoefficient(const Context &Ctx, const Expr *E);

/// Computes all metrics of \p E in one call.
ComplexityMetrics measureComplexity(const Context &Ctx, const Expr *E);

} // namespace mba

#endif // MBA_MBA_METRICS_H
