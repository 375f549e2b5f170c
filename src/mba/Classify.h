//===- mba/Classify.h - Linear / poly / non-poly classification -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Syntactic classification of MBA expressions into the paper's three
/// categories (Figure 2):
///
///  * **Linear** (Definition 1): an integer-linear combination of pure
///    bitwise expressions, sum_i a_i * e_i(x1..xt).
///  * **Polynomial** (Definition 2): sum_i a_i * prod_j e_ij(x1..xt) —
///    products of bitwise expressions are allowed inside terms. Following
///    the paper, "poly MBA" elsewhere means *non-linear* polynomial.
///  * **NonPolynomial**: everything else, i.e. some bitwise operator has an
///    operand that itself computes arithmetic (e.g. (x+y)&z or ~(x-1)).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_CLASSIFY_H
#define MBA_MBA_CLASSIFY_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/NodeMap.h"

#include <cstdint>

namespace mba {

/// The paper's MBA complexity categories. Linear implies Polynomial; the
/// classifier returns the most specific category.
enum class MBAKind : uint8_t {
  Linear,
  Polynomial,   ///< non-linear polynomial ("poly MBA" in the paper)
  NonPolynomial ///< not expressible under Definition 2
};

/// Printable name of a category.
const char *mbaKindName(MBAKind K);

/// Per-node classification facts, computed bottom-up.
struct MBAFacts {
  bool PureBitwise; ///< vars, 0/-1 constants, and &,|,^,~ only
  bool Linear;      ///< Definition 1 shape
  bool Poly;        ///< Definition 2 shape
  bool IsConstant;  ///< no variables below: evaluates to Value
  uint64_t Value;   ///< the constant's value (when IsConstant)
};

/// Facts of every node classified so far. A memo serves one context (the
/// facts depend on its width); the overloads taking one walk only the
/// nodes it does not hold yet.
using MBAFactsMemo = NodeMap<MBAFacts>;

/// True if \p E is a pure bitwise expression: variables and the constants
/// 0 / -1 (whose truth columns are uniform) combined with &, |, ^, ~ only.
bool isPureBitwise(const Context &Ctx, const Expr *E);
bool isPureBitwise(const Context &Ctx, const Expr *E, MBAFactsMemo &Memo);

/// Classifies \p E into the most specific of the three categories.
MBAKind classifyMBA(const Context &Ctx, const Expr *E);
MBAKind classifyMBA(const Context &Ctx, const Expr *E, MBAFactsMemo &Memo);

} // namespace mba

#endif // MBA_MBA_CLASSIFY_H
