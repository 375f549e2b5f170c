//===- mba/Signature.h - MBA signature vectors ------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Signature vectors of linear MBA expressions (Definition 3 of the paper).
/// For a linear MBA E = sum_i a_i * e_i over t variables, the signature is
/// s = M v, where M is the truth-table matrix of the bitwise expressions and
/// v the coefficient vector. Theorem 1: two linear MBA expressions over the
/// same variables are equivalent on Z/2^w iff their signatures are equal —
/// the signature is a complete, canonical semantic summary.
///
/// This implementation computes s *without* decomposing E into terms: a
/// bitwise expression evaluated on a truth-table corner (every variable 0 or
/// all-ones) yields 0 or all-ones = -1, so row k of M v equals -E(corner_k).
/// One evaluation per row therefore recovers the exact signature, which also
/// works for any expression that is only *semantically* linear.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_SIGNATURE_H
#define MBA_MBA_SIGNATURE_H

#include "ast/Context.h"
#include "ast/Expr.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mba {

/// Signature vector of \p E over the ordered variable list \p Vars (the
/// variables of E sorted by name, or any superset): entry k is -E(corner_k)
/// masked to the width. The result has 2^|Vars| entries.
///
/// \pre E must be semantically linear in \p Vars (guaranteed by the Linear
/// classification, but also true for e.g. `~t` with t a temp variable).
std::vector<uint64_t> computeSignature(const Context &Ctx, const Expr *E,
                                       std::span<const Expr *const> Vars);

/// Signature over E's own (name-sorted) variables; also returns that
/// variable list via \p VarsOut when non-null.
std::vector<uint64_t>
computeSignature(const Context &Ctx, const Expr *E,
                 std::vector<const Expr *> *VarsOut = nullptr);

/// Theorem 1 equivalence: decides E1 == E2 for *linear* MBA expressions by
/// comparing signatures over the union of their variables. Sound and
/// complete for (semantically) linear expressions; do not call on
/// non-linear ones.
bool linearMBAEquivalent(const Context &Ctx, const Expr *E1, const Expr *E2);

} // namespace mba

#endif // MBA_MBA_SIGNATURE_H
