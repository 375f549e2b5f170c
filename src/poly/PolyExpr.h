//===- poly/PolyExpr.h - Expression <-> polynomial conversion --*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conversion between MBA expressions and the polynomial normal form. The
/// caller chooses which sub-expressions become ring atoms through an
/// AtomMap; everything above the atoms must be arithmetic (+, -, *, unary -)
/// or constants. This implements the paper's "ArithReduce" step.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_POLY_POLYEXPR_H
#define MBA_POLY_POLYEXPR_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/NodeMap.h"
#include "poly/Polynomial.h"

#include <functional>
#include <optional>
#include <vector>

namespace mba {

/// Bidirectional mapping between expressions designated as ring atoms and
/// their AtomIds. Atom ids are dense and assigned in registration order.
class AtomMap {
public:
  /// Returns the id of \p E, registering it on first use.
  AtomId getOrCreate(const Expr *E) {
    auto [Id, Inserted] = Ids.emplace(E, (AtomId)Exprs.size());
    if (Inserted)
      Exprs.push_back(E);
    return *Id;
  }

  /// Returns the id of \p E if registered.
  std::optional<AtomId> lookup(const Expr *E) const {
    if (const AtomId *Id = Ids.find(E))
      return *Id;
    return std::nullopt;
  }

  /// The expression of atom \p Id.
  const Expr *expr(AtomId Id) const {
    assert(Id < Exprs.size() && "unknown atom");
    return Exprs[Id];
  }

  size_t size() const { return Exprs.size(); }

private:
  NodeMap<AtomId> Ids;
  std::vector<const Expr *> Exprs;
};

/// Converts \p E to a polynomial. \p IsAtom decides which sub-expressions
/// become ring atoms (they are registered in \p Atoms); the converter
/// recurses only through arithmetic operators and constants, so \p IsAtom
/// must cover every non-arithmetic, non-constant node it can reach (bitwise
/// nodes and variables, typically).
///
/// Returns std::nullopt if a reachable node is neither arithmetic, constant,
/// nor an atom, or if expansion exceeds MaxPolynomialTerms.
std::optional<Polynomial>
exprToPolynomial(const Context &Ctx, const Expr *E, AtomMap &Atoms,
                 const std::function<bool(const Expr *)> &IsAtom);

/// Generalized conversion: \p AtomPoly may map a sub-expression directly to
/// an arbitrary polynomial (e.g. a bitwise expression to its normalized
/// linear combination over conjunction atoms — the substitution step of the
/// paper's Section 4.4). Returning std::nullopt means "not an atom": the
/// converter then recurses through arithmetic operators and constants, and
/// fails on anything else.
std::optional<Polynomial> exprToPolynomialGeneral(
    const Context &Ctx, const Expr *E,
    const std::function<std::optional<Polynomial>(const Expr *)> &AtomPoly);

/// Builds the canonical expression of \p P: terms in the deterministic
/// monomial order with the constant last, signed-coefficient formatting
/// (negative coefficients render via subtraction), and coefficient-1
/// multiplications elided. The zero polynomial yields the constant 0.
const Expr *polynomialToExpr(Context &Ctx, const Polynomial &P,
                             const AtomMap &Atoms);

/// Convenience: builds Sum_i Coeffs[i] * Exprs[i] + Constant as a
/// well-formatted expression (shared by the simplifier's normalized-form
/// and lookup-table output paths). Null entries in \p Exprs denote the
/// constant-1 "expression" (i.e. the coefficient contributes to the
/// constant).
const Expr *
buildLinearCombination(Context &Ctx,
                       const std::vector<std::pair<uint64_t, const Expr *>> &Terms,
                       uint64_t Constant);

} // namespace mba

#endif // MBA_POLY_POLYEXPR_H
