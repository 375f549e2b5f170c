//===- poly/Polynomial.h - Polynomials over bitwise atoms -------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multivariate polynomial normal form with coefficients in Z/2^w and
/// indeterminates ("atoms") identified by small integer ids. In the MBA
/// simplifier, atoms are variables and opaque bitwise sub-expressions; the
/// polynomial ring implements the expansion/collection/cancellation step of
/// Section 4.4 (the paper's prototype delegates this to SymPy):
///
///   (x - x&y) * (y - x&y) + (x&y) * (x + y - x&y)  ==>  x*y
///
/// Monomials are sorted exponent vectors; a polynomial is one flat vector
/// of (monomial, nonzero coefficient) terms sorted by monomial, so addition
/// is a merge that collects like terms, and a term whose coefficient
/// cancels to zero in the ring Z/2^w is dropped.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_POLY_POLYNOMIAL_H
#define MBA_POLY_POLYNOMIAL_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace mba {

/// Identifies an indeterminate of the polynomial ring.
using AtomId = uint32_t;

/// A power product of atoms: sorted (atom, exponent) pairs with positive
/// exponents. The empty monomial is the constant 1.
class Monomial {
public:
  using Power = std::pair<AtomId, uint32_t>;

  Monomial() = default;

  /// The monomial consisting of a single atom to the first power.
  static Monomial atom(AtomId Id) {
    Monomial M;
    M.Powers.push_back({Id, 1});
    M.Degree = 1;
    return M;
  }

  /// Product of two monomials (exponents add).
  Monomial operator*(const Monomial &O) const;

  /// Total degree (sum of exponents).
  unsigned degree() const { return Degree; }

  bool isConstant() const { return Powers.empty(); }

  /// Sole atom of a degree-1 monomial.
  AtomId linearAtom() const {
    assert(degree() == 1 && "not a degree-1 monomial");
    return Powers.front().first;
  }

  /// The (atom, exponent) pairs, sorted by atom.
  const std::vector<Power> &powers() const { return Powers; }

  bool operator==(const Monomial &O) const { return Powers == O.Powers; }
  bool operator<(const Monomial &O) const {
    // Order by total degree first so that iteration yields the constant
    // term, then linear terms, then higher-degree terms — the order in
    // which normalized MBA results are conventionally written.
    if (Degree != O.Degree)
      return Degree < O.Degree;
    return Powers < O.Powers;
  }

private:
  std::vector<Power> Powers;
  uint32_t Degree = 0; ///< sum of the exponents
};

/// A polynomial over atoms with coefficients in Z/2^w. All arithmetic wraps
/// to the width selected by the mask provided at construction.
class Polynomial {
public:
  /// The terms: nonzero coefficients, sorted by monomial, no monomial twice.
  using TermList = std::vector<std::pair<Monomial, uint64_t>>;

  /// Creates the zero polynomial for words selected by \p Mask.
  explicit Polynomial(uint64_t Mask) : Mask(Mask) {}

  /// The constant polynomial \p C.
  static Polynomial constant(uint64_t C, uint64_t Mask) {
    Polynomial P(Mask);
    P.addTerm(Monomial(), C);
    return P;
  }

  /// The polynomial consisting of the single atom \p Id.
  static Polynomial atom(AtomId Id, uint64_t Mask) {
    Polynomial P(Mask);
    P.addTerm(Monomial::atom(Id), 1);
    return P;
  }

  uint64_t mask() const { return Mask; }

  /// Adds \p Coeff * \p M into the polynomial, erasing the term if the
  /// coefficient cancels to zero.
  void addTerm(const Monomial &M, uint64_t Coeff);

  Polynomial operator+(const Polynomial &O) const;
  Polynomial operator-(const Polynomial &O) const;
  Polynomial operator*(const Polynomial &O) const;
  Polynomial negated() const;

  /// Multiplies every coefficient by \p C.
  Polynomial scaled(uint64_t C) const;

  bool isZero() const { return Terms.empty(); }

  /// True when every monomial has degree <= 1 (an affine combination of
  /// atoms — a *linear MBA* once atoms are bitwise expressions).
  bool isLinear() const;

  /// Total degree; 0 for constants and for the zero polynomial.
  unsigned degree() const;

  /// Number of terms with nonzero coefficient.
  size_t numTerms() const { return Terms.size(); }

  /// Constant coefficient (0 when absent).
  uint64_t constantTerm() const;

  /// Coefficient of the degree-1 monomial of \p Id (0 when absent).
  uint64_t linearCoefficient(AtomId Id) const;

  /// If the polynomial is a single constant, returns it (the zero
  /// polynomial yields 0).
  std::optional<uint64_t> asConstant() const;

  /// Term iteration in the deterministic monomial order.
  const TermList &terms() const { return Terms; }

private:
  /// This polynomial plus \p O, or minus it when \p Negate: one merge of
  /// the two sorted term lists.
  Polynomial merged(const Polynomial &O, bool Negate) const;

  uint64_t Mask;
  TermList Terms;
};

/// Upper bound on intermediate term counts during products; guards against
/// exponential blow-up when expanding deeply factored expressions. Products
/// whose result would exceed the cap return std::nullopt from tryMul.
constexpr size_t MaxPolynomialTerms = 1 << 14;

/// Computes \p A * \p B unless the result would exceed MaxPolynomialTerms.
std::optional<Polynomial> tryMul(const Polynomial &A, const Polynomial &B);

} // namespace mba

#endif // MBA_POLY_POLYNOMIAL_H
