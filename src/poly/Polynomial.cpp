//===- poly/Polynomial.cpp - Polynomials over bitwise atoms --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "poly/Polynomial.h"

#include <algorithm>

using namespace mba;

Monomial Monomial::operator*(const Monomial &O) const {
  Monomial Result;
  const std::vector<Power> &A = Powers, &B = O.Powers;
  Result.Powers.reserve(A.size() + B.size());
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I].first < B[J].first)
      Result.Powers.push_back(A[I++]);
    else if (A[I].first > B[J].first)
      Result.Powers.push_back(B[J++]);
    else {
      Result.Powers.push_back({A[I].first, A[I].second + B[J].second});
      ++I;
      ++J;
    }
  }
  Result.Powers.insert(Result.Powers.end(), A.begin() + I, A.end());
  Result.Powers.insert(Result.Powers.end(), B.begin() + J, B.end());
  Result.Degree = Degree + O.Degree;
  return Result;
}

namespace {

/// The first term whose monomial is not below \p M.
template <class TermListT>
auto lowerBound(TermListT &Terms, const Monomial &M) {
  return std::lower_bound(
      Terms.begin(), Terms.end(), M,
      [](const auto &T, const Monomial &Key) { return T.first < Key; });
}

} // namespace

void Polynomial::addTerm(const Monomial &M, uint64_t Coeff) {
  Coeff &= Mask;
  if (!Coeff)
    return;
  auto It = lowerBound(Terms, M);
  if (It == Terms.end() || M < It->first) {
    Terms.insert(It, {M, Coeff});
    return;
  }
  It->second = (It->second + Coeff) & Mask;
  if (!It->second)
    Terms.erase(It);
}

Polynomial Polynomial::merged(const Polynomial &O, bool Negate) const {
  assert(Mask == O.Mask && "width mismatch");
  Polynomial R(Mask);
  R.Terms.reserve(Terms.size() + O.Terms.size());
  auto Other = [&](uint64_t C) { return (Negate ? 0 - C : C) & Mask; };
  size_t I = 0, J = 0;
  while (I < Terms.size() && J < O.Terms.size()) {
    const auto &[MA, CA] = Terms[I];
    const auto &[MB, CB] = O.Terms[J];
    if (MA < MB) {
      R.Terms.push_back(Terms[I++]);
    } else if (MB < MA) {
      R.Terms.push_back({MB, Other(CB)});
      ++J;
    } else {
      if (uint64_t C = (CA + Other(CB)) & Mask)
        R.Terms.push_back({MA, C});
      ++I;
      ++J;
    }
  }
  R.Terms.insert(R.Terms.end(), Terms.begin() + I, Terms.end());
  for (; J < O.Terms.size(); ++J)
    R.Terms.push_back({O.Terms[J].first, Other(O.Terms[J].second)});
  return R;
}

Polynomial Polynomial::operator+(const Polynomial &O) const {
  return merged(O, /*Negate=*/false);
}

Polynomial Polynomial::operator-(const Polynomial &O) const {
  return merged(O, /*Negate=*/true);
}

Polynomial Polynomial::operator*(const Polynomial &O) const {
  assert(Mask == O.Mask && "width mismatch");
  // Every product first, then one sort and one pass that sums the runs of
  // equal monomials and drops the sums that cancel.
  TermList Products;
  Products.reserve(Terms.size() * O.Terms.size());
  for (auto &[MA, CA] : Terms)
    for (auto &[MB, CB] : O.Terms)
      if (uint64_t C = (CA * CB) & Mask)
        Products.push_back({MA * MB, C});
  std::sort(Products.begin(), Products.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Polynomial R(Mask);
  for (size_t I = 0; I != Products.size();) {
    uint64_t C = 0;
    size_t J = I;
    for (; J != Products.size() && Products[J].first == Products[I].first; ++J)
      C += Products[J].second;
    if (C & Mask)
      R.Terms.push_back({std::move(Products[I].first), C & Mask});
    I = J;
  }
  return R;
}

Polynomial Polynomial::negated() const { return scaled(Mask); }

Polynomial Polynomial::scaled(uint64_t C) const {
  Polynomial R(Mask);
  R.Terms.reserve(Terms.size());
  for (auto &[M, Coeff] : Terms)
    if (uint64_t Scaled = (Coeff * C) & Mask)
      R.Terms.push_back({M, Scaled});
  return R;
}

bool Polynomial::isLinear() const {
  // Degree is the leading key of the term order.
  return Terms.empty() || Terms.back().first.degree() <= 1;
}

unsigned Polynomial::degree() const {
  return Terms.empty() ? 0 : Terms.back().first.degree();
}

uint64_t Polynomial::constantTerm() const {
  // The constant monomial sorts first.
  if (!Terms.empty() && Terms.front().first.isConstant())
    return Terms.front().second;
  return 0;
}

uint64_t Polynomial::linearCoefficient(AtomId Id) const {
  Monomial M = Monomial::atom(Id);
  auto It = lowerBound(Terms, M);
  return It != Terms.end() && It->first == M ? It->second : 0;
}

std::optional<uint64_t> Polynomial::asConstant() const {
  if (Terms.empty())
    return 0;
  if (Terms.size() == 1 && Terms.front().first.isConstant())
    return Terms.front().second;
  return std::nullopt;
}

std::optional<Polynomial> mba::tryMul(const Polynomial &A,
                                      const Polynomial &B) {
  if (A.numTerms() * B.numTerms() > MaxPolynomialTerms)
    return std::nullopt;
  Polynomial R = A * B;
  if (R.numTerms() > MaxPolynomialTerms)
    return std::nullopt;
  return R;
}
