//===- mba/Basis.cpp - Normalized base-vector sets --------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Basis.h"

#include "linalg/ModSolver.h"
#include "linalg/Subset.h"
#include "linalg/TruthTable.h"
#include "support/QueryLog.h"

#include <algorithm>

using namespace mba;

const Expr *mba::basisExpr(Context &Ctx, BasisKind Kind, unsigned Subset,
                           std::span<const Expr *const> Vars) {
  assert(Subset != 0 && "subset 0 is the constant -1, not an expression");
  assert(Subset < (1u << Vars.size()) && "subset index out of range");
  const Expr *Acc = nullptr;
  unsigned T = (unsigned)Vars.size();
  for (unsigned I = 0; I != T; ++I) {
    if (!truthBit(Subset, I, T))
      continue;
    const Expr *V = Vars[I];
    if (!Acc)
      Acc = V;
    else
      Acc = Kind == BasisKind::Conjunction ? Ctx.getAnd(Acc, V)
                                           : Ctx.getOr(Acc, V);
  }
  return Acc;
}

namespace {

/// Coefficients of \p Sig in the conjunction basis: Moebius inversion, since
/// the basis truth-table matrix is the subset zeta matrix.
std::vector<uint64_t> solveConjunction(std::span<const uint64_t> Sig,
                                       uint64_t Mask) {
  std::vector<uint64_t> C(Sig.begin(), Sig.end());
  subsetMoebius(C, Mask);
  return C;
}

/// Coefficients of \p Sig in the disjunction basis, by ring elimination on
/// the basis truth-table matrix (invertible: checked by construction in the
/// unit tests and asserted here).
std::vector<uint64_t> solveDisjunction(std::span<const uint64_t> Sig,
                                       unsigned T, uint64_t Mask) {
  unsigned N = 1u << T;
  SquareMatrix A;
  A.N = N;
  A.Data.assign((size_t)N * N, 0);
  for (unsigned Row = 0; Row != N; ++Row) {
    for (unsigned Col = 0; Col != N; ++Col) {
      // Column 0 is the all-ones (-1 encoded) column; column S>0 is the
      // truth column of OR over subset S: 1 iff S intersects the row's
      // true-variable set. Row bit layout equals subset bit layout.
      uint8_t Bit = Col == 0 ? 1 : ((Col & Row) != 0);
      A.at(Row, Col) = Bit;
    }
  }
  auto X = solveInvertibleMod2N(A, Sig, Mask);
  assert(X && "disjunction basis matrix must be invertible over Z/2^w");
  return *X;
}

} // namespace

BasisSolution mba::solveBasisRaw(BasisKind Kind, std::span<const uint64_t> Sig,
                                 unsigned NumVars, uint64_t Mask) {
  static const querylog::StageDef BasisStage{"mba.basis_solve", nullptr,
                                             "basis.solves"};
  querylog::Stage Stage(BasisStage);
  assert(Sig.size() == (1u << NumVars) && "signature size mismatch");
  std::vector<uint64_t> C = Kind == BasisKind::Conjunction
                                ? solveConjunction(Sig, Mask)
                                : solveDisjunction(Sig, NumVars, Mask);

  BasisSolution Solution;
  Solution.Kind = Kind;
  // Subset 0 is the constant -1 with coefficient C[0]; fold the sign into
  // the combination's constant term.
  Solution.Constant = (0 - C[0]) & Mask;
  // Emit singletons first, then pairs, etc.; within one size, descending
  // subset index puts earlier-named variables first (variable i occupies
  // bit t-1-i), so the printed form reads x + y + (x&y) + ...
  std::vector<unsigned> Order;
  for (unsigned S = 1; S != (1u << NumVars); ++S)
    if (C[S])
      Order.push_back(S);
  std::sort(Order.begin(), Order.end(), [](unsigned A, unsigned B) {
    unsigned PA = (unsigned)__builtin_popcount(A);
    unsigned PB = (unsigned)__builtin_popcount(B);
    if (PA != PB)
      return PA < PB;
    return A > B;
  });
  for (unsigned S : Order)
    Solution.Terms.push_back({S, C[S]});
  return Solution;
}

LinearCombo mba::comboFromSolution(Context &Ctx, const BasisSolution &Solution,
                                   std::span<const Expr *const> Vars) {
  LinearCombo Combo;
  Combo.Constant = Solution.Constant;
  Combo.Terms.reserve(Solution.Terms.size());
  for (const auto &[Subset, Coeff] : Solution.Terms)
    Combo.Terms.push_back(
        {Coeff, basisExpr(Ctx, Solution.Kind, Subset, Vars)});
  return Combo;
}

LinearCombo mba::solveBasis(Context &Ctx, BasisKind Kind,
                            std::span<const uint64_t> Sig,
                            std::span<const Expr *const> Vars) {
  return comboFromSolution(
      Ctx, solveBasisRaw(Kind, Sig, (unsigned)Vars.size(), Ctx.mask()), Vars);
}

//===----------------------------------------------------------------------===//
// BasisCache snapshot codec
//===----------------------------------------------------------------------===//
//
// Payload: u8 kind, u64 constant, u32 term count, then (u32 subset,
// u64 coefficient) per term, in emission order.

void BasisCache::save(SnapshotWriter &W) const {
  saveCacheSection(W, SectionName, Cache,
                   [](const BasisSolution &S, std::vector<uint8_t> &Out) {
                     putU8(Out, (uint8_t)S.Kind);
                     putU64(Out, S.Constant);
                     putU32(Out, (uint32_t)S.Terms.size());
                     for (const auto &[Subset, Coeff] : S.Terms) {
                       putU32(Out, Subset);
                       putU64(Out, Coeff);
                     }
                   });
}

size_t BasisCache::loadSection(SnapshotReader &R, uint64_t Count) {
  return loadCacheSection(
      R, Count, Cache,
      [](const std::vector<uint8_t> &Buf) -> std::optional<BasisSolution> {
        ByteCursor Cur(Buf);
        BasisSolution S;
        uint8_t Kind = Cur.u8();
        if (Kind > (uint8_t)BasisKind::Disjunction)
          return std::nullopt;
        S.Kind = (BasisKind)Kind;
        S.Constant = Cur.u64();
        uint32_t NumTerms = Cur.u32();
        if (Cur.failed() || NumTerms > (1u << 20))
          return std::nullopt;
        S.Terms.reserve(NumTerms);
        for (uint32_t I = 0; I != NumTerms; ++I) {
          unsigned Subset = Cur.u32();
          uint64_t Coeff = Cur.u64();
          S.Terms.push_back({Subset, Coeff});
        }
        if (Cur.failed() || !Cur.atEnd())
          return std::nullopt;
        return S;
      });
}
