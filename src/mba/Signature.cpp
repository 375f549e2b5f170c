//===- mba/Signature.cpp - MBA signature vectors ----------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Signature.h"

#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"
#include "support/Bitslice.h"
#include "support/QueryLog.h"

#include <algorithm>
#include <cstring>

using namespace mba;

std::vector<uint64_t>
mba::computeSignature(const Context &Ctx, const Expr *E,
                      std::span<const Expr *const> Vars) {
  static const querylog::StageDef SignatureStage{"mba.signature", nullptr,
                                                 "signature.computed"};
  querylog::Stage Stage(SignatureStage);
  unsigned T = (unsigned)Vars.size();
  assert(T <= 20 && "signature would be too large");
  const size_t Rows = (size_t)1 << T;
  std::vector<uint64_t> Sig(Rows);
  // 2^t corner evaluations of the same DAG, one block at a time. The
  // compiled program is cached on the context (pointer identity =
  // structural identity), so re-signaturing a DAG the simplifier already
  // saw costs no compile at all. Corner inputs are 0 or all-ones — the
  // evaluator's Uniform fast path.
  const BitslicedExpr &Compiled = Ctx.getBitsliced(E);
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  // Blocks are as wide as the active back end allows. Both sizes are
  // powers of two, so every block is full. Lane j of block Base holds
  // corner Base+j, whose variable-I truth bit is bit T-1-I of Base+j
  // (truthBit's ordering) — O(T) mask setup per 64 lanes.
  const size_t BlockLanes = std::min<size_t>(Rows, BitslicedExpr::wideLanes());
  const size_t Words = (BlockLanes + 63) / 64;
  std::vector<uint64_t> VarMasks(((size_t)MaxIndex + 1) * Words);
  for (size_t Base = 0; Base < Rows; Base += BlockLanes) {
    for (unsigned I = 0; I != T; ++I) {
      uint64_t *M = VarMasks.data() + (size_t)Vars[I]->varIndex() * Words;
      for (size_t W = 0; W != Words; ++W)
        M[W] = bitslice::cornerMask(T - 1 - I, Base + 64 * W);
    }
    Compiled.evaluateCorners(VarMasks, (unsigned)BlockLanes,
                             Sig.data() + Base);
  }
  for (uint64_t &S : Sig)
    S = (0 - S) & Ctx.mask();
  return Sig;
}

std::vector<uint64_t> mba::computeSignature(const Context &Ctx, const Expr *E,
                                            std::vector<const Expr *> *VarsOut) {
  std::vector<const Expr *> Vars = collectVariables(E);
  auto Sig = computeSignature(Ctx, E, Vars);
  if (VarsOut)
    *VarsOut = std::move(Vars);
  return Sig;
}

bool mba::linearMBAEquivalent(const Context &Ctx, const Expr *E1,
                              const Expr *E2) {
  // Union of the two variable sets, name-sorted for a canonical row order.
  std::vector<const Expr *> Vars = collectVariables(E1);
  for (const Expr *V : collectVariables(E2))
    Vars.push_back(V);
  std::sort(Vars.begin(), Vars.end(), [](const Expr *A, const Expr *B) {
    return std::strcmp(A->varName(), B->varName()) < 0;
  });
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return computeSignature(Ctx, E1, Vars) == computeSignature(Ctx, E2, Vars);
}
