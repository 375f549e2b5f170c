//===- mba/Signature.cpp - MBA signature vectors ----------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Signature.h"

#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"
#include "support/Bitslice.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>

using namespace mba;

std::vector<uint64_t>
mba::computeSignature(const Context &Ctx, const Expr *E,
                      std::span<const Expr *const> Vars) {
  MBA_TRACE_SPAN("mba.signature");
  static telemetry::Counter &Signatures =
      telemetry::counter("signature.computed");
  Signatures.add();
  unsigned T = (unsigned)Vars.size();
  assert(T <= 20 && "signature would be too large");
  const size_t Rows = (size_t)1 << T;
  std::vector<uint64_t> Sig(Rows);
  // 2^t corner evaluations of the same DAG, 64 per block. The compiled
  // program is cached on the context (pointer identity = structural
  // identity), so re-signaturing a DAG the simplifier already saw costs no
  // compile at all. Corner inputs are 0 or all-ones — the evaluator's
  // Uniform fast path.
  const BitslicedExpr &Compiled = Ctx.getBitsliced(E);
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  // Lane j of block Base holds corner Base+j, whose variable-I truth bit is
  // bit T-1-I of Base+j (truthBit's ordering) — O(T) mask setup per block.
  if (Rows <= bitslice::LanesPerBlock) {
    // Small tables run the original 64-lane path: the wide back ends only
    // add masked-off lanes below one block, so this also keeps tiny
    // signatures (the common 2-4 variable case) at their scalar cost.
    std::vector<uint64_t> VarMasks(MaxIndex + 1);
    for (unsigned I = 0; I != T; ++I)
      VarMasks[Vars[I]->varIndex()] = bitslice::cornerMask(T - 1 - I, 0);
    Compiled.evaluateCorners(VarMasks, (unsigned)Rows, Sig.data());
    for (size_t J = 0; J != Rows; ++J)
      Sig[J] = (0 - Sig[J]) & Ctx.mask();
    return Sig;
  }
  // Tables past one block drive the SIMD wide engine: each wide block
  // covers Words x 64 corners, with per-64-lane-word masks.
  const unsigned Words = BitslicedExpr::wideLanes() / 64;
  const size_t BlockLanes = (size_t)Words * 64;
  std::vector<uint64_t> VarMasks(((size_t)MaxIndex + 1) * Words);
  for (size_t Base = 0; Base < Rows; Base += BlockLanes) {
    unsigned NumLanes = (unsigned)std::min<size_t>(BlockLanes, Rows - Base);
    for (unsigned I = 0; I != T; ++I) {
      uint64_t *M = VarMasks.data() + (size_t)Vars[I]->varIndex() * Words;
      for (unsigned W = 0; W != Words; ++W)
        M[W] = bitslice::cornerMask(T - 1 - I, Base + 64 * W);
    }
    Compiled.evaluateCornersWide(VarMasks, NumLanes, Sig.data() + Base);
    for (unsigned J = 0; J != NumLanes; ++J)
      Sig[Base + J] = (0 - Sig[Base + J]) & Ctx.mask();
  }
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
