//===- analysis/KnownBits.cpp - Known-bits dataflow analysis --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/KnownBits.h"

#include "analysis/AbstractInterp.h"
#include "ast/ExprUtils.h"

using namespace mba;

KnownBits
mba::computeKnownBits(const Context &Ctx, const Expr *E,
                      NodeMap<KnownBits> &Memo) {
  KnownBitsDomain D(Ctx.mask());
  return computeAbstract(D, E, Memo);
}

KnownBits mba::computeKnownBits(const Context &Ctx, const Expr *E) {
  NodeMap<KnownBits> Memo;
  return computeKnownBits(Ctx, E, Memo);
}

const Expr *mba::foldKnownBits(Context &Ctx, const Expr *E) {
  NodeMap<KnownBits> Memo;
  computeKnownBits(Ctx, E, Memo);
  uint64_t Mask = Ctx.mask();
  return rewriteBottomUp(Ctx, E, [&](const Expr *N) -> const Expr * {
    if (N->isLeaf())
      return N;
    // Note: rebuilt nodes may be absent from the memo (their operands were
    // folded); analyze on demand.
    KnownBits K = computeKnownBits(Ctx, N, Memo);
    if (K.isConstant(Mask))
      return Ctx.getConst(K.One);
    return N;
  });
}
