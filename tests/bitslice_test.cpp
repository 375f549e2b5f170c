//===- tests/bitslice_test.cpp - Bitsliced kernel and evaluator tests -----===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Pins the transposed (bitsliced) evaluation path to the scalar evaluator:
/// word kernels against per-lane arithmetic, the transpose against a naive
/// bit-by-bit version, and BitslicedExpr against evaluate() over random DAGs
/// at odd widths and lane counts that are not multiples of 64.
///
//===----------------------------------------------------------------------===//

#include "ast/BitslicedEval.h"
#include "ast/Evaluator.h"
#include "ast/Parser.h"
#include "linalg/TruthTable.h"
#include "mba/Signature.h"
#include "support/Bitslice.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

using namespace mba;
namespace bs = mba::bitslice;

namespace {

uint64_t maskOf(unsigned Width) {
  return Width == 64 ? ~0ULL : ((1ULL << Width) - 1);
}

//===----------------------------------------------------------------------===//
// Word kernels
//===----------------------------------------------------------------------===//

TEST(Bitslice, TransposeMatchesNaive) {
  RNG Rng(1);
  std::array<uint64_t, 64> M, Ref;
  for (uint64_t &W : M)
    W = Rng.next();
  for (unsigned I = 0; I != 64; ++I) {
    Ref[I] = 0;
    for (unsigned J = 0; J != 64; ++J)
      Ref[I] |= ((M[J] >> I) & 1) << J;
  }
  bs::transpose64(M.data());
  EXPECT_EQ(M, Ref);
  // Involution: transposing twice restores the original.
  std::array<uint64_t, 64> Twice = M;
  bs::transpose64(Twice.data());
  bs::transpose64(Twice.data());
  EXPECT_EQ(Twice, M);
}

TEST(Bitslice, LaneSliceRoundTrip) {
  RNG Rng(2);
  for (unsigned Width : {1u, 7u, 32u, 64u}) {
    for (unsigned NumLanes : {1u, 13u, 64u}) {
      std::vector<uint64_t> Lanes(NumLanes);
      for (uint64_t &L : Lanes)
        L = Rng.next() & maskOf(Width);
      std::vector<uint64_t> Slices(Width);
      bs::lanesToSlices(Lanes.data(), NumLanes, Width, Slices.data());
      // Slice b, bit j must be bit b of lane j.
      for (unsigned B = 0; B != Width; ++B)
        for (unsigned J = 0; J != NumLanes; ++J)
          EXPECT_EQ((Slices[B] >> J) & 1, (Lanes[J] >> B) & 1);
      std::vector<uint64_t> Back(NumLanes);
      bs::slicesToLanes(Slices.data(), Width, NumLanes, Back.data());
      EXPECT_EQ(Back, Lanes) << "width " << Width << " lanes " << NumLanes;
    }
  }
}

TEST(Bitslice, ArithmeticKernelsMatchScalar) {
  RNG Rng(3);
  for (unsigned Width : {1u, 2u, 7u, 8u, 16u, 17u, 31u, 33u, 64u}) {
    const uint64_t Mask = maskOf(Width);
    std::vector<uint64_t> A(64), B(64);
    for (unsigned I = 0; I != 64; ++I) {
      A[I] = Rng.next() & Mask;
      B[I] = Rng.next() & Mask;
    }
    std::vector<uint64_t> SA(Width), SB(Width), SOut(Width), Lanes(64);
    bs::lanesToSlices(A.data(), 64, Width, SA.data());
    bs::lanesToSlices(B.data(), 64, Width, SB.data());

    auto check = [&](const char *Name, auto Scalar) {
      bs::slicesToLanes(SOut.data(), Width, 64, Lanes.data());
      for (unsigned I = 0; I != 64; ++I)
        ASSERT_EQ(Lanes[I], Scalar(A[I], B[I]) & Mask)
            << Name << " lane " << I << " width " << Width;
    };

    bs::sliceAdd(Width, SA.data(), SB.data(), SOut.data());
    check("add", [](uint64_t X, uint64_t Y) { return X + Y; });
    bs::sliceSub(Width, SA.data(), SB.data(), SOut.data());
    check("sub", [](uint64_t X, uint64_t Y) { return X - Y; });
    bs::sliceMul(Width, SA.data(), SB.data(), SOut.data());
    check("mul", [](uint64_t X, uint64_t Y) { return X * Y; });
    bs::sliceNeg(Width, SA.data(), SOut.data());
    check("neg", [](uint64_t X, uint64_t) { return 0 - X; });

    // Aliased forms: Out == A.
    std::vector<uint64_t> SA2 = SA;
    bs::sliceAdd(Width, SA2.data(), SB.data(), SA2.data());
    SOut = SA2;
    check("add-aliased", [](uint64_t X, uint64_t Y) { return X + Y; });
    SA2 = SA;
    bs::sliceSub(Width, SA2.data(), SB.data(), SA2.data());
    SOut = SA2;
    check("sub-aliased", [](uint64_t X, uint64_t Y) { return X - Y; });
  }
}

TEST(Bitslice, BroadcastMatchesConstant) {
  for (unsigned Width : {1u, 8u, 64u}) {
    const uint64_t Value = 0xDEADBEEFCAFEF00DULL & maskOf(Width);
    std::vector<uint64_t> Slices(Width), Lanes(64);
    bs::sliceBroadcast(Width, Value, Slices.data());
    bs::slicesToLanes(Slices.data(), Width, 64, Lanes.data());
    for (uint64_t L : Lanes)
      EXPECT_EQ(L, Value);
  }
}

//===----------------------------------------------------------------------===//
// BitslicedExpr vs. the scalar evaluator
//===----------------------------------------------------------------------===//

const Expr *randomExpr(Context &Ctx, RNG &Rng,
                       const std::vector<const Expr *> &Vars, unsigned Depth) {
  if (Depth == 0) {
    if (Rng.below(3) == 0)
      return Ctx.getConst(Rng.next());
    return Vars[Rng.below(Vars.size())];
  }
  switch (Rng.below(8)) {
  case 0:
    return Ctx.getNot(randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 1:
    return Ctx.getNeg(randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 2:
    return Ctx.getAdd(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 3:
    return Ctx.getSub(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 4:
    return Ctx.getMul(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 5:
    return Ctx.getAnd(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 6:
    return Ctx.getOr(randomExpr(Ctx, Rng, Vars, Depth - 1),
                     randomExpr(Ctx, Rng, Vars, Depth - 1));
  default:
    return Ctx.getXor(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  }
}

TEST(BitslicedEval, FuzzAgreementWithScalar) {
  RNG Rng(0xB175);
  for (unsigned Width : {1u, 2u, 7u, 8u, 16u, 31u, 32u, 63u, 64u}) {
    Context Ctx(Width);
    std::vector<const Expr *> Vars = {Ctx.getVar("x"), Ctx.getVar("y"),
                                      Ctx.getVar("z")};
    for (unsigned Trial = 0; Trial != 40; ++Trial) {
      const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(4));
      BitslicedExpr BE(Ctx, E);
      // Lane counts straddling and not dividing the 64-point block size.
      for (size_t NumPoints : {(size_t)1, (size_t)13, (size_t)64, (size_t)65,
                               (size_t)100, (size_t)133}) {
        std::vector<std::vector<uint64_t>> Inputs(Vars.size());
        for (auto &Col : Inputs) {
          Col.resize(NumPoints);
          for (uint64_t &V : Col)
            V = Rng.next();
        }
        std::vector<const uint64_t *> Ptrs;
        for (auto &Col : Inputs)
          Ptrs.push_back(Col.data());
        std::vector<uint64_t> Got = BE.evaluatePoints(Ptrs, NumPoints);
        ASSERT_EQ(Got.size(), NumPoints);
        for (size_t P = 0; P != NumPoints; ++P) {
          std::vector<uint64_t> Vals = {Inputs[0][P], Inputs[1][P],
                                        Inputs[2][P]};
          ASSERT_EQ(Got[P], evaluate(Ctx, E, Vals))
              << "width " << Width << " point " << P;
        }
      }
    }
  }
}

TEST(BitslicedEval, CornerModeMatchesScalarCornerLoop) {
  RNG Rng(0xC0121E2);
  for (unsigned Width : {1u, 8u, 32u, 64u}) {
    Context Ctx(Width);
    const uint64_t Mask = maskOf(Width);
    std::vector<const Expr *> Vars = {Ctx.getVar("x"), Ctx.getVar("y"),
                                      Ctx.getVar("z")};
    for (unsigned Trial = 0; Trial != 20; ++Trial) {
      const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(3));
      BitslicedExpr BE(Ctx, E);
      // All 8 corners of the 3-variable truth table in one partial block.
      std::vector<uint64_t> VarMasks(Vars.size(), 0);
      for (unsigned Corner = 0; Corner != 8; ++Corner)
        for (unsigned V = 0; V != 3; ++V)
          if ((Corner >> V) & 1)
            VarMasks[V] |= 1ULL << Corner;
      uint64_t Out[8];
      BE.evaluateCorners(VarMasks, 8, Out);
      for (unsigned Corner = 0; Corner != 8; ++Corner) {
        std::vector<uint64_t> Vals(3);
        for (unsigned V = 0; V != 3; ++V)
          Vals[V] = ((Corner >> V) & 1) ? Mask : 0;
        ASSERT_EQ(Out[Corner], evaluate(Ctx, E, Vals))
            << "width " << Width << " corner " << Corner;
      }
    }
  }
}

TEST(BitslicedEval, MissingVariablesReadZero) {
  Context Ctx(32);
  const Expr *E = parseOrDie(Ctx, "x + (y & z)");
  BitslicedExpr BE(Ctx, E);
  // Only x is supplied; y and z (dense indices 1 and 2) must read 0.
  std::vector<uint64_t> X = {5, 6, 7};
  std::vector<const uint64_t *> Ptrs = {X.data()};
  std::vector<uint64_t> Got = BE.evaluatePoints(Ptrs, 3);
  EXPECT_EQ(Got, (std::vector<uint64_t>{5, 6, 7}));
  // Same for corner mode: empty mask span means every variable is 0.
  uint64_t Out[4];
  BE.evaluateCorners({}, 4, Out);
  for (uint64_t V : Out)
    EXPECT_EQ(V, 0u);
}

TEST(BitslicedEval, SharedSubtreesCompileOnce) {
  Context Ctx(64);
  const Expr *Shared = parseOrDie(Ctx, "x*y + 1");
  const Expr *E = Ctx.getAdd(Shared, Ctx.getMul(Shared, Shared));
  BitslicedExpr BE(Ctx, E);
  // Nodes: x, y, x*y, 1, x*y+1 (shared), shared*shared, outer add = 7.
  EXPECT_EQ(BE.size(), 7u);
}

TEST(BitslicedEval, RepeatedEvaluationIsConsistent) {
  // Programs borrow the context's evaluation scratch; one compiled per
  // candidate and interleaved with another (the Syntia oracle's pattern)
  // must not see each other's state.
  Context Ctx(64);
  BitslicedExpr Square(Ctx, parseOrDie(Ctx, "x*x - 2*x + 1"));
  std::vector<uint64_t> X = {5, 0, 1};
  const uint64_t *Ptrs[] = {X.data()};
  for (int I = 0; I < 10; ++I) {
    BitslicedExpr Other(Ctx, parseOrDie(Ctx, "~x ^ (x + 7)"));
    (void)Other.evaluatePoints(Ptrs, 3);
    EXPECT_EQ(Square.evaluatePoints(Ptrs, 3),
              (std::vector<uint64_t>{16, 1, 0}));
  }
}

/// The reference signature: one corner at a time through the plain
/// Evaluator, negated and masked (row k is -E(corner_k)).
std::vector<uint64_t> signatureByEvaluator(const Context &Ctx, const Expr *E,
                                           std::span<const Expr *const> Vars) {
  unsigned T = (unsigned)Vars.size();
  std::vector<uint64_t> Sig(size_t(1) << T);
  std::vector<uint64_t> Assignment(Ctx.numVars(), 0);
  for (size_t Row = 0; Row != Sig.size(); ++Row) {
    for (unsigned I = 0; I != T; ++I)
      Assignment[Vars[I]->varIndex()] =
          truthBit((unsigned)Row, I, T) ? Ctx.mask() : 0;
    Sig[Row] = (0 - evaluate(Ctx, E, Assignment)) & Ctx.mask();
  }
  return Sig;
}

TEST(BitslicedEval, SignaturePathsAgree) {
  // The production computeSignature runs corners through the bitsliced
  // evaluator; pin it to the plain Evaluator across variable counts that
  // exercise partial (t <= 6) and multi-block (t = 7, 8) corner batches.
  RNG Rng(0x51619);
  for (unsigned Width : {8u, 64u}) {
    Context Ctx(Width);
    std::vector<const Expr *> Vars;
    for (unsigned V = 0; V != 8; ++V)
      Vars.push_back(Ctx.getVar(std::string(1, (char)('a' + V)).c_str()));
    for (unsigned T : {1u, 2u, 3u, 6u, 7u, 8u}) {
      std::vector<const Expr *> Sub(Vars.begin(), Vars.begin() + T);
      for (unsigned Trial = 0; Trial != 8; ++Trial) {
        const Expr *E = randomExpr(Ctx, Rng, Sub, 3);
        ASSERT_EQ(computeSignature(Ctx, E, Sub),
                  signatureByEvaluator(Ctx, E, Sub))
            << "width " << Width << " t " << T;
      }
    }
  }
}

TEST(BitslicedEval, ConstantExpression) {
  Context Ctx(16);
  const Expr *E = parseOrDie(Ctx, "3 * 5 + ~0");
  BitslicedExpr BE(Ctx, E);
  std::vector<uint64_t> Got = BE.evaluatePoints({}, 70);
  std::vector<uint64_t> Vals;
  for (uint64_t V : Got)
    EXPECT_EQ(V, evaluate(Ctx, E, Vals));
}

} // namespace
