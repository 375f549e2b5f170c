//===- tests/bitslice_test.cpp - Bitsliced kernel and evaluator tests -----===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Pins the transposed (bitsliced) evaluation path to the scalar evaluator:
/// every back end's slice kernels against per-lane arithmetic, the transpose
/// against a naive bit-by-bit version, and BitslicedExpr against evaluate()
/// over random DAGs at odd widths and lane counts that are not multiples of
/// 64, under every back end.
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

#include <algorithm>
#include <array>
#include <span>
#include <string>
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

// The slice-space kernels below run on every back end's WideKernels table
// (the interpreter's only kernels), at every width 1..64 with seeded random
// lanes: WideIsaAgreement.* is exhaustive only up to width 8. kernelsFor
// and forceIsa clamp a back end the CPU lacks to the best one it has.
const bs::Isa AllIsas[] = {bs::Isa::Scalar, bs::Isa::Avx2, bs::Isa::Avx512};

TEST(Bitslice, LaneSliceRoundTrip) {
  RNG Rng(2);
  for (bs::Isa I : AllIsas) {
    const bs::WideKernels &K = bs::kernelsFor(I);
    const char *IsaName = bs::isaName(K.IsaTag);
    const unsigned Lanes = K.Words * 64;
    for (unsigned Width = 1; Width <= 64; ++Width) {
      for (unsigned NumLanes : {1u, 13u, 63u, 64u, 65u, 200u, Lanes}) {
        if (NumLanes > Lanes)
          continue;
        std::vector<uint64_t> In(NumLanes);
        for (uint64_t &L : In)
          L = Rng.next() & maskOf(Width);
        std::vector<uint64_t> Slices(Width * K.Words);
        K.LanesToSlices(In.data(), NumLanes, Width, Slices.data());
        // Bit j of word w of slice b is bit b of lane 64*w + j; lanes past
        // NumLanes read as 0.
        for (unsigned B = 0; B != Width; ++B)
          for (unsigned J = 0; J != Lanes; ++J)
            ASSERT_EQ((Slices[B * K.Words + J / 64] >> (J % 64)) & 1,
                      J < NumLanes ? (In[J] >> B) & 1 : 0)
                << IsaName << " width " << Width << " lane " << J;
        std::vector<uint64_t> Back(NumLanes);
        K.SlicesToLanes(Slices.data(), Width, NumLanes, Back.data());
        EXPECT_EQ(Back, In) << IsaName << " width " << Width
                            << " lanes " << NumLanes;
      }
    }
  }
}

TEST(Bitslice, ArithmeticKernelsMatchScalar) {
  RNG Rng(3);
  for (bs::Isa I : AllIsas) {
    const bs::WideKernels &K = bs::kernelsFor(I);
    const char *IsaName = bs::isaName(K.IsaTag);
    const unsigned Lanes = K.Words * 64;
    for (unsigned Width = 1; Width <= 64; ++Width) {
      const uint64_t Mask = maskOf(Width);
      std::vector<uint64_t> A(Lanes), B(Lanes), Out(Lanes);
      for (unsigned J = 0; J != Lanes; ++J) {
        A[J] = Rng.next() & Mask;
        B[J] = Rng.next() & Mask;
      }
      const size_t Words = (size_t)Width * K.Words;
      std::vector<uint64_t> SA(Words), SB(Words), SOut(Words);
      K.LanesToSlices(A.data(), Lanes, Width, SA.data());
      K.LanesToSlices(B.data(), Lanes, Width, SB.data());

      auto Check = [&](const char *Name, auto Scalar) {
        K.SlicesToLanes(SOut.data(), Width, Lanes, Out.data());
        for (unsigned J = 0; J != Lanes; ++J)
          ASSERT_EQ(Out[J], Scalar(A[J], B[J]) & Mask)
              << IsaName << " " << Name << " lane " << J << " width "
              << Width;
      };

      K.SliceAnd(Width, SA.data(), SB.data(), SOut.data());
      Check("and", [](uint64_t X, uint64_t Y) { return X & Y; });
      K.SliceOr(Width, SA.data(), SB.data(), SOut.data());
      Check("or", [](uint64_t X, uint64_t Y) { return X | Y; });
      K.SliceXor(Width, SA.data(), SB.data(), SOut.data());
      Check("xor", [](uint64_t X, uint64_t Y) { return X ^ Y; });
      K.SliceNot(Width, SA.data(), SOut.data());
      Check("not", [](uint64_t X, uint64_t) { return ~X; });
      K.SliceAdd(Width, SA.data(), SB.data(), SOut.data());
      Check("add", [](uint64_t X, uint64_t Y) { return X + Y; });
      K.SliceSub(Width, SA.data(), SB.data(), SOut.data());
      Check("sub", [](uint64_t X, uint64_t Y) { return X - Y; });
      K.SliceNeg(Width, SA.data(), SOut.data());
      Check("neg", [](uint64_t X, uint64_t) { return 0 - X; });
      // The slice-space multiplier takes only the widths the interpreter
      // keeps sliced.
      if (Width <= bs::kSchoolbookMulMaxWidth) {
        K.SliceMul(Width, SA.data(), SB.data(), SOut.data());
        Check("mul", [](uint64_t X, uint64_t Y) { return X * Y; });
      }

      // Aliased forms: Out == A.
      SOut = SA;
      K.SliceAdd(Width, SOut.data(), SB.data(), SOut.data());
      Check("add-aliased", [](uint64_t X, uint64_t Y) { return X + Y; });
      SOut = SA;
      K.SliceSub(Width, SOut.data(), SB.data(), SOut.data());
      Check("sub-aliased", [](uint64_t X, uint64_t Y) { return X - Y; });
    }
  }
}

TEST(Bitslice, BroadcastMatchesConstant) {
  RNG Rng(4);
  for (bs::Isa I : AllIsas) {
    const bs::WideKernels &K = bs::kernelsFor(I);
    const char *IsaName = bs::isaName(K.IsaTag);
    const unsigned Lanes = K.Words * 64;
    for (unsigned Width = 1; Width <= 64; ++Width) {
      const uint64_t Value = Rng.next() & maskOf(Width);
      std::vector<uint64_t> Slices(Width * K.Words), Out(Lanes);
      K.SliceBroadcast(Width, Value, Slices.data());
      K.SlicesToLanes(Slices.data(), Width, Lanes, Out.data());
      for (uint64_t L : Out)
        ASSERT_EQ(L, Value) << IsaName << " width " << Width;
    }
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

/// RAII dispatch override so a failing assertion cannot leak a forced ISA
/// into later tests.
struct ForcedIsa {
  explicit ForcedIsa(bs::Isa I) { bs::forceIsa(I); }
  ~ForcedIsa() { bs::clearForcedIsa(); }
};

// Blocks on both sides of every block boundary, under every back end
// (forced, clamped to what the CPU runs), against the plain Evaluator:
// corners at 1-8 variables (2-256 lanes, across the 64-lane word and the
// scalar table's block size) and point batches around the 64- and 512-lane
// block sizes, at widths on both sides of the sliced/lane-space split.
TEST(BitslicedEval, BlockBoundariesMatchEvaluatorUnderEveryIsa) {
  for (bs::Isa I : AllIsas) {
    ForcedIsa Forced(I);
    const char *IsaName = bs::isaName(bs::activeIsa());
    RNG Rng(0xB10C);
    for (unsigned Width : {8u, 64u}) {
      Context Ctx(Width);
      std::vector<const Expr *> Vars;
      for (unsigned V = 0; V != 8; ++V)
        Vars.push_back(Ctx.getVar(std::string(1, (char)('a' + V)).c_str()));
      for (unsigned T = 1; T <= 8; ++T) {
        std::vector<const Expr *> Sub(Vars.begin(), Vars.begin() + T);
        const size_t Rows = size_t(1) << T;
        const size_t BlockLanes =
            std::min<size_t>(Rows, BitslicedExpr::wideLanes());
        const size_t Words = (BlockLanes + 63) / 64;
        for (unsigned Trial = 0; Trial != 4; ++Trial) {
          const Expr *E = randomExpr(Ctx, Rng, Sub, 3);
          // Corner k sets variable V to all-ones iff bit V of k is set.
          std::vector<uint64_t> Masks(Vars.size() * Words), Out(Rows);
          for (size_t Base = 0; Base < Rows; Base += BlockLanes) {
            for (unsigned V = 0; V != T; ++V)
              for (size_t W = 0; W != Words; ++W)
                Masks[Sub[V]->varIndex() * Words + W] =
                    bs::cornerMask(V, Base + 64 * W);
            Ctx.getBitsliced(E).evaluateCorners(Masks, (unsigned)BlockLanes,
                                                Out.data() + Base);
          }
          std::vector<uint64_t> Vals(Ctx.numVars(), 0);
          for (size_t K = 0; K != Rows; ++K) {
            for (unsigned V = 0; V != T; ++V)
              Vals[Sub[V]->varIndex()] = (K >> V & 1) ? Ctx.mask() : 0;
            ASSERT_EQ(Out[K], evaluate(Ctx, E, Vals))
                << IsaName << " width " << Width << " t " << T
                << " corner " << K;
          }
          ASSERT_EQ(computeSignature(Ctx, E, Sub),
                    signatureByEvaluator(Ctx, E, Sub))
              << IsaName << " width " << Width << " t " << T;
        }
      }
    }
    for (unsigned Width : {3u, 16u, 17u, 64u}) {
      Context Ctx(Width);
      std::vector<const Expr *> Vars = {Ctx.getVar("x"), Ctx.getVar("y"),
                                        Ctx.getVar("z")};
      for (unsigned Trial = 0; Trial != 4; ++Trial) {
        const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(3));
        for (size_t N : {1, 63, 64, 65, 511, 512, 513}) {
          std::vector<std::vector<uint64_t>> Inputs(Vars.size());
          std::vector<const uint64_t *> Ptrs;
          for (auto &Col : Inputs) {
            Col.resize(N);
            for (uint64_t &V : Col)
              V = Rng.next();
            Ptrs.push_back(Col.data());
          }
          std::vector<uint64_t> Got =
              Ctx.getBitsliced(E).evaluatePoints(Ptrs, N);
          for (size_t P = 0; P != N; ++P) {
            std::vector<uint64_t> Vals = {Inputs[0][P], Inputs[1][P],
                                          Inputs[2][P]};
            ASSERT_EQ(Got[P], evaluate(Ctx, E, Vals))
                << IsaName << " width " << Width << " points " << N
                << " point " << P;
          }
        }
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
