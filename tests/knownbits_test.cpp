//===- tests/knownbits_test.cpp - Known-bits analysis tests ---------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/KnownBits.h"

#include "analysis/AbstractInterp.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "mba/Simplifier.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

TEST(KnownBitsTest, ConstantsAreFullyKnown) {
  Context Ctx(8);
  KnownBits K = computeKnownBits(Ctx, Ctx.getConst(0b1010));
  EXPECT_EQ(K.One, 0b1010u);
  EXPECT_EQ(K.Zero, 0xf5u);
  EXPECT_TRUE(K.isConstant(Ctx.mask()));
}

TEST(KnownBitsTest, VariablesAreUnknown) {
  Context Ctx(64);
  KnownBits K = computeKnownBits(Ctx, Ctx.getVar("x"));
  EXPECT_EQ(K.knownMask(), 0u);
}

TEST(KnownBitsTest, BitwiseTransfer) {
  Context Ctx(8);
  // x & 0x0f: the high nibble is known zero.
  KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "x & 15"));
  EXPECT_EQ(K.Zero, 0xf0u);
  EXPECT_EQ(K.One, 0u);
  // x | 0xf0: the high nibble is known one.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x | 240"));
  EXPECT_EQ(K.One, 0xf0u);
  // (x|240) ^ (x|240): everything cancels... via Xor transfer only the
  // known-agreeing bits are known; identical subtrees share a node, so
  // their knowledge aligns on the 0xf0 window.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x|240) ^ (x|240)"));
  EXPECT_EQ(K.Zero & 0xf0u, 0xf0u);
  // ~(x & 15): complement of a known-zero window is known one.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "~(x & 15)"));
  EXPECT_EQ(K.One, 0xf0u);
}

TEST(KnownBitsTest, ArithmeticTrailingWindows) {
  Context Ctx(8);
  // (x & 240) + 3: the low 4 bits are known (0 + 3 = 3).
  KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x & 240) + 3"));
  EXPECT_EQ(K.One & 0x0fu, 3u);
  EXPECT_EQ(K.Zero & 0x0fu, 0x0cu);
  // (x & 240) - 1: low nibble borrows to all-ones.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x & 240) - 1"));
  EXPECT_EQ(K.One & 0x0fu, 0x0fu);
  // x * 2 clears bit 0; x * 4 clears two bits.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x * 2"));
  EXPECT_EQ(K.Zero & 1u, 1u);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x * 4"));
  EXPECT_EQ(K.Zero & 3u, 3u);
  // -(x*2) is still even.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "-(x * 2)"));
  EXPECT_EQ(K.Zero & 1u, 1u);
}

TEST(KnownBitsTest, SoundnessOnRandomExpressions) {
  // Property: claimed known bits agree with concrete evaluation.
  Context Ctx(16);
  RNG Rng(404);
  const char *Samples[] = {
      "(x & 255) * (y & 255)",
      "((x | 61440) + y) & 4095",
      "~(x * 8) | (y & 7)",
      "(x & 240) + (y & 240)",
      "(x ^ y) & (x ^ y) & 15",
      "x - (x & 3) + 3",
  };
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    KnownBits K = computeKnownBits(Ctx, E);
    for (int I = 0; I < 300; ++I) {
      uint64_t Vals[] = {Rng.next() & Ctx.mask(), Rng.next() & Ctx.mask()};
      uint64_t V = evaluate(Ctx, E, Vals);
      ASSERT_EQ(V & K.Zero, 0u) << S << " value " << V;
      ASSERT_EQ(V & K.One, K.One) << S << " value " << V;
    }
  }
}

TEST(KnownBitsTest, FoldsFullyKnownSubtrees) {
  Context Ctx(64);
  // (x*2) & 1 == 0: multiplication by two clears the tested bit.
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x*2) & 1"))),
            "0");
  // (x | 1) & 1 == 1.
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x | 1) & 1"))),
            "1");
  // (x & 6) & 9 == 0 (disjoint masks).
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x & 6) & 9"))),
            "0");
  // Nothing folds when bits stay unknown.
  const Expr *E = parseOrDie(Ctx, "x & 3");
  EXPECT_EQ(foldKnownBits(Ctx, E), E);
}

TEST(KnownBitsTest, SimplifierUsesTheFoldingPrePass) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  // The fold exposes a pure MBA expression underneath.
  const Expr *E = parseOrDie(Ctx, "((x*2) & 1) + (x|y) + (x&y) - y");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(E)), "x");
  // Disabled, the masked term survives (soundness unchanged).
  SimplifyOptions Opts;
  Opts.EnableKnownBits = false;
  MBASolver Plain(Ctx, Opts);
  const Expr *R = Plain.simplify(E);
  RNG Rng(11);
  for (int I = 0; I < 50; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next()};
    EXPECT_EQ(evaluate(Ctx, R, Vals), evaluate(Ctx, E, Vals));
  }
}

TEST(KnownBitsTest, WorksAtAllWidths) {
  // (Known-bits is per-node dataflow: it cannot see relational facts like
  // x ^ ~x == -1; those belong to the signature machinery.)
  for (unsigned W : {1u, 2u, 7u, 32u, 64u}) {
    Context Ctx(W);
    KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "x & 0"));
    EXPECT_EQ(K.Zero, Ctx.mask()) << "width " << W;
    K = computeKnownBits(Ctx, parseOrDie(Ctx, "x | -1"));
    EXPECT_EQ(K.One, Ctx.mask()) << "width " << W;
    K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x & 0) + 1"));
    EXPECT_TRUE(K.isConstant(Ctx.mask())) << "width " << W;
    EXPECT_EQ(K.One, 1u) << "width " << W;
  }
}

TEST(KnownBitsTest, Width64MaskBoundaries) {
  // Transfer functions must stay exact at the full 64-bit width, where
  // mask arithmetic is most prone to shift/overflow slips.
  Context Ctx(64);
  const uint64_t High = 0x8000000000000000ull;
  KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "x | 9223372036854775808"));
  EXPECT_EQ(K.One, High);
  EXPECT_EQ(K.Zero, 0u);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x & 9223372036854775808"));
  EXPECT_EQ(K.Zero, ~High);
  // Adding two values with 63 known-zero low bits: the trailing window
  // covers bits 0..62 of the sum, and carries cannot reach it.
  K = computeKnownBits(
      Ctx, parseOrDie(Ctx, "(x & 9223372036854775808) + "
                           "(y & 9223372036854775808)"));
  EXPECT_EQ(K.Zero & ~High, ~High);
  // All-ones constants survive the boundary.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x | -1"));
  EXPECT_TRUE(K.isConstant(Ctx.mask()));
  EXPECT_EQ(K.One, ~0ull);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x & 0) - 1"));
  EXPECT_TRUE(K.isConstant(Ctx.mask()));
  EXPECT_EQ(K.One, ~0ull);
  // Folding at the boundary: ~x | x is not foldable by known-bits (it is
  // a relational fact), but (x*2) & 1 is, even at width 64.
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x*2) & 1"))),
            "0");
}

TEST(KnownBitsTest, MultiplicationByEvenConstants) {
  Context Ctx(32);
  // Trailing zeros of the factors accumulate: 6 = 2*3, 12 = 4*3, 40 = 8*5.
  KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "x * 6"));
  EXPECT_EQ(K.Zero & 1u, 1u);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x * 12"));
  EXPECT_EQ(K.Zero & 3u, 3u);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "x * 40"));
  EXPECT_EQ(K.Zero & 7u, 7u);
  // Factors compound across a product tree: (x*2) * (y*4) has 3 trailing
  // zeros even though neither factor alone has more than 2.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x*2) * (y*4)"));
  EXPECT_EQ(K.Zero & 7u, 7u);
  // An odd factor contributes nothing but must not destroy the evenness.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "(x*2) * 3"));
  EXPECT_EQ(K.Zero & 1u, 1u);
  // Folds that hinge on even multiplication.
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x*6) & 1"))),
            "0");
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(Ctx, parseOrDie(Ctx, "(x*12) & 3"))),
            "0");
}

TEST(KnownBitsTest, NotInteractsWithKnownOneBits) {
  Context Ctx(8);
  // ~ swaps the roles of Zero and One exactly.
  KnownBits K = computeKnownBits(Ctx, parseOrDie(Ctx, "~(x | 240)"));
  EXPECT_EQ(K.Zero, 240u);
  EXPECT_EQ(K.One, 0u);
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "~(x | 1)"));
  EXPECT_EQ(K.Zero & 1u, 1u);
  // Double negation restores the original knowledge.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "~~(x | 240)"));
  EXPECT_EQ(K.One, 240u);
  // -(x|1) = ~(x|1) + 1: the known-one low bit flips to known-zero under
  // ~, then the +1 carries through the known window to a known one.
  K = computeKnownBits(Ctx, parseOrDie(Ctx, "-(x | 1)"));
  EXPECT_EQ(K.One & 1u, 1u);
  // ~ of a fully-known constant folds (the printer renders 254 mod 2^8 in
  // its signed form, -2).
  EXPECT_EQ(printExpr(Ctx, foldKnownBits(
                               Ctx, parseOrDie(Ctx, "~((x|1) & 1) & 255"))),
            "-2");
}

TEST(KnownBitsTest, ZeroOneDisjointInvariantUnderAllOps) {
  // Structural invariant of the lattice: a bit can never be known zero and
  // known one at once, and claimed bits stay inside the width mask. Checked
  // on every node of random expressions over the full operator set.
  for (unsigned Width : {1u, 8u, 33u, 64u}) {
    Context Ctx(Width);
    RNG Rng(555 + Width);
    const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
    for (int Trial = 0; Trial < 50; ++Trial) {
      const Expr *E = Vars[0];
      for (int I = 0; I < 12; ++I) {
        const Expr *Other = Rng.chance(1, 3)
                                ? Ctx.getConst(Rng.next())
                                : Vars[Rng.below(2)];
        switch (Rng.below(8)) {
        case 0: E = Ctx.getAdd(E, Other); break;
        case 1: E = Ctx.getSub(E, Other); break;
        case 2: E = Ctx.getMul(E, Other); break;
        case 3: E = Ctx.getAnd(E, Other); break;
        case 4: E = Ctx.getOr(E, Other); break;
        case 5: E = Ctx.getXor(E, Other); break;
        case 6: E = Ctx.getNot(E); break;
        default: E = Ctx.getNeg(E); break;
        }
      }
      NodeMap<KnownBits> Memo;
      computeKnownBits(Ctx, E, Memo);
      forEachNodePostOrder(E, [&](const Expr *Node) {
        const KnownBits &K = Memo.at(Node);
        ASSERT_EQ(K.Zero & K.One, 0u)
            << "width " << Width << ": " << printExpr(Ctx, Node);
        ASSERT_EQ(K.Zero & ~Ctx.mask(), 0u) << printExpr(Ctx, Node);
        ASSERT_EQ(K.One & ~Ctx.mask(), 0u) << printExpr(Ctx, Node);
      });
    }
  }
}

TEST(IntervalMulTest, EvenConstantMultiplierTightensTheTop) {
  // Companion to KnownBitsTest.MultiplicationByEvenConstants: the interval
  // domain now also exploits c = m·2^t — the product stays a multiple of
  // 2^t through wraparound, so the top drops from mask to mask & ~(2^t-1).
  Context Ctx(8);
  EXPECT_EQ(computeInterval(Ctx, parseOrDie(Ctx, "x * 4")).Hi, 252u);
  EXPECT_EQ(computeInterval(Ctx, parseOrDie(Ctx, "x * 6")).Hi, 254u);
  EXPECT_EQ(computeInterval(Ctx, parseOrDie(Ctx, "16 * x")).Hi, 240u);
  // The small-range fast path still wins when no wraparound can occur.
  Interval Narrow = computeInterval(Ctx, parseOrDie(Ctx, "(x & 3) * 4"));
  EXPECT_EQ(Narrow.Lo, 0u);
  EXPECT_EQ(Narrow.Hi, 12u);
}

TEST(IntervalMulTest, SoundOnRandomEvenProducts) {
  // Random widths and multipliers: the concrete product must always land
  // in the computed interval.
  RNG Rng(0xE7E7);
  for (int Trial = 0; Trial < 200; ++Trial) {
    unsigned Width = 2 + Rng.below(63);
    Context Ctx(Width);
    uint64_t C = Rng.next() & Ctx.mask();
    const Expr *E = Ctx.getMul(Ctx.getVar("x"), Ctx.getConst(C));
    Interval I = computeInterval(Ctx, E);
    std::vector<uint64_t> Vals(1);
    for (int Pt = 0; Pt < 64; ++Pt) {
      Vals[0] = Rng.next() & Ctx.mask();
      uint64_t V = evaluate(Ctx, E, Vals);
      ASSERT_TRUE(I.contains(V))
          << "w=" << Width << " c=" << C << " x=" << Vals[0];
    }
  }
}

} // namespace
