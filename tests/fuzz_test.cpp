//===- tests/fuzz_test.cpp - Randomized soundness fuzzing -----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Adversarial random-expression fuzzing of the whole pipeline. Unlike the
/// generator-based property tests (which produce well-formed MBA), these
/// expressions are drawn from the *full* grammar with arbitrary nesting —
/// constants in bitwise positions, products of sums, negations of
/// negations — to hit every fallback path in the simplifier.
///
/// Invariants checked per expression:
///  * simplify() preserves semantics on random and corner inputs;
///  * simplify() never increases MBA alternation;
///  * parse(print(E)) preserves semantics;
///  * the SSPAM-style rewriter preserves semantics;
///  * classification is stable under printing round-trips.
///
//===----------------------------------------------------------------------===//

#include "analysis/Prover.h"
#include "analysis/Verifier.h"
#include "ast/BitslicedEval.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Simplifier.h"
#include "peer/PatternRewriter.h"
#include "support/Bitslice.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

/// Uniform random expression over the full operator set.
const Expr *randomExpr(Context &Ctx, RNG &Rng,
                       std::span<const Expr *const> Vars, unsigned Depth) {
  if (Depth == 0 || Rng.chance(1, 5)) {
    // Leaf: variable (2/3) or constant (1/3) with interesting values.
    if (Rng.chance(2, 3))
      return Vars[Rng.below(Vars.size())];
    static const uint64_t Interesting[] = {0,  1,  2,   3,    5,
                                           7,  8,  255, ~0ULL, ~1ULL,
                                           63, 64, 0x80, 0xfffe};
    return Ctx.getConst(Rng.chance(1, 3)
                            ? Rng.next()
                            : Interesting[Rng.below(std::size(Interesting))]);
  }
  switch (Rng.below(10)) {
  case 0:
    return Ctx.getNot(randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 1:
    return Ctx.getNeg(randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 2:
  case 3:
    return Ctx.getAdd(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 4:
    return Ctx.getSub(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 5:
    return Ctx.getMul(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 6:
    return Ctx.getAnd(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  case 7:
    return Ctx.getOr(randomExpr(Ctx, Rng, Vars, Depth - 1),
                     randomExpr(Ctx, Rng, Vars, Depth - 1));
  default:
    return Ctx.getXor(randomExpr(Ctx, Rng, Vars, Depth - 1),
                      randomExpr(Ctx, Rng, Vars, Depth - 1));
  }
}

/// Samples agreement of two expressions on random + corner inputs. Both
/// sides are first run through the IR verifier: every expression the fuzz
/// pipeline produces must satisfy the hash-consing invariants.
void expectAgreement(const Context &Ctx, const Expr *A, const Expr *B,
                     RNG &Rng, const char *What) {
  for (const Expr *Side : {A, B}) {
    VerifyResult VR = verifyExpr(Ctx, Side);
    ASSERT_TRUE(VR.ok()) << What << ": " << VR.Message;
  }
  std::vector<const Expr *> Vars = collectVariables(A);
  for (const Expr *V : collectVariables(B))
    if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
      Vars.push_back(V);
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  // One bitsliced block of random points, with the scalar interpreter
  // cross-checked on a prefix so the two evaluators pin each other down.
  constexpr unsigned NumPoints = 64;
  std::vector<std::vector<uint64_t>> Lanes(Vars.size());
  for (auto &L : Lanes)
    L.resize(NumPoints);
  for (unsigned I = 0; I != NumPoints; ++I)
    for (size_t V = 0; V != Vars.size(); ++V)
      Lanes[V][I] = Rng.next();
  std::vector<const uint64_t *> Ptrs(MaxIndex + 1, nullptr);
  for (size_t V = 0; V != Vars.size(); ++V)
    Ptrs[Vars[V]->varIndex()] = Lanes[V].data();
  std::vector<uint64_t> OutA = Ctx.getBitsliced(A).evaluatePoints(Ptrs, NumPoints);
  std::vector<uint64_t> OutB = Ctx.getBitsliced(B).evaluatePoints(Ptrs, NumPoints);
  std::vector<uint64_t> Vals(MaxIndex + 1, 0);
  for (unsigned I = 0; I != NumPoints; ++I) {
    if (I < 4) {
      for (size_t V = 0; V != Vars.size(); ++V)
        Vals[Vars[V]->varIndex()] = Lanes[V][I];
      ASSERT_EQ(evaluate(Ctx, A, Vals), OutA[I])
          << What << " (bitsliced vs scalar):\n  " << printExpr(Ctx, A);
      ASSERT_EQ(evaluate(Ctx, B, Vals), OutB[I])
          << What << " (bitsliced vs scalar):\n  " << printExpr(Ctx, B);
    }
    ASSERT_EQ(OutA[I], OutB[I])
        << What << ":\n  " << printExpr(Ctx, A) << "\n  "
        << printExpr(Ctx, B);
  }
  unsigned T = (unsigned)Vars.size();
  if (T <= 4) {
    // All corners in one bitsliced call, every one cross-checked scalar
    // (there are at most 16).
    uint64_t CornA[16], CornB[16];
    std::vector<uint64_t> Masks(MaxIndex + 1, 0);
    for (unsigned I = 0; I != T; ++I)
      Masks[Vars[I]->varIndex()] = bitslice::cornerMask(I, 0);
    Ctx.getBitsliced(A).evaluateCorners(Masks, 1u << T, CornA);
    Ctx.getBitsliced(B).evaluateCorners(Masks, 1u << T, CornB);
    for (unsigned K = 0; K != (1u << T); ++K) {
      for (unsigned I = 0; I != T; ++I)
        Vals[Vars[I]->varIndex()] = (K >> I & 1) ? Ctx.mask() : 0;
      ASSERT_EQ(evaluate(Ctx, A, Vals), CornA[K])
          << What << " (corner, bitsliced vs scalar):\n  "
          << printExpr(Ctx, A);
      ASSERT_EQ(CornA[K], CornB[K])
          << What << " (corner):\n  " << printExpr(Ctx, A) << "\n  "
          << printExpr(Ctx, B);
    }
  }
}

class FuzzSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzSweep, SimplifierSoundOnArbitraryExpressions) {
  unsigned Width = GetParam();
  Context Ctx(Width);
  RNG Rng(0xF00D + Width);
  MBASolver Solver(Ctx);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  for (int Trial = 0; Trial < 120; ++Trial) {
    const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(4));
    const Expr *R = Solver.simplify(E);
    expectAgreement(Ctx, E, R, Rng, "simplify");
    EXPECT_LE(mbaAlternation(R), mbaAlternation(E)) << printExpr(Ctx, E);
  }
}

TEST_P(FuzzSweep, PrintParseRoundTripOnArbitraryExpressions) {
  unsigned Width = GetParam();
  Context Ctx(Width);
  RNG Rng(0xBEEF + Width);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  for (int Trial = 0; Trial < 200; ++Trial) {
    const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(4));
    std::string Text = printExpr(Ctx, E);
    ParseResult P = parseExpr(Ctx, Text);
    ASSERT_TRUE(P.ok()) << Text;
    expectAgreement(Ctx, E, P.E, Rng, "round-trip");
    // Classification is a semantic-ish property of the printed form too:
    // reparsing may reassociate but never flips linear <-> non-poly.
    MBAKind K1 = classifyMBA(Ctx, E);
    MBAKind K2 = classifyMBA(Ctx, P.E);
    EXPECT_EQ(K1 == MBAKind::NonPolynomial, K2 == MBAKind::NonPolynomial)
        << Text;
  }
}

TEST_P(FuzzSweep, PatternRewriterSoundOnArbitraryExpressions) {
  unsigned Width = GetParam();
  Context Ctx(Width);
  RNG Rng(0xCAFE + Width);
  PatternRewriter Rewriter(Ctx);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  for (int Trial = 0; Trial < 120; ++Trial) {
    const Expr *E = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(3));
    const Expr *R = Rewriter.simplify(E);
    expectAgreement(Ctx, E, R, Rng, "pattern-rewrite");
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FuzzSweep,
                         ::testing::Values(1u, 2u, 8u, 31u, 32u, 64u));

TEST(FuzzProver, AgreesWithConcreteEvaluator) {
  // The static prover's verdicts against ground truth: a Proved pair must
  // agree on 10k random points; a Refuted pair must differ on *every*
  // sampled point (refutation means disjoint value sets, not a mere
  // counterexample). Equivalent pairs come from the simplifier (whose own
  // soundness the FuzzSweep tests pin down), unrelated pairs from two
  // independent draws.
  Context Ctx(64);
  RNG Rng(0x5EED);
  MBASolver Solver(Ctx);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  std::vector<uint64_t> Vals(Ctx.numVars() + 8, 0);
  unsigned NumProved = 0, NumRefuted = 0;
  for (int Trial = 0; Trial < 80; ++Trial) {
    const Expr *A = randomExpr(Ctx, Rng, Vars, 2 + (unsigned)Rng.below(3));
    const Expr *B = (Trial & 1) ? Solver.simplify(A)
                                : randomExpr(Ctx, Rng, Vars,
                                             2 + (unsigned)Rng.below(3));
    ProveResult R = proveEquivalence(Ctx, A, B);
    Vals.resize(Ctx.numVars(), 0);
    // Agreement sweeps run 64 points per bitsliced block; the scalar
    // interpreter double-checks the first points of each batch.
    auto batchEval = [&](size_t NumPoints, auto &&Check) {
      std::vector<uint64_t> Lanes[3];
      for (auto &L : Lanes)
        L.resize(NumPoints);
      for (size_t I = 0; I != NumPoints; ++I)
        for (size_t V = 0; V != 3; ++V)
          Lanes[V][I] = Rng.next();
      std::vector<const uint64_t *> Ptrs(Ctx.numVars(), nullptr);
      for (size_t V = 0; V != 3; ++V)
        Ptrs[Vars[V]->varIndex()] = Lanes[V].data();
      std::vector<uint64_t> OutA =
          Ctx.getBitsliced(A).evaluatePoints(Ptrs, NumPoints);
      std::vector<uint64_t> OutB =
          Ctx.getBitsliced(B).evaluatePoints(Ptrs, NumPoints);
      for (size_t I = 0; I != NumPoints; ++I) {
        if (I < 8) {
          for (size_t V = 0; V != 3; ++V)
            Vals[Vars[V]->varIndex()] = Lanes[V][I];
          ASSERT_EQ(evaluate(Ctx, A, Vals), OutA[I])
              << "bitsliced vs scalar:\n  " << printExpr(Ctx, A);
          ASSERT_EQ(evaluate(Ctx, B, Vals), OutB[I])
              << "bitsliced vs scalar:\n  " << printExpr(Ctx, B);
        }
        Check(OutA[I], OutB[I]);
      }
    };
    if (R.Outcome == ProveOutcome::Proved) {
      ++NumProved;
      batchEval(10000, [&](uint64_t VA, uint64_t VB) {
        ASSERT_EQ(VA, VB)
            << "proved but differs (" << R.Detail << "):\n  "
            << printExpr(Ctx, A) << "\n  " << printExpr(Ctx, B);
      });
    } else if (R.Outcome == ProveOutcome::Refuted) {
      ++NumRefuted;
      batchEval(1000, [&](uint64_t VA, uint64_t VB) {
        ASSERT_NE(VA, VB)
            << "refuted but equal at a point (" << R.Detail << "):\n  "
            << printExpr(Ctx, A) << "\n  " << printExpr(Ctx, B);
      });
    }
  }
  // The generator must exercise both sound verdicts, or this test is
  // vacuous: simplifier pairs prove, parity/interval conflicts refute.
  EXPECT_GT(NumProved, 0u);
  EXPECT_GT(NumRefuted, 0u);
}

TEST(FuzzEdge, WidthOneIsTheBooleanRing) {
  // At width 1, arithmetic degenerates: + and - are XOR, * is AND, -1 == 1,
  // and every identity must still hold.
  Context Ctx(1);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
  const Expr *R = Solver.simplify(E);
  for (uint64_t X = 0; X != 2; ++X)
    for (uint64_t Y = 0; Y != 2; ++Y) {
      uint64_t Vals[] = {X, Y};
      EXPECT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, R, Vals));
    }
  // x + y at width 1 is x ^ y; the canonical result must agree everywhere.
  const Expr *Sum = parseOrDie(Ctx, "x + y");
  const Expr *Xor = parseOrDie(Ctx, "x ^ y");
  for (uint64_t X = 0; X != 2; ++X)
    for (uint64_t Y = 0; Y != 2; ++Y) {
      uint64_t Vals[] = {X, Y};
      EXPECT_EQ(evaluate(Ctx, Sum, Vals), evaluate(Ctx, Xor, Vals));
    }
}

TEST(FuzzEdge, SimplifierHandlesSingleVariableWidth1Exhaustively) {
  // Exhaustive check over all inputs at width 1 for assorted expressions.
  Context Ctx(1);
  MBASolver Solver(Ctx);
  const char *Samples[] = {"~(x-1)", "x*x*x", "-x", "x&~x", "3*x + 1",
                           "(x|1) - (x&1)"};
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    const Expr *R = Solver.simplify(E);
    for (uint64_t X = 0; X != 2; ++X) {
      uint64_t Vals[] = {X};
      EXPECT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, R, Vals)) << S;
    }
  }
}

TEST(FuzzEdge, VeryDeepExpressionSimplifies) {
  // A 1000-level alternating tower must not crash or blow the stack.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *X = Ctx.getVar("x");
  const Expr *E = X;
  for (int I = 0; I < 1000; ++I) {
    E = Ctx.getAdd(E, Ctx.getOne());
    if (I % 7 == 3)
      E = Ctx.getNot(E);
    if (I % 11 == 5)
      E = Ctx.getNeg(E);
  }
  const Expr *R = Solver.simplify(E);
  RNG Rng(5);
  for (int I = 0; I < 20; ++I) {
    uint64_t Vals[] = {Rng.next()};
    ASSERT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, R, Vals));
  }
  // ~/- towers over x + k collapse to a short linear form.
  EXPECT_LT(printExpr(Ctx, R).size(), 40u);
}

} // namespace
