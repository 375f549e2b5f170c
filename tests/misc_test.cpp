//===- tests/misc_test.cpp - Assorted cross-cutting behaviours ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/EncodeArithmetic.h"
#include "ir/Passes.h"
#include "ir/Program.h"
#include "mba/Simplifier.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

TEST(TempVarHygiene, UserVariablesNamedLikeTempsDoNotCollide) {
  // The user's expression already uses "_t0"; the simplifier must pick
  // fresh names and still return an equivalent result that references the
  // user's _t0 faithfully.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "((_t0 - y) | z) + ((_t0 - y) & z)");
  const Expr *R = Solver.simplify(E);
  RNG Rng(1);
  for (int I = 0; I < 100; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next(), Rng.next()};
    ASSERT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, R, Vals));
  }
  EXPECT_EQ(printExpr(Ctx, R), "_t0-y+z");
}

TEST(TempVarHygiene, RepeatedSolverUseKeepsAllocatingFreshTemps) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  // Two different abstractions in sequence must not cross-contaminate.
  const Expr *E1 = parseOrDie(Ctx, "((x+1) | y) + ((x+1) & y)");
  const Expr *E2 = parseOrDie(Ctx, "((x-1) | y) + ((x-1) & y)");
  const Expr *R1 = Solver.simplify(E1);
  const Expr *R2 = Solver.simplify(E2);
  RNG Rng(2);
  for (int I = 0; I < 60; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next()};
    ASSERT_EQ(evaluate(Ctx, E1, Vals), evaluate(Ctx, R1, Vals));
    ASSERT_EQ(evaluate(Ctx, E2, Vals), evaluate(Ctx, R2, Vals));
  }
}

TEST(EncodeNarrowWidths, EncodingHoldsAtEveryWidth) {
  for (unsigned W : {1u, 2u, 5u, 16u}) {
    Context Ctx(W);
    EncodeOptions Opts;
    Opts.Rounds = 2;
    Opts.Percent = 100;
    Opts.Seed = W;
    const Expr *E = parseOrDie(Ctx, "x - y");
    const Expr *Enc = encodeArithmetic(Ctx, E, Opts);
    // Exhaustive at tiny widths, sampled otherwise.
    uint64_t Limit = W <= 5 ? (1ULL << W) : 64;
    RNG Rng(W);
    for (uint64_t A = 0; A != Limit; ++A) {
      for (uint64_t B = 0; B != Limit; ++B) {
        uint64_t X = W <= 5 ? A : (Rng.next() & Ctx.mask());
        uint64_t Y = W <= 5 ? B : (Rng.next() & Ctx.mask());
        uint64_t Vals[] = {X, Y};
        ASSERT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, Enc, Vals))
            << "width " << W;
      }
      if (W > 5)
        break;
    }
  }
}

TEST(TraceWithEncoder, EncodedTraceDeobfuscates) {
  // Encode each instruction of a trace, then recover the root semantics.
  Context Ctx(64);
  auto P = parseTrace(Ctx, "t1 = x + y\nout = t1 * 2 - t1", {"out"});
  ASSERT_TRUE(P.has_value());
  EncodeOptions Opts;
  Opts.Rounds = 2;
  Opts.Percent = 100;
  Opts.Seed = 5;
  Function &F = P->Functions.front();
  for (IRInst &I : F.entry().Insts)
    I.Rhs = encodeArithmetic(Ctx, I.Rhs, Opts);
  const Function Encoded = F;

  ProgramReport Report = deobfuscateProgram(Ctx, *P);
  EXPECT_EQ(Report.totalRegionsRewritten(), 1u) << Report.str();
  ASSERT_EQ(F.entry().Insts.size(), 1u);
  // Flattening composes the per-instruction encodings into forms like
  // (2t) & ~t — relational bit facts outside the MBA model (the paper's
  // Section 7 limitation) — so full recovery to "x+y" is not guaranteed.
  // Required: semantic equality and a genuine size reduction.
  const Expr *Out = Ctx.getVar("out");
  const Expr *Recovered = flattenValue(Ctx, F, Out);
  RNG Rng(6);
  for (int I = 0; I < 100; ++I) {
    const uint64_t Args[] = {Rng.next(), Rng.next()}; // x, y
    uint64_t Want = (Args[0] + Args[1]) & Ctx.mask();
    ASSERT_EQ(interpretFunction(Ctx, Encoded, Args), Want);
    ASSERT_EQ(interpretFunction(Ctx, F, Args), Want);
  }
  EXPECT_LT(printExpr(Ctx, Recovered).size(),
            printExpr(Ctx, flattenValue(Ctx, Encoded, Out)).size());
}

TEST(DeterminismAcrossContexts, SimplifierOutputIsContextIndependent) {
  // The same textual input in two fresh contexts yields the same text out
  // (no hidden global state, no pointer-order dependence).
  const char *Samples[] = {
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
      "2*(x|y) - (~x&y) - (x&~y)",
      "((x-y)|z) + ((x-y)&z)",
      "~(x-1)",
  };
  for (const char *S : Samples) {
    std::string Out1, Out2;
    {
      Context Ctx(64);
      MBASolver Solver(Ctx);
      Out1 = printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, S)));
    }
    {
      Context Ctx(64);
      // Different variable-creation order beforehand must not matter.
      Ctx.getVar("unrelated");
      Ctx.getVar("z");
      MBASolver Solver(Ctx);
      Out2 = printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, S)));
    }
    EXPECT_EQ(Out1, Out2) << S;
  }
}

TEST(ContextScale, ManyVariablesAndNodes) {
  Context Ctx(64);
  // 2000 variables and a large expression keep the context healthy.
  const Expr *E = Ctx.getConst(0);
  for (int I = 0; I < 2000; ++I)
    E = Ctx.getXor(E, Ctx.getVar("v" + std::to_string(I)));
  EXPECT_EQ(Ctx.numVars(), 2000u);
  EXPECT_GT(Ctx.numNodes(), 2000u);
  std::vector<uint64_t> Vals(2000, 0);
  Vals[7] = 42;
  EXPECT_EQ(evaluate(Ctx, E, Vals), 42u);
}

} // namespace
