//===- tests/simplifier_test.cpp - MBASolver simplification tests --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Simplifier.h"

#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/SimplifyCache.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

/// Checks semantic equivalence on random and corner inputs (up to 4 vars).
void expectEquivalent(const Context &Ctx, const Expr *A, const Expr *B,
                      uint64_t Seed = 1234) {
  RNG Rng(Seed);
  auto Vars = collectVariables(A);
  for (const Expr *V : collectVariables(B)) {
    if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
      Vars.push_back(V);
  }
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  std::vector<uint64_t> Vals(MaxIndex + 1);
  // Random samples.
  for (int I = 0; I < 300; ++I) {
    for (auto &V : Vals)
      V = Rng.next();
    ASSERT_EQ(evaluate(Ctx, A, Vals), evaluate(Ctx, B, Vals))
        << printExpr(Ctx, A) << "  vs  " << printExpr(Ctx, B);
  }
  // All corners (each variable 0 or -1) — the inputs signatures live on.
  unsigned T = (unsigned)Vars.size();
  if (T <= 6) {
    for (unsigned K = 0; K != (1u << T); ++K) {
      std::fill(Vals.begin(), Vals.end(), 0);
      for (unsigned I = 0; I != T; ++I)
        if (K >> I & 1)
          Vals[Vars[I]->varIndex()] = Ctx.mask();
      ASSERT_EQ(evaluate(Ctx, A, Vals), evaluate(Ctx, B, Vals))
          << printExpr(Ctx, A) << "  vs  " << printExpr(Ctx, B);
    }
  }
}

//===----------------------------------------------------------------------===//
// Linear MBA
//===----------------------------------------------------------------------===//

TEST(SimplifyLinear, PaperSection43Headline) {
  // 2(x|y) - (~x&y) - (x&~y)  ==>  x + y.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
  const Expr *R = Solver.simplify(E);
  EXPECT_EQ(printExpr(Ctx, R), "x+y");
}

TEST(SimplifyLinear, PaperExample1Identity) {
  // x - y == (x^y) + 2*(x|~y) + 2: the right side must simplify to x - y.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "(x^y) + 2*(x|~y) + 2");
  const Expr *R = Solver.simplify(E);
  EXPECT_EQ(printExpr(Ctx, R), "x-y");
}

TEST(SimplifyLinear, ClassicAdditionEncodings) {
  // All four x+y obfuscations from Section 2.2 normalize to x + y.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const char *Encodings[] = {
      "(x|y) + (~x|y) - ~x",
      "(x|y) + y - (~x&y)",
      "(x^y) + 2*y - 2*(~x&y)",
      "y + (x&~y) + (x&y)",
  };
  for (const char *S : Encodings) {
    const Expr *R = Solver.simplify(parseOrDie(Ctx, S));
    EXPECT_EQ(printExpr(Ctx, R), "x+y") << S;
  }
}

TEST(SimplifyLinear, FinalOptRecoversSingleBitwiseOps) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  struct Case {
    const char *In, *Out;
  } Cases[] = {
      {"x + y - 2*(x&y)", "x^y"},            // Section 4.5's example
      {"(x&~y) + y", "x|y"},                 // HAKMEM equation (2)
      {"(x|y) - (x&y)", "x^y"},              // HAKMEM equation (3)
      {"-x - 1", "~x"},                      // two's complement
      {"x + y - (x&y)", "x|y"},
  };
  for (auto &C : Cases) {
    const Expr *R = Solver.simplify(parseOrDie(Ctx, C.In));
    EXPECT_EQ(printExpr(Ctx, R), C.Out) << C.In;
    expectEquivalent(Ctx, parseOrDie(Ctx, C.In), R);
  }
}

TEST(SimplifyLinear, ConstantExpressions) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, "3*5 - 15"))), "0");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, "~0 + 1"))), "0");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, "x - x"))), "0");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, "x ^ x"))), "0");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, "x | ~x"))), "-1");
}

TEST(SimplifyLinear, ThreeAndFourVariables) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  // x + y + z written through pairwise encodings.
  const Expr *E = parseOrDie(Ctx, "(x|y) + (x&y) + (y|z) + (y&z) - y - y + w - w");
  const Expr *R = Solver.simplify(E);
  expectEquivalent(Ctx, E, R);
  ComplexityMetrics M = measureComplexity(Ctx, R);
  EXPECT_EQ(M.Alternation, 0u) << printExpr(Ctx, R);
}

TEST(SimplifyLinear, NarrowWidths) {
  for (unsigned W : {4u, 8u, 16u, 32u}) {
    Context Ctx(W);
    MBASolver Solver(Ctx);
    const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
    const Expr *R = Solver.simplify(E);
    EXPECT_EQ(printExpr(Ctx, R), "x+y") << "width " << W;
  }
}

TEST(SimplifyLinear, LookupCacheHits) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
  Solver.simplify(E);
  size_t MissesAfterFirst = Solver.stats().CacheMisses;
  // Same signature again (different syntax, same semantics & variables).
  Solver.simplify(parseOrDie(Ctx, "(~x&y) + (x&~y) + 2*(x&y)"));
  EXPECT_EQ(Solver.stats().CacheMisses, MissesAfterFirst);
  EXPECT_GT(Solver.stats().CacheHits, 0u);
}

//===----------------------------------------------------------------------===//
// Polynomial MBA
//===----------------------------------------------------------------------===//

TEST(SimplifyPoly, Figure1Expression) {
  // (x&~y)*(~x&y) + (x&y)*(x|y)  ==>  x*y — the motivating example that
  // stalls Z3 for an hour in raw form.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "(x&~y)*(~x&y) + (x&y)*(x|y)");
  const Expr *R = Solver.simplify(E);
  EXPECT_EQ(printExpr(Ctx, R), "x*y");
}

TEST(SimplifyPoly, ProductsOfLinearEncodings) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  // ((x|y)+(x&y)) * ((x|y)+(x&y)) == (x+y)^2 -> expanded normal form.
  const Expr *E = parseOrDie(Ctx, "((x|y)+(x&y)) * ((x|y)+(x&y))");
  const Expr *R = Solver.simplify(E);
  expectEquivalent(Ctx, E, R);
  const Expr *Expected = parseOrDie(Ctx, "(x+y)*(x+y)");
  expectEquivalent(Ctx, R, Expected);
  // No bitwise operators should remain.
  EXPECT_EQ(mbaAlternation(R), 0u) << printExpr(Ctx, R);
}

TEST(SimplifyPoly, AlternationDropsOnRandomPolyMBA) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const char *Samples[] = {
      "(x&y)*(x|y) + (x&~y)*(~x&y)",
      "2*(x&y)*(x^y) + (x^y)*(x^y)",
      "(x|y)*(x|y) - 2*(x|y)*(x&y) + (x&y)*(x&y)",
  };
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    const Expr *R = Solver.simplify(E);
    expectEquivalent(Ctx, E, R);
    EXPECT_LE(mbaAlternation(R), mbaAlternation(E)) << S;
  }
}

//===----------------------------------------------------------------------===//
// Non-polynomial MBA
//===----------------------------------------------------------------------===//

TEST(SimplifyNonPoly, PaperSection45CommonSubexpression) {
  // ((x&~y - ~x&y)|z) + ((x&~y - ~x&y)&z)  ==>  x - y + z.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)");
  const Expr *R = Solver.simplify(E);
  EXPECT_EQ(printExpr(Ctx, R), "x-y+z");
}

TEST(SimplifyNonPoly, NotOfXMinus1) {
  // ~(x-1) == -x: the case the paper's prototype misses; the temp-variable
  // abstraction handles it (~t has signature (1,0) -> -t - 1).
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "~(x-1)");
  const Expr *R = Solver.simplify(E);
  EXPECT_EQ(printExpr(Ctx, R), "-x");
}

TEST(SimplifyNonPoly, MixedDepths) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const char *Samples[] = {
      "((x+y)|z) + ((x+y)&z)",            // -> x + y + z
      "~((x|y) + (x&y)) + 1",             // -> -(x+y) = -x-y
      "(((x^y)+2*(x&y))|w) + (((x^y)+2*(x&y))&w)", // -> x + y + w
  };
  // Variables appear in name-sorted order in normalized output.
  const char *Expected[] = {"x+y+z", "-x-y", "w+x+y"};
  for (int I = 0; I < 3; ++I) {
    const Expr *E = parseOrDie(Ctx, Samples[I]);
    const Expr *R = Solver.simplify(E);
    expectEquivalent(Ctx, E, R);
    EXPECT_EQ(printExpr(Ctx, R), Expected[I]) << Samples[I];
  }
}

TEST(SimplifyNonPoly, ComplementOperandsShareOneTemporary) {
  // -x-y-1 is ~(x+y): abstraction must model the pair as t and ~t, so the
  // tautology (t|~t) + (t&~t) collapses to -1 + 0.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E =
      parseOrDie(Ctx, "((x+y) | (-x-y-1)) + ((x+y) & (-x-y-1))");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(E)), "-1");
  // And with the operands swapped / duplicated.
  const Expr *F =
      parseOrDie(Ctx, "((-x-y-1) ^ (x+y)) - ((x+y) | (-x-y-1))");
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(F)), "0");
}

TEST(SimplifyNonPoly, ConstantMaskStaysSound) {
  // x & 3 cannot be normalized (3 is not a truth-table column), but the
  // simplifier must stay sound and not crash.
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "(x&3) + (x&3)");
  const Expr *R = Solver.simplify(E);
  expectEquivalent(Ctx, E, R);
}

TEST(SimplifyNonPoly, NoTempVariablesLeak) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, "((x-y)|z) + ((x-y)&z)");
  const Expr *R = Solver.simplify(E);
  for (const Expr *V : collectVariables(R))
    EXPECT_NE(V->varName()[0], '_') << printExpr(Ctx, R);
}

TEST(SimplifyNonPoly, TempNamesSkipInputVariables) {
  // The abstraction names its temporaries _t0000, _t0001, ...; inputs that
  // already use those names must push the temporaries past them. Every
  // input but the first also uses a colliding variable outside the
  // abstracted operands, so a temporary that aliased it would change the
  // result: the second would become 2*_t0000-2*y+z. Each text was recorded
  // before the reserved names moved behind the result-cache lookup.
  struct Case {
    const char *Input;
    const char *Expected;
  };
  const Case Cases[] = {
      {"((_t0000-y)|z) + ((_t0000-y)&z)", "_t0000-y+z"},
      {"((_t0000-y)|z) + ((_t0000-y)&z) + _t0000", "2*_t0000-y+z"},
      {"((_t0000*y)|_t0001) + ((_t0000*y)&_t0001) - _t0000",
       "-_t0000+_t0001+_t0000*y"},
      {"((_t0000-_t0001)|(_t0001*z)) + ((_t0000-_t0001)&(_t0001*z))"
       " + _t0000 + _t0001",
       "2*_t0000+_t0001*z"},
      {"~(_t0000-1) + _t0000", "0"},
      {"((_t0001-y)|(_t0000*z)) + ((_t0001-y)&(_t0000*z)) - 2*_t0001",
       "-_t0001-y+_t0000*z"},
  };

  // A fresh solver per input: the recorded text, equivalent to the input.
  for (const Case &C : Cases) {
    Context Ctx(64);
    MBASolver Solver(Ctx);
    const Expr *E = parseOrDie(Ctx, C.Input);
    const Expr *R = Solver.simplify(E);
    expectEquivalent(Ctx, E, R);
    EXPECT_EQ(printExpr(Ctx, R), C.Expected) << C.Input;
  }

  // One solver reused across inputs, after a call that already created
  // temporaries in its context.
  {
    Context Ctx(64);
    MBASolver Solver(Ctx);
    Solver.simplify(parseOrDie(Ctx, "((x-y)|z) + ((x-y)&z)"));
    for (int Round = 0; Round != 2; ++Round)
      for (const Case &C : Cases)
        EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, C.Input))),
                  C.Expected)
            << "round " << Round << ", input " << C.Input;
  }

  // A shared cache filled in one context and hit from a second one.
  SimplifyCache Shared(64);
  SimplifyOptions Opts;
  Opts.SharedCache = &Shared;
  for (int Round = 0; Round != 2; ++Round) {
    Context Ctx(64);
    MBASolver Solver(Ctx, Opts);
    for (const Case &C : Cases)
      EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, C.Input))),
                C.Expected)
          << "round " << Round << ", input " << C.Input;
  }
  EXPECT_EQ(Shared.resultStats().Hits, std::size(Cases));
}

//===----------------------------------------------------------------------===//
// Options and ablations
//===----------------------------------------------------------------------===//

TEST(SimplifyNonPoly, HundredThousandLevelChainDoesNotOverflowTheStack) {
  // ((x+y)&z) + 1 + 1 + ... : the abstraction walks a 100k-deep arithmetic
  // spine down to the one bitwise node.
  Context Ctx(64);
  const Expr *E = Ctx.getAnd(Ctx.getAdd(Ctx.getVar("x"), Ctx.getVar("y")),
                             Ctx.getVar("z"));
  for (int I = 0; I < 100000; ++I)
    E = Ctx.getAdd(E, Ctx.getOne());
  MBASolver Solver(Ctx);
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(E)), "(x+y&z)+100000");
}

TEST(SimplifyOptionsTest, DisjunctionBasisIsEquivalent) {
  Context Ctx(64);
  SimplifyOptions Opts;
  Opts.Basis = BasisKind::Disjunction;
  MBASolver Solver(Ctx, Opts);
  const char *Samples[] = {
      "2*(x|y) - (~x&y) - (x&~y)",
      "(x^y) + 2*(x|~y) + 2",
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
  };
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    const Expr *R = Solver.simplify(E);
    expectEquivalent(Ctx, E, R);
    EXPECT_LE(mbaAlternation(R), mbaAlternation(E)) << S;
  }
}

TEST(SimplifyOptionsTest, AutoBasisIsSoundAndAtLeastAsCompact) {
  Context Ctx(64);
  SimplifyOptions Fixed, Auto;
  Auto.AutoBasis = true;
  MBASolver FixedSolver(Ctx, Fixed), AutoSolver(Ctx, Auto);
  const char *Samples[] = {
      "2*(x|y) - (~x&y) - (x&~y)",
      "(x^y) + 2*(x|~y) + 2",
      "x + y - (x&y)",              // a disjunction-friendly signature
      "((x-y)|z) + ((x-y)&z)",
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
  };
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    const Expr *RF = FixedSolver.simplify(E);
    const Expr *RA = AutoSolver.simplify(E);
    expectEquivalent(Ctx, E, RA);
    // Auto selection never picks a combination with more terms, so the
    // result is never longer than the fixed-conjunction one by more than
    // formatting noise.
    EXPECT_LE(printExpr(Ctx, RA).size(), printExpr(Ctx, RF).size() + 4) << S;
  }
}

TEST(SimplifyOptionsTest, CSEDisabledStillSound) {
  Context Ctx(64);
  SimplifyOptions Opts;
  Opts.EnableCSE = false;
  MBASolver Solver(Ctx, Opts);
  const Expr *E = parseOrDie(Ctx, "((x-y)|z) + ((x-y)&z)");
  const Expr *R = Solver.simplify(E);
  expectEquivalent(Ctx, E, R);
}

TEST(SimplifyOptionsTest, FinalOptDisabledKeepsNormalizedForm) {
  Context Ctx(64);
  SimplifyOptions Opts;
  Opts.EnableFinalOpt = false;
  MBASolver Solver(Ctx, Opts);
  const Expr *R = Solver.simplify(parseOrDie(Ctx, "(x|y) - (x&y)"));
  // Normalized conjunction form, not the x^y final form.
  EXPECT_EQ(printExpr(Ctx, R), "x+y-2*(x&y)");
}

TEST(SimplifyOptionsTest, StatsAccumulate) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  Solver.simplify(parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)"));
  EXPECT_GT(Solver.stats().LinearRuns, 0u);
  EXPECT_GT(Solver.stats().Seconds, 0.0);
  Solver.resetStats();
  EXPECT_EQ(Solver.stats().LinearRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Idempotence and robustness
//===----------------------------------------------------------------------===//

TEST(SimplifyRobustness, SimplifyIsIdempotent) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const char *Samples[] = {
      "2*(x|y) - (~x&y) - (x&~y)",
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
      "((x-y)|z) + ((x-y)&z)",
      "x + y",
      "x*y",
      "~(x-1)",
  };
  for (const char *S : Samples) {
    const Expr *R1 = Solver.simplify(parseOrDie(Ctx, S));
    const Expr *R2 = Solver.simplify(R1);
    EXPECT_EQ(printExpr(Ctx, R1), printExpr(Ctx, R2)) << S;
  }
}

TEST(SimplifyRobustness, LeavesAreUntouched) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *X = Ctx.getVar("x");
  EXPECT_EQ(Solver.simplify(X), X);
  const Expr *C = Ctx.getConst(7);
  EXPECT_EQ(Solver.simplify(C), C);
}

TEST(SimplifyRobustness, ManyVariablesFallBackGracefully) {
  // 12 variables exceed the signature budget; the polynomial path must
  // still produce an equivalent result.
  Context Ctx(64);
  SimplifyOptions Opts;
  Opts.MaxSignatureVars = 8;
  MBASolver Solver(Ctx, Opts);
  std::string Text;
  for (int I = 0; I < 12; ++I) {
    if (I)
      Text += " + ";
    std::string V = "v" + std::to_string(I);
    std::string W = "v" + std::to_string((I + 1) % 12);
    Text += "(" + V + "|" + W + ") + (" + V + "&" + W + ") - " + W;
  }
  const Expr *E = parseOrDie(Ctx, Text);
  const Expr *R = Solver.simplify(E);
  expectEquivalent(Ctx, E, R);
  EXPECT_LE(mbaAlternation(R), mbaAlternation(E));
}

TEST(SimplifyRobustness, RandomLinearFuzz) {
  // Random linear MBA over random bitwise terms: result must be equivalent
  // and alternation must not increase.
  Context Ctx(32);
  MBASolver Solver(Ctx);
  RNG Rng(2024);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y"), *Z = Ctx.getVar("z");
  std::vector<const Expr *> Pool = {
      X, Y, Z,
      Ctx.getAnd(X, Y), Ctx.getOr(Y, Z), Ctx.getXor(X, Z),
      Ctx.getNot(Ctx.getAnd(X, Z)), Ctx.getAnd(Ctx.getNot(X), Y),
      Ctx.getOr(X, Ctx.getNot(Z))};
  for (int Trial = 0; Trial < 40; ++Trial) {
    const Expr *E = Ctx.getConst(Rng.below(16));
    for (int T = 0; T < 6; ++T) {
      const Expr *Term = Ctx.getMul(Ctx.getConst(1 + Rng.below(9)),
                                    Pool[Rng.below(Pool.size())]);
      E = Rng.chance(1, 2) ? Ctx.getAdd(E, Term) : Ctx.getSub(E, Term);
    }
    const Expr *R = Solver.simplify(E);
    expectEquivalent(Ctx, E, R, Rng.next());
    EXPECT_LE(mbaAlternation(R), mbaAlternation(E));
  }
}

TEST(SharedCacheTest, CachedRunsAreBitIdentical) {
  // The memoization contract: attaching the shared caches never changes
  // output, not even its printed form — cold pass, warm pass and uncached
  // run all agree character for character.
  const char *Inputs[] = {
      "2*(x|y) - (~x&y) - (x&~y) + 4*(x^y) - 3*(x&y)",
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
      "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
      "x + y - 2*(x&y)",
      "(x^y) + 2*(x&y)",
      "2*(x|y) - (~x&y) - (x&~y) + 4*(x^y) - 3*(x&y)", // repeat: result hit
  };
  std::vector<std::string> Expected;
  {
    Context Ctx(64);
    MBASolver Solver(Ctx);
    for (const char *S : Inputs)
      Expected.push_back(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, S))));
  }

  SimplifyCache Shared(64);
  BasisCache Basis;
  SimplifyOptions Opts;
  Opts.SharedCache = &Shared;
  Opts.SharedBasisCache = &Basis;
  for (int Round = 0; Round != 2; ++Round) {
    Context Ctx(64); // fresh context per round: hits must clone correctly
    MBASolver Solver(Ctx, Opts);
    for (size_t I = 0; I != std::size(Inputs); ++I)
      EXPECT_EQ(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, Inputs[I]))),
                Expected[I])
          << "round " << Round << ", input " << Inputs[I];
  }
  EXPECT_GT(Shared.resultStats().Hits, 0u) << "warm round must hit";
  EXPECT_GT(Shared.resultStats().Inserts, 0u);
}

TEST(SharedCacheTest, DisabledCacheOptionBypassesSharedCaches) {
  SimplifyCache Shared(64);
  BasisCache Basis;
  SimplifyOptions Opts;
  Opts.SharedCache = &Shared;
  Opts.SharedBasisCache = &Basis;
  Opts.EnableCache = false;
  Context Ctx(64);
  MBASolver Solver(Ctx, Opts);
  Solver.simplify(parseOrDie(Ctx, "x + y - 2*(x&y)"));
  EXPECT_EQ(Shared.resultStats().Hits + Shared.resultStats().Misses, 0u);
  EXPECT_EQ(Basis.stats().Hits + Basis.stats().Misses, 0u);
}

TEST(AnalysisMemoTest, MemoOverloadsAgreeWithSingleShotForms) {
  // The simplifier answers classifyMBA / isPureBitwise / mbaAlternation from
  // memos that live for one simplify() call. Answers from a memo must equal
  // a fresh computation on every sub-node, whatever the memo already held:
  // one memo pair runs bottom-up over the whole corpus, another asks for
  // each root before its sub-nodes.
  Context Ctx(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 100;
  Opts.IncludeSeedIdentities = false;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, Opts);
  ASSERT_EQ(Corpus.size(), 300u);
  MBAFactsMemo UpFacts, DownFacts;
  AlternationMemo UpAlt, DownAlt;
  size_t Checked = 0;
  auto Check = [&](const Expr *N, MBAFactsMemo &Facts, AlternationMemo &Alt) {
    ASSERT_EQ(classifyMBA(Ctx, N, Facts), classifyMBA(Ctx, N))
        << printExpr(Ctx, N);
    ASSERT_EQ(isPureBitwise(Ctx, N, Facts), isPureBitwise(Ctx, N))
        << printExpr(Ctx, N);
    ASSERT_EQ(mbaAlternation(N, Alt), mbaAlternation(N)) << printExpr(Ctx, N);
    ++Checked;
  };
  for (const CorpusEntry &Entry : Corpus)
    for (const Expr *Root : {Entry.Obfuscated, Entry.Ground}) {
      forEachNodePostOrder(
          Root, [&](const Expr *N) { Check(N, UpFacts, UpAlt); });
      Check(Root, DownFacts, DownAlt);
      forEachNodePostOrder(
          Root, [&](const Expr *N) { Check(N, DownFacts, DownAlt); });
    }
  EXPECT_GT(Checked, 3 * 600u);
}

TEST(AnalysisMemoTest, VariableMemoMatchesCollectVariables) {
  // Like the memos above: one memo filled bottom-up over the corpus, one
  // asked for each root before its sub-nodes; every answer must be
  // collectVariables's name-sorted list.
  Context Ctx(64);
  CorpusOptions Opts;
  Opts.Seed = 1;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, Opts);
  VariableMemo Up, Down;
  size_t Checked = 0;
  auto Check = [&](const Expr *N, VariableMemo &Memo) {
    std::vector<const Expr *> Vars = collectVariables(N);
    ASSERT_EQ(Memo.variables(N), Vars) << printExpr(Ctx, N);
    ASSERT_EQ(Memo.count(N), Vars.size()) << printExpr(Ctx, N);
    ++Checked;
  };
  for (const CorpusEntry &Entry : Corpus) {
    for (const Expr *Root : {Entry.Obfuscated, Entry.Ground}) {
      forEachNodePostOrder(Root, [&](const Expr *N) { Check(N, Up); });
      Check(Root, Down);
      forEachNodePostOrder(Root, [&](const Expr *N) { Check(N, Down); });
    }
    std::vector<const Expr *> Union = collectVariables(
        Ctx.getAdd(Entry.Obfuscated, Entry.Ground));
    ASSERT_EQ(Up.variables(Entry.Obfuscated, Entry.Ground), Union);
  }
  EXPECT_GT(Checked, 3 * 6000u);

  // A hundred variables, so most local indices are past the 64-bit mask,
  // named so that name order is not creation order.
  Context Wide(64);
  std::vector<const Expr *> Vars;
  for (unsigned I = 0; I != 100; ++I)
    Vars.push_back(Wide.getVar("v" + std::to_string(I * 37 % 100)));
  RNG Rng(100);
  VariableMemo Memo;
  std::vector<const Expr *> Pool = Vars;
  for (int I = 0; I < 400; ++I) {
    const Expr *A = Pool[Rng.below(Pool.size())];
    const Expr *B = Pool[Rng.below(Pool.size())];
    const Expr *N = Rng.chance(1, 2) ? Wide.getAdd(A, B) : Wide.getAnd(A, B);
    Pool.push_back(Rng.chance(1, 8) ? Wide.getNot(N) : N);
    ASSERT_EQ(Memo.variables(Pool.back()), collectVariables(Pool.back()));
    ASSERT_EQ(Memo.variables(A, B), collectVariables(N));
  }
  const Expr *All = Vars[0];
  for (unsigned I = 1; I != 100; ++I)
    All = Wide.getXor(All, Vars[I]);
  std::vector<const Expr *> Sorted = collectVariables(All);
  ASSERT_EQ(Sorted.size(), 100u);
  EXPECT_EQ(Memo.variables(All), Sorted);
  EXPECT_EQ(Memo.count(All), 100u);
  Memo.clear();
  EXPECT_EQ(Memo.variables(All), Sorted);
}

} // namespace
