//===- tests/synth_test.cpp - Enumerative synthesizer tests ---------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "analysis/Audit.h"
#include "ast/Evaluator.h"
#include "gen/Obfuscator.h"
#include "mba/Classify.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "linalg/TruthTable.h"
#include "mba/Metrics.h"
#include "mba/Simplifier.h"
#include "mba/SimplifyCache.h"
#include "poly/PolyExpr.h"
#include "support/RNG.h"
#include "synth/Basis3.h"
#include "synth/TermBank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace mba;
using namespace mba::synth;

namespace {

const Expr *parse(Context &Ctx, const char *Text) {
  auto R = parseExpr(Ctx, Text);
  EXPECT_TRUE(R.ok()) << Text << ": " << R.Error;
  return R.E;
}

/// Semantic agreement on random + corner inputs.
void expectEquivalent(const Context &Ctx, const Expr *A, const Expr *B) {
  RNG Rng(99);
  std::vector<const Expr *> Vars = collectVariables(A);
  for (const Expr *V : collectVariables(B))
    if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
      Vars.push_back(V);
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  std::vector<uint64_t> Vals(MaxIndex + 1);
  for (int I = 0; I != 200; ++I) {
    for (auto &V : Vals)
      V = Rng.next();
    ASSERT_EQ(evaluate(Ctx, A, Vals), evaluate(Ctx, B, Vals))
        << printExpr(Ctx, A) << "  vs  " << printExpr(Ctx, B);
  }
  unsigned T = (unsigned)Vars.size();
  for (unsigned K = 0; T <= 6 && K != (1u << T); ++K) {
    std::fill(Vals.begin(), Vals.end(), 0);
    for (unsigned I = 0; I != T; ++I)
      if (K >> I & 1)
        Vals[Vars[I]->varIndex()] = Ctx.mask();
    ASSERT_EQ(evaluate(Ctx, A, Vals), evaluate(Ctx, B, Vals))
        << printExpr(Ctx, A) << "  vs  " << printExpr(Ctx, B);
  }
}

//===----------------------------------------------------------------------===//
// Basis table
//===----------------------------------------------------------------------===//

TEST(Basis3, EveryEntryRealizesItsTruthColumn) {
  // For all arities: rebuild each truth function as an expression and
  // evaluate it back over the corners.
  for (unsigned T = 1; T <= MaxBasisVars; ++T) {
    Context Ctx(8);
    std::vector<const Expr *> Vars;
    for (unsigned I = 0; I != T; ++I)
      Vars.push_back(Ctx.getVar(std::string(1, (char)('a' + I))));
    const unsigned Rows = 1u << T;
    for (uint32_t F = 0; F != (1u << Rows); ++F) {
      const Expr *E = bitwiseFromTruth(Ctx, Vars, F);
      ASSERT_NE(E, nullptr);
      std::vector<uint64_t> Vals(T);
      for (unsigned Row = 0; Row != Rows; ++Row) {
        for (unsigned I = 0; I != T; ++I)
          Vals[Vars[I]->varIndex()] = truthBit(Row, I, T) ? Ctx.mask() : 0;
        uint64_t Expect = (F >> Row) & 1 ? Ctx.mask() : 0;
        ASSERT_EQ(evaluate(Ctx, E, Vals), Expect)
            << "arity " << T << " truth " << F << " row " << Row << ": "
            << printExpr(Ctx, E);
      }
    }
  }
}

TEST(Basis3, CostMatchesOperatorCount) {
  for (unsigned T = 1; T <= MaxBasisVars; ++T) {
    for (uint32_t F = 0; F != (1u << (1u << T)); ++F) {
      std::string_view Rpn = bitwiseRpn(T, F);
      unsigned Ops = 0;
      for (char C : Rpn)
        Ops += C == '~' || C == '&' || C == '|' || C == '^';
      EXPECT_EQ(bitwiseCost(T, F), Ops) << "arity " << T << " truth " << F;
    }
  }
  // Spot checks: atoms are free, the classics cost what they should.
  EXPECT_EQ(bitwiseCost(1, 0b01), 1u); // ~a
  EXPECT_EQ(bitwiseCost(1, 0b10), 0u); // a
  EXPECT_EQ(bitwiseCost(2, 0b0110), 1u); // a^b
  EXPECT_EQ(bitwiseCost(2, 0b1000), 1u); // a&b
  EXPECT_EQ(bitwiseCost(2, 0b1110), 1u); // a|b
}

TEST(Basis3, GeneratedTableIsDeterministicAndWellFormed) {
  std::string T1 = generateBasis3Table();
  std::string T2 = generateBasis3Table();
  EXPECT_EQ(T1, T2);
  std::istringstream In(T1);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line, "MBA-BASIS3 v1 vars=3 terms=256");
  unsigned Entries = 0;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      ++Entries;
  EXPECT_EQ(Entries, 256u);
}

TEST(Basis3, ShippedTableLoadsWhenPresent) {
  // The build points MBA_BASIS3_DEFAULT_PATH at data/basis3.tbl in the
  // source tree; loading must have either succeeded (normal checkout) or
  // recorded why it fell back — and the fallback never changes content, so
  // the cost/rpn queries above hold either way.
  const Basis3LoadInfo &Info = basis3LoadInfo();
  EXPECT_FALSE(Info.Path.empty());
  if (Info.FromFile)
    EXPECT_TRUE(Info.Error.empty()) << Info.Error;
  else
    EXPECT_FALSE(Info.Error.empty());
}

//===----------------------------------------------------------------------===//
// Term bank
//===----------------------------------------------------------------------===//

TEST(TermBank, BankCoversAllNonConstantFunctionsRanked) {
  for (unsigned T = 1; T <= MaxBasisVars; ++T) {
    std::span<const BankTerm> Bank = termBank(T);
    const uint32_t Full = (1u << (1u << T)) - 1;
    ASSERT_EQ(Bank.size(), (size_t)Full - 1);
    std::vector<bool> Seen(Full + 1, false);
    for (size_t I = 0; I != Bank.size(); ++I) {
      EXPECT_GT(Bank[I].Truth, 0u);
      EXPECT_LT(Bank[I].Truth, Full);
      EXPECT_FALSE(Seen[Bank[I].Truth]);
      Seen[Bank[I].Truth] = true;
      if (I) {
        EXPECT_LE(Bank[I - 1].Cost, Bank[I].Cost) << "rank order broken";
      }
      EXPECT_EQ(Bank[I].Cost, bitwiseCost(T, Bank[I].Truth));
    }
  }
}

TEST(TermBank, MintermAndTermValuesMatchDirectEvaluation) {
  Context Ctx(16);
  const unsigned T = 3;
  const unsigned Rows = 1u << T;
  const size_t N = 37;
  RNG Rng(42);
  std::vector<uint64_t> Inputs(T * N);
  for (auto &V : Inputs)
    V = Rng.next() & Ctx.mask();
  const uint64_t *VarVals[3] = {&Inputs[0], &Inputs[N], &Inputs[2 * N]};
  std::vector<uint64_t> Minterms((size_t)Rows * N);
  mintermValues({VarVals, T}, T, N, Ctx.mask(), Minterms.data());

  std::vector<const Expr *> Vars = {Ctx.getVar("a"), Ctx.getVar("b"),
                                    Ctx.getVar("c")};
  std::vector<uint64_t> Vals(3);
  for (uint32_t F = 1; F < (1u << Rows) - 1; F += 23) {
    const Expr *E = bitwiseFromTruth(Ctx, Vars, F);
    for (size_t J = 0; J != N; ++J) {
      for (unsigned I = 0; I != T; ++I)
        Vals[Vars[I]->varIndex()] = VarVals[I][J];
      ASSERT_EQ(termValue(Minterms.data(), N, F, J), evaluate(Ctx, E, Vals))
          << "truth " << F << " point " << J;
    }
  }
}

//===----------------------------------------------------------------------===//
// Synthesizer
//===----------------------------------------------------------------------===//

TEST(Synthesizer, RecognizesConstantsSinglesAndPairs) {
  // Width 32 keeps the pair-shape AIG proof around a second; at width 64
  // the same miter takes ~10s of SAT. The generous timeout absorbs noisy
  // machines — rejecting a correct candidate on a stopwatch would make
  // this test flaky, not wrong.
  Context Ctx(32);
  SynthOptions SO;
  SO.VerifyTimeoutSeconds = 30.0;
  Synthesizer Synth(Ctx, SO);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");

  // An opaquely-written constant: x & ~x + 7  ==>  7.
  const Expr *C = parse(Ctx, "(x & ~x) + 7");
  const Expr *RC = Synth.synthesize(C);
  ASSERT_NE(RC, nullptr);
  EXPECT_EQ(RC, Ctx.getConst(7));

  // A single-term shape: 3*(x^y) - 1 written with its xor expanded.
  const Expr *S = parse(Ctx, "3*((x|y) - (x&y)) - 1");
  const Expr *RS = Synth.synthesize(S);
  ASSERT_NE(RS, nullptr);
  EXPECT_EQ(RS, buildLinearCombination(Ctx, {{3, Ctx.getXor(X, Y)}},
                                       (uint64_t)-1));

  // A two-term shape: 5*(x&y) + 2*(x|y); feed an equivalent rewriting.
  const Expr *P = parse(Ctx, "2*x + 2*y + 3*(x&y)");
  const Expr *RP = Synth.synthesize(P);
  ASSERT_NE(RP, nullptr);
  expectEquivalent(Ctx, P, RP);

  const SynthStats &St = Synth.stats();
  EXPECT_EQ(St.Queries, 3u);
  EXPECT_EQ(St.Installed, 3u);
  EXPECT_EQ(St.VerifyRejected, 0u);
}

TEST(Synthesizer, EnumeratesSmallInputSpacesOnTimeout) {
  // With no SAT budget every proof the static prover cannot give times
  // out. Over two variables at width 8 (2^16 inputs) the synthesizer then
  // decides by enumeration; at width 32 the space is too large and it
  // declines.
  for (unsigned W : {8u, 32u}) {
    Context Ctx(W);
    SynthOptions SO;
    SO.VerifyTimeoutSeconds = 0;
    Synthesizer Synth(Ctx, SO);
    Obfuscator Obf(Ctx, /*Seed=*/4); // a form the static prover misses
    const Expr *Vars[2] = {Ctx.getVar("x"), Ctx.getVar("y")};
    const Expr *Ground = buildLinearCombination(
        Ctx, {{3, Ctx.getXor(Vars[0], Vars[1])}}, 5);
    const Expr *Obfuscated = Obf.obfuscateNonPoly(Ground, Vars, 3);

    const Expr *R = Synth.synthesize(Obfuscated);
    const SynthStats &St = Synth.stats();
    if (W == 8) {
      ASSERT_NE(R, nullptr) << printExpr(Ctx, Obfuscated);
      expectEquivalent(Ctx, Obfuscated, R);
      EXPECT_EQ(St.Enumerated, 1u);
      EXPECT_EQ(St.Installed, 1u);
    } else {
      EXPECT_EQ(R, nullptr) << printExpr(Ctx, Obfuscated);
      EXPECT_EQ(St.Enumerated, 0u);
      EXPECT_EQ(St.VerifyRejected, 1u);
    }
  }
}

TEST(Synthesizer, DeclinesWhatItCannotExpress) {
  Context Ctx(64);
  Synthesizer Synth(Ctx);
  // x*y is no linear combination of at most two bitwise terms.
  EXPECT_EQ(Synth.synthesize(parse(Ctx, "x*y")), nullptr);
  // Arity above the bank: four variables.
  EXPECT_EQ(Synth.synthesize(parse(Ctx, "w&(x|(y^z))")), nullptr);
  EXPECT_EQ(Synth.stats().Unsupported, 1u);
  EXPECT_EQ(Synth.stats().Installed, 0u);
}

TEST(Synthesizer, MemoHitsStayVerified) {
  Context Ctx(32);
  Synthesizer Synth(Ctx);
  const Expr *E = parse(Ctx, "3*((x|y) - (x&y)) - 1");
  const Expr *R1 = Synth.synthesize(E);
  ASSERT_NE(R1, nullptr);
  uint64_t HitsBefore = Synth.stats().CacheHits;
  // Same semantics, different syntax: the memo key is sampled semantics,
  // so this hits, replays the recipe, and must still prove it.
  const Expr *E2 = parse(Ctx, "3*(x^y) + (0 - 1)");
  const Expr *R2 = Synth.synthesize(E2);
  ASSERT_NE(R2, nullptr);
  EXPECT_EQ(R1, R2);
  EXPECT_GT(Synth.stats().CacheHits, HitsBefore);
}

TEST(Synthesizer, FallbackHookDeclinesForeignContexts) {
  Context A(64), B(64);
  Synthesizer Synth(A);
  auto Hook = Synth.fallbackHook();
  const Expr *E = parse(B, "(x&~x)+7");
  EXPECT_EQ(Hook(B, E), nullptr);
  EXPECT_EQ(Synth.stats().Queries, 0u);
}

//===----------------------------------------------------------------------===//
// MBASolver integration
//===----------------------------------------------------------------------===//

TEST(SynthFallback, SolverReducesOpaqueNonPolyResidue) {
  Context Ctx(64);
  // x*(x+1) is even, so its low bit never contributes: E == y. The
  // abstract-domain pre-pass is disabled so the case genuinely reaches the
  // non-poly path, where only the synthesizer can discover the identity.
  const char *Text = "y + ((x*(x+1)) & 1)";

  SimplifyOptions Plain;
  Plain.EnableKnownBits = false;
  MBASolver Without(Ctx, Plain);
  const Expr *E = parse(Ctx, Text);
  const Expr *RPlain = Without.simplify(E);
  EXPECT_GT(mbaAlternation(RPlain), 0u)
      << "baseline already solves this; the test lost its subject: "
      << printExpr(Ctx, RPlain);

  Synthesizer Synth(Ctx);
  RewriteTrail Trail;
  SimplifyOptions Opts;
  Opts.EnableKnownBits = false;
  Opts.SynthFallback = Synth.fallbackHook();
  Opts.Trail = &Trail;
  MBASolver With(Ctx, Opts);
  const Expr *R = With.simplify(E);
  EXPECT_EQ(R, Ctx.getVar("y")) << printExpr(Ctx, R);
  EXPECT_GE(Synth.stats().Installed, 1u);

  bool SawRule = false;
  for (const auto &Step : Trail.steps())
    if (Step.Rule == std::string("synth-fallback"))
      SawRule = true;
  EXPECT_TRUE(SawRule);

  // The audit replays every recorded step, including the synthesized one.
  AuditReport Audit = auditTrail(Ctx, Trail);
  EXPECT_TRUE(Audit.ok());
}

TEST(SynthFallback, CracksGeneratedOpaqueResidueToGroundForm) {
  // End-to-end over the generator: obfuscateOpaque layers carry-fact zeros
  // that the syntactic pipeline provably cannot remove (the consecutive
  // product is abstracted as an opaque temporary), while the synthesizer's
  // verified reconstruction plus re-canonicalization recovers the exact
  // canonical form of the un-obfuscated ground — pointer equality, not
  // just semantic equivalence.
  Context Ctx(64);
  Obfuscator Obf(Ctx, /*Seed=*/7);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  const Expr *Ground = parse(Ctx, "3*(x&y)+5");
  const Expr *Obfuscated = Obf.obfuscateOpaque(Ground, Vars, 2);
  ASSERT_NE(Obfuscated, Ground);

  SimplifyOptions Plain;
  MBASolver Without(Ctx, Plain);
  const Expr *RPlain = Without.simplify(Obfuscated);
  ASSERT_EQ(classifyMBA(Ctx, RPlain), MBAKind::NonPolynomial)
      << "plain pipeline removed the opaque zero; the test lost its "
         "subject: "
      << printExpr(Ctx, RPlain);

  Synthesizer Synth(Ctx);
  SimplifyOptions Opts;
  Opts.SynthFallback = Synth.fallbackHook();
  MBASolver With(Ctx, Opts);
  const Expr *R = With.simplify(Obfuscated);
  const Expr *RGround = Without.simplify(Ground);
  EXPECT_EQ(R, RGround) << printExpr(Ctx, R) << "  vs  "
                        << printExpr(Ctx, RGround);
  EXPECT_GE(Synth.stats().Installed, 1u);
  expectEquivalent(Ctx, R, Ground);
}

TEST(SynthFallback, OptionChangesFingerprintAndSuspendsResultCache) {
  // Differently-hooked solvers must not alias one shared-cache entry;
  // the option folds into the fingerprint and suspends the result layer.
  SimplifyOptions A, B;
  B.SynthFallback = [](Context &, const Expr *) -> const Expr * {
    return nullptr;
  };
  // No public fingerprint accessor: equivalence is covered by the cache
  // suspension test below plus the fingerprint fold (compile-time wiring);
  // here we assert behaviour — a hooked solver ignores the shared cache.
  Context Ctx(64);
  SimplifyCache Cache(64);
  A.SharedCache = &Cache;
  B.SharedCache = &Cache;
  const Expr *E = parse(Ctx, "(x|y)+(x&y)");
  MBASolver SA(Ctx, A);
  const Expr *R1 = SA.simplify(E);
  CacheStats AfterFirst = Cache.resultStats();
  MBASolver SB(Ctx, B);
  const Expr *R2 = SB.simplify(E);
  EXPECT_EQ(R1, R2); // a declining hook must not change output
  // The hooked run neither hit nor inserted into the result layer.
  CacheStats AfterSecond = Cache.resultStats();
  EXPECT_EQ(AfterFirst.Inserts, AfterSecond.Inserts);
  EXPECT_EQ(AfterFirst.Hits, AfterSecond.Hits);
}

} // namespace
