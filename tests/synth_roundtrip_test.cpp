//===- tests/synth_roundtrip_test.cpp - 500-target synthesis round trip ---===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Round trip through the enumerative synthesizer: draw a random ground
/// truth in one of the bank's shapes (constant, a*f+c, a1*f1+a2*f2+c over
/// up to three variables), hide it behind non-polynomial obfuscation
/// rewrites (gen/Obfuscator.h), and require the synthesizer to recover a
/// checker-proved equivalent. Every installed result is verified Equivalent
/// by the staged checker inside synthesize(); the test additionally
/// re-proves a slice of the results independently.
///
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "ast/ExprUtils.h"
#include "ast/Printer.h"
#include "gen/Obfuscator.h"
#include "poly/PolyExpr.h"
#include "solvers/EquivalenceChecker.h"
#include "support/RNG.h"
#include "synth/Basis3.h"

#include <gtest/gtest.h>

using namespace mba;
using namespace mba::synth;

namespace {

TEST(SynthRoundTrip, FiveHundredObfuscatedTargets) {
  // Width 8: the AIG stage proves nearly every obfuscated-vs-candidate
  // miter in milliseconds, and the few that outlast its budget span only
  // 2^24 inputs, which the synthesizer then enumerates; so all 500
  // installs are gated by a real proof. At wider widths the raw obfuscated miters (random w-bit coefficients buried
  // under bitwise-over-arithmetic rewrites) routinely exhaust a SAT
  // timeout — exactly the hardness the paper is about — and the
  // synthesizer would soundly decline instead of installing.
  Context Ctx(8);
  Obfuscator Obf(Ctx, /*Seed=*/0xB057ED);
  RNG Rng(20210620);
  Synthesizer Synth(Ctx);
  auto Independent = makeStagedChecker(Ctx, makeAigChecker());

  const Expr *AllVars[3] = {Ctx.getVar("x"), Ctx.getVar("y"),
                            Ctx.getVar("z")};
  unsigned Recovered = 0;
  for (unsigned Case = 0; Case != 500; ++Case) {
    const unsigned T = 1 + Rng.below(3);
    std::span<const Expr *const> Vars{AllVars, T};
    const unsigned Rows = 1u << T;
    const uint32_t Full = (1u << Rows) - 1;

    // Ground truth in a bank shape. Truths avoid the constants (0, Full);
    // coefficients avoid 0.
    auto RandTruth = [&] { return 1 + (uint32_t)Rng.below(Full - 1); };
    auto RandCoeff = [&] {
      uint64_t C;
      do
        C = Rng.next() & Ctx.mask();
      while (!C);
      return C;
    };
    const Expr *Ground;
    switch (Case % 3) {
    case 0:
      Ground = Ctx.getConst(Rng.next() & Ctx.mask());
      break;
    case 1:
      Ground = buildLinearCombination(
          Ctx, {{RandCoeff(), bitwiseFromTruth(Ctx, Vars, RandTruth())}},
          Rng.next() & Ctx.mask());
      break;
    default: {
      uint32_t T1 = RandTruth(), T2 = RandTruth();
      while (T2 == T1)
        T2 = RandTruth();
      Ground = buildLinearCombination(
          Ctx,
          {{RandCoeff(), bitwiseFromTruth(Ctx, Vars, T1)},
           {RandCoeff(), bitwiseFromTruth(Ctx, Vars, T2)}},
          Rng.next() & Ctx.mask());
      break;
    }
    }

    // Bury it under bitwise-over-arithmetic rewrites.
    const Expr *Obfuscated = Obf.obfuscateNonPoly(Ground, Vars, 3);

    const Expr *R = Synth.synthesize(Obfuscated);
    ASSERT_NE(R, nullptr) << "case " << Case << ": failed to recover "
                          << printExpr(Ctx, Ground) << " from "
                          << printExpr(Ctx, Obfuscated);
    ++Recovered;

    // Independent re-proof on a slice (the synthesizer already proved
    // every installed result internally).
    if (Case % 25 == 0) {
      CheckResult CR = Independent->check(Ctx, Obfuscated, R, 10.0);
      EXPECT_EQ(CR.Outcome, Verdict::Equivalent)
          << "case " << Case << ": " << printExpr(Ctx, R);
    }
  }

  const SynthStats &St = Synth.stats();
  EXPECT_EQ(Recovered, 500u);
  // Every returned result passed through the verifier (fresh or memoized).
  EXPECT_EQ(St.Installed, 500u);
  EXPECT_EQ(St.VerifyRejected, 0u);
}

} // namespace
