//===- tests/solvers_test.cpp - Solver backend tests ----------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/EquivalenceChecker.h"
#include "solvers/Pipeline.h"

#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "gen/SeedIdentities.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

TEST(Checkers, AllBackendsAvailable) {
  auto Checkers = makeAllCheckers();
  // At least the two blast configurations; Z3 when built in.
  EXPECT_GE(Checkers.size(), 2u);
  for (auto &C : Checkers)
    EXPECT_FALSE(C->name().empty());
}

TEST(Checkers, VerdictNames) {
  EXPECT_STREQ(verdictName(Verdict::Equivalent), "equivalent");
  EXPECT_STREQ(verdictName(Verdict::NotEquivalent), "not-equivalent");
  EXPECT_STREQ(verdictName(Verdict::Timeout), "timeout");
}

class BackendTest : public ::testing::TestWithParam<int> {
protected:
  std::unique_ptr<EquivalenceChecker> checker() {
    auto All = makeAllCheckers();
    return std::move(All[GetParam() % All.size()]);
  }
};

TEST_P(BackendTest, ProvesSimpleIdentities) {
  Context Ctx(8); // narrow width keeps blast queries fast
  auto C = checker();
  struct Pair {
    const char *L, *R;
  } Pairs[] = {
      {"(x&~y) + y", "x|y"},
      {"(x|y) - (x&y)", "x^y"},
      {"x + y", "(x^y) + 2*(x&y)"},
      {"~x + 1", "-x"},
      {"x", "x"},
  };
  for (auto &P : Pairs) {
    CheckResult R = C->check(Ctx, parseOrDie(Ctx, P.L), parseOrDie(Ctx, P.R),
                             /*TimeoutSeconds=*/20);
    EXPECT_EQ(R.Outcome, Verdict::Equivalent)
        << C->name() << ": " << P.L << " == " << P.R;
  }
}

TEST_P(BackendTest, RefutesNonIdentities) {
  Context Ctx(8);
  auto C = checker();
  struct Pair {
    const char *L, *R;
  } Pairs[] = {
      {"x + y", "x | y"},
      {"x * y", "x & y"},
      {"x - y", "y - x"},
      {"x + 1", "x"},
  };
  for (auto &P : Pairs) {
    CheckResult R = C->check(Ctx, parseOrDie(Ctx, P.L), parseOrDie(Ctx, P.R),
                             /*TimeoutSeconds=*/20);
    EXPECT_EQ(R.Outcome, Verdict::NotEquivalent)
        << C->name() << ": " << P.L << " vs " << P.R;
  }
}

TEST_P(BackendTest, SeedIdentitiesAtWidth8) {
  Context Ctx(8);
  auto C = checker();
  for (const SeedIdentity &S : seedIdentities()) {
    // Skip the poly identity for the blast backends at this budget: 8-bit
    // multiplication refutation is feasible but slow in plain mode.
    if (S.Category == MBAKind::Polynomial && C->name() != "Z3")
      continue;
    ParsedIdentity P = parseSeedIdentity(Ctx, S);
    CheckResult R = C->check(Ctx, P.Obfuscated, P.Ground, 30);
    EXPECT_EQ(R.Outcome, Verdict::Equivalent)
        << C->name() << ": " << S.Obfuscated;
  }
}

TEST_P(BackendTest, TimeoutReportsTimeout) {
  // A hard query at width 64 with a ~50ms budget must time out (this is
  // the Figure 1 expression that stalls Z3 for an hour).
  Context Ctx(64);
  auto C = checker();
  const Expr *L = parseOrDie(Ctx, "x*y");
  const Expr *R = parseOrDie(Ctx, "(x&~y)*(~x&y) + (x&y)*(x|y)");
  CheckResult Res = C->check(Ctx, L, R, 0.05);
  EXPECT_EQ(Res.Outcome, Verdict::Timeout) << C->name();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(0, 1, 2));

TEST(Z3Backend, SolvesWidth64Linear) {
  auto Z3 = makeZ3Checker();
  if (!Z3)
    GTEST_SKIP() << "built without Z3";
  Context Ctx(64);
  CheckResult R =
      Z3->check(Ctx, parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)"),
                parseOrDie(Ctx, "x + y"), 30);
  EXPECT_EQ(R.Outcome, Verdict::Equivalent);
}

TEST(BlastBackend, RewritingNoWorseOnEqualSyntax) {
  // Identical expressions blast to identical words under rewriting: the
  // disequality collapses at encode time and solves instantly.
  Context Ctx(64);
  auto C = makeBlastChecker(true);
  const Expr *E = parseOrDie(Ctx, "x*y + (x&y) - 3");
  CheckResult R = C->check(Ctx, E, E, 5);
  EXPECT_EQ(R.Outcome, Verdict::Equivalent);
  EXPECT_LT(R.Seconds, 1.0);
}

/// Inner backend that returns a fixed verdict and counts invocations — the
/// observable for the verdict-cache short-circuit tests.
class CountingChecker final : public EquivalenceChecker {
public:
  CountingChecker(unsigned &Calls, Verdict Result)
      : Calls(Calls), Result(Result) {}
  std::string name() const override { return "Counting"; }
  CheckResult check(const Context &, const Expr *, const Expr *,
                    double) override {
    ++Calls;
    return {Result, 0.0001};
  }

private:
  unsigned &Calls;
  Verdict Result;
};

TEST(VerdictCacheStaged, RepeatQueriesSkipStageZeroAndInner) {
  Context Ctx(8);
  StageZeroStats Stats;
  VerdictCache Cache;
  unsigned InnerCalls = 0;
  auto Staged = makeStagedChecker(
      Ctx, std::make_unique<CountingChecker>(InnerCalls, Verdict::Equivalent),
      &Stats, ProveBudget(), &Cache);
  const Expr *A = parseOrDie(Ctx, "(x&~y) + y");
  const Expr *B = parseOrDie(Ctx, "x|y");

  CheckResult First = Staged->check(Ctx, A, B, 1.0);
  ASSERT_EQ(Stats.queries(), 1u);
  unsigned InnerAfterFirst = InnerCalls;

  CheckResult Second = Staged->check(Ctx, A, B, 1.0);
  EXPECT_EQ(Second.Outcome, First.Outcome);
  EXPECT_EQ(Stats.queries(), 1u)
      << "a cache hit must not re-run stage 0 or bump its counters";
  EXPECT_EQ(InnerCalls, InnerAfterFirst);
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

TEST(VerdictCacheStaged, UnknownEntriesRespectBudgets) {
  Context Ctx(8);
  VerdictCache Cache;
  unsigned InnerCalls = 0;
  // A zero-iteration prover budget keeps this equivalent-but-dissimilar
  // pair undecided in stage 0, so every uncached query reaches the inner
  // backend — which always times out.
  ProveBudget Budget;
  Budget.MaxIterations = 0;
  auto Staged = makeStagedChecker(
      Ctx, std::make_unique<CountingChecker>(InnerCalls, Verdict::Timeout),
      nullptr, Budget, &Cache);
  const Expr *A = parseOrDie(Ctx, "x*x + 2*x");
  const Expr *B = parseOrDie(Ctx, "x*(x + 2)");

  EXPECT_EQ(Staged->check(Ctx, A, B, 1.0).Outcome, Verdict::Timeout);
  ASSERT_EQ(InnerCalls, 1u) << "expected a stage-0 fallthrough";

  // Equal or smaller budget: the recorded failure covers it.
  EXPECT_EQ(Staged->check(Ctx, A, B, 0.5).Outcome, Verdict::Timeout);
  EXPECT_EQ(InnerCalls, 1u);

  // Larger budget: the query must actually run again, widening the entry.
  EXPECT_EQ(Staged->check(Ctx, A, B, 2.0).Outcome, Verdict::Timeout);
  EXPECT_EQ(InnerCalls, 2u);
  EXPECT_EQ(Staged->check(Ctx, A, B, 1.5).Outcome, Verdict::Timeout);
  EXPECT_EQ(InnerCalls, 2u);
}

TEST(Pipeline, MatrixMatchesTheRawBackends) {
  // Each profile of the paper's matrix, staged or not, answers like the
  // bare backend it replaces: stage 0 only removes work.
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 4;
  CorpusOpts.PolyCount = 2;
  CorpusOpts.NonPolyCount = 2;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);
  PipelineConfig Base;
  Base.TimeoutSeconds = 30;
  std::vector<PipelineConfig> Matrix = paperSolverMatrix(Base);
  auto Raw = makeAllCheckers();
  ASSERT_EQ(Matrix.size(), Raw.size());
  for (size_t C = 0; C != Matrix.size(); ++C) {
    Pipeline P(Ctx, Matrix[C]);
    EXPECT_EQ(P.name(), Raw[C]->name());
    for (const CorpusEntry &E : Corpus) {
      const Expr *L = P.simplify(E.Obfuscated);
      const Expr *R = P.simplify(E.Ground);
      const Expr *Off = Ctx.getAdd(R, Ctx.getConst(1));
      EXPECT_EQ(P.check(L, R).Outcome, Raw[C]->check(Ctx, L, R, 30).Outcome)
          << P.name();
      EXPECT_EQ(P.check(L, Off).Outcome,
                Raw[C]->check(Ctx, L, Off, 30).Outcome)
          << P.name();
    }
    EXPECT_GT(P.stageZeroStats().queries(), 0u);
  }
}

TEST(Pipeline, RefuteFirstAnswersWithoutStageZero) {
  Context Ctx(64);
  PipelineConfig Config;
  Config.RefuteFirst = true;
  Pipeline P(Ctx, Config);
  CheckResult R = P.check(parseOrDie(Ctx, "x + y"), parseOrDie(Ctx, "x | y"));
  EXPECT_EQ(R.Outcome, Verdict::NotEquivalent);
  EXPECT_EQ(P.stageZeroStats().queries(), 0u);
}

TEST(Pipeline, SimplifyPrintsLikeABareSolver) {
  Context Ctx(64);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = CorpusOpts.PolyCount = CorpusOpts.NonPolyCount = 5;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);
  Pipeline P(Ctx, PipelineConfig());
  MBASolver Bare(Ctx);
  for (const CorpusEntry &E : Corpus)
    EXPECT_EQ(printExpr(Ctx, P.simplify(E.Obfuscated)),
              printExpr(Ctx, Bare.simplify(E.Obfuscated)));
}

} // namespace
