//===- tests/ir_pass_test.cpp - Deobfuscation pass tests ------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Passes.h"

#include "ast/Evaluator.h"
#include "ir/Dataflow.h"
#include "ir/IRDot.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace mba;

namespace {

Function parseOne(Context &Ctx, const char *Text) {
  Diag D;
  auto P = Program::parse(Ctx, Text, &D);
  EXPECT_TRUE(P.has_value()) << D.str();
  return std::move(P->Functions.front());
}

/// interpretFunction(F) must agree with \p Ground (over F's parameters) on
/// \p Trials random inputs.
void expectSemantics(const Context &Ctx, const Function &F,
                     const Expr *Ground, unsigned Trials = 32) {
  RNG R(0x5eed);
  for (unsigned T = 0; T != Trials; ++T) {
    std::vector<uint64_t> Args;
    std::unordered_map<const Expr *, uint64_t> Env;
    for (const Expr *P : F.Params) {
      uint64_t V = R.next() & Ctx.mask();
      Args.push_back(V);
      Env.emplace(P, V);
    }
    auto Got = interpretFunction(Ctx, F, Args);
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, evaluate(Ctx, Ground, Env));
  }
}

const char *OpaqueText = R"(
func @d(x, y) {
entry:
  p = (x | 1) & 1
  br p, real, junk
junk:
  j = (x ^ y) & (x | y)
  jmp real
real:
  t1 = (x & y) + (x | y)
  t2 = t1 * 2
  ret t2
}
)";

TEST(IRFold, AlwaysTakenOpaquePredicate) {
  Context Ctx(64);
  Function F = parseOne(Ctx, OpaqueText);
  FunctionReport Report;
  EXPECT_EQ(foldOpaqueBranches(Ctx, F, nullptr, &Report), 1u);
  EXPECT_EQ(Report.BranchesFolded, 1u);
  EXPECT_EQ(F.entry().Term.Kind, TermKind::Jump);
  EXPECT_EQ(F.Blocks[F.entry().Term.Succs[0]].Name, "real");
  EXPECT_EQ(removeUnreachableBlocks(F, &Report), 1u); // junk is gone
  EXPECT_EQ(F.findBlock("junk"), -1);
  const Expr *Ground =
      Ctx.getMul(Ctx.getAdd(Ctx.getVar("x"), Ctx.getVar("y")),
                 Ctx.getConst(2));
  expectSemantics(Ctx, F, Ground);
}

TEST(IRFold, NeverTakenBranch) {
  Context Ctx(64);
  Function F = parseOne(Ctx,
                        "func @n(x) {\nentry:\n  p = x ^ x\n"
                        "  br p, junk, real\n"
                        "junk:\n  ret 0\n"
                        "real:\n  r = x + 1\n  ret r\n}\n");
  EXPECT_EQ(foldOpaqueBranches(Ctx, F, nullptr), 1u);
  EXPECT_EQ(F.entry().Term.Kind, TermKind::Jump);
  EXPECT_EQ(F.Blocks[F.entry().Term.Succs[0]].Name, "real");
}

TEST(IRFold, VerifiedFoldWithChecker) {
  Context Ctx(64);
  Function F = parseOne(Ctx, OpaqueText);
  Pipeline Verifier(Ctx, regionVerifierConfig(PassOptions()));
  FunctionReport Report;
  EXPECT_EQ(foldOpaqueBranches(Ctx, F, &Verifier, &Report), 1u);
  EXPECT_EQ(Report.BranchesFolded, 1u);
}

TEST(IRPass, RemoveUnreachableRemapsPhis) {
  Context Ctx(64);
  Function F = parseOne(Ctx,
                        "func @r(x) {\nentry:\n  jmp exit\n"
                        "dead:\n  jmp exit\n"
                        "exit:\n  m = phi [entry: 7], [dead: 9]\n"
                        "  ret m\n}\n");
  EXPECT_EQ(removeUnreachableBlocks(F), 1u);
  ASSERT_EQ(F.numBlocks(), 2u);
  EXPECT_EQ(F.entry().Term.Succs[0], 1u);
  ASSERT_EQ(F.Blocks[1].Phis.size(), 1u);
  ASSERT_EQ(F.Blocks[1].Phis[0].Incoming.size(), 1u);
  EXPECT_EQ(F.Blocks[1].Phis[0].Incoming[0].first, 0u);
  uint64_t Args[] = {5};
  EXPECT_EQ(interpretFunction(Ctx, F, Args), std::optional<uint64_t>(7));

  // The now single-incoming phi is trivial; substitution removes it.
  EXPECT_EQ(simplifyTrivialPhis(Ctx, F), 1u);
  EXPECT_TRUE(F.Blocks[1].Phis.empty());
  EXPECT_EQ(interpretFunction(Ctx, F, Args), std::optional<uint64_t>(7));
}

TEST(IRPass, AllEqualPhiIsTrivial) {
  Context Ctx(64);
  Function F = parseOne(Ctx,
                        "func @q(x) {\nentry:\n  br x, a, b\n"
                        "a:\n  jmp join\nb:\n  jmp join\n"
                        "join:\n  m = phi [a: x], [b: x]\n  ret m\n}\n");
  EXPECT_EQ(simplifyTrivialPhis(Ctx, F), 1u);
  EXPECT_TRUE(F.Blocks[3].Phis.empty());
  expectSemantics(Ctx, F, Ctx.getVar("x"));
}

TEST(IRPass, EliminateDeadInstructions) {
  Context Ctx(64);
  Function F = parseOne(Ctx,
                        "func @e(x) {\nentry:\n  a = x + 1\n  b = x * 2\n"
                        "  ret b\n}\n");
  EXPECT_EQ(eliminateDeadInstructions(F), 1u);
  ASSERT_EQ(F.entry().Insts.size(), 1u);
  EXPECT_STREQ(F.entry().Insts[0].Dest->varName(), "b");
}

TEST(IRRegion, RewritesLinearMBARegion) {
  Context Ctx(64);
  Function F = parseOne(
      Ctx, "func @m(x, y) {\nentry:\n"
           "  t1 = (x & y) + (x | y)\n"
           "  t2 = (x ^ y) + ((x & y) * 2)\n"
           "  r = t1 + t2\n"
           "  ret r\n}\n");
  const Expr *Ground = Ctx.getMul(
      Ctx.getAdd(Ctx.getVar("x"), Ctx.getVar("y")), Ctx.getConst(2));
  MBASolver Solver(Ctx);
  Pipeline Verifier(Ctx, regionVerifierConfig(PassOptions()));
  PassOptions Opts;
  FunctionReport Report;
  EXPECT_GE(rewriteMBARegions(Ctx, F, Solver, &Verifier, Opts, &Report),
            1u);
  EXPECT_GE(Report.RegionsFound, 1u);
  EXPECT_GE(Report.RegionsRewritten, 1u);
  EXPECT_EQ(Report.UnsoundBlocked, 0u);
  ASSERT_FALSE(Report.Regions.empty());
  EXPECT_TRUE(Report.Regions[0].Verified);
  EXPECT_LT(Report.Regions[0].AlternationAfter,
            Report.Regions[0].AlternationBefore);
  eliminateDeadInstructions(F);
  expectSemantics(Ctx, F, Ground);
}

TEST(IRRegion, UnsoundSynthFallbackIsBlocked) {
  // x*(x+1) is even, so t == y. With the abstract fold off the low-bit term
  // stays as non-poly residue, which reaches the synthesis fallback; this
  // one answers the wrong constant 1. The verifier must refute the
  // candidate and the pass must keep the original code.
  Context Ctx(64);
  Function F = parseOne(
      Ctx, "func @u(x, y) {\nentry:\n  t = y + ((x*(x+1)) & 1)\n  ret t\n}\n");
  SimplifyOptions Bad;
  Bad.EnableKnownBits = false;
  Bad.SynthFallback = [](Context &C, const Expr *) { return C.getConst(1); };
  MBASolver Solver(Ctx, Bad);
  Pipeline Verifier(Ctx, regionVerifierConfig(PassOptions()));
  PassOptions Opts;
  FunctionReport Report;
  EXPECT_EQ(rewriteMBARegions(Ctx, F, Solver, &Verifier, Opts, &Report),
            0u);
  EXPECT_GE(Report.RegionsFound, 1u);
  EXPECT_EQ(Report.RegionsRewritten, 0u);
  EXPECT_GE(Report.UnsoundBlocked, 1u);
  expectSemantics(Ctx, F, Ctx.getVar("y"));
}

TEST(IRPipeline, DeobfuscatesOpaqueDemoEndToEnd) {
  Context Ctx(64);
  Function F = parseOne(Ctx, OpaqueText);
  MBASolver Solver(Ctx);
  Pipeline Verifier(Ctx, regionVerifierConfig(PassOptions()));
  FunctionReport R = deobfuscateFunction(Ctx, F, Solver, &Verifier);
  EXPECT_EQ(R.BranchesFolded, 1u);
  EXPECT_EQ(R.UnsoundBlocked, 0u);
  EXPECT_LT(R.BlocksAfter, R.BlocksBefore);
  EXPECT_LT(R.NodesAfter, R.NodesBefore);
  EXPECT_NE(R.str().find("branches folded"), std::string::npos);
  const Expr *Ground =
      Ctx.getMul(Ctx.getAdd(Ctx.getVar("x"), Ctx.getVar("y")),
                 Ctx.getConst(2));
  expectSemantics(Ctx, F, Ground);
}

TEST(IRDotExport, CfgAndDefUseAreWellFormed) {
  Context Ctx(64);
  Function F = parseOne(Ctx, OpaqueText);
  for (const std::string &Dot :
       {cfgToDot(Ctx, F, "cfg_d"), defUseToDot(Ctx, F, "defuse_d")}) {
    EXPECT_NE(Dot.find("digraph"), std::string::npos);
    EXPECT_NE(Dot.find("->"), std::string::npos);
    EXPECT_EQ(std::count(Dot.begin(), Dot.end(), '{'),
              std::count(Dot.begin(), Dot.end(), '}'));
    EXPECT_EQ(std::count(Dot.begin(), Dot.end(), '"') % 2, 0);
  }
  EXPECT_NE(cfgToDot(Ctx, F).find("junk"), std::string::npos);
  EXPECT_NE(defUseToDot(Ctx, F).find("t1"), std::string::npos);
}

uint64_t counterValue(const char *Name) {
  for (const telemetry::MetricValue &M : telemetry::snapshotMetrics())
    if (M.Name == Name)
      return M.Value;
  return 0;
}

TEST(IRTelemetry, PipelineCountersAreMirrored) {
  telemetry::setMetricsEnabled(true);
  uint64_t Found0 = counterValue("ir.regions_found");
  uint64_t Rewritten0 = counterValue("ir.regions_rewritten");
  uint64_t Folded0 = counterValue("ir.branches_folded");

  Context Ctx(64);
  Diag D;
  auto P = Program::parse(Ctx, OpaqueText, &D);
  ASSERT_TRUE(P.has_value()) << D.str();
  ProgramReport R = deobfuscateProgram(Ctx, *P);
  EXPECT_EQ(R.totalUnsoundBlocked(), 0u);

  EXPECT_GE(counterValue("ir.regions_found"),
            Found0 + R.totalRegionsFound());
  EXPECT_GE(counterValue("ir.regions_rewritten"),
            Rewritten0 + R.totalRegionsRewritten());
  EXPECT_GE(counterValue("ir.branches_folded"),
            Folded0 + R.totalBranchesFolded());
  EXPECT_GE(R.totalBranchesFolded(), 1u);

  // And the Prometheus dump carries the mba_ir_* names the CI smoke job
  // asserts on.
  std::string Path = ::testing::TempDir() + "ir_pass_test_metrics.txt";
  ASSERT_TRUE(telemetry::writeMetricsText(Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  EXPECT_NE(Text.find("mba_ir_regions_found"), std::string::npos);
  EXPECT_NE(Text.find("mba_ir_regions_rewritten"), std::string::npos);
  EXPECT_NE(Text.find("mba_ir_branches_folded"), std::string::npos);
}

} // namespace
