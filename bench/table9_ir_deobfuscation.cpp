//===- bench/table9_ir_deobfuscation.cpp - IR pipeline study --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The program-level companion to Table 6: runs the static IR deobfuscation
/// pipeline (ir/Passes.h) on a generated corpus of obfuscated programs and
/// measures
///
///   - node-count reduction (expression volume before / after),
///   - opaque branches folded and MBA regions rewritten,
///   - the solve-rate uplift: equivalence queries "program == ground truth"
///     posed to the bit-blasting backend raw vs after deobfuscation
///     (straight-line programs only — a genuine input-dependent diamond has
///     no single flattened expression),
///   - soundness: every program is interpreted against its ground-truth
///     expression on random inputs before AND after the pipeline, and every
///     rewrite inside the pipeline is re-verified by the staged equivalence
///     checker. Any disagreement fails the run.
///
/// Flags: --count=N programs (default 60), plus the shared harness flags
/// --width=BITS --timeout=SECONDS --seed=N --json=PATH --trace=PATH
/// --metrics=PATH.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "ast/Context.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "gen/ProgramGen.h"
#include "ir/Passes.h"
#include "ir/Program.h"
#include "solvers/Pipeline.h"
#include "support/RNG.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace mba;
using namespace mba::bench;

namespace {

/// The 'ret' expression of \p F, or null when no block returns.
const Expr *retValue(const Function &F) {
  for (const BasicBlock &B : F.Blocks)
    if (B.Term.Kind == TermKind::Ret)
      return B.Term.Value;
  return nullptr;
}

/// Interprets \p F against \p Ground on \p Trials random inputs. Returns
/// false (and reports on stderr) on any disagreement or interpreter
/// non-termination.
bool agreesWithGround(const Context &Ctx, const Function &F,
                      const Expr *Ground, RNG &R, unsigned Trials,
                      const char *Stage) {
  for (unsigned T = 0; T != Trials; ++T) {
    std::vector<uint64_t> Args;
    std::unordered_map<const Expr *, uint64_t> Env;
    for (const Expr *P : F.Params) {
      uint64_t V = R.next() & Ctx.mask();
      Args.push_back(V);
      Env.emplace(P, V);
    }
    std::optional<uint64_t> Got = interpretFunction(Ctx, F, Args);
    uint64_t Want = evaluate(Ctx, Ground, Env);
    if (!Got || *Got != Want) {
      std::fprintf(stderr,
                   "FAIL(%s): @%s disagrees with ground truth "
                   "(got %s, want %llu)\n",
                   Stage, F.Name.c_str(),
                   Got ? std::to_string(*Got).c_str() : "<no ret>",
                   (unsigned long long)Want);
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // --count is this driver's own flag; strip it before the shared parser.
  unsigned Count = 60;
  std::vector<char *> HarnessArgv;
  for (int I = 0; I < Argc; ++I) {
    unsigned V = 0;
    if (I > 0 && std::sscanf(Argv[I], "--count=%u", &V) == 1)
      Count = V;
    else
      HarnessArgv.push_back(Argv[I]);
  }
  HarnessOptions Opts =
      parseHarnessArgs((int)HarnessArgv.size(), HarnessArgv.data());
  enableTelemetry(Opts);

  Context Ctx(Opts.Width);
  ProgramGenOptions GenOpts;
  std::vector<GeneratedProgram> Corpus =
      generateProgramCorpus(Ctx, Count, Opts.Seed, GenOpts,
                            /*MixBranchy=*/true);

  PassOptions POpts;
  POpts.VerifyTimeout = Opts.TimeoutSeconds;
  MBASolver Solver(Ctx);
  Pipeline Verifier(Ctx, regionVerifierConfig(POpts));
  // The solve-rate query: the verifier's backend alone.
  PipelineConfig SolveConfig = regionVerifierConfig(POpts);
  SolveConfig.StageZero = SolveConfig.RefuteFirst = false;
  Pipeline RawSolver(Ctx, SolveConfig);

  RNG CheckRng(Opts.Seed ^ 0x9e3779b97f4a7c15ULL);
  size_t NodesBefore = 0, NodesAfter = 0;
  size_t InstsBefore = 0, InstsAfter = 0;
  size_t RegionsFound = 0, RegionsRewritten = 0;
  size_t BranchesFolded = 0, Unsound = 0;
  unsigned RawSolved = 0, SimpSolved = 0, SolveQueries = 0;
  double RawSeconds = 0, SimpSeconds = 0, PipelineSeconds = 0;
  unsigned Failures = 0;

  for (size_t I = 0; I != Corpus.size(); ++I) {
    const GeneratedProgram &G = Corpus[I];
    Diag D;
    std::optional<Program> P = Program::parse(Ctx, G.Text, &D);
    if (!P) {
      std::fprintf(stderr, "FAIL(parse): program %zu: %s\n", I,
                   D.str().c_str());
      ++Failures;
      continue;
    }
    Function &F = P->Functions.front();
    if (!agreesWithGround(Ctx, F, G.Ground, CheckRng, 8, "pre")) {
      ++Failures;
      continue;
    }

    // Raw solve: straight-line programs flatten to one pure expression.
    const Expr *RawFlat = nullptr;
    if (!G.Branchy)
      RawFlat = flattenValue(Ctx, F, retValue(F));

    Stopwatch PipeTimer;
    FunctionReport R = deobfuscateFunction(Ctx, F, Solver, &Verifier, POpts);
    PipelineSeconds += PipeTimer.seconds();

    if (!agreesWithGround(Ctx, F, G.Ground, CheckRng, 8, "post")) {
      ++Failures;
      continue;
    }

    NodesBefore += R.NodesBefore;
    NodesAfter += R.NodesAfter;
    InstsBefore += R.InstsBefore;
    InstsAfter += R.InstsAfter;
    RegionsFound += R.RegionsFound;
    RegionsRewritten += R.RegionsRewritten;
    BranchesFolded += R.BranchesFolded;
    Unsound += R.UnsoundBlocked;

    if (RawFlat) {
      ++SolveQueries;
      CheckResult Raw = RawSolver.check(RawFlat, G.Ground);
      RawSeconds += Raw.Seconds;
      if (Raw.Outcome == Verdict::Equivalent)
        ++RawSolved;
      if (Raw.Outcome == Verdict::NotEquivalent) {
        std::fprintf(stderr, "FAIL(raw-check): program %zu not equivalent "
                             "to its ground truth\n", I);
        ++Failures;
      }
      const Expr *SimpFlat = flattenValue(Ctx, F, retValue(F));
      CheckResult Simp = RawSolver.check(SimpFlat, G.Ground);
      SimpSeconds += Simp.Seconds;
      if (Simp.Outcome == Verdict::Equivalent)
        ++SimpSolved;
      if (Simp.Outcome == Verdict::NotEquivalent) {
        std::fprintf(stderr, "FAIL(simp-check): program %zu changed "
                             "semantics in the pipeline\n", I);
        ++Failures;
      }
    }
  }

  std::printf("=== Table 9: static IR deobfuscation "
              "(%u programs, width %u, seed %llu) ===\n",
              Count, Opts.Width, (unsigned long long)Opts.Seed);
  std::printf("%-28s %14zu -> %zu (%.1f%% reduction)\n",
              "expression nodes", NodesBefore, NodesAfter,
              NodesBefore
                  ? 100.0 * (double)(NodesBefore - NodesAfter) /
                        (double)NodesBefore
                  : 0.0);
  std::printf("%-28s %14zu -> %zu\n", "instructions (incl. phis)",
              InstsBefore, InstsAfter);
  std::printf("%-28s %14zu found, %zu rewritten\n", "MBA regions",
              RegionsFound, RegionsRewritten);
  std::printf("%-28s %14zu\n", "opaque branches folded", BranchesFolded);
  std::printf("%-28s %14zu (must be 0)\n", "unsound rewrites blocked",
              Unsound);
  std::printf("%-28s %14.2f s total\n", "pipeline time", PipelineSeconds);
  std::printf("\nSolve-rate uplift (straight-line programs, BlastBV+RW, "
              "%.2f s budget):\n", Opts.TimeoutSeconds);
  std::printf("  raw        %u / %u solved  (%.2f s)\n", RawSolved,
              SolveQueries, RawSeconds);
  std::printf("  deobfuscated %u / %u solved  (%.2f s)\n", SimpSolved,
              SolveQueries, SimpSeconds);

  if (!Opts.JsonPath.empty()) {
    std::ofstream Out(Opts.JsonPath);
    Out << "{\n"
        << "  \"table\": \"table9_ir_deobfuscation\",\n"
        << "  \"count\": " << Count << ",\n"
        << "  \"width\": " << Opts.Width << ",\n"
        << "  \"seed\": " << Opts.Seed << ",\n"
        << "  \"timeout_seconds\": " << Opts.TimeoutSeconds << ",\n"
        << "  \"nodes_before\": " << NodesBefore << ",\n"
        << "  \"nodes_after\": " << NodesAfter << ",\n"
        << "  \"insts_before\": " << InstsBefore << ",\n"
        << "  \"insts_after\": " << InstsAfter << ",\n"
        << "  \"regions_found\": " << RegionsFound << ",\n"
        << "  \"regions_rewritten\": " << RegionsRewritten << ",\n"
        << "  \"branches_folded\": " << BranchesFolded << ",\n"
        << "  \"unsound_blocked\": " << Unsound << ",\n"
        << "  \"solve_queries\": " << SolveQueries << ",\n"
        << "  \"raw_solved\": " << RawSolved << ",\n"
        << "  \"simplified_solved\": " << SimpSolved << ",\n"
        << "  \"pipeline_seconds\": " << PipelineSeconds << ",\n"
        << "  \"failures\": " << Failures << "\n"
        << "}\n";
    if (!Out)
      std::fprintf(stderr, "warning: could not write %s\n",
                   Opts.JsonPath.c_str());
  }
  exportTelemetry(Opts);

  if (Unsound) {
    std::fprintf(stderr,
                 "error: %zu unsound rewrite candidate(s) — the pipeline "
                 "blocked them, but their existence means a simplifier "
                 "bug\n", Unsound);
    return 1;
  }
  if (Failures) {
    std::fprintf(stderr, "error: %u program(s) failed\n", Failures);
    return 1;
  }
  return 0;
}
