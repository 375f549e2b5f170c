//===- bench/table2_raw_solving.cpp - Table 2 reproduction ----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces **Table 2**: each solver's performance on the *raw* MBA
/// identity equations — solved count N, [Tmin, Tmax] and Tavg per category.
/// Expected shape (paper, 1h timeout): solvers crack only a small fraction
/// overall (Z3 2.8%, STP 3.3%, Boolector 16.5%), linear being the easiest
/// category and poly MBA nearly hopeless.
///
/// Scaled defaults: 25 entries/category, 0.4 s timeout, width 64. Use
/// --per-category/--timeout/--width to scale up.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace mba;
using namespace mba::bench;

int main(int Argc, char **Argv) {
  HarnessOptions Opts = parseHarnessArgs(Argc, Argv);
  enableTelemetry(Opts);
  if (Opts.PerCategory == 40)
    Opts.PerCategory = 25; // study default; raw queries mostly time out
  if (Opts.TimeoutSeconds == 1.0)
    Opts.TimeoutSeconds = 0.25;

  Context Ctx(Opts.Width);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = CorpusOpts.PolyCount = CorpusOpts.NonPolyCount =
      Opts.PerCategory;
  CorpusOpts.Seed = Opts.Seed;
  // The classic seed identities are tiny and instantly solvable; at study
  // scale they would dominate the linear slice, so the hardness studies
  // use synthesized entries only (the paper's 1000-per-category corpus
  // dilutes its handful of textbook identities the same way).
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.TimeoutSeconds = Opts.TimeoutSeconds;
  Config.Jobs = Opts.Jobs;
  std::unique_ptr<PipelineCaches> Caches = makePipelineCaches(Opts);
  Config.Caches = Caches.get();
  StudyResult Result = runSolvingStudyParallel(
      Ctx, Corpus, [](Context &) { return makeAllCheckers(); }, Config);
  savePipelineCaches(Opts, Caches.get());
  printSolverCategoryTable(
      Result.Records, Opts.PerCategory,
      "Table 2: solving RAW MBA identity equations (timeout " +
          formatSeconds(Opts.TimeoutSeconds) + "s, width " +
          std::to_string(Opts.Width) + ")");
  std::printf("Solve loop wall-clock: %.3f s on %u job(s); pool steals "
              "%llu, idle waits %llu\n",
              Result.WallSeconds, Result.Jobs,
              (unsigned long long)Result.Pool.Steals,
              (unsigned long long)Result.Pool.IdleWaits);
  if (!Opts.JsonPath.empty())
    writeStudyJson(Opts.JsonPath, "table2", Opts, Result);
  exportTelemetry(Opts);

  std::printf("Paper reference (Table 2, 1h timeout, 1000/category):\n");
  std::printf("  Z3 84 (2.8%%), STP 98 (3.3%%), Boolector 496 (16.5%%) "
              "solved;\n");
  std::printf("  linear is the most solvable category, poly nearly "
              "unsolvable raw.\n");
  std::printf("  (STP and Boolector are substituted by BlastBV/BlastBV+RW; "
              "see DESIGN.md.)\n");
  return 0;
}
