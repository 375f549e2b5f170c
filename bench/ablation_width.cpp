//===- bench/ablation_width.cpp - Bit-width sensitivity ablation ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Extension experiment (not in the paper): how solving difficulty scales
/// with the word width. MBA identities hold at every width; bit-blasting
/// cost grows with it, so raw solve rates collapse as width rises while
/// the simplified queries stay flat — evidence that the preprocessing
/// pass's benefit is width-independent.
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
    Opts.PerCategory = 10;
  if (Opts.TimeoutSeconds == 1.0)
    Opts.TimeoutSeconds = 0.25;

  std::printf("=== Width ablation: raw vs simplified solve rate by word "
              "width (%u/category, %.2fs timeout) ===\n",
              Opts.PerCategory, Opts.TimeoutSeconds);
  std::printf("%-8s", "width");
  bool HeaderDone = false;

  const unsigned Widths[] = {4, 8, 16, 32, 64};
  for (unsigned Width : Widths) {
    Context Ctx(Width);
    CorpusOptions CorpusOpts;
    CorpusOpts.LinearCount = CorpusOpts.PolyCount = CorpusOpts.NonPolyCount =
        Opts.PerCategory;
    CorpusOpts.Seed = Opts.Seed;
    CorpusOpts.IncludeSeedIdentities = false;
    auto Corpus = generateCorpus(Ctx, CorpusOpts);

    StudyConfig Config;
    Config.Pipeline.TimeoutSeconds = Opts.TimeoutSeconds;
    auto Raw = runStudy(Ctx, Corpus, Config).Records;
    Config.Pipeline.Simplify = true;
    auto Simp = runStudy(Ctx, Corpus, Config).Records;

    // Records are profile-major; entry 0 of each names its profile.
    std::vector<std::string> Solvers;
    for (const QueryRecord &R : Raw)
      if (R.EntryIndex == 0)
        Solvers.push_back(R.Solver);
    if (!HeaderDone) {
      for (const std::string &Solver : Solvers)
        std::printf(" | %-10s raw  simp", Solver.c_str());
      std::printf("\n");
      HeaderDone = true;
    }
    std::printf("%-8u", Width);
    for (const std::string &Solver : Solvers) {
      auto Rate = [&](const std::vector<QueryRecord> &Records) {
        unsigned Solved = 0, Total = 0;
        for (const QueryRecord &R : Records) {
          if (R.Solver != Solver)
            continue;
          ++Total;
          Solved += R.Outcome == Verdict::Equivalent;
        }
        return Total ? 100.0 * Solved / Total : 0.0;
      };
      std::printf(" | %-10s %3.0f%% %4.0f%%", "", Rate(Raw), Rate(Simp));
    }
    std::printf("\n");
  }

  std::printf("\nExpected shape: raw solve rates fall as width grows (the\n"
              "search space explodes); simplified rates stay ~100%% at every\n"
              "width because the preprocessing is width-uniform.\n");
  exportTelemetry(Opts);
  return 0;
}
