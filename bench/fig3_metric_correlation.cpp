//===- bench/fig3_metric_correlation.cpp - Figure 3 reproduction ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces **Figure 3**: the relation between each complexity metric and
/// solving performance. The paper's key observation: *MBA alternation is
/// the dominant factor* — solving time/failure climbs steeply with
/// alternation, while the other metrics correlate weakly.
///
/// Output: per metric, bucketed rows with the solve rate and average time
/// of solved queries in that bucket (aggregated over all solvers).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mba/Metrics.h"

#include <cstdio>
#include <vector>

using namespace mba;
using namespace mba::bench;

namespace {

struct Bucket {
  unsigned Solved = 0, Total = 0;
  double TimeSum = 0;
};

void printMetric(const char *Name, const std::vector<double> &Values,
                 const std::vector<QueryRecord> &Records,
                 const std::vector<double> &Edges) {
  std::vector<Bucket> Buckets(Edges.size() + 1);
  for (const QueryRecord &R : Records) {
    double V = Values[R.EntryIndex];
    size_t B = 0;
    while (B < Edges.size() && V > Edges[B])
      ++B;
    ++Buckets[B].Total;
    if (R.Outcome == Verdict::Equivalent) {
      ++Buckets[B].Solved;
      Buckets[B].TimeSum += R.Seconds;
    }
  }
  std::printf("%s:\n", Name);
  for (size_t B = 0; B != Buckets.size(); ++B) {
    if (!Buckets[B].Total)
      continue;
    char Range[64];
    if (B == 0)
      std::snprintf(Range, sizeof(Range), "<= %.0f", Edges[0]);
    else if (B == Edges.size())
      std::snprintf(Range, sizeof(Range), "> %.0f", Edges.back());
    else
      std::snprintf(Range, sizeof(Range), "%.0f - %.0f", Edges[B - 1] + 1,
                    Edges[B]);
    double SolveRate = 100.0 * Buckets[B].Solved / Buckets[B].Total;
    double AvgTime =
        Buckets[B].Solved ? Buckets[B].TimeSum / Buckets[B].Solved : 0;
    std::printf("  %-12s  queries %4u  solved %5.1f%%  avg-time %ss\n", Range,
                Buckets[B].Total, SolveRate, formatSeconds(AvgTime).c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Opts = parseHarnessArgs(Argc, Argv);
  enableTelemetry(Opts);
  if (Opts.PerCategory == 40)
    Opts.PerCategory = 25;
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

  std::vector<ComplexityMetrics> Metrics;
  Metrics.reserve(Corpus.size());
  for (const CorpusEntry &E : Corpus)
    Metrics.push_back(measureComplexity(Ctx, E.Obfuscated));

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = Opts.TimeoutSeconds;
  auto Records = runStudy(Ctx, Corpus, Config).Records;

  std::printf("=== Figure 3: complexity metrics vs solving performance "
              "(raw queries, all solvers pooled) ===\n");
  auto Extract = [&](auto Member) {
    std::vector<double> V;
    for (auto &M : Metrics)
      V.push_back((double)(M.*Member));
    return V;
  };
  printMetric("MBA alternation",
              Extract(&ComplexityMetrics::Alternation), Records,
              {2, 5, 10, 20});
  printMetric("Number of variables",
              Extract(&ComplexityMetrics::NumVariables), Records, {1, 2, 3});
  printMetric("MBA length", Extract(&ComplexityMetrics::Length), Records,
              {50, 120, 250});
  printMetric("Number of terms", Extract(&ComplexityMetrics::NumTerms),
              Records, {4, 8, 16});
  printMetric("Max coefficient", Extract(&ComplexityMetrics::MaxCoefficient),
              Records, {4, 10, 40});

  std::printf("\nPaper reference (Figure 3): solving time grows drastically "
              "with MBA alternation;\n");
  std::printf("other metrics show much weaker correlation.\n");
  exportTelemetry(Opts);
  return 0;
}
