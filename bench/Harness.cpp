//===- bench/Harness.cpp - Shared benchmark driver code -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ast/ExprUtils.h"
#include "ast/Printer.h"
#include "support/BuildInfo.h"
#include "support/QueryLog.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

using namespace mba;
using namespace mba::bench;

HarnessOptions mba::bench::parseHarnessArgs(int Argc, char **Argv) {
  HarnessOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return std::strncmp(Arg, Prefix, Len) == 0 ? Arg + Len : nullptr;
    };
    if (const char *V = Value("--per-category="))
      Opts.PerCategory = (unsigned)std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--timeout="))
      Opts.TimeoutSeconds = std::strtod(V, nullptr);
    else if (const char *V = Value("--width="))
      Opts.Width = (unsigned)std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--seed="))
      Opts.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Value("--static-prove="))
      Opts.StageZeroProver = std::strtoul(V, nullptr, 10) != 0;
    else if (const char *V = Value("--jobs="))
      Opts.Jobs = (unsigned)std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--simplify="))
      Opts.Simplify = std::strtoul(V, nullptr, 10) != 0;
    else if (const char *V = Value("--json="))
      Opts.JsonPath = V;
    else if (const char *V = Value("--cache="))
      Opts.Cache = std::strtoul(V, nullptr, 10) != 0;
    else if (const char *V = Value("--cache-file=")) {
      Opts.CacheFile = V;
      Opts.Cache = true;
    } else if (const char *V = Value("--trace="))
      Opts.TracePath = V;
    else if (const char *V = Value("--metrics="))
      Opts.MetricsPath = V;
    else if (const char *V = Value("--query-log="))
      Opts.QueryLogPath = V;
    else
      std::fprintf(stderr,
                   "warning: unknown argument '%s' "
                   "(supported: --per-category= --timeout= --width= --seed= "
                   "--static-prove= --jobs= --simplify= "
                   "--json= --cache= --cache-file= --trace= --metrics= "
                   "--query-log=)\n",
                   Arg);
  }
  return Opts;
}

void mba::bench::enableTelemetry(const HarnessOptions &Opts) {
  bool Trace = !Opts.TracePath.empty();
  bool Metrics = Trace || !Opts.MetricsPath.empty() || !Opts.JsonPath.empty();
  if (Metrics)
    telemetry::setMetricsEnabled(true);
  if (Trace) {
    telemetry::clearTrace();
    telemetry::setThreadLabel("main");
    telemetry::setTracingEnabled(true);
  }
  if (!Opts.QueryLogPath.empty() &&
      !querylog::openFile(Opts.QueryLogPath))
    std::fprintf(stderr, "warning: cannot open query log '%s'\n",
                 Opts.QueryLogPath.c_str());
}

void mba::bench::exportTelemetry(const HarnessOptions &Opts) {
  if (!Opts.TracePath.empty()) {
    telemetry::setTracingEnabled(false);
    if (!telemetry::writeChromeTrace(Opts.TracePath))
      std::fprintf(stderr, "warning: cannot write trace to '%s'\n",
                   Opts.TracePath.c_str());
  }
  if (!Opts.MetricsPath.empty() &&
      !telemetry::writeMetricsText(Opts.MetricsPath))
    std::fprintf(stderr, "warning: cannot write metrics to '%s'\n",
                 Opts.MetricsPath.c_str());
  if (!Opts.QueryLogPath.empty())
    querylog::close();
}

std::unique_ptr<PipelineCaches>
mba::bench::makePipelineCaches(const HarnessOptions &Opts) {
  if (!Opts.Cache)
    return nullptr;
  auto Caches = std::make_unique<PipelineCaches>(Opts.Width);
  if (!Opts.CacheFile.empty()) {
    std::string Err;
    // A missing file is the normal cold-start case; only report loads
    // that found a file but could not use it.
    if (std::FILE *Probe = std::fopen(Opts.CacheFile.c_str(), "rb")) {
      std::fclose(Probe);
      if (!Caches->loadFrom(Opts.CacheFile, Err))
        std::fprintf(stderr, "warning: ignoring cache snapshot: %s\n",
                     Err.c_str());
    }
  }
  return Caches;
}

void mba::bench::savePipelineCaches(const HarnessOptions &Opts,
                                    const PipelineCaches *Caches) {
  if (!Caches || Opts.CacheFile.empty())
    return;
  std::string Err;
  if (!Caches->saveTo(Opts.CacheFile, Err))
    std::fprintf(stderr, "warning: cache snapshot not saved: %s\n",
                 Err.c_str());
}

void mba::bench::printCacheStats(const PipelineCaches &Caches) {
  auto Line = [](const char *Name, const CacheStats &S) {
    std::printf("  %-16s %8llu hits %8llu misses %8llu entries "
                "(%llu evicted)\n",
                Name, (unsigned long long)S.Hits, (unsigned long long)S.Misses,
                (unsigned long long)S.Entries,
                (unsigned long long)S.Evictions);
  };
  std::printf("Semantic caches:\n");
  Line("simplify.result", Caches.Simplify.resultStats());
  Line("simplify.linear", Caches.Simplify.linearStats());
  Line("basis", Caches.Basis.stats());
  Line("verdicts", Caches.Verdicts.stats());
}

namespace {

/// One printed table cell: the solved queries of one (solver, category).
struct Agg {
  unsigned Solved = 0, Total = 0;
  double TMin = 1e100, TMax = 0, TSum = 0;
};

/// The cells of Table 2/6, with the solvers in order of first appearance.
struct CategoryCells {
  std::vector<std::string> Solvers;
  std::map<std::pair<std::string, MBAKind>, Agg> Cells;

  explicit CategoryCells(const std::vector<QueryRecord> &Records) {
    for (const QueryRecord &R : Records) {
      if (std::find(Solvers.begin(), Solvers.end(), R.Solver) == Solvers.end())
        Solvers.push_back(R.Solver);
      Agg &Cell = Cells[{R.Solver, R.Category}];
      ++Cell.Total;
      if (R.Outcome == Verdict::Equivalent) {
        ++Cell.Solved;
        Cell.TMin = std::min(Cell.TMin, R.Seconds);
        Cell.TMax = std::max(Cell.TMax, R.Seconds);
        Cell.TSum += R.Seconds;
      }
    }
  }
};

const MBAKind Kinds[] = {MBAKind::Linear, MBAKind::Polynomial,
                         MBAKind::NonPolynomial};

/// One study worker: a context (the caller's, or a private one) and one
/// pipeline per profile of the matrix.
struct Worker {
  std::unique_ptr<Context> Owned; ///< null when running on the caller's
  Context *Ctx = nullptr;
  std::vector<std::unique_ptr<Pipeline>> Pipelines;
  double CloneSeconds = 0;

  void init(Context &C, const std::vector<PipelineConfig> &Matrix) {
    Ctx = &C;
    for (const PipelineConfig &P : Matrix)
      Pipelines.push_back(std::make_unique<Pipeline>(C, P));
  }
};

} // namespace

StudyResult mba::bench::runStudy(Context &Ctx,
                                 const std::vector<CorpusEntry> &Corpus,
                                 const StudyConfig &Config) {
  StudyResult Out;
  Out.Jobs = Config.Jobs ? Config.Jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  Stopwatch Total;
  const size_t N = Corpus.size();
  if (Config.RecordSimplified) {
    Out.SimplifiedLhs.assign(N, std::string());
    Out.SimplifiedRhs.assign(N, std::string());
  }
  const std::vector<PipelineConfig> Matrix = paperSolverMatrix(Config.Pipeline);
  Out.Records.assign(N * Matrix.size(), QueryRecord{});

  // One entry: simplified once (by the first profile's pipeline), then
  // checked by every profile. Slots are pre-assigned, profile-major.
  auto RunEntry = [&](Worker &W, size_t I) {
    const Expr *Lhs = Corpus[I].Obfuscated, *Rhs = Corpus[I].Ground;
    if (W.Owned) {
      Stopwatch CloneTimer;
      Lhs = cloneExpr(*W.Ctx, Lhs);
      Rhs = cloneExpr(*W.Ctx, Rhs);
      W.CloneSeconds += CloneTimer.seconds();
    }
    Lhs = W.Pipelines.front()->simplify(Lhs);
    Rhs = W.Pipelines.front()->simplify(Rhs);
    if (Config.RecordSimplified) {
      Out.SimplifiedLhs[I] = printExpr(*W.Ctx, Lhs);
      Out.SimplifiedRhs[I] = printExpr(*W.Ctx, Rhs);
    }
    for (size_t C = 0; C != W.Pipelines.size(); ++C) {
      CheckResult R = W.Pipelines[C]->check(Lhs, Rhs);
      Out.Records[C * N + I] = {W.Pipelines[C]->name(), Corpus[I].Category,
                                R.Outcome, R.Seconds, I};
    }
  };

  std::vector<Worker> Workers(Out.Jobs);
  Stopwatch Wall;
  if (Out.Jobs == 1) {
    Workers[0].init(Ctx, Matrix);
    for (size_t I = 0; I != N; ++I)
      RunEntry(Workers[0], I);
  } else {
    ThreadPool Pool(Out.Jobs);
    Pool.parallelFor(N, [&](size_t I, unsigned Ordinal) {
      Worker &W = Workers[Ordinal];
      if (!W.Ctx) {
        // First task on this worker: build its context here, on the worker
        // thread, so the context's owner-thread guardrail holds. The label
        // keys trace rows by the stable worker ordinal, not the OS thread.
        telemetry::setThreadLabel("worker-" + std::to_string(Ordinal));
        W.Owned = std::make_unique<Context>(Ctx.width());
        W.init(*W.Owned, Matrix);
      }
      RunEntry(W, I);
    });
    Out.Pool = Pool.stats();
  }
  Out.WallSeconds = Wall.seconds();
  for (Worker &W : Workers) {
    for (const std::unique_ptr<Pipeline> &P : W.Pipelines)
      Out.StaticStats += P->stageZeroStats();
    if (!W.Pipelines.empty())
      Out.SimplifySeconds += W.Pipelines.front()->simplifyStats().Seconds;
    Out.CloneSeconds += W.CloneSeconds;
  }
  if (const PipelineCaches *Caches = Config.Pipeline.Caches) {
    Out.CachesEnabled = true;
    Out.SimplifyResultCache = Caches->Simplify.resultStats();
    Out.SimplifyLinearCache = Caches->Simplify.linearStats();
    Out.BasisCacheStats = Caches->Basis.stats();
    Out.VerdictCacheStats = Caches->Verdicts.stats();
  }
  Out.TotalSeconds = Total.seconds();
  return Out;
}

void mba::bench::printStageZeroStats(const StageZeroStats &Stats) {
  size_t Queries = Stats.queries();
  double Pct = Queries ? 100.0 * (double)Stats.discharged() / (double)Queries
                       : 0.0;
  std::printf("Stage-0 static prover: %zu / %zu queries discharged before "
              "any solver (%.1f%%)\n",
              Stats.discharged(), Queries, Pct);
  std::printf("  proved %zu, refuted %zu, fallthrough to solver %zu\n",
              Stats.Proved, Stats.Refuted, Stats.Fallthrough);
  std::printf("  static time %.3f s total; solver time %.3f s on the "
              "fallthrough queries\n",
              Stats.StaticSeconds, Stats.SolverSeconds);
  std::printf("  saturation: %u rounds, %zu rule matches, %zu merges, "
              "%zu e-nodes across queries\n",
              Stats.Saturation.Iterations, Stats.Saturation.Matches,
              Stats.Saturation.Merges, Stats.Saturation.ENodes);
}

void mba::bench::writeStudyJson(const std::string &Path,
                                const std::string &Table,
                                const HarnessOptions &Opts,
                                const StudyResult &Result) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write JSON report to '%s'\n",
                 Path.c_str());
    return;
  }
  std::fprintf(F, "{\n  \"table\": \"%s\",\n", Table.c_str());
  std::fprintf(F,
               "  \"build_info\": {\"version\": \"%s\", \"git_sha\": \"%s\", "
               "\"build_type\": \"%s\", \"isa\": \"%s\"},\n",
               buildinfo::version(), buildinfo::gitSha(),
               buildinfo::buildType(), buildinfo::activeIsaName());
  std::fprintf(F,
               "  \"config\": {\"per_category\": %u, \"timeout_seconds\": "
               "%.6f, \"width\": %u, \"seed\": %llu, \"jobs\": %u, "
               "\"stage_zero\": %s, \"simplify\": %s},\n",
               Opts.PerCategory, Opts.TimeoutSeconds, Opts.Width,
               (unsigned long long)Opts.Seed, Result.Jobs,
               Result.StaticStats.queries() ? "true" : "false",
               Result.SimplifySeconds > 0 ? "true" : "false");
  std::fprintf(F,
               "  \"timing\": {\"total_seconds\": %.6f, \"wall_seconds\": "
               "%.6f, \"clone_seconds\": %.6f, \"simplify_seconds\": %.6f},\n",
               Result.TotalSeconds, Result.WallSeconds, Result.CloneSeconds,
               Result.SimplifySeconds);
  auto CacheJson = [&](const char *Name, const CacheStats &S,
                       const char *Sep) {
    std::fprintf(F,
                 "    \"%s\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"inserts\": %llu, \"evictions\": %llu, \"entries\": "
                 "%llu}%s\n",
                 Name, (unsigned long long)S.Hits, (unsigned long long)S.Misses,
                 (unsigned long long)S.Inserts,
                 (unsigned long long)S.Evictions,
                 (unsigned long long)S.Entries, Sep);
  };
  std::fprintf(F, "  \"caches\": {\n    \"enabled\": %s,\n",
               Result.CachesEnabled ? "true" : "false");
  CacheJson("simplify_result", Result.SimplifyResultCache, ",");
  CacheJson("simplify_linear", Result.SimplifyLinearCache, ",");
  CacheJson("basis", Result.BasisCacheStats, ",");
  CacheJson("verdicts", Result.VerdictCacheStats, "");
  std::fprintf(F, "  },\n");
  std::fprintf(F,
               "  \"pool\": {\"workers\": %u, \"tasks\": %llu, \"steals\": "
               "%llu, \"idle_waits\": %llu},\n",
               Result.Jobs, (unsigned long long)Result.Pool.Tasks,
               (unsigned long long)Result.Pool.Steals,
               (unsigned long long)Result.Pool.IdleWaits);
  std::fprintf(F,
               "  \"stage_zero\": {\"proved\": %zu, \"refuted\": %zu, "
               "\"fallthrough\": %zu, \"static_seconds\": %.6f, "
               "\"solver_seconds\": %.6f},\n",
               Result.StaticStats.Proved, Result.StaticStats.Refuted,
               Result.StaticStats.Fallthrough,
               Result.StaticStats.StaticSeconds,
               Result.StaticStats.SolverSeconds);

  // The unified telemetry registry, flattened. Counters and gauges are
  // plain numbers; histograms report count/sum, estimated percentiles and
  // the non-empty log2 buckets. Empty when telemetry never ran this
  // process.
  std::vector<telemetry::MetricValue> Metrics = telemetry::snapshotMetrics();

  // CNF footprint of the run: variables/clauses the SAT backends actually
  // encoded (the sat.encode.* counters, summed over every worker). Zero
  // when every query was discharged before bit-blasting.
  auto MetricCounter = [&Metrics](const char *Name) -> unsigned long long {
    for (const telemetry::MetricValue &M : Metrics)
      if (M.Which == telemetry::MetricValue::KCounter && M.Name == Name)
        return M.Value;
    return 0;
  };
  std::fprintf(F, "  \"cnf\": {\"vars\": %llu, \"clauses\": %llu},\n",
               MetricCounter("sat.encode.vars"),
               MetricCounter("sat.encode.clauses"));
  std::fprintf(F, "  \"metrics\": {");
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const telemetry::MetricValue &M = Metrics[I];
    std::fprintf(F, "%s\n    \"%s\": ", I ? "," : "", M.Name.c_str());
    switch (M.Which) {
    case telemetry::MetricValue::KCounter:
      std::fprintf(F, "%llu", (unsigned long long)M.Value);
      break;
    case telemetry::MetricValue::KGauge:
      std::fprintf(F, "%lld", (long long)M.GaugeValue);
      break;
    case telemetry::MetricValue::KHistogram: {
      std::fprintf(F, "{\"count\": %llu, \"sum\": %llu",
                   (unsigned long long)M.Hist.Count,
                   (unsigned long long)M.Hist.Sum);
      if (M.Hist.Count)
        std::fprintf(F, ", \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f",
                     M.Hist.percentile(50), M.Hist.percentile(95),
                     M.Hist.percentile(99));
      // Sparse bucket map, keyed on each bucket's inclusive upper bound
      // (bucket B covers [2^(B-1), 2^B)); empty buckets are omitted.
      std::fprintf(F, ", \"buckets\": {");
      bool FirstBucket = true;
      for (unsigned B = 0; B != telemetry::HistogramBuckets; ++B) {
        if (!M.Hist.Buckets[B])
          continue;
        std::fprintf(F, "%s\"%llu\": %llu", FirstBucket ? "" : ", ",
                     (unsigned long long)telemetry::histogramBucketMax(B),
                     (unsigned long long)M.Hist.Buckets[B]);
        FirstBucket = false;
      }
      std::fprintf(F, "}}");
      break;
    }
    }
  }
  std::fprintf(F, "%s},\n", Metrics.empty() ? "" : "\n  ");

  // Per-solver, per-category aggregation (the printed table's cells).
  CategoryCells Grid(Result.Records);
  const std::vector<std::string> &Solvers = Grid.Solvers;
  std::fprintf(F, "  \"solvers\": [\n");
  for (size_t S = 0; S != Solvers.size(); ++S) {
    std::fprintf(F, "    {\"name\": \"%s\", \"categories\": [",
                 Solvers[S].c_str());
    bool First = true;
    unsigned TotalSolved = 0, Total = 0;
    for (MBAKind K : Kinds) {
      auto It = Grid.Cells.find({Solvers[S], K});
      if (It == Grid.Cells.end())
        continue;
      const Agg &Cell = It->second;
      TotalSolved += Cell.Solved;
      Total += Cell.Total;
      std::fprintf(F, "%s\n      {\"category\": \"%s\", \"solved\": %u, "
                      "\"total\": %u",
                   First ? "" : ",", mbaKindName(K), Cell.Solved, Cell.Total);
      if (Cell.Solved)
        std::fprintf(F,
                     ", \"tmin\": %.6f, \"tmax\": %.6f, \"tavg\": %.6f}",
                     Cell.TMin, Cell.TMax, Cell.TSum / Cell.Solved);
      else
        std::fprintf(F, "}");
      First = false;
    }
    std::fprintf(F, "],\n     \"total_solved\": %u, \"total\": %u}%s\n",
                 TotalSolved, Total, S + 1 == Solvers.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

std::string mba::bench::formatSeconds(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", S);
  return Buf;
}

void mba::bench::printSolverCategoryTable(
    const std::vector<QueryRecord> &Records, const std::string &Title) {
  std::printf("=== %s ===\n", Title.c_str());
  std::printf("(N = solved; times in seconds over solved queries)\n");

  CategoryCells Table(Records);
  for (const std::string &Solver : Table.Solvers) {
    std::printf("%-12s %-10s %6s %10s %10s %10s\n", Solver.c_str(), "type",
                "N", "Tmin", "Tmax", "Tavg");
    unsigned TotalSolved = 0, Total = 0;
    for (MBAKind K : Kinds) {
      auto It = Table.Cells.find({Solver, K});
      if (It == Table.Cells.end())
        continue;
      const Agg &Cell = It->second;
      TotalSolved += Cell.Solved;
      Total += Cell.Total;
      if (Cell.Solved)
        std::printf("%-12s %-10s %6u %10s %10s %10s\n", "", mbaKindName(K),
                    Cell.Solved, formatSeconds(Cell.TMin).c_str(),
                    formatSeconds(Cell.TMax).c_str(),
                    formatSeconds(Cell.TSum / Cell.Solved).c_str());
      else
        std::printf("%-12s %-10s %6u %10s %10s %10s\n", "", mbaKindName(K), 0u,
                    "-", "-", "-");
    }
    double Pct = Total ? 100.0 * TotalSolved / Total : 0;
    std::printf("%-12s total solved: %u / %u (%.1f%%)\n\n", "", TotalSolved,
                Total, Pct);
  }
}

void mba::bench::printTimeDistribution(const std::vector<QueryRecord> &Records,
                                       double TimeoutSeconds,
                                       const std::string &Title) {
  std::printf("=== %s ===\n", Title.c_str());
  for (const std::string &Solver : CategoryCells(Records).Solvers) {
    std::vector<double> Times;
    unsigned Timeouts = 0, Total = 0;
    for (const QueryRecord &R : Records) {
      if (R.Solver != Solver)
        continue;
      ++Total;
      if (R.Outcome == Verdict::Equivalent)
        Times.push_back(R.Seconds);
      else
        ++Timeouts;
    }
    std::sort(Times.begin(), Times.end());
    std::printf("%s: %zu solved, %u timeout/other (timeout=%.2fs)\n",
                Solver.c_str(), Times.size(), Timeouts, TimeoutSeconds);
    if (!Times.empty()) {
      auto Pct = [&](double P) {
        size_t Index = (size_t)(P * (double)(Times.size() - 1));
        return Times[Index];
      };
      std::printf("  p10=%s p50=%s p90=%s max=%s\n",
                  formatSeconds(Pct(0.10)).c_str(),
                  formatSeconds(Pct(0.50)).c_str(),
                  formatSeconds(Pct(0.90)).c_str(),
                  formatSeconds(Times.back()).c_str());
    }
    // Cumulative solved-vs-time ASCII curve (the figures' visual).
    const int Columns = 50;
    std::printf("  solved-by-time curve [0 .. %.2fs]:\n  |", TimeoutSeconds);
    for (int C = 0; C != Columns; ++C) {
      double T = TimeoutSeconds * (double)(C + 1) / Columns;
      size_t SolvedByT =
          std::upper_bound(Times.begin(), Times.end(), T) - Times.begin();
      double Frac = Total ? (double)SolvedByT / Total : 0;
      const char *Glyphs = " .:-=+*#%@";
      int G = std::min(9, (int)(Frac * 10));
      std::printf("%c", Glyphs[G]);
    }
    std::printf("| %.0f%% solved at timeout\n", Total ? 100.0 * Times.size() / Total : 0.0);
  }
  std::printf("\n");
}
