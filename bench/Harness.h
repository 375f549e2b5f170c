//===- bench/Harness.h - Shared benchmark driver code -----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/figure reproduction binaries: corpus
/// setup, the solver-study loop (raw and simplified variants), per-category
/// aggregation in the paper's [N, Tmin/Tmax, Tavg] format, and text
/// rendering of tables and distribution "figures".
///
/// Scaling: the paper runs 3000 queries per solver with a one-hour timeout
/// on a Xeon server; the defaults here run a deterministic sub-corpus with
/// a seconds-scale timeout so the whole suite finishes in minutes. Every
/// binary accepts --per-category=N, --timeout=SECONDS, --width=BITS and
/// --seed=N to re-run at larger scale. EXPERIMENTS.md records the scaling
/// next to each reproduced number.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_BENCH_HARNESS_H
#define MBA_BENCH_HARNESS_H

#include "ast/Context.h"
#include "gen/Corpus.h"
#include "solvers/Pipeline.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace mba::bench {

/// Command-line-tunable experiment scale.
struct HarnessOptions {
  unsigned PerCategory = 40;   ///< corpus entries per category (paper: 1000)
  double TimeoutSeconds = 1.0; ///< per-query budget (paper: 3600)
  unsigned Width = 64;         ///< word width (paper: 64)
  uint64_t Seed = 20210620;
  /// Run the static equivalence prover as stage 0 in front of every
  /// backend (PipelineConfig::StageZero, for the benches that opt in).
  /// Sound either way — verdicts are identical with or without it.
  bool StageZeroProver = true;
  /// Worker threads for the solving loop: 0 = hardware concurrency,
  /// 1 = inline on the main context.
  unsigned Jobs = 0;
  /// MBA-Solver preprocessing for the benches that default to it
  /// (table6/fig6). --simplify=0 feeds the raw corpus to the same solver
  /// matrix — the ablation that shows the paper's before/after in one
  /// binary, and the config CI uses to drive the SAT path (simplified
  /// queries collapse structurally on the AIG and never reach a solver).
  bool Simplify = true;
  /// When non-empty, the study also writes a machine-readable JSON report
  /// here (writeStudyJson).
  std::string JsonPath;
  /// Share the semantic memoization layer (simplify / basis / verdict
  /// caches) across the whole study. Verdicts and simplified expressions
  /// are bit-identical with caching on or off; only timing changes.
  bool Cache = false;
  /// Snapshot path: loaded (if present) before the study, saved after it.
  /// Implies Cache.
  std::string CacheFile;
  /// When non-empty, tracing spans are enabled for the study and a Chrome
  /// trace-event JSON (chrome://tracing / Perfetto loadable) is written
  /// here afterwards.
  std::string TracePath;
  /// When non-empty, metrics are enabled and a Prometheus-style text dump
  /// of the unified telemetry registry is written here after the study.
  /// Metrics are also enabled (and embedded in the report) with --json.
  std::string MetricsPath;
  /// When non-empty, the per-query flight recorder (support/QueryLog.h) is
  /// enabled for the study and every simplify/equivalence query appends one
  /// JSONL record here. Purely observational: verdicts and simplified
  /// expressions are bit-identical with or without a log.
  std::string QueryLogPath;
};

/// Parses --per-category / --timeout / --width / --seed / --static-prove /
/// --jobs / --simplify / --json / --cache / --cache-file /
/// --trace / --metrics / --query-log overrides.
HarnessOptions parseHarnessArgs(int Argc, char **Argv);

/// Turns telemetry on as Opts asks (tracing for --trace, metrics for
/// --trace/--metrics/--json) and clears any stale trace events. Call once
/// before the study; pair with exportTelemetry after it.
void enableTelemetry(const HarnessOptions &Opts);

/// Writes the trace / metrics files Opts configured (warning on stderr on
/// I/O failure). No-op for paths left empty.
void exportTelemetry(const HarnessOptions &Opts);

/// The study's shared caches (solvers/Pipeline.h).
using PipelineCaches = mba::PipelineCaches;

/// Builds the cache set Opts asks for: null when caching is off, otherwise
/// fresh caches pre-loaded from Opts.CacheFile when that file exists (a
/// load failure warns on stderr and starts cold).
std::unique_ptr<PipelineCaches> makePipelineCaches(const HarnessOptions &Opts);

/// Persists \p Caches to Opts.CacheFile when one is configured (no-op
/// otherwise); warns on stderr if the write fails.
void savePipelineCaches(const HarnessOptions &Opts,
                        const PipelineCaches *Caches);

/// Prints the hit/miss/entry counters of every cache in \p Caches.
void printCacheStats(const PipelineCaches &Caches);

/// One solver query outcome.
struct QueryRecord {
  std::string Solver;
  MBAKind Category;
  Verdict Outcome = Verdict::Timeout;
  double Seconds = 0;
  size_t EntryIndex = 0;
};

/// Configuration for runStudy.
struct StudyConfig {
  StudyConfig() {
    Pipeline.Simplify = false;
    Pipeline.StageZero = false;
    Pipeline.TimeoutSeconds = 1.0;
  }

  /// What every profile of paperSolverMatrix runs; simplify and stage 0
  /// default off. Verdicts and simplified text are bit-identical with and
  /// without caches (pinned by tests/harness_test.cpp).
  PipelineConfig Pipeline;
  /// Worker threads. 1 runs inline on the main context. 0 = hardware
  /// concurrency.
  unsigned Jobs = 1;
  /// Record the printed simplified (or raw, when !Simplify) expressions
  /// per corpus entry into StudyResult::SimplifiedLhs/Rhs — the hook the
  /// determinism tests compare across job counts and cache configurations.
  bool RecordSimplified = false;
};

/// Everything a study run produces: the per-query records (profile-major,
/// regardless of Jobs) plus the aggregate counters the JSON report
/// serializes.
struct StudyResult {
  std::vector<QueryRecord> Records;
  StageZeroStats StaticStats;  ///< merged across profiles and workers
  double SimplifySeconds = 0;  ///< preprocessing cost, summed over workers
  double CloneSeconds = 0;     ///< cross-context corpus cloning, summed
  double WallSeconds = 0;      ///< clone + simplify + solve loop
  /// End-to-end study time, worker setup included.
  double TotalSeconds = 0;
  PoolStats Pool;              ///< steal/idle counters (zero when Jobs == 1)
  unsigned Jobs = 1;           ///< resolved worker count
  /// Printed per-entry expressions (Config.RecordSimplified), indexed by
  /// corpus entry in corpus order for any job count.
  std::vector<std::string> SimplifiedLhs, SimplifiedRhs;
  bool CachesEnabled = false;  ///< a PipelineCaches was attached
  CacheStats SimplifyResultCache; ///< whole-result layer counters
  CacheStats SimplifyLinearCache; ///< linear-rebuild layer counters
  CacheStats BasisCacheStats;     ///< basis-solve counters
  CacheStats VerdictCacheStats;   ///< equivalence-verdict counters
};

/// The solving study: each corpus entry is simplified once, then checked by
/// every profile of the paper's matrix. One job runs inline on \p Ctx; more
/// partition the corpus over workers that each own a private Context
/// (built on its own thread, see ast/Context.h) and clone entries into it.
/// Results land in pre-assigned slots, so record order and every verdict
/// are identical for any job count.
StudyResult runStudy(Context &Ctx, const std::vector<CorpusEntry> &Corpus,
                     const StudyConfig &Config);

/// Writes \p Result as a machine-readable JSON report (the BENCH_*.json
/// files; schema documented in docs/PERF.md): run config, wall-clock and
/// preprocessing timings, pool counters, the stage-0 split, and per-solver
/// per-category solved counts with Tmin/Tmax/Tavg.
void writeStudyJson(const std::string &Path, const std::string &Table,
                    const HarnessOptions &Opts, const StudyResult &Result);

/// Prints the Table 2 / Table 6 layout: one block per solver with per-
/// category N, [Tmin, Tmax], Tavg and the total solved count.
void printSolverCategoryTable(const std::vector<QueryRecord> &Records,
                              const std::string &Title);

/// Prints a solving-time distribution "figure": per solver, the sorted
/// solved-query times as percentiles plus an ASCII cumulative curve
/// (Figures 4 and 6 are exactly these curves).
void printTimeDistribution(const std::vector<QueryRecord> &Records,
                           double TimeoutSeconds, const std::string &Title);

/// Convenience: formats seconds with three decimals.
std::string formatSeconds(double S);

/// Prints the stage-0 counters accumulated by a staged run: the
/// proved/refuted/fallthrough split (how many queries never reached a
/// solver), static vs solver wall-clock, and saturation statistics.
void printStageZeroStats(const StageZeroStats &Stats);

} // namespace mba::bench

#endif // MBA_BENCH_HARNESS_H
