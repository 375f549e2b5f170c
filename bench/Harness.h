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
#include "mba/Simplifier.h"
#include "mba/SimplifyCache.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <functional>
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
  /// backend (benches that opt in call addStageZeroProver). Sound either
  /// way — verdicts are identical with or without it.
  bool StageZeroProver = true;
  /// Worker threads for the solving loop: 0 = hardware concurrency,
  /// 1 = the exact serial path on the main context.
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

/// The three shared caches of one study run, built at a fixed word width.
/// All members are internally synchronized; one PipelineCaches can feed
/// every worker of a parallel study and persist across runs via the
/// snapshot format (support/Cache.h).
struct PipelineCaches {
  explicit PipelineCaches(unsigned Width);

  unsigned Width;
  SimplifyCache Simplify;
  BasisCache Basis;
  VerdictCache Verdicts;
  /// Publishes every cache's hit/miss/entry counters into the telemetry
  /// registry (cache.<layer>.<counter>) for the lifetime of this object.
  telemetry::SourceHandle Telemetry;

  /// Loads a snapshot written by saveTo(). Unknown sections are skipped;
  /// a missing file, bad magic, version or width mismatch fails with
  /// \p Err set and leaves the caches unchanged (partial corruption drops
  /// the remainder of the file only).
  bool loadFrom(const std::string &Path, std::string &Err);

  /// Writes every cache as one snapshot file.
  bool saveTo(const std::string &Path, std::string &Err) const;
};

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

/// Runs every (checker, corpus entry) pair on the identity query. When
/// \p Simplifier is non-null, both sides are preprocessed through it first
/// (the paper's MBA-Solver-assisted configuration of Table 6); solver time
/// excludes preprocessing, which the paper reports separately (Table 8).
std::vector<QueryRecord>
runSolvingStudy(Context &Ctx, const std::vector<CorpusEntry> &Corpus,
                std::vector<std::unique_ptr<EquivalenceChecker>> &Checkers,
                double TimeoutSeconds, MBASolver *Simplifier);

/// Builds the checker set for one context. Called once per worker in a
/// parallel study, so every backend instance is private to its thread.
using CheckerFactory =
    std::function<std::vector<std::unique_ptr<EquivalenceChecker>>(
        Context &Ctx)>;

/// Configuration for runSolvingStudyParallel.
struct StudyConfig {
  double TimeoutSeconds = 1.0;
  /// Worker threads. 1 runs the serial loop inline on the main context —
  /// bit-identical to runSolvingStudy. 0 = hardware concurrency.
  unsigned Jobs = 1;
  /// Preprocess both sides through a per-worker MBASolver (Table 6's
  /// configuration) before handing them to the checkers.
  bool Simplify = false;
  /// Wrap every checker in the stage-0 static prover (addStageZeroProver);
  /// counters are merged across workers into StudyResult::StaticStats.
  bool StageZero = false;
  /// Shared memoization layer: simplify/basis caches feed every worker's
  /// MBASolver, the verdict cache short-circuits the staged checkers. Null
  /// runs uncached. Either way the verdicts and simplified expressions are
  /// bit-identical (pinned by tests/harness_test.cpp).
  PipelineCaches *Caches = nullptr;
  /// Record the printed simplified (or raw, when !Simplify) expressions
  /// per corpus entry into StudyResult::SimplifiedLhs/Rhs — the hook the
  /// determinism tests compare across job counts and cache configurations.
  bool RecordSimplified = false;
};

/// Everything a study run produces: the per-query records (in the same
/// checker-major order as runSolvingStudy, regardless of Jobs) plus the
/// aggregate counters the JSON report serializes.
struct StudyResult {
  std::vector<QueryRecord> Records;
  StageZeroStats StaticStats;  ///< merged across workers (Config.StageZero)
  double SimplifySeconds = 0;  ///< preprocessing cost, summed over workers
  double CloneSeconds = 0;     ///< cross-context corpus cloning, summed
  double WallSeconds = 0;      ///< solve loop only; excludes corpus setup
  /// End-to-end study time: preprocessing + simplify + solve (the number
  /// "wall_seconds" historically missed — it starts after preprocessing).
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

/// The parallel solving study. Work is partitioned per corpus entry; each
/// worker owns a private Context (created on its own thread — see the
/// threading model in ast/Context.h), clones the entry's expressions into
/// it with cloneExpr, optionally simplifies, and runs every checker from
/// its own factory-built set. Results land in pre-assigned slots, so the
/// record order — and, since every stage is deterministic, every verdict —
/// is identical for any job count.
StudyResult runSolvingStudyParallel(Context &Ctx,
                                    const std::vector<CorpusEntry> &Corpus,
                                    const CheckerFactory &MakeCheckers,
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
                              size_t CorpusSizePerCategory,
                              const std::string &Title);

/// Prints a solving-time distribution "figure": per solver, the sorted
/// solved-query times as percentiles plus an ASCII cumulative curve
/// (Figures 4 and 6 are exactly these curves).
void printTimeDistribution(const std::vector<QueryRecord> &Records,
                           double TimeoutSeconds, const std::string &Title);

/// Convenience: formats seconds with three decimals.
std::string formatSeconds(double S);

/// Wraps every checker in \p Checkers with the stage-0 static prover
/// (makeStagedChecker), all feeding the shared \p Stats counters. \p Stats
/// must outlive the checkers. \p Verdicts optionally short-circuits
/// repeated queries before stage 0 (see makeStagedChecker).
void addStageZeroProver(
    Context &Ctx, std::vector<std::unique_ptr<EquivalenceChecker>> &Checkers,
    StageZeroStats &Stats, VerdictCache *Verdicts = nullptr);

/// Prints the stage-0 counters accumulated by a staged run: the
/// proved/refuted/fallthrough split (how many queries never reached a
/// solver), static vs solver wall-clock, and saturation statistics.
void printStageZeroStats(const StageZeroStats &Stats);

} // namespace mba::bench

#endif // MBA_BENCH_HARNESS_H
