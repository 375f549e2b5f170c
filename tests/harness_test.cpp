//===- tests/harness_test.cpp - Benchmark harness tests -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ast/Parser.h"
#include "support/Json.h"
#include "support/QueryLog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace mba;
using namespace mba::bench;

namespace {

TEST(HarnessArgs, DefaultsAndOverrides) {
  {
    char Prog[] = "bench";
    char *Argv[] = {Prog};
    HarnessOptions Opts = parseHarnessArgs(1, Argv);
    EXPECT_EQ(Opts.PerCategory, 40u);
    EXPECT_EQ(Opts.TimeoutSeconds, 1.0);
    EXPECT_EQ(Opts.Width, 64u);
  }
  {
    char Prog[] = "bench";
    char A1[] = "--per-category=7";
    char A2[] = "--timeout=0.125";
    char A3[] = "--width=16";
    char A4[] = "--seed=99";
    char *Argv[] = {Prog, A1, A2, A3, A4};
    HarnessOptions Opts = parseHarnessArgs(5, Argv);
    EXPECT_EQ(Opts.PerCategory, 7u);
    EXPECT_EQ(Opts.TimeoutSeconds, 0.125);
    EXPECT_EQ(Opts.Width, 16u);
    EXPECT_EQ(Opts.Seed, 99u);
  }
}

TEST(HarnessStudy, RunsRawAndSimplifiedStudies) {
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 4;
  CorpusOpts.PolyCount = 2;
  CorpusOpts.NonPolyCount = 2;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  auto Raw = runStudy(Ctx, Corpus, Config).Records;
  EXPECT_EQ(Raw.size(), Corpus.size() * paperSolverMatrix().size());
  for (const QueryRecord &R : Raw) {
    EXPECT_FALSE(R.Solver.empty());
    EXPECT_LT(R.EntryIndex, Corpus.size());
    // Corpus entries are identities: a solver may time out but must never
    // refute one.
    EXPECT_NE(R.Outcome, Verdict::NotEquivalent);
  }

  Config.Pipeline.Simplify = true;
  Config.Pipeline.TimeoutSeconds = 2.0;
  auto Simplified = runStudy(Ctx, Corpus, Config).Records;
  unsigned Solved = 0;
  for (const QueryRecord &R : Simplified)
    Solved += R.Outcome == Verdict::Equivalent;
  // After preprocessing at width 8, effectively everything solves.
  EXPECT_GE(Solved, Simplified.size() - 2);
}

TEST(HarnessArgs, JobsAndJsonOverrides) {
  {
    char Prog[] = "bench";
    char *Argv[] = {Prog};
    HarnessOptions Opts = parseHarnessArgs(1, Argv);
    EXPECT_EQ(Opts.Jobs, 0u) << "default = hardware concurrency";
    EXPECT_TRUE(Opts.JsonPath.empty());
  }
  {
    char Prog[] = "bench";
    char A1[] = "--jobs=4";
    char A2[] = "--json=/tmp/out.json";
    char *Argv[] = {Prog, A1, A2};
    HarnessOptions Opts = parseHarnessArgs(3, Argv);
    EXPECT_EQ(Opts.Jobs, 4u);
    EXPECT_EQ(Opts.JsonPath, "/tmp/out.json");
  }
}

TEST(HarnessStudy, ParallelVerdictsMatchSerial) {
  // The determinism contract of runStudy: for any job count, record order
  // and verdicts are identical to the inline one-job run.
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 6;
  CorpusOpts.PolyCount = 3;
  CorpusOpts.NonPolyCount = 3;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Pipeline.Simplify = true;
  Config.Pipeline.StageZero = true;

  Config.Jobs = 1;
  StudyResult Serial = runStudy(Ctx, Corpus, Config);
  Config.Jobs = 4;
  StudyResult Parallel = runStudy(Ctx, Corpus, Config);

  ASSERT_EQ(Serial.Records.size(), Parallel.Records.size());
  for (size_t I = 0; I != Serial.Records.size(); ++I) {
    EXPECT_EQ(Serial.Records[I].Solver, Parallel.Records[I].Solver);
    EXPECT_EQ(Serial.Records[I].Category, Parallel.Records[I].Category);
    EXPECT_EQ(Serial.Records[I].EntryIndex, Parallel.Records[I].EntryIndex);
    EXPECT_EQ(Serial.Records[I].Outcome, Parallel.Records[I].Outcome)
        << "verdict diverged at record " << I << " (solver "
        << Serial.Records[I].Solver << ", entry "
        << Serial.Records[I].EntryIndex << ")";
  }
  // Both paths see the same query stream, so the stage-0 split matches.
  EXPECT_EQ(Serial.StaticStats.Proved, Parallel.StaticStats.Proved);
  EXPECT_EQ(Serial.StaticStats.Refuted, Parallel.StaticStats.Refuted);
  EXPECT_EQ(Serial.StaticStats.Fallthrough,
            Parallel.StaticStats.Fallthrough);
  // Raw queries reach saturation, and every saturation counter survives
  // the merge across workers. The tiny timeout skips the backends; stage 0
  // runs to its own budget regardless.
  Config.Pipeline.Simplify = false;
  Config.Pipeline.TimeoutSeconds = 1e-6;
  const ProveStats Sat = runStudy(Ctx, Corpus, Config).StaticStats.Saturation;
  EXPECT_GT(Sat.Iterations, 0u);
  EXPECT_GT(Sat.ENodes, 0u);
  EXPECT_GT(Sat.EClasses, 0u);
  EXPECT_GT(Sat.Merges, 0u);
  EXPECT_GT(Sat.Matches, 0u);
  EXPECT_EQ(Parallel.Jobs, 4u);
  EXPECT_EQ(Parallel.Pool.Tasks, Corpus.size());
}

TEST(HarnessStudy, JsonReportIsWellFormed) {
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 2;
  CorpusOpts.PolyCount = 1;
  CorpusOpts.NonPolyCount = 1;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Jobs = 2;
  Config.Pipeline.StageZero = true;
  StudyResult Result = runStudy(Ctx, Corpus, Config);

  HarnessOptions Opts;
  std::string Path = ::testing::TempDir() + "harness_study.json";
  writeStudyJson(Path, "unit", Opts, Result);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  // Structural sanity: balanced braces/brackets and the documented keys.
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));
  for (const char *Key :
       {"\"table\"", "\"config\"", "\"timing\"", "\"pool\"",
        "\"stage_zero\"", "\"solvers\"", "\"wall_seconds\"", "\"jobs\"",
        "\"total_seconds\"", "\"caches\"", "\"enabled\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

TEST(HarnessArgs, CacheOverrides) {
  {
    char Prog[] = "bench";
    char *Argv[] = {Prog};
    HarnessOptions Opts = parseHarnessArgs(1, Argv);
    EXPECT_FALSE(Opts.Cache);
    EXPECT_TRUE(Opts.CacheFile.empty());
  }
  {
    char Prog[] = "bench";
    char A1[] = "--cache=1";
    char *Argv[] = {Prog, A1};
    HarnessOptions Opts = parseHarnessArgs(2, Argv);
    EXPECT_TRUE(Opts.Cache);
    EXPECT_TRUE(Opts.CacheFile.empty());
  }
  {
    // A snapshot path implies caching; spelling out --cache=1 is optional.
    char Prog[] = "bench";
    char A1[] = "--cache-file=/tmp/warm.mba";
    char *Argv[] = {Prog, A1};
    HarnessOptions Opts = parseHarnessArgs(2, Argv);
    EXPECT_TRUE(Opts.Cache);
    EXPECT_EQ(Opts.CacheFile, "/tmp/warm.mba");
  }
  {
    char Prog[] = "bench";
    char A1[] = "--cache=0";
    char *Argv[] = {Prog, A1};
    HarnessOptions Opts = parseHarnessArgs(2, Argv);
    EXPECT_FALSE(Opts.Cache);
  }
}

TEST(HarnessStudy, CachedParallelMatchesUncachedSerial) {
  // The headline determinism contract of the memoization layer: caches on
  // with 4 workers must produce bit-identical verdicts AND simplified
  // output text to a cache-free serial run, on a full 120-entry corpus.
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 40;
  CorpusOpts.PolyCount = 40;
  CorpusOpts.NonPolyCount = 40;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);
  ASSERT_EQ(Corpus.size(), 120u);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Pipeline.Simplify = true;
  Config.Pipeline.StageZero = true;
  Config.RecordSimplified = true;

  Config.Jobs = 1;
  Config.Pipeline.Caches = nullptr;
  StudyResult Baseline = runStudy(Ctx, Corpus, Config);
  EXPECT_FALSE(Baseline.CachesEnabled);

  PipelineCaches Caches(/*Width=*/8);
  Config.Jobs = 4;
  Config.Pipeline.Caches = &Caches;
  StudyResult Cached = runStudy(Ctx, Corpus, Config);
  EXPECT_TRUE(Cached.CachesEnabled);

  ASSERT_EQ(Baseline.Records.size(), Cached.Records.size());
  for (size_t I = 0; I != Baseline.Records.size(); ++I) {
    EXPECT_EQ(Baseline.Records[I].Solver, Cached.Records[I].Solver);
    EXPECT_EQ(Baseline.Records[I].EntryIndex, Cached.Records[I].EntryIndex);
    EXPECT_EQ(Baseline.Records[I].Outcome, Cached.Records[I].Outcome)
        << "verdict diverged at record " << I << " (solver "
        << Baseline.Records[I].Solver << ", entry "
        << Baseline.Records[I].EntryIndex << ")";
  }
  ASSERT_EQ(Baseline.SimplifiedLhs.size(), Corpus.size());
  ASSERT_EQ(Cached.SimplifiedLhs.size(), Corpus.size());
  for (size_t I = 0; I != Corpus.size(); ++I) {
    EXPECT_EQ(Baseline.SimplifiedLhs[I], Cached.SimplifiedLhs[I])
        << "simplified LHS diverged at entry " << I;
    EXPECT_EQ(Baseline.SimplifiedRhs[I], Cached.SimplifiedRhs[I])
        << "simplified RHS diverged at entry " << I;
  }
  // Note: StaticStats are intentionally not compared — a verdict-cache hit
  // legitimately skips stage 0, so the cached run sees fewer queries.
}

TEST(HarnessStudy, CacheSnapshotWarmsSecondStudy) {
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 6;
  CorpusOpts.PolyCount = 3;
  CorpusOpts.NonPolyCount = 3;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Pipeline.Simplify = true;
  Config.Pipeline.StageZero = true;
  Config.RecordSimplified = true;
  Config.Jobs = 2;

  PipelineCaches Cold(/*Width=*/8);
  Config.Pipeline.Caches = &Cold;
  StudyResult First = runStudy(Ctx, Corpus, Config);

  std::string Path = ::testing::TempDir() + "harness_snapshot.mba";
  std::string Err;
  ASSERT_TRUE(Cold.saveTo(Path, Err)) << Err;

  // A fresh process would construct new caches and load the snapshot; model
  // that with a second PipelineCaches instance.
  PipelineCaches Warm(/*Width=*/8);
  ASSERT_TRUE(Warm.loadFrom(Path, Err)) << Err;
  Config.Pipeline.Caches = &Warm;
  StudyResult Second = runStudy(Ctx, Corpus, Config);

  ASSERT_EQ(First.Records.size(), Second.Records.size());
  for (size_t I = 0; I != First.Records.size(); ++I)
    EXPECT_EQ(First.Records[I].Outcome, Second.Records[I].Outcome);
  for (size_t I = 0; I != Corpus.size(); ++I) {
    EXPECT_EQ(First.SimplifiedLhs[I], Second.SimplifiedLhs[I]);
    EXPECT_EQ(First.SimplifiedRhs[I], Second.SimplifiedRhs[I]);
  }
  // The warm run must actually hit: every simplification was snapshotted.
  EXPECT_GT(Second.SimplifyResultCache.Hits + Second.SimplifyLinearCache.Hits,
            0u);
  EXPECT_GT(Second.VerdictCacheStats.Hits, 0u);

  // Width mismatch is rejected on load, never silently reinterpreted.
  PipelineCaches Wrong(/*Width=*/16);
  EXPECT_FALSE(Wrong.loadFrom(Path, Err));
  EXPECT_NE(Err.find("width"), std::string::npos) << Err;
}

TEST(HarnessArgs, TraceAndMetricsOverrides) {
  {
    char Prog[] = "bench";
    char *Argv[] = {Prog};
    HarnessOptions Opts = parseHarnessArgs(1, Argv);
    EXPECT_TRUE(Opts.TracePath.empty());
    EXPECT_TRUE(Opts.MetricsPath.empty());
  }
  {
    char Prog[] = "bench";
    char A1[] = "--trace=/tmp/t.json";
    char A2[] = "--metrics=/tmp/m.txt";
    char *Argv[] = {Prog, A1, A2};
    HarnessOptions Opts = parseHarnessArgs(3, Argv);
    EXPECT_EQ(Opts.TracePath, "/tmp/t.json");
    EXPECT_EQ(Opts.MetricsPath, "/tmp/m.txt");
  }
}

TEST(HarnessStudy, TracedParallelMatchesUntraced) {
  // Observation must not perturb the pipeline: a fully traced + metered
  // 4-worker run produces bit-identical verdicts and simplified text to an
  // untraced one.
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 10;
  CorpusOpts.PolyCount = 5;
  CorpusOpts.NonPolyCount = 5;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Jobs = 4;
  Config.Pipeline.Simplify = true;
  Config.Pipeline.StageZero = true;
  Config.RecordSimplified = true;

  StudyResult Plain = runStudy(Ctx, Corpus, Config);

  telemetry::setMetricsEnabled(true);
  telemetry::clearTrace();
  telemetry::setTracingEnabled(true);
  StudyResult Traced = runStudy(Ctx, Corpus, Config);
  telemetry::setTracingEnabled(false);
  telemetry::setMetricsEnabled(false);

  ASSERT_EQ(Plain.Records.size(), Traced.Records.size());
  for (size_t I = 0; I != Plain.Records.size(); ++I) {
    EXPECT_EQ(Plain.Records[I].Solver, Traced.Records[I].Solver);
    EXPECT_EQ(Plain.Records[I].Outcome, Traced.Records[I].Outcome)
        << "tracing changed the verdict at record " << I;
  }
  for (size_t I = 0; I != Corpus.size(); ++I) {
    EXPECT_EQ(Plain.SimplifiedLhs[I], Traced.SimplifiedLhs[I]);
    EXPECT_EQ(Plain.SimplifiedRhs[I], Traced.SimplifiedRhs[I]);
  }

  // The traced run actually recorded: per-worker task spans exist and the
  // workers carry their stable labels.
  std::vector<telemetry::TraceEvent> Trace = telemetry::collectTrace();
  size_t TaskSpans = 0;
  for (const telemetry::TraceEvent &E : Trace)
    TaskSpans += std::string_view(E.Name) == "pool.task";
  EXPECT_EQ(TaskSpans, Corpus.size());
  size_t WorkerLabels = 0;
  for (auto &[Tid, Label] : telemetry::traceThreads())
    WorkerLabels += Label.rfind("worker-", 0) == 0;
  EXPECT_GE(WorkerLabels, 1u);
  telemetry::clearTrace();
}

TEST(HarnessArgs, QueryLogOverride) {
  {
    char Prog[] = "bench";
    char *Argv[] = {Prog};
    HarnessOptions Opts = parseHarnessArgs(1, Argv);
    EXPECT_TRUE(Opts.QueryLogPath.empty());
  }
  {
    char Prog[] = "bench";
    char A1[] = "--query-log=/tmp/q.jsonl";
    char *Argv[] = {Prog, A1};
    HarnessOptions Opts = parseHarnessArgs(2, Argv);
    EXPECT_EQ(Opts.QueryLogPath, "/tmp/q.jsonl");
  }
}

TEST(HarnessStudy, QueryLoggedMatchesUnlogged) {
  // The flight recorder is observational: a fully logged 4-worker study
  // must produce bit-identical verdicts and simplified text to an unlogged
  // one, and every JSONL record it leaves behind must parse with the
  // complete decision chain (classify -> stages for simplify records,
  // verdict + stage0 disposition for check records).
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 10;
  CorpusOpts.PolyCount = 5;
  CorpusOpts.NonPolyCount = 5;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Jobs = 4;
  Config.Pipeline.Simplify = true;
  Config.Pipeline.StageZero = true;
  Config.RecordSimplified = true;

  StudyResult Plain = runStudy(Ctx, Corpus, Config);

  std::string Path = ::testing::TempDir() + "harness_query.jsonl";
  ASSERT_TRUE(querylog::openFile(Path));
  StudyResult Logged = runStudy(Ctx, Corpus, Config);
  uint64_t Written = querylog::recordsWritten();
  querylog::close();

  ASSERT_EQ(Plain.Records.size(), Logged.Records.size());
  for (size_t I = 0; I != Plain.Records.size(); ++I) {
    EXPECT_EQ(Plain.Records[I].Solver, Logged.Records[I].Solver);
    EXPECT_EQ(Plain.Records[I].Outcome, Logged.Records[I].Outcome)
        << "query logging changed the verdict at record " << I;
  }
  for (size_t I = 0; I != Corpus.size(); ++I) {
    EXPECT_EQ(Plain.SimplifiedLhs[I], Logged.SimplifiedLhs[I]);
    EXPECT_EQ(Plain.SimplifiedRhs[I], Logged.SimplifiedRhs[I]);
  }

  // Parse every line back and require the complete chain. Simplify runs
  // twice per corpus entry (both sides); every (checker, entry) pair adds
  // one check record.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  size_t SimplifyRecords = 0, CheckRecords = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value Rec;
    std::string Err;
    ASSERT_TRUE(json::parse(Line, Rec, &Err)) << Err << "\n" << Line;
    std::string Kind(Rec.stringAt("kind"));
    EXPECT_GT(Rec.numberAt("ns"), 0);
    if (Kind == "simplify") {
      ++SimplifyRecords;
      EXPECT_FALSE(Rec.stringAt("class").empty()) << Line;
      EXPECT_EQ(Rec.stringAt("fp_in").size(), 16u);
      EXPECT_EQ(Rec.stringAt("fp_out").size(), 16u);
      const json::Value *Stages = Rec.get("stages");
      ASSERT_NE(Stages, nullptr) << Line;
      EXPECT_EQ(Stages->at(0).stringAt("name"), "classify") << Line;
    } else {
      ASSERT_EQ(Kind, "check") << Line;
      ++CheckRecords;
      EXPECT_FALSE(Rec.stringAt("verdict").empty()) << Line;
      EXPECT_FALSE(Rec.stringAt("backend").empty()) << Line;
      EXPECT_FALSE(Rec.stringAt("stage0").empty()) << Line;
    }
  }
  EXPECT_EQ(SimplifyRecords + CheckRecords, Written);
  EXPECT_EQ(SimplifyRecords, Corpus.size() * 2);
  EXPECT_EQ(CheckRecords, Plain.Records.size());
}

TEST(HarnessStudy, JsonHistogramsCarryBucketsAndPercentiles) {
  // Satellite contract: --json histogram entries embed bucket data and
  // estimated percentiles, not just count/sum.
  Context Ctx(8);
  CorpusOptions CorpusOpts;
  CorpusOpts.LinearCount = 2;
  CorpusOpts.PolyCount = 1;
  CorpusOpts.NonPolyCount = 1;
  CorpusOpts.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, CorpusOpts);

  StudyConfig Config;
  Config.Pipeline.TimeoutSeconds = 0.2;
  Config.Jobs = 1;
  Config.Pipeline.Simplify = true;
  telemetry::setMetricsEnabled(true);
  StudyResult Result = runStudy(Ctx, Corpus, Config);
  telemetry::setMetricsEnabled(false);

  HarnessOptions Opts;
  std::string Path = ::testing::TempDir() + "harness_hist.json";
  writeStudyJson(Path, "unit", Opts, Result);

  json::Value Root;
  std::string Err;
  ASSERT_TRUE(json::parseFile(Path, Root, &Err)) << Err;
  ASSERT_NE(Root.get("build_info"), nullptr);
  EXPECT_FALSE(Root.get("build_info")->stringAt("version").empty());
  const json::Value *Metrics = Root.get("metrics");
  ASSERT_NE(Metrics, nullptr);
  const json::Value *Duration = Metrics->get("simplify.duration_ns");
  ASSERT_NE(Duration, nullptr)
      << "simplify histogram missing from the metrics object";
  EXPECT_GT(Duration->numberAt("count"), 0);
  EXPECT_GT(Duration->numberAt("p50"), 0);
  EXPECT_GE(Duration->numberAt("p99"), Duration->numberAt("p50"));
  const json::Value *Buckets = Duration->get("buckets");
  ASSERT_NE(Buckets, nullptr);
  EXPECT_GT(Buckets->members().size(), 0u) << "bucket data must be embedded";
}

TEST(HarnessFormat, SecondsFormatting) {
  EXPECT_EQ(formatSeconds(0.0), "0.000");
  EXPECT_EQ(formatSeconds(1.2345), "1.234");
  EXPECT_EQ(formatSeconds(12.0), "12.000");
}

TEST(HarnessPrint, TablesRenderWithoutCrashing) {
  // Smoke the printers with a synthetic record set covering every cell
  // state (solved, unsolved, absent categories).
  std::vector<QueryRecord> Records = {
      {"SolverA", MBAKind::Linear, Verdict::Equivalent, 0.05, 0},
      {"SolverA", MBAKind::Linear, Verdict::Timeout, 0.2, 1},
      {"SolverA", MBAKind::Polynomial, Verdict::Timeout, 0.2, 2},
      {"SolverB", MBAKind::Linear, Verdict::Equivalent, 0.01, 0},
      {"SolverB", MBAKind::NonPolynomial, Verdict::Equivalent, 0.02, 3},
  };
  printSolverCategoryTable(Records, "unit-test table");
  printTimeDistribution(Records, 0.2, "unit-test distribution");
  SUCCEED();
}

} // namespace
