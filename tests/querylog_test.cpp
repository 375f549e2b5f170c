//===- tests/querylog_test.cpp - Flight recorder tests --------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the query-log contracts: JSONL records parse back with the full
// decision chain intact, concurrent writers produce line-atomic output,
// scope nesting follows the pass-through/suppress rules, the disabled path
// stays at one relaxed load, the rule-attribution registry merges
// observations correctly, and each stage's span, counter and record entry
// come from one instrumentation point, so the views agree.
//
//===----------------------------------------------------------------------===//

#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"
#include "ast/Context.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Simplifier.h"
#include "mba/SimplifyCache.h"
#include "solvers/Pipeline.h"
#include "support/Json.h"
#include "support/QueryLog.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace mba;

namespace {

const Expr *parse(Context &Ctx, const char *Text) {
  ParseResult R = parseExpr(Ctx, Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R.E;
}

std::vector<json::Value> parseLines(const std::vector<std::string> &Lines) {
  std::vector<json::Value> Out;
  for (const std::string &Line : Lines) {
    json::Value V;
    std::string Err;
    EXPECT_TRUE(json::parse(Line, V, &Err)) << Err << "\n" << Line;
    Out.push_back(std::move(V));
  }
  return Out;
}

TEST(QueryLog, DisabledByDefault) {
  ASSERT_FALSE(querylog::enabled());
  EXPECT_EQ(querylog::active(), nullptr);
  {
    querylog::QueryScope Scope("check");
    EXPECT_EQ(querylog::active(), nullptr) << "scope armed without a sink";
  }
  EXPECT_EQ(querylog::recordsWritten(), 0u);
}

TEST(QueryLog, SimplifyRecordHasCompleteChain) {
  Context Ctx(64);
  const Expr *E = parse(Ctx, "x + y - 2*(x & y)");
  querylog::beginCapture();
  MBASolver Solver(Ctx);
  const Expr *R = Solver.simplify(E);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  EXPECT_EQ(printExpr(Ctx, R), "x^y");

  ASSERT_EQ(Records.size(), 1u);
  const json::Value &Rec = Records[0];
  EXPECT_EQ(Rec.stringAt("kind"), "simplify");
  EXPECT_EQ(Rec.stringAt("class"), "linear");
  EXPECT_EQ(Rec.numberAt("width"), 64);
  EXPECT_GT(Rec.numberAt("nodes_in"), Rec.numberAt("nodes_out"));
  EXPECT_EQ(Rec.stringAt("fp_in").size(), 16u);
  EXPECT_EQ(Rec.stringAt("fp_out").size(), 16u);
  EXPECT_GT(Rec.numberAt("ns"), 0);

  // The stage array names the Algorithm 1 steps that actually ran.
  const json::Value *Stages = Rec.get("stages");
  ASSERT_NE(Stages, nullptr);
  std::set<std::string> Names;
  for (const json::Value &S : Stages->elements())
    Names.insert(std::string(S.stringAt("name")));
  EXPECT_TRUE(Names.count("classify"));
  EXPECT_TRUE(Names.count("linear-signature"));
}

TEST(QueryLog, CheckRecordHasCompleteChain) {
  Context Ctx(64);
  const Expr *A = parse(Ctx, "x + y - 2*(x & y)");
  const Expr *B = parse(Ctx, "x ^ y");
  querylog::beginCapture();
  Pipeline P(Ctx, PipelineConfig());
  CheckResult CR = P.check(A, B);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  EXPECT_EQ(CR.Outcome, Verdict::Equivalent);

  ASSERT_EQ(Records.size(), 1u);
  const json::Value &Rec = Records[0];
  EXPECT_EQ(Rec.stringAt("kind"), "check");
  EXPECT_EQ(Rec.stringAt("verdict"), "equivalent");
  EXPECT_EQ(Rec.stringAt("verdict_cache"), "off");
  EXPECT_FALSE(Rec.stringAt("backend").empty());
  EXPECT_FALSE(Rec.stringAt("stage0").empty());
  EXPECT_EQ(Rec.stringAt("fp_a").size(), 16u);
  EXPECT_EQ(Rec.stringAt("fp_b").size(), 16u);
  const json::Value *Stages = Rec.get("stages");
  ASSERT_NE(Stages, nullptr);
  ASSERT_GE(Stages->size(), 1u);
  EXPECT_EQ(Stages->at(0).stringAt("name"), "stage0");
}

TEST(QueryLog, BackendFieldsLandInTheStagedRecord) {
  // A query stage 0 cannot decide reaches the backend, whose same-kind
  // nested scope must contribute SAT statistics into the *staged* record
  // rather than emit a second one.
  Context Ctx(8);
  const Expr *A = parse(Ctx, "(x & y) * (x | y) + (x & ~y) * (~x & y) + 17");
  const Expr *B = parse(Ctx, "x * y + 17");
  // Generous timeout: the 8-bit multiplier miter takes seconds under a
  // loaded parallel ctest run, and an expiry would flip the verdict.
  PipelineConfig Config;
  Config.TimeoutSeconds = 60.0;
  Pipeline P(Ctx, Config);
  querylog::beginCapture();
  CheckResult CR = P.check(A, B);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  EXPECT_EQ(CR.Outcome, Verdict::Equivalent)
      << "x*y == (x&y)*(x|y) + (x&~y)*(~x&y) is an identity";

  ASSERT_EQ(Records.size(), 1u) << "backend must not emit its own record";
  const json::Value &Rec = Records[0];
  EXPECT_EQ(Rec.stringAt("stage0"), "unknown");
  EXPECT_EQ(Rec.stringAt("backend"), "BlastBV+AIG");
  EXPECT_NE(Rec.get("aig_nodes"), nullptr);
  std::set<std::string> Names;
  for (const json::Value &S : Rec.get("stages")->elements())
    Names.insert(std::string(S.stringAt("name")));
  EXPECT_TRUE(Names.count("stage0"));
  EXPECT_TRUE(Names.count("backend"));
}

TEST(QueryLog, RefuteFirstChargesItsTimeToTheBudget) {
  // SigCheck cannot decide this identity (sampling agrees, the canonical
  // forms differ), so the staged checker runs — with the timeout minus
  // what the refuter already spent.
  Context Ctx(8);
  const Expr *A = parse(Ctx, "(x * x) & 1");
  const Expr *B = parse(Ctx, "x & 1");
  PipelineConfig Config;
  Config.RefuteFirst = true;
  Config.TimeoutSeconds = 60.0;
  Pipeline P(Ctx, Config);
  querylog::beginCapture();
  CheckResult CR = P.check(A, B);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  EXPECT_EQ(CR.Outcome, Verdict::Equivalent);
  EXPECT_EQ(P.stageZeroStats().queries(), 1u) << "SigCheck decided the pair";
  size_t Checks = 0;
  for (const json::Value &Rec : Records) {
    if (Rec.stringAt("kind") != "check")
      continue;
    ++Checks;
    EXPECT_LT(Rec.numberAt("timeout_s"), Config.TimeoutSeconds);
  }
  EXPECT_EQ(Checks, 1u);
}

TEST(QueryLog, StandaloneBackendArmsItsOwnRecord) {
  Context Ctx(64);
  const Expr *A = parse(Ctx, "x + y");
  const Expr *B = parse(Ctx, "y + x");
  querylog::beginCapture();
  auto Checker = makeAigChecker();
  Checker->check(Ctx, A, B, 5.0);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].stringAt("kind"), "check");
  EXPECT_EQ(Records[0].stringAt("backend"), "BlastBV+AIG");
  EXPECT_FALSE(Records[0].stringAt("verdict").empty());
}

TEST(QueryLog, DifferentKindNestedScopeIsSuppressed) {
  querylog::beginCapture();
  {
    querylog::QueryScope Outer("simplify");
    ASSERT_NE(querylog::active(), nullptr);
    querylog::active()->str("marker", "outer");
    {
      // The synth fallback's verification check must not leak backend
      // fields into the simplify record.
      querylog::QueryScope Inner("check");
      EXPECT_EQ(querylog::active(), nullptr);
    }
    ASSERT_NE(querylog::active(), nullptr);
  }
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].stringAt("kind"), "simplify");
  EXPECT_EQ(Records[0].stringAt("marker"), "outer");
}

TEST(QueryLog, FileSinkRoundTripAndEscaping) {
  std::string Path = ::testing::TempDir() + "querylog_roundtrip.jsonl";
  ASSERT_TRUE(querylog::openFile(Path));
  {
    querylog::QueryScope Scope("check");
    ASSERT_NE(querylog::active(), nullptr);
    querylog::active()->str("nasty", "a\"b\\c\nd\te\x01f");
    querylog::active()->snum("signed", -42);
    querylog::active()->fnum("frac", 0.25);
    querylog::active()->flag("yes", true);
  }
  EXPECT_EQ(querylog::recordsWritten(), 1u);
  querylog::close();
  EXPECT_FALSE(querylog::enabled());

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  json::Value Rec;
  std::string Err;
  ASSERT_TRUE(json::parse(Line, Rec, &Err)) << Err;
  EXPECT_EQ(Rec.stringAt("nasty"), "a\"b\\c\nd\te\x01f");
  EXPECT_EQ(Rec.numberAt("signed"), -42);
  EXPECT_EQ(Rec.numberAt("frac"), 0.25);
  ASSERT_NE(Rec.get("yes"), nullptr);
  EXPECT_TRUE(Rec.get("yes")->asBool());
  EXPECT_FALSE(std::getline(In, Line)) << "exactly one record expected";
}

TEST(QueryLog, EightInterleavedWritersStayLineAtomic) {
  std::string Path = ::testing::TempDir() + "querylog_threads.jsonl";
  ASSERT_TRUE(querylog::openFile(Path));
  constexpr unsigned Threads = 8, PerThread = 50;
  // A long payload makes torn writes likely if line atomicity ever breaks.
  const std::string Payload(512, 'x');
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([T, &Payload] {
      for (unsigned I = 0; I != PerThread; ++I) {
        querylog::QueryScope Scope("check");
        ASSERT_NE(querylog::active(), nullptr);
        querylog::active()->num("writer", T);
        querylog::active()->num("iter", I);
        querylog::active()->str("payload", Payload);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(querylog::recordsWritten(), (uint64_t)Threads * PerThread);
  querylog::close();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::set<std::pair<unsigned, unsigned>> Seen;
  std::set<uint64_t> Seqs;
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value Rec;
    std::string Err;
    ASSERT_TRUE(json::parse(Line, Rec, &Err)) << Err << "\n" << Line;
    EXPECT_EQ(Rec.stringAt("payload"), Payload) << "torn record";
    Seen.insert({(unsigned)Rec.numberAt("writer", 999),
                 (unsigned)Rec.numberAt("iter", 999)});
    Seqs.insert(Rec.get("seq")->asU64());
  }
  EXPECT_EQ(Seen.size(), (size_t)Threads * PerThread)
      << "every (writer, iter) pair must appear exactly once";
  EXPECT_EQ(Seqs.size(), (size_t)Threads * PerThread)
      << "sequence numbers must be unique";
}

TEST(QueryLog, DisabledActiveIsCheap) {
  // The contract the instrumentation sites in Simplifier / Prover / the
  // checkers rely on: with no sink open, active() is one relaxed load.
  // Bound it loosely — hundreds of ns per call would mean a lock or TLS
  // initialization snuck onto the disabled path.
  // A Stage with every view off is the same one load, and counts nothing.
  ASSERT_FALSE(querylog::enabled());
  ASSERT_EQ(telemetry::views(), 0u);
  static const querylog::StageDef Def{"test.stage", "test-stage",
                                      "test.disabled_stage_runs"};
  constexpr unsigned N = 200000;
  uint64_t Start = telemetry::nowNs();
  for (unsigned I = 0; I != N; ++I) {
    querylog::Stage S(Def);
    if (querylog::active())
      FAIL() << "active() returned a record with no sink open";
  }
  uint64_t PerCall = (telemetry::nowNs() - Start) / N;
  EXPECT_LT(PerCall, 1000u) << "disabled query-log cost exploded";
  for (const telemetry::MetricValue &M : telemetry::snapshotMetrics())
    EXPECT_NE(M.Name, "test.disabled_stage_runs");
}

TEST(QueryLog, RuleAttributionMergesAndSnapshotSorts) {
  querylog::resetRuleAttribution();
  querylog::noteRule("zz-rule", 1, 100, 10, 6);
  querylog::noteRule("aa-rule", 2, 50, 8, 8);
  querylog::noteRule("zz-rule", 3, 200, 20, 12);
  querylog::noteRuleOutcome("aa-rule", true);
  querylog::noteRuleOutcome("aa-rule", false);

  auto Attribution = querylog::ruleAttribution();
  ASSERT_EQ(Attribution.size(), 2u);
  EXPECT_EQ(Attribution[0].first, "aa-rule");
  EXPECT_EQ(Attribution[0].second.Fires, 2u);
  EXPECT_EQ(Attribution[0].second.Installs, 1u);
  EXPECT_EQ(Attribution[0].second.Rejects, 1u);
  EXPECT_EQ(Attribution[1].first, "zz-rule");
  EXPECT_EQ(Attribution[1].second.Fires, 4u);
  EXPECT_EQ(Attribution[1].second.Ns, 300u);
  EXPECT_EQ(Attribution[1].second.NodesBefore, 30u);
  EXPECT_EQ(Attribution[1].second.NodesAfter, 18u);
  querylog::resetRuleAttribution();
  EXPECT_TRUE(querylog::ruleAttribution().empty());
}

TEST(QueryLog, LoggedSimplifyMatchesUnlogged) {
  // Behavior neutrality at the unit level: the same input simplifies to
  // the same expression with and without a capture running (the full-study
  // variant lives in harness_test).
  Context Ctx(64);
  const Expr *E = parse(Ctx, "(a | b) + (a & b) - (a ^ b)");
  std::string Plain, Logged;
  {
    MBASolver Solver(Ctx);
    Plain = printExpr(Ctx, Solver.simplify(E));
  }
  querylog::beginCapture();
  {
    MBASolver Solver(Ctx);
    Logged = printExpr(Ctx, Solver.simplify(E));
  }
  std::vector<std::string> Lines = querylog::endCapture();
  EXPECT_EQ(Plain, Logged);
  EXPECT_EQ(Lines.size(), 1u);
}

TEST(QueryLog, ResultCacheHitRecordsOnlyConstantTimeFields) {
  // A logged hit walks nothing: it carries the fingerprints, the cache
  // disposition and the cache counts, but no field that needs a walk of
  // the input or the output. The miss before it keeps the full record.
  Context Ctx(64);
  const Expr *E = parse(Ctx, "(a | b) + (a & b) - (a ^ b)");
  SimplifyCache Cache(64);
  SimplifyOptions Opts;
  Opts.SharedCache = &Cache;
  MBASolver Solver(Ctx, Opts);
  querylog::beginCapture();
  const Expr *First = Solver.simplify(E);
  const Expr *Second = Solver.simplify(E);
  std::vector<json::Value> Records = parseLines(querylog::endCapture());
  EXPECT_EQ(First, Second);
  ASSERT_EQ(Records.size(), 2u);

  const json::Value &Miss = Records[0];
  EXPECT_EQ(Miss.stringAt("result_cache"), "miss");
  for (const char *Key : {"width", "nodes_in", "alt_in", "fp_in", "class",
                          "nodes_out", "alt_out", "fp_out", "cache_hits",
                          "cache_misses", "stages"})
    EXPECT_NE(Miss.get(Key), nullptr) << "miss record lost " << Key;

  const json::Value &Hit = Records[1];
  EXPECT_EQ(Hit.stringAt("result_cache"), "hit");
  EXPECT_EQ(Hit.numberAt("width"), 64);
  EXPECT_EQ(Hit.stringAt("fp_in"), Miss.stringAt("fp_in"));
  EXPECT_EQ(Hit.stringAt("fp_out"), Miss.stringAt("fp_out"));
  EXPECT_EQ(Hit.numberAt("cache_hits"), 1);
  EXPECT_EQ(Hit.numberAt("cache_misses"), 0);
  for (const char *Key :
       {"class", "nodes_in", "alt_in", "nodes_out", "alt_out", "stages"})
    EXPECT_EQ(Hit.get(Key), nullptr) << "a hit record carries " << Key;
}

uint64_t counterValue(const char *Name) {
  for (const telemetry::MetricValue &M : telemetry::snapshotMetrics())
    if (M.Name == Name)
      return M.Value;
  return 0;
}

/// Counts the `stages` entries named \p Name across \p Records.
size_t stageEntries(const std::vector<json::Value> &Records, const char *Name) {
  size_t N = 0;
  for (const json::Value &Rec : Records)
    if (const json::Value *Stages = Rec.get("stages"))
      for (const json::Value &S : Stages->elements())
        N += S.stringAt("name") == Name;
  return N;
}

TEST(QueryLog, StageCounterStructAndRecordAgree) {
  // Every stage is instrumented in one place, and every event is counted
  // once, in the struct that owns it: the registry counter, the owner's
  // struct and the record's stage entries must report the same number.
  telemetry::setMetricsEnabled(true);
  Context Ctx(8);
  CorpusOptions CO;
  CO.LinearCount = CO.PolyCount = CO.NonPolyCount = 3;
  CO.IncludeSeedIdentities = false;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, CO);

  // Simplify and stage 0 on: the Algorithm 1 paths and stage 0.
  {
    Pipeline P(Ctx, PipelineConfig());
    std::map<std::string, uint64_t> Before;
    for (const char *C : {"simplify.linear_runs", "simplify.poly_runs",
                          "simplify.nonpoly_runs", "stage0.proved",
                          "stage0.refuted", "stage0.fallthrough"})
      Before[C] = counterValue(C);
    querylog::beginCapture();
    for (const CorpusEntry &E : Corpus)
      P.check(P.simplify(E.Obfuscated), P.simplify(E.Ground));
    std::vector<json::Value> Records = parseLines(querylog::endCapture());
    auto Delta = [&](const char *C) { return counterValue(C) - Before[C]; };

    SimplifyStats S = P.simplifyStats();
    EXPECT_GT(S.LinearRuns + S.PolyRuns + S.NonPolyRuns, 0u);
    EXPECT_EQ(Delta("simplify.linear_runs"), S.LinearRuns);
    EXPECT_EQ(stageEntries(Records, "linear-signature"), S.LinearRuns);
    EXPECT_EQ(Delta("simplify.poly_runs"), S.PolyRuns);
    EXPECT_EQ(stageEntries(Records, "poly-normalize"), S.PolyRuns);
    EXPECT_EQ(Delta("simplify.nonpoly_runs"), S.NonPolyRuns);
    EXPECT_EQ(stageEntries(Records, "nonpoly-abstraction"), S.NonPolyRuns);

    const StageZeroStats &Z = P.stageZeroStats();
    EXPECT_EQ(Z.queries(), Corpus.size());
    EXPECT_EQ(Delta("stage0.proved"), Z.Proved);
    EXPECT_EQ(Delta("stage0.refuted"), Z.Refuted);
    EXPECT_EQ(Delta("stage0.fallthrough"), Z.Fallthrough);
    EXPECT_EQ(stageEntries(Records, "stage0"), Z.queries());
    EXPECT_EQ(stageEntries(Records, "backend"), Z.Fallthrough);
  }

  // Raw queries on BlastBV+AIG: the per-query graph's AigStats are the
  // only count of its nodes, published once per query. The timeout only
  // bounds SAT; the graph is complete before SAT starts.
  {
    PipelineConfig Raw;
    Raw.Simplify = false;
    Raw.StageZero = false;
    Raw.TimeoutSeconds = 0.2;
    Pipeline P(Ctx, Raw);
    for (const CorpusEntry &E : Corpus) {
      uint64_t Nodes = counterValue("aig.nodes");
      uint64_t Hits = counterValue("aig.strash_hits");
      uint64_t Queries = counterValue("sat.aig.queries");
      querylog::beginCapture();
      P.check(E.Obfuscated, E.Ground);
      std::vector<json::Value> Records = parseLines(querylog::endCapture());

      // The checker's own protocol, replayed: both sides onto one graph at
      // the BlastBV+AIG level, then the miter.
      aig::Aig G(aig::AigLevel::Full);
      aig::AigBlaster Blaster(G, Ctx.width(), aig::Encoding::Prefix);
      aig::ExprAig Translator(Blaster);
      auto WA = Translator.blast(E.Obfuscated);
      auto WB = Translator.blast(E.Ground);
      Blaster.disequalLit(WA, WB);

      EXPECT_EQ(counterValue("sat.aig.queries") - Queries, 1u);
      EXPECT_EQ(counterValue("aig.nodes") - Nodes, G.stats().AndNodes);
      EXPECT_EQ(counterValue("aig.strash_hits") - Hits, G.stats().StrashHits);
      ASSERT_EQ(Records.size(), 1u);
      EXPECT_EQ(Records[0].numberAt("aig_nodes"), G.numNodes());
    }
  }
  telemetry::setMetricsEnabled(false);
}

} // namespace
