//===- perfbench/perfbench.cpp - Shipped-pipeline benchmark driver --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark. One named workload runs through the shipped
/// default path
///
///   text -> parseExpr -> MBASolver::simplify (both sides)
///        -> makeStagedChecker(makeAigChecker(true))
///
/// as a closed loop: one client, one thread, one Context. Every output is
/// checked independently of the code under test. perfbench/run.py builds
/// and drives this binary; perfbench/README.md explains the workloads, the
/// metrics and how to read the ledger.
///
/// Modes:
///   --mode=timed   set up, then repeat passes over the corpus for
///                  --seconds of query time; prints the end-to-end metrics.
///   --mode=ledger  one pass over a fixed, seed-determined slice of the
///                  corpus. With --traced=1 it also records the
///                  benchmark's own spans, the telemetry registry and the
///                  query log, and prints the per-layer metrics.
///
/// Layers are measured from outside only: spans wrap calls into public
/// functions; counters come from telemetry::snapshotMetrics() and from the
/// records of querylog::beginCapture()/endCapture().
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Rules.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "gen/Obfuscator.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Simplifier.h"
#include "poly/PolyExpr.h"
#include "solvers/EquivalenceChecker.h"
#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/QueryLog.h"
#include "support/RNG.h"
#include "support/Telemetry.h"
#include "synth/Basis3.h"
#include "synth/Synthesizer.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace mba;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  unsigned Width;
  unsigned PerCategory;  ///< gen/Corpus entries per category (paper corpus)
  unsigned SynthEntries; ///< table_synth-style entries (opaque corpus)
  bool Simplify;         ///< run MBASolver::simplify on both sides
  bool Synth;            ///< wire Synthesizer::fallbackHook() into simplify
  bool Caches;           ///< shared PipelineCaches (simplify/basis/verdict)
  bool WarmReplay;       ///< caches loaded from a snapshot written in set-up
  unsigned LedgerQueries; ///< fixed ledger slice; 0 = the whole corpus
  /// Keep only the first PerBucket entries of each (category, variable
  /// count) bucket, so every seed's corpus has the same mix; 0 keeps all.
  unsigned PerBucket;
};

/// Per-query budget of the staged check.
constexpr double BudgetSeconds = 10.0;

/// Set-up repetitions; setup_s reports their median.
constexpr unsigned SetupReps = 3;

/// Random points (after the all-zeros and all-ones corners) on which every
/// simplified or synthesized output must agree with its input.
constexpr unsigned CheckPoints = 6;

const Workload Workloads[] = {
    {"paper_simplify", 64, 1000, 0, true, false, true, false, 0, 0},
    {"raw_bitblast", 3, 100, 0, false, false, false, false, 40, 10},
    {"warm_replay", 64, 1000, 0, true, false, true, true, 0, 0},
    {"opaque_synth", 3, 0, 600, true, true, false, false, 40, 0},
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

struct QueryText {
  std::string Lhs, Rhs; ///< obfuscated side, ground-truth side
};

/// Bank-shaped grounds hidden under non-poly rewrites plus one opaque-zero
/// carry fact each: the generator of bench/table_synth.cpp, restated here
/// so the benchmark depends only on the library's public generators. One
/// change: arity and shape cycle through all nine combinations instead of
/// drawing the arity, so every seed's corpus has the same mix and the seed
/// only draws truth tables, coefficients and rewrites.
std::vector<std::pair<const Expr *, const Expr *>>
opaqueSynthEntries(Context &Ctx, unsigned Count, uint64_t Seed) {
  Obfuscator Obf(Ctx, Seed ^ 0xB057ED);
  RNG Rng(Seed);
  const Expr *AllVars[3] = {Ctx.getVar("x"), Ctx.getVar("y"),
                            Ctx.getVar("z")};
  std::vector<std::pair<const Expr *, const Expr *>> Out;
  for (unsigned Case = 0; Case != Count; ++Case) {
    unsigned T = 1 + Case / 3 % 3;
    std::span<const Expr *const> Vars{AllVars, T};
    uint32_t Full = (1u << (1u << T)) - 1;
    auto RandTruth = [&] { return 1 + (uint32_t)Rng.below(Full - 1); };
    auto RandCoeff = [&]() -> uint64_t { return 2 + Rng.below(9); };
    const Expr *Ground;
    switch (Case % 3) {
    case 0:
      Ground = Ctx.getConst(Rng.next() & Ctx.mask());
      break;
    case 1:
      Ground = buildLinearCombination(
          Ctx, {{RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, RandTruth())}},
          Rng.next() & Ctx.mask());
      break;
    default: {
      uint32_t T1 = RandTruth(), T2 = RandTruth();
      while (T2 == T1)
        T2 = RandTruth();
      Ground = buildLinearCombination(
          Ctx,
          {{RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, T1)},
           {RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, T2)}},
          Rng.next() & Ctx.mask());
      break;
    }
    }
    const Expr *Target = Obf.obfuscateNonPoly(Ground, Vars, 2);
    Out.push_back({Obf.obfuscateOpaque(Target, Vars, 1), Ground});
  }
  return Out;
}

/// Generates the workload's corpus in a private context and hands back only
/// its text: the program under test sees nothing but what it parses.
std::vector<QueryText> generateQueries(const Workload &W, uint64_t Seed) {
  Context Gen(W.Width);
  std::vector<std::pair<const Expr *, const Expr *>> Pairs;
  if (W.Synth) {
    Pairs = opaqueSynthEntries(Gen, W.SynthEntries, Seed);
  } else {
    CorpusOptions Opts;
    Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = W.PerCategory;
    Opts.Seed = Seed;
    std::map<std::pair<MBAKind, unsigned>, unsigned> Taken;
    for (const CorpusEntry &E : generateCorpus(Gen, Opts))
      if (!W.PerBucket || Taken[{E.Category, E.NumVars}]++ < W.PerBucket)
        Pairs.push_back({E.Obfuscated, E.Ground});
  }
  std::vector<QueryText> Out;
  Out.reserve(Pairs.size());
  for (auto [Lhs, Rhs] : Pairs)
    Out.push_back({printExpr(Gen, Lhs), printExpr(Gen, Rhs)});
  return Out;
}

/// A seed-determined visiting order of the corpus.
std::vector<size_t> visitOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  RNG Rng(Seed ^ 0x0DDBA11);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.below(I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// Spans: the benchmark's own, around each call into a layer
//===----------------------------------------------------------------------===//

struct SpanEvent {
  const char *Name;
  uint32_t Query;
  uint64_t StartNs, DurNs;
};

struct SpanLog {
  bool On = false;
  std::vector<SpanEvent> Events;

  /// Total calls and nanoseconds of every span named \p Name.
  std::pair<uint64_t, uint64_t> total(const char *Name) const {
    uint64_t Calls = 0, Ns = 0;
    for (const SpanEvent &E : Events)
      if (!std::strcmp(E.Name, Name)) {
        ++Calls;
        Ns += E.DurNs;
      }
    return {Calls, Ns};
  }
};

class Span {
public:
  Span(SpanLog &Log, const char *Name, uint32_t Query)
      : Log(Log.On ? &Log : nullptr), Name(Name), Query(Query),
        StartNs(this->Log ? telemetry::nowNs() : 0) {}
  ~Span() {
    if (Log)
      Log->Events.push_back(
          {Name, Query, StartNs, telemetry::nowNs() - StartNs});
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog *Log;
  const char *Name;
  uint32_t Query;
  uint64_t StartNs;
};

//===----------------------------------------------------------------------===//
// The pipeline under test
//===----------------------------------------------------------------------===//

/// Wraps Synthesizer::fallbackHook() to time it and to keep every
/// (input, synthesized) pair for the independent output check.
struct SynthProbe {
  std::function<const Expr *(Context &, const Expr *)> Inner;
  SpanLog *Log = nullptr;
  uint32_t Query = 0;
  uint64_t Ns = 0;
  std::vector<std::pair<const Expr *, const Expr *>> Outputs;

  std::function<const Expr *(Context &, const Expr *)> hook() {
    return [this](Context &C, const Expr *E) -> const Expr * {
      Span S(*Log, "synth.synthesize", Query);
      uint64_t T0 = telemetry::nowNs();
      const Expr *R = Inner(C, E);
      Ns += telemetry::nowNs() - T0;
      if (R)
        Outputs.push_back({E, R});
      return R;
    };
  }
};

/// What one pass over the corpus runs against: fresh caches (or caches
/// reloaded from the set-up snapshot), a fresh simplifier and checker.
struct Session {
  std::unique_ptr<bench::PipelineCaches> Caches;
  std::unique_ptr<MBASolver> Solver;
  std::unique_ptr<EquivalenceChecker> Checker;
};

bool makeSession(Context &Ctx, const Workload &W, SynthProbe *Probe,
                 const std::string &Snapshot, Session &S, std::string &Err) {
  SimplifyOptions Opts;
  if (W.Caches) {
    S.Caches = std::make_unique<bench::PipelineCaches>(W.Width);
    if (W.WarmReplay && !S.Caches->loadFrom(Snapshot, Err))
      return false;
    Opts.SharedCache = &S.Caches->Simplify;
    Opts.SharedBasisCache = &S.Caches->Basis;
  }
  if (W.Synth)
    Opts.SynthFallback = Probe->hook();
  if (W.Simplify)
    S.Solver = std::make_unique<MBASolver>(Ctx, Opts);
  S.Checker = makeStagedChecker(Ctx, makeAigChecker(true), nullptr,
                                ProveBudget(),
                                S.Caches ? &S.Caches->Verdicts : nullptr);
  return true;
}

struct Outcome {
  const Expr *LhsIn = nullptr, *RhsIn = nullptr;
  const Expr *LhsOut = nullptr, *RhsOut = nullptr;
  Verdict V = Verdict::Timeout;
  double Seconds = 0;
};

/// One query: parse both sides, simplify both, staged check. The latency
/// covers exactly these calls.
bool runQuery(Context &Ctx, Session &S, const QueryText &Q, SpanLog &Log,
              uint32_t Id, Outcome &O) {
  auto T0 = Clock::now();
  Span QuerySpan(Log, "query", Id);
  {
    Span P(Log, "ast.parse", Id);
    O.LhsIn = parseExpr(Ctx, Q.Lhs).E;
  }
  {
    Span P(Log, "ast.parse", Id);
    O.RhsIn = parseExpr(Ctx, Q.Rhs).E;
  }
  if (!O.LhsIn || !O.RhsIn)
    return false;
  O.LhsOut = O.LhsIn;
  O.RhsOut = O.RhsIn;
  if (S.Solver) {
    {
      Span P(Log, "mba.simplify", Id);
      O.LhsOut = S.Solver->simplify(O.LhsIn);
    }
    Span P(Log, "mba.simplify", Id);
    O.RhsOut = S.Solver->simplify(O.RhsIn);
  }
  {
    Span P(Log, "solvers.check", Id);
    O.V = S.Checker->check(Ctx, O.LhsOut, O.RhsOut, BudgetSeconds).Outcome;
  }
  O.Seconds = secondsSince(T0);
  return true;
}

//===----------------------------------------------------------------------===//
// Independent output checks
//===----------------------------------------------------------------------===//

/// A and B agree under the plain tree Evaluator (not the bitsliced engine
/// the simplifier uses) on the corners and CheckPoints seeded random points.
bool agreeOnPoints(const Context &Ctx, const Expr *A, const Expr *B,
                   RNG &Rng) {
  std::vector<uint64_t> Vals(Ctx.numVars());
  for (unsigned P = 0; P != CheckPoints + 2; ++P) {
    for (uint64_t &V : Vals)
      V = P == 0 ? 0 : P == 1 ? Ctx.mask() : Rng.next() & Ctx.mask();
    if (evaluate(Ctx, A, Vals) != evaluate(Ctx, B, Vals))
      return false;
  }
  return true;
}

struct Checks {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0, Decided = 0;
  unsigned Reported = 0;

  void error(const std::string &Msg) {
    Correct = false;
    if (Reported++ < 5)
      std::fprintf(stderr, "perfbench: check failed: %s\n", Msg.c_str());
  }
};

/// The outputs of one corpus entry, recorded when it is first seen.
struct EntryResult {
  bool Seen = false;
  const Expr *LhsOut = nullptr, *RhsOut = nullptr;
};

struct Quality {
  uint64_t Outputs = 0, Residue = 0, Alternation = 0, Nodes = 0;
};

/// Runs the checks for one finished query and folds its verdict into \p C.
/// The first time an entry is seen its outputs are checked on points (and,
/// on warm_replay, against the cold pass's printed text) and measured;
/// later passes must reproduce the same hash-consed outputs exactly.
void checkQuery(const Context &Ctx, const Outcome &O, size_t Entry,
                const std::vector<std::string> *Reference,
                std::vector<EntryResult> &Results, Quality &Q, RNG &Rng,
                Checks &C) {
  ++C.Attempted;
  switch (O.V) {
  case Verdict::Equivalent:
    ++C.Decided;
    break;
  case Verdict::NotEquivalent:
    ++C.Failed;
    C.error("entry " + std::to_string(Entry) +
            " is an identity but was judged NotEquivalent");
    break;
  case Verdict::Timeout:
    ++C.Failed;
    break;
  }
  EntryResult &R = Results[Entry];
  if (R.Seen) {
    if (R.LhsOut != O.LhsOut || R.RhsOut != O.RhsOut)
      C.error("entry " + std::to_string(Entry) +
              " simplified differently on a later pass");
    return;
  }
  R = {true, O.LhsOut, O.RhsOut};
  for (auto [In, Out] : {std::pair{O.LhsIn, O.LhsOut}, {O.RhsIn, O.RhsOut}}) {
    if (!agreeOnPoints(Ctx, In, Out, Rng))
      C.error("entry " + std::to_string(Entry) +
              " output disagrees with its input under the Evaluator");
    ++Q.Outputs;
    Q.Residue += classifyMBA(Ctx, Out) == MBAKind::NonPolynomial;
    Q.Alternation += mbaAlternation(Out);
    Q.Nodes += countDagNodes(Out);
  }
  if (Reference && (printExpr(Ctx, O.LhsOut) != (*Reference)[2 * Entry] ||
                    printExpr(Ctx, O.RhsOut) != (*Reference)[2 * Entry + 1]))
    C.error("entry " + std::to_string(Entry) +
            " printed differently from the cold paper_simplify pass");
}

void checkSynthOutputs(const Context &Ctx, SynthProbe &Probe, RNG &Rng,
                       Checks &C) {
  for (auto [In, Out] : Probe.Outputs)
    if (!agreeOnPoints(Ctx, In, Out, Rng))
      C.error("a synthesized output disagrees with its input");
  Probe.Outputs.clear();
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// One-time lazy initialisation the first query would otherwise pay: the
/// certified rule table (stage 0), the shipped basis3 table (synth) and
/// the bitslice ISA dispatch.
void lazyInit() {
  (void)certifiedRules();
  (void)synth::basis3LoadInfo();
  (void)buildinfo::activeIsaName();
}

struct Fixture {
  std::vector<QueryText> Queries;
  /// warm_replay: printed outputs of the cold pass, two per entry.
  std::vector<std::string> Reference;
  double SnapshotLoadSeconds = 0;
};

/// Corpus generation plus, for warm_replay, the cold paper_simplify pass
/// that writes the snapshot and one timed load of it.
bool setUp(const Workload &W, uint64_t Seed, const std::string &Snapshot,
           Fixture &F, std::string &Err) {
  F.Queries = generateQueries(W, Seed);
  if (!W.WarmReplay)
    return true;
  Workload Cold = W;
  Cold.WarmReplay = false;
  Context Ctx(W.Width);
  Session S;
  if (!makeSession(Ctx, Cold, nullptr, Snapshot, S, Err))
    return false;
  // The same visiting order as the timed loop: this pass is exactly the
  // first pass paper_simplify makes on this seed.
  SpanLog Off;
  F.Reference.assign(2 * F.Queries.size(), "");
  for (size_t Entry : visitOrder(F.Queries.size(), Seed)) {
    Outcome O;
    if (!runQuery(Ctx, S, F.Queries[Entry], Off, 0, O)) {
      Err = "corpus text does not parse";
      return false;
    }
    F.Reference[2 * Entry] = printExpr(Ctx, O.LhsOut);
    F.Reference[2 * Entry + 1] = printExpr(Ctx, O.RhsOut);
  }
  if (!S.Caches->saveTo(Snapshot, Err))
    return false;
  auto T0 = Clock::now();
  bench::PipelineCaches Loaded(W.Width);
  if (!Loaded.loadFrom(Snapshot, Err))
    return false;
  F.SnapshotLoadSeconds = secondsSince(T0);
  return true;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<double> &V, unsigned P) {
  size_t Rank = (size_t)std::ceil(V.size() * P / 100.0);
  return V[std::max<size_t>(Rank, 1) - 1];
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

void printResult(const std::string &Banner, const Checks &C,
                 const std::vector<Metric> &Metrics) {
  std::printf("%s\n", Banner.c_str());
  for (const Metric &M : Metrics)
    std::printf("  %-36s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              C.Correct ? "true" : "false", (unsigned long long)C.Attempted,
              (unsigned long long)C.Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Per-layer metrics of one traced ledger pass: counter deltas from the
/// telemetry registry, sums over the captured query-log records, and the
/// benchmark's own spans.
std::vector<Metric>
layerMetrics(const std::vector<telemetry::MetricValue> &Before,
             const std::vector<telemetry::MetricValue> &After,
             const std::vector<std::string> &LogLines, const SpanLog &Spans,
             uint64_t NodesIn, const synth::SynthStats &Synth,
             uint64_t SynthNs, double SnapshotLoadSeconds) {
  auto Counter = [&](const char *Name) -> double {
    auto Find = [&](const std::vector<telemetry::MetricValue> &Snap) {
      for (const telemetry::MetricValue &M : Snap)
        if (M.Name == Name)
          return M.Value;
      return uint64_t(0);
    };
    return double(Find(After) - Find(Before));
  };
  std::map<std::string, double> StageNs, Fields;
  for (const std::string &Line : LogLines) {
    json::Value Rec;
    if (!json::parse(Line, Rec))
      continue;
    std::string Kind(Rec.stringAt("kind"));
    if (const json::Value *Stages = Rec.get("stages"))
      for (const json::Value &S : Stages->elements())
        StageNs[Kind + "/" + std::string(S.stringAt("name"))] +=
            S.numberAt("ns");
    for (const char *Key : {"stage0_enodes", "sat_conflicts", "sat_decisions",
                            "sat_propagations"})
      Fields[Key] += Rec.numberAt(Key);
  }
  auto StageMs = [&](const char *Key) { return StageNs[Key] / 1e6; };
  auto CacheRatio = [&](const std::string &Layer) {
    double Hits = Counter(("cache." + Layer + ".hits").c_str());
    return ratio(Hits, Hits + Counter(("cache." + Layer + ".misses").c_str()));
  };
  double CacheInserts = 0, CacheEvictions = 0;
  for (const char *Layer :
       {"simplify_result", "simplify_linear", "basis", "verdicts"}) {
    CacheInserts += Counter((std::string("cache.") + Layer + ".inserts").c_str());
    CacheEvictions +=
        Counter((std::string("cache.") + Layer + ".evictions").c_str());
  }
  uint64_t ParseNs = Spans.total("ast.parse").second;
  uint64_t SimplifyNs = Spans.total("mba.simplify").second;
  auto [CheckCalls, CheckNs] = Spans.total("solvers.check");
  return {
      {"ast.parse_calls", Counter("ast.parses"), "count"},
      {"ast.parse_us", ParseNs / 1e3, "us"},
      {"ast.nodes_in", double(NodesIn), "count"},
      {"mba.simplify_calls", Counter("simplify.calls"), "count"},
      {"mba.simplify_us", SimplifyNs / 1e3, "us"},
      {"mba.linear_runs", Counter("simplify.linear_runs"), "count"},
      {"mba.poly_runs", Counter("simplify.poly_runs"), "count"},
      {"mba.nonpoly_runs", Counter("simplify.nonpoly_runs"), "count"},
      {"mba.signatures", Counter("signature.computed"), "count"},
      {"mba.linear_signature_ms", StageMs("simplify/linear-signature"), "ms"},
      {"mba.poly_normalize_ms", StageMs("simplify/poly-normalize"), "ms"},
      {"mba.nonpoly_abstraction_ms", StageMs("simplify/nonpoly-abstraction"),
       "ms"},
      {"mba.final_opt_ms", StageMs("simplify/final-opt"), "ms"},
      {"mba.abstract_fold_ms", StageMs("simplify/abstract-fold"), "ms"},
      {"linalg.basis_solves", Counter("basis.solves"), "count"},
      {"analysis.stage0_ms", StageMs("check/stage0"), "ms"},
      {"analysis.stage0_proved", Counter("stage0.proved"), "count"},
      {"analysis.stage0_fallthrough", Counter("stage0.fallthrough"), "count"},
      {"analysis.stage0_enodes", Fields["stage0_enodes"], "count"},
      {"solvers.check_calls", double(CheckCalls), "count"},
      {"solvers.check_us", CheckNs / 1e3, "us"},
      {"solvers.backend_ms", StageMs("check/backend"), "ms"},
      {"aig.nodes", Counter("aig.nodes"), "count"},
      {"aig.strash_hits", Counter("aig.strash_hits"), "count"},
      {"aig.short_circuit_ratio",
       ratio(Counter("sat.aig.short_circuit"), Counter("sat.aig.queries")),
       "ratio"},
      {"sat.solves",
       Counter("sat.incremental.assumption_solves") +
           Counter("sat.fresh.solves"),
       "count"},
      {"sat.cnf_vars", Counter("sat.encode.vars"), "count"},
      {"sat.cnf_clauses", Counter("sat.encode.clauses"), "count"},
      {"sat.conflicts", Fields["sat_conflicts"], "count"},
      {"sat.decisions", Fields["sat_decisions"], "count"},
      {"sat.propagations", Fields["sat_propagations"], "count"},
      {"sat.clauses_reused", Counter("sat.incremental.clauses_reused"),
       "count"},
      {"support.cache.result_hit_ratio", CacheRatio("simplify_result"),
       "ratio"},
      {"support.cache.linear_hit_ratio", CacheRatio("simplify_linear"),
       "ratio"},
      {"support.cache.basis_hit_ratio", CacheRatio("basis"), "ratio"},
      {"support.cache.verdict_hit_ratio", CacheRatio("verdicts"), "ratio"},
      {"support.cache.inserts", CacheInserts, "count"},
      {"support.cache.evictions", CacheEvictions, "count"},
      {"support.cache.snapshot_load_s", SnapshotLoadSeconds, "s"},
      {"synth.calls", double(Synth.Queries), "count"},
      {"synth.synthesize_ms", SynthNs / 1e6, "ms"},
      {"synth.matched", double(Synth.Matched), "count"},
      {"synth.installed", double(Synth.Installed), "count"},
      {"synth.verify_rejected", double(Synth.VerifyRejected), "count"},
      {"synth.verify_s", Synth.VerifySeconds, "s"},
      {"synth.install_ratio", ratio(Synth.Installed, Synth.Matched), "ratio"},
      {"synth.cache_hits", double(Synth.CacheHits), "count"},
  };
}

/// Writes the traced pass's spans, one JSON object per line, for reading
/// a single query's breakdown after the run.
void writeSpans(const std::string &Path, const SpanLog &Log) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  for (const SpanEvent &E : Log.Events)
    std::fprintf(F,
                 "{\"name\": \"%s\", \"query\": %u, \"start_ns\": %llu, "
                 "\"dur_ns\": %llu}\n",
                 E.Name, E.Query, (unsigned long long)E.StartNs,
                 (unsigned long long)E.DurNs);
  std::fclose(F);
}

struct Args {
  std::string Workload, Mode = "timed", Out = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Eq = Arg.find('=');
    if (Arg.rfind("--", 0) != 0 || Eq == std::string::npos)
      return false;
    std::string Key = Arg.substr(2, Eq - 2), Val = Arg.substr(Eq + 1);
    if (Key == "workload")
      A.Workload = Val;
    else if (Key == "mode")
      A.Mode = Val;
    else if (Key == "out")
      A.Out = Val;
    else if (Key == "seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "seconds")
      A.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "traced")
      A.Traced = Val == "1";
    else
      return false;
  }
  return (A.Mode == "timed" || A.Mode == "ledger") && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A) || !findWorkload(A.Workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME [--seed=N] [--seconds=S] "
                 "[--mode=timed|ledger] [--traced=0|1] [--out=DIR]\n");
    return 2;
  }
  const Workload &W = *findWorkload(A.Workload);
  bool Ledger = A.Mode == "ledger";
  std::string Stem = A.Out + "/" + W.Name + "-seed" + std::to_string(A.Seed);
  std::string Snapshot = Stem + ".mbacache";

  // Set-up: lazy initialisation once, then corpus generation (and the
  // warm_replay snapshot write/load) SetupReps times; report the median.
  auto T0 = Clock::now();
  lazyInit();
  double LazySeconds = secondsSince(T0);
  std::vector<double> Reps;
  Fixture F;
  for (unsigned R = 0; R != (Ledger ? 1 : SetupReps); ++R) {
    std::string Err;
    auto TR = Clock::now();
    if (!setUp(W, A.Seed, Snapshot, F, Err)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    Reps.push_back(secondsSince(TR));
  }
  double SetupSeconds = LazySeconds + median(Reps);

  Context Ctx(W.Width);
  synth::Synthesizer Synth(Ctx);
  SpanLog Spans;
  SynthProbe Probe;
  Probe.Inner = Synth.fallbackHook();
  Probe.Log = &Spans;
  const std::vector<std::string> *Reference =
      W.WarmReplay ? &F.Reference : nullptr;
  std::vector<size_t> Order = visitOrder(F.Queries.size(), A.Seed);
  if (Ledger && W.LedgerQueries)
    Order.resize(std::min<size_t>(W.LedgerQueries, Order.size()));

  std::vector<telemetry::MetricValue> Before, After;
  if (Ledger && A.Traced) {
    telemetry::setMetricsEnabled(true);
    Spans.On = true;
  }

  // The closed loop. Each pass gets a fresh session; the clock that bounds
  // the run is query time only, so checks and session rebuilds between
  // queries never count as latency.
  Checks C;
  Quality Q;
  RNG CheckRng(A.Seed ^ 0xC0FFEE);
  std::vector<EntryResult> Results(F.Queries.size());
  std::vector<double> Latency;
  double Busy = 0;
  uint64_t NodesIn = 0;
  std::vector<std::string> LogLines;
  for (unsigned Pass = 0; Ledger ? Pass == 0 : Busy < A.Seconds; ++Pass) {
    Session S;
    std::string Err;
    if (!makeSession(Ctx, W, &Probe, Snapshot, S, Err)) {
      std::fprintf(stderr, "perfbench: session failed: %s\n", Err.c_str());
      return 1;
    }
    if (Spans.On) {
      Before = telemetry::snapshotMetrics();
      querylog::beginCapture();
    }
    for (size_t Entry : Order) {
      if (!Ledger && Busy >= A.Seconds)
        break;
      uint32_t Id = (uint32_t)Latency.size();
      Probe.Query = Id;
      Outcome O;
      if (!runQuery(Ctx, S, F.Queries[Entry], Spans, Id, O)) {
        C.error("entry " + std::to_string(Entry) + " does not parse");
        break;
      }
      Latency.push_back(O.Seconds);      Busy += O.Seconds;
      if (Spans.On)
        NodesIn += countDagNodes(O.LhsIn) + countDagNodes(O.RhsIn);
      checkQuery(Ctx, O, Entry, Reference, Results, Q, CheckRng, C);
      checkSynthOutputs(Ctx, Probe, CheckRng, C);
    }
    // Snapshot while the session lives: its caches publish their counters
    // only as long as they exist.
    if (Spans.On) {
      LogLines = querylog::endCapture();
      After = telemetry::snapshotMetrics();
    }
  }

  char Banner[512];
  std::snprintf(Banner, sizeof(Banner),
                "perfbench %s workload=%s seed=%llu queries=%zu "
                "build=%s isa=%s version=%s",
                A.Mode.c_str(), W.Name, (unsigned long long)A.Seed,
                Latency.size(), buildinfo::buildType(),
                buildinfo::activeIsaName(), buildinfo::version());
  if (Ledger) {
    std::vector<Metric> M;
    if (A.Traced) {
      M = layerMetrics(Before, After, LogLines, Spans,
                       NodesIn, Synth.stats(), Probe.Ns,
                       F.SnapshotLoadSeconds);
      writeSpans(Stem + ".spans.jsonl", Spans);
    }
    M.push_back({"bench.ledger_queries", double(Latency.size()), "count"});
    M.push_back({"bench.ledger_ms", Busy * 1e3, "ms"});
    printResult(Banner, C, M);
    return 0;
  }

  std::vector<double> Sorted = Latency;
  std::sort(Sorted.begin(), Sorted.end());
  unsigned TailP = Sorted.size() >= 1000 ? 99 : Sorted.size() >= 100 ? 90 : 0;
  std::vector<Metric> M = {
      {"latency_p50_ms", median(Sorted) * 1e3, "ms"},
  };
  if (TailP)
    M.push_back({"latency_tail_ms", percentile(Sorted, TailP) * 1e3, "ms"});
  M.insert(M.end(),
           {
               {"throughput_qps", ratio(C.Attempted, Busy), "1/s"},
               {"decided_frac", ratio(C.Decided, C.Attempted), "ratio"},
               {"reduced_frac", 1 - ratio(Q.Residue, Q.Outputs), "ratio"},
               {"out_alternation_mean", ratio(Q.Alternation, Q.Outputs),
                "count"},
               {"out_nodes_mean", ratio(Q.Nodes, Q.Outputs), "count"},
               {"setup_s", SetupSeconds, "s"},
               {"peak_rss_mb", peakRssMb(), "MB"},
           });
  std::string Line = Banner;
  Line += TailP ? " tail=p" + std::to_string(TailP) + " of " +
                      std::to_string(Sorted.size())
                : std::string(" tail=omitted (<100 queries)");
  printResult(Line, C, M);
  return 0;
}
