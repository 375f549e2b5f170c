//===- bench/table_synth.cpp - Synthesizer fallback on non-poly residue ---===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Solve-rate/latency table for the enumerative term-bank synthesizer
/// (src/synth) on opaque non-polynomial residue — the cases the paper's
/// syntactic pipeline cannot flatten and must hand to the SMT fallback.
///
/// The corpus is generated here rather than taken from gen/Corpus: every
/// target hides a bank-shaped ground truth (constant, a*f+c, or
/// a1*f1+a2*f2+c over up to three variables) under bitwise-over-arithmetic
/// rewrites *plus* an opaque-zero carry fact (Obfuscator::obfuscateOpaque,
/// a masked product of consecutive values). The carry fact is invisible to
/// the linear-signature solve and the polynomial ring, so simplification
/// leaves non-polynomial residue; worse, the residue's linear part is
/// canonicalized over a basis polluted by the opaque temporary, so the two
/// sides of a query reach the checker as structurally different canonical
/// forms whose equivalence is SAT-hard to establish.
///
/// Two configurations run over the same entries:
///
///   pipeline        MBASolver as shipped: simplify both sides, then ask
///                   the staged BlastBV+AIG checker with the per-query
///                   budget (--timeout). Residue entries either burn a
///                   real SAT solve or time out.
///   pipeline+synth  The same, with the synthesizer wired in as
///                   SimplifyOptions::SynthFallback. Every synthesized
///                   result was proved Equivalent by the staged checker
///                   inside synthesize() before being installed (the
///                   synthesizer's own verify budget, default 5s, is spent
///                   once per recipe and memoized); the installed bank
///                   form is re-canonicalized by the simplifier, so both
///                   sides collapse to the same expression and the final
///                   check short-circuits structurally.
///
/// The table reports per-configuration solved/total, residue left after
/// simplification, actual SAT activity (queries, short-circuits, solves)
/// and latency, plus the two delta columns the bench exists for:
/// residue_cracked (entries the plain pipeline fails that the synth
/// configuration solves) and residue_eliminated (entries whose residue the
/// synthesizer removed). `--json=FILE` writes the machine-readable record
/// (BENCH_table_synth.json is regenerated with
/// `--per-category=40 --width=16 --timeout=0.1 --jobs=1`).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "gen/Obfuscator.h"
#include "mba/Classify.h"
#include "poly/PolyExpr.h"
#include "solvers/Pipeline.h"
#include "support/RNG.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"
#include "synth/Basis3.h"
#include "synth/Synthesizer.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace mba;
using namespace mba::bench;

namespace {

struct Entry {
  const Expr *Target; ///< obfuscated form with opaque residue mixed in
  const Expr *Ground; ///< bank-shaped ground truth
};

/// Bank-shaped grounds hidden under non-poly rewrites plus one opaque-zero
/// carry fact each. Mirrors tests/synth_roundtrip_test.cpp's generation so
/// the bench measures the same target family the round-trip test pins.
std::vector<Entry> generateEntries(Context &Ctx, unsigned Count,
                                   uint64_t Seed) {
  Obfuscator Obf(Ctx, Seed ^ 0xB057ED);
  RNG Rng(Seed);
  const Expr *AllVars[3] = {Ctx.getVar("x"), Ctx.getVar("y"),
                            Ctx.getVar("z")};
  std::vector<Entry> Entries;
  Entries.reserve(Count);
  for (unsigned Case = 0; Case != Count; ++Case) {
    unsigned T = 1 + (unsigned)Rng.below(3);
    std::span<const Expr *const> Vars{AllVars, T};
    unsigned Rows = 1u << T;
    uint32_t Full = (1u << Rows) - 1;
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
    Target = Obf.obfuscateOpaque(Target, Vars, 1);
    Entries.push_back({Target, Ground});
  }
  return Entries;
}

struct ConfigResult {
  std::string Name;
  unsigned Solved = 0;
  unsigned Residue = 0; ///< entries left non-polynomial after simplify
  double TMin = 0, TMax = 0, TSum = 0;
  std::vector<bool> SolvedByEntry;
  std::vector<bool> ResidueByEntry;
  // SAT activity across the whole configuration (telemetry deltas).
  uint64_t SatQueries = 0, SatShortCircuit = 0, SatSolves = 0;

  void record(bool SolvedEntry, bool HasResidue, double Seconds) {
    if (SolvedEntry)
      ++Solved;
    if (HasResidue)
      ++Residue;
    if (SolvedByEntry.empty() || Seconds < TMin)
      TMin = Seconds;
    if (Seconds > TMax)
      TMax = Seconds;
    TSum += Seconds;
    SolvedByEntry.push_back(SolvedEntry);
    ResidueByEntry.push_back(HasResidue);
  }
};

ConfigResult runConfig(Context &Ctx, const std::vector<Entry> &Entries,
                       const std::string &Name, const SimplifyOptions &SOpts,
                       double TimeoutSeconds) {
  ConfigResult R;
  R.Name = Name;
  // The shipped pipeline: stage-0 static prover in front of the
  // BlastBV+AIG backend. Both sides are preprocessed, exactly like the
  // Table 6 study — with the synth fallback on, two semantically equal
  // residues canonicalize to the same expression, so the query collapses
  // structurally instead of reaching SAT.
  PipelineConfig Config;
  Config.SimplifyOpts = SOpts;
  Config.TimeoutSeconds = TimeoutSeconds;
  Pipeline P(Ctx, Config);
  telemetry::Counter &Queries = telemetry::counter("sat.aig.queries");
  telemetry::Counter &Short = telemetry::counter("sat.aig.short_circuit");
  telemetry::Counter &Fresh = telemetry::counter("sat.fresh.solves");
  uint64_t Q0 = Queries.value(), S0 = Short.value(), V0 = Fresh.value();
  for (const Entry &E : Entries) {
    Stopwatch Timer;
    const Expr *Lhs = P.simplify(E.Target);
    const Expr *Rhs = P.simplify(E.Ground);
    CheckResult CR = P.check(Lhs, Rhs);
    R.record(CR.Outcome == Verdict::Equivalent,
             classifyMBA(Ctx, Lhs) == MBAKind::NonPolynomial,
             Timer.seconds());
  }
  R.SatQueries = Queries.value() - Q0;
  R.SatShortCircuit = Short.value() - S0;
  R.SatSolves = Fresh.value() - V0;
  return R;
}

void printConfig(const ConfigResult &R, unsigned Total) {
  std::printf("  %-16s %4u / %-4u solved   residue %3u   sat %" PRIu64
              "q/%" PRIu64 "sc/%" PRIu64 "sv   t(min/avg/max) "
              "%.4f / %.4f / %.4f s\n",
              R.Name.c_str(), R.Solved, Total, R.Residue, R.SatQueries,
              R.SatShortCircuit, R.SatSolves, R.TMin,
              Total ? R.TSum / Total : 0.0, R.TMax);
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Opts = parseHarnessArgs(Argc, Argv);
  enableTelemetry(Opts);

  Context Ctx(Opts.Width);
  auto Entries = generateEntries(Ctx, Opts.PerCategory, Opts.Seed);

  ConfigResult Plain = runConfig(Ctx, Entries, "pipeline", SimplifyOptions(),
                                 Opts.TimeoutSeconds);

  // The synthesizer's verify budget is its own (SynthOptions default, 5s),
  // deliberately *not* tied to the per-query --timeout: verification of a
  // recipe is a one-time cost memoized in the ShardedCache, while the
  // online query budget stays tight.
  synth::Synthesizer Synth(Ctx);
  SimplifyOptions WithSynth;
  WithSynth.SynthFallback = Synth.fallbackHook();
  ConfigResult Synthed = runConfig(Ctx, Entries, "pipeline+synth", WithSynth,
                                   Opts.TimeoutSeconds);

  // The delta columns the synthesizer exists for: entries the plain
  // pipeline could not solve that the synth configuration does, and
  // residue entries whose opaque remainder the synthesizer removed.
  unsigned ResidueCracked = 0, ResidueEliminated = 0;
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (!Plain.SolvedByEntry[I] && Synthed.SolvedByEntry[I])
      ++ResidueCracked;
    if (Plain.ResidueByEntry[I] && !Synthed.ResidueByEntry[I])
      ++ResidueEliminated;
  }

  const synth::SynthStats &St = Synth.stats();
  unsigned Total = (unsigned)Entries.size();
  std::printf("Table synth: opaque non-poly residue synthesis (width %u, "
              "timeout %.2fs, %u entries)\n",
              Opts.Width, Opts.TimeoutSeconds, Total);
  printConfig(Plain, Total);
  printConfig(Synthed, Total);
  std::printf("  residue cracked by synth: %u   residue eliminated: %u\n",
              ResidueCracked, ResidueEliminated);
  std::printf("  synth stats: queries %" PRIu64 ", matched %" PRIu64
              ", installed %" PRIu64 ", verify-rejected %" PRIu64
              ", unsupported %" PRIu64 ", cache hits %" PRIu64
              ", verify %.3fs\n",
              St.Queries, St.Matched, St.Installed, St.VerifyRejected,
              St.Unsupported, St.CacheHits, St.VerifySeconds);

  if (!Opts.JsonPath.empty()) {
    FILE *F = std::fopen(Opts.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.JsonPath.c_str());
      return 1;
    }
    std::fprintf(F, "{\n  \"table\": \"table_synth\",\n");
    std::fprintf(F,
                 "  \"config\": {\"entries\": %u, \"timeout_seconds\": %f, "
                 "\"width\": %u, \"seed\": %" PRIu64 "},\n",
                 Total, Opts.TimeoutSeconds, Opts.Width, Opts.Seed);
    std::fprintf(F, "  \"configs\": [\n");
    for (const ConfigResult *R : {&Plain, &Synthed})
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"solved\": %u, \"total\": %u, "
                   "\"residue\": %u, \"sat_queries\": %" PRIu64
                   ", \"sat_short_circuit\": %" PRIu64
                   ", \"sat_solves\": %" PRIu64 ", \"tmin\": %f, "
                   "\"tmax\": %f, \"tavg\": %f}%s\n",
                   R->Name.c_str(), R->Solved, Total, R->Residue,
                   R->SatQueries, R->SatShortCircuit, R->SatSolves, R->TMin,
                   R->TMax, Total ? R->TSum / Total : 0.0,
                   R == &Synthed ? "" : ",");
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"residue_cracked\": %u,\n", ResidueCracked);
    std::fprintf(F, "  \"residue_eliminated\": %u,\n", ResidueEliminated);
    std::fprintf(F,
                 "  \"synth\": {\"queries\": %" PRIu64 ", \"matched\": %" PRIu64
                 ", \"installed\": %" PRIu64 ", \"verify_rejected\": %" PRIu64
                 ", \"unsupported\": %" PRIu64 ", \"cache_hits\": %" PRIu64
                 ", \"verify_seconds\": %f}\n",
                 St.Queries, St.Matched, St.Installed, St.VerifyRejected,
                 St.Unsupported, St.CacheHits, St.VerifySeconds);
    std::fprintf(F, "}\n");
    std::fclose(F);
  }
  exportTelemetry(Opts);
  return 0;
}
