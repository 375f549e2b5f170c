//===- bench/micro_prove.cpp - Static prover micro-benchmarks -------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Measures the stage-0 static equivalence prover on the corpus path:
/// latency and hit-rate on raw and simplified query pairs (the same
/// queries Tables 2 and 6 pose to solvers, and the width-3 raw queries of
/// perfbench's raw_bitblast workload), the solver wall-clock the
/// discharged queries save, the saturate-and-extract pre-pass, and the
/// one-time cost of certifying the shipped rule table. Hit-rates are
/// reported as benchmark counters: `proved`, `refuted`, `unknown` are the
/// per-corpus splits, `solver_s_saved` is the measured BlastBV time on the
/// queries the prover discharges.
///
//===----------------------------------------------------------------------===//

#include "analysis/Prover.h"
#include "analysis/Rules.h"
#include "ast/Context.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Simplifier.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Stopwatch.h"

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

using namespace mba;

namespace {

/// A deterministic slice of the paper-scale corpus (category mix matches
/// the 1000/1000/1000 dataset).
std::vector<CorpusEntry> makeCorpus(Context &Ctx, unsigned PerCategory) {
  CorpusOptions Opts;
  Opts.LinearCount = PerCategory;
  Opts.PolyCount = PerCategory;
  Opts.NonPolyCount = PerCategory;
  return generateCorpus(Ctx, Opts);
}

/// The corpus identity queries as (lhs, rhs) pairs, optionally simplified
/// on both sides (the Table 6 configuration).
std::vector<std::pair<const Expr *, const Expr *>>
makePairs(Context &Ctx, const std::vector<CorpusEntry> &Corpus,
          bool Simplify) {
  MBASolver Solver(Ctx);
  std::vector<std::pair<const Expr *, const Expr *>> Pairs;
  Pairs.reserve(Corpus.size());
  for (const CorpusEntry &E : Corpus)
    if (Simplify)
      Pairs.push_back({Solver.simplify(E.Obfuscated), Solver.simplify(E.Ground)});
    else
      Pairs.push_back({E.Obfuscated, E.Ground});
  return Pairs;
}

/// One prover pass over all pairs; returns the outcome split.
struct Split {
  size_t Proved = 0, Refuted = 0, Unknown = 0;
};

Split proveAll(Context &Ctx,
               const std::vector<std::pair<const Expr *, const Expr *>> &Pairs) {
  Split S;
  Prover P(Ctx);
  for (const auto &[A, B] : Pairs) {
    switch (P.prove(A, B).Outcome) {
    case ProveOutcome::Proved: ++S.Proved; break;
    case ProveOutcome::Refuted: ++S.Refuted; break;
    case ProveOutcome::Unknown: ++S.Unknown; break;
    }
  }
  return S;
}

void reportSplit(benchmark::State &State, Context &Ctx,
                 const std::vector<std::pair<const Expr *, const Expr *>>
                     &Pairs) {
  Split S = proveAll(Ctx, Pairs);
  double N = (double)Pairs.size();
  State.counters["proved"] = (double)S.Proved / N;
  State.counters["refuted"] = (double)S.Refuted / N;
  State.counters["unknown"] = (double)S.Unknown / N;
  // Solver wall-clock the discharged queries save: BlastBV's time on the
  // same queries (short timeout; timeouts count at the full budget).
  auto Blast = makeBlastChecker(/*EnableRewriting=*/true);
  Prover P(Ctx);
  double Saved = 0;
  for (const auto &[A, B] : Pairs)
    if (P.prove(A, B).Outcome != ProveOutcome::Unknown)
      Saved += Blast->check(Ctx, A, B, 0.25).Seconds;
  State.counters["solver_s_saved"] = Saved;
}

void BM_ProveRawPairs(benchmark::State &State) {
  // Raw corpus queries (the Table 2 configuration): the prover faces the
  // full obfuscation, so most queries fall through — this bounds the
  // stage-0 overhead a raw run pays.
  Context Ctx(64);
  auto Corpus = makeCorpus(Ctx, (unsigned)State.range(0));
  auto Pairs = makePairs(Ctx, Corpus, /*Simplify=*/false);
  for (auto _ : State) {
    Split S = proveAll(Ctx, Pairs);
    benchmark::DoNotOptimize(S.Proved);
  }
  State.SetItemsProcessed(State.iterations() * Pairs.size());
  reportSplit(State, Ctx, Pairs);
}
BENCHMARK(BM_ProveRawPairs)->Arg(10);

void BM_ProveRawWidth3(benchmark::State &State) {
  // The stage-0 queries of perfbench's raw_bitblast workload: the width-3
  // corpus (100 entries per category, seed 1), the first 10 entries of each
  // (category, variable count) bucket, printed in a private context and
  // parsed into the prover's. BM_ProveRawPairs poses the same kind of
  // query at width 64; here most pairs saturate to the e-node budget, so
  // this tracks the cost of the e-graph engine itself, and solver_s_saved
  // is what the discharged queries would have cost the solver.
  Context Gen(3), Ctx(3);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 100;
  Opts.Seed = 1;
  std::map<std::pair<MBAKind, unsigned>, unsigned> Taken;
  std::vector<std::pair<const Expr *, const Expr *>> Pairs;
  for (const CorpusEntry &E : generateCorpus(Gen, Opts))
    if (Taken[{E.Category, E.NumVars}]++ < 10)
      Pairs.push_back({parseExpr(Ctx, printExpr(Gen, E.Obfuscated)).E,
                       parseExpr(Ctx, printExpr(Gen, E.Ground)).E});
  for (auto _ : State) {
    Split S = proveAll(Ctx, Pairs);
    benchmark::DoNotOptimize(S.Proved);
  }
  State.SetItemsProcessed(State.iterations() * Pairs.size());
  reportSplit(State, Ctx, Pairs);
}
BENCHMARK(BM_ProveRawWidth3)->Unit(benchmark::kMillisecond);

void BM_ProveSimplifiedPairs(benchmark::State &State) {
  // Post-simplification queries (the Table 6 configuration): the fraction
  // the prover discharges here is exactly the fraction of the solver study
  // that never bit-blasts.
  Context Ctx(64);
  auto Corpus = makeCorpus(Ctx, (unsigned)State.range(0));
  auto Pairs = makePairs(Ctx, Corpus, /*Simplify=*/true);
  for (auto _ : State) {
    Split S = proveAll(Ctx, Pairs);
    benchmark::DoNotOptimize(S.Proved);
  }
  State.SetItemsProcessed(State.iterations() * Pairs.size());
  reportSplit(State, Ctx, Pairs);
}
BENCHMARK(BM_ProveSimplifiedPairs)->Arg(10)->Arg(30);

void BM_ProveMismatchedPairs(benchmark::State &State) {
  // Cross-matched (non-equivalent) pairs: exercises the refutation path
  // (abstract domains) and the unknown path on genuinely different inputs.
  Context Ctx(64);
  auto Corpus = makeCorpus(Ctx, (unsigned)State.range(0));
  std::vector<std::pair<const Expr *, const Expr *>> Pairs;
  for (size_t I = 0; I + 1 < Corpus.size(); ++I)
    Pairs.push_back({Corpus[I].Ground, Corpus[I + 1].Ground});
  for (auto _ : State) {
    Split S = proveAll(Ctx, Pairs);
    benchmark::DoNotOptimize(S.Refuted);
  }
  State.SetItemsProcessed(State.iterations() * Pairs.size());
  reportSplit(State, Ctx, Pairs);
}
BENCHMARK(BM_ProveMismatchedPairs)->Arg(10);

void BM_SaturateAndExtract(benchmark::State &State) {
  // The simplifier's optional saturation pre-pass on obfuscated inputs.
  Context Ctx(64);
  auto Corpus = makeCorpus(Ctx, (unsigned)State.range(0));
  Prover P(Ctx);
  for (auto _ : State)
    for (const CorpusEntry &E : Corpus)
      benchmark::DoNotOptimize(P.saturateAndExtract(E.Obfuscated));
  State.SetItemsProcessed(State.iterations() * Corpus.size());
}
BENCHMARK(BM_SaturateAndExtract)->Arg(10);

void BM_CertifyRules(benchmark::State &State) {
  // One-time startup cost: prove the whole shipped rule table sound for
  // all widths (polynomial + linear-corner provers).
  for (auto _ : State) {
    RuleSet RS;
    addDefaultRules(RS);
    CertifySummary S = certifyRules(RS);
    if (!S.allCertified())
      State.SkipWithError("shipped rule failed certification");
    benchmark::DoNotOptimize(S.NumCertified);
  }
}
BENCHMARK(BM_CertifyRules);

} // namespace
