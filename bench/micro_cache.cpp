//===- bench/micro_cache.cpp - Semantic memoization micro-benchmarks ------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Micro-benchmarks of the semantic memoization layer (support/Cache.h and
/// its clients). The contract numbers the docs quote come from here:
///
///  * warm shared caches make a repeat pass over a corpus >= 10x faster
///    than the uncached pipeline (BM_SimplifyCorpusWarmShared vs
///    BM_SimplifyCorpusNoCache), and
///  * attaching cold caches to a single pass costs <= 5% over running
///    uncached (BM_SimplifyCorpusColdShared vs BM_SimplifyCorpusNoCache) —
///    the all-miss overhead is hashing plus one store clone per insert.
///
/// BM_SimplifyResultHit times one result-cache hit alone, in the shape of
/// the warm_replay workload: one context and one solver for the whole run,
/// inputs parsed once, so neither a context nor a clone-in is measured.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Basis.h"
#include "mba/Simplifier.h"
#include "mba/SimplifyCache.h"
#include "support/Cache.h"

#include <benchmark/benchmark.h>

using namespace mba;

namespace {

/// One master corpus, cloned into a fresh context per measured iteration
/// (the same pattern the parallel harness uses per worker).
class CorpusFixture {
public:
  CorpusFixture() : Master(64) {
    CorpusOptions Opts;
    Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 8;
    for (const CorpusEntry &E : generateCorpus(Master, Opts))
      Exprs.push_back(E.Obfuscated);
  }

  Context Master;
  std::vector<const Expr *> Exprs;
};

CorpusFixture &fixture() {
  static CorpusFixture F;
  return F;
}

/// Simplifies every corpus expression in a fresh context with a fresh
/// solver; Caches (may be null) are the shared layer under test.
void simplifyPass(SimplifyCache *Shared, BasisCache *Basis) {
  CorpusFixture &F = fixture();
  Context Ctx(64);
  SimplifyOptions Opts;
  Opts.SharedCache = Shared;
  Opts.SharedBasisCache = Basis;
  MBASolver Solver(Ctx, Opts);
  for (const Expr *E : F.Exprs)
    benchmark::DoNotOptimize(Solver.simplify(cloneExpr(Ctx, E)));
}

void BM_SimplifyCorpusNoCache(benchmark::State &State) {
  for (auto _ : State)
    simplifyPass(nullptr, nullptr);
}
BENCHMARK(BM_SimplifyCorpusNoCache);

void BM_SimplifyCorpusColdShared(benchmark::State &State) {
  // Fresh caches each iteration: every lookup misses, so the delta to
  // NoCache is the pure bookkeeping overhead.
  for (auto _ : State) {
    SimplifyCache Shared(64);
    BasisCache Basis;
    simplifyPass(&Shared, &Basis);
  }
}
BENCHMARK(BM_SimplifyCorpusColdShared);

void BM_SimplifyCorpusWarmShared(benchmark::State &State) {
  // One shared cache set, prewarmed before measurement: every whole-result
  // lookup hits and a pass is a hash plus a clone per expression.
  SimplifyCache Shared(64);
  BasisCache Basis;
  simplifyPass(&Shared, &Basis);
  for (auto _ : State)
    simplifyPass(&Shared, &Basis);
}
BENCHMARK(BM_SimplifyCorpusWarmShared);

void BM_SimplifyResultHit(benchmark::State &State) {
  // One MBASolver::simplify call per iteration, each a result-cache hit.
  CorpusFixture &F = fixture();
  Context Ctx(64);
  std::vector<const Expr *> Inputs;
  for (const Expr *E : F.Exprs)
    Inputs.push_back(parseOrDie(Ctx, printExpr(F.Master, E)));
  SimplifyCache Shared(64);
  BasisCache Basis;
  SimplifyOptions Opts;
  Opts.SharedCache = &Shared;
  Opts.SharedBasisCache = &Basis;
  MBASolver Solver(Ctx, Opts);
  for (const Expr *E : Inputs)
    Solver.simplify(E);
  uint64_t MissesBefore = Shared.resultStats().Misses;
  size_t I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Solver.simplify(Inputs[I++ % Inputs.size()]));
  if (Shared.resultStats().Misses != MissesBefore)
    State.SkipWithError("a timed call missed the result cache");
}
BENCHMARK(BM_SimplifyResultHit);

void BM_ShardedCacheLookupHit(benchmark::State &State) {
  ShardedCache<uint64_t> Cache(1 << 16);
  for (uint64_t K = 0; K != 1024; ++K)
    Cache.insert(hashMix64(K), K);
  uint64_t K = 0, Out = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.lookup(hashMix64(K++ & 1023), Out));
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_ShardedCacheLookupHit);

void BM_ShardedCacheInsertEvict(benchmark::State &State) {
  // Capacity far below the key range: steady-state insert+evict cost.
  ShardedCache<uint64_t> Cache(256);
  uint64_t K = 0;
  for (auto _ : State)
    Cache.insert(hashMix64(K++), K);
}
BENCHMARK(BM_ShardedCacheInsertEvict);

void BM_ExprFingerprint(benchmark::State &State) {
  CorpusFixture &F = fixture();
  size_t I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(exprFingerprint(F.Exprs[I++ % F.Exprs.size()]));
}
BENCHMARK(BM_ExprFingerprint);

} // namespace
