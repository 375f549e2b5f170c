//===- bench/micro_aig.cpp - AIG layer micro-benchmarks -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks for the AIG subsystem: construction throughput with
/// structural hashing, CNF size of the carry-lookahead/carry-save encodings
/// against the ripple-carry/shift-and-add ones (the `vars`/`clauses`
/// counters make the comparison directly readable next to micro_sat's), and
/// the per-query loop the BlastBV+AIG backend runs.
///
//===----------------------------------------------------------------------===//

#include "aig/Aig.h"
#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"
#include "ast/Context.h"
#include "ast/Parser.h"
#include "sat/Solver.h"

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

using namespace mba;
using namespace mba::aig;
using namespace mba::sat;

namespace {

void BM_AigAdder(benchmark::State &State) {
  // Brent-Kung carry-lookahead adder construction (graph only, no CNF).
  unsigned Width = (unsigned)State.range(0);
  uint64_t Nodes = 0;
  for (auto _ : State) {
    Aig G;
    AigBlaster B(G, Width);
    benchmark::DoNotOptimize(B.bvAdd(B.freshWord(), B.freshWord()));
    Nodes = G.numNodes();
  }
  State.counters["nodes"] = (double)Nodes;
}
BENCHMARK(BM_AigAdder)->Arg(8)->Arg(32)->Arg(64);

void BM_AigMultiplier(benchmark::State &State) {
  // Carry-save-array multiplier construction.
  unsigned Width = (unsigned)State.range(0);
  uint64_t Nodes = 0;
  for (auto _ : State) {
    Aig G;
    AigBlaster B(G, Width);
    benchmark::DoNotOptimize(B.bvMul(B.freshWord(), B.freshWord()));
    Nodes = G.numNodes();
  }
  State.counters["nodes"] = (double)Nodes;
}
BENCHMARK(BM_AigMultiplier)->Arg(8)->Arg(16)->Arg(32);

void BM_AigStrashSharing(benchmark::State &State) {
  // Re-building the same adder against one graph: after the first round
  // every mkAnd is a strash hit, so this measures pure lookup throughput.
  unsigned Width = (unsigned)State.range(0);
  Aig G;
  AigBlaster B(G, Width);
  AigBlaster::Word X = B.freshWord(), Y = B.freshWord();
  B.bvAdd(X, Y); // populate
  uint64_t Hits = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(B.bvAdd(X, Y));
    Hits = G.stats().StrashHits;
  }
  State.counters["strash_hits"] = (double)Hits;
}
BENCHMARK(BM_AigStrashSharing)->Arg(32);

void BM_AigEncodeAdderCnf(benchmark::State &State) {
  // CNF size/time of the carry-lookahead adder; compare with micro_sat's
  // BM_BlastAdder (ripple-carry) counters.
  unsigned Width = (unsigned)State.range(0);
  uint64_t Vars = 0, Clauses = 0;
  for (auto _ : State) {
    Aig G;
    AigBlaster B(G, Width);
    AigBlaster::Word Sum = B.bvAdd(B.freshWord(), B.freshWord());
    SatSolver S;
    CnfEmitter Em(G, S);
    for (AigLit L : Sum)
      benchmark::DoNotOptimize(Em.emit(L));
    Vars = S.numVars();
    Clauses = S.stats().ClausesAdded;
  }
  State.counters["vars"] = (double)Vars;
  State.counters["clauses"] = (double)Clauses;
}
BENCHMARK(BM_AigEncodeAdderCnf)->Arg(8)->Arg(32)->Arg(64);

void BM_AigEncodeMultiplierCnf(benchmark::State &State) {
  unsigned Width = (unsigned)State.range(0);
  uint64_t Vars = 0, Clauses = 0;
  for (auto _ : State) {
    Aig G;
    AigBlaster B(G, Width);
    AigBlaster::Word Prod = B.bvMul(B.freshWord(), B.freshWord());
    SatSolver S;
    CnfEmitter Em(G, S);
    for (AigLit L : Prod)
      benchmark::DoNotOptimize(Em.emit(L));
    Vars = S.numVars();
    Clauses = S.stats().ClausesAdded;
  }
  State.counters["vars"] = (double)Vars;
  State.counters["clauses"] = (double)Clauses;
}
BENCHMARK(BM_AigEncodeMultiplierCnf)->Arg(8)->Arg(16)->Arg(32);

void BM_AigLinearMBAEquivalenceUnsat(benchmark::State &State) {
  // The same miter micro_sat solves over ripple-carry, over the AIG path.
  unsigned Width = (unsigned)State.range(0);
  Context Ctx(Width);
  const Expr *L = parseOrDie(Ctx, "(x&~y) + y");
  const Expr *R = parseOrDie(Ctx, "x|y");
  for (auto _ : State) {
    Aig G;
    AigBlaster B(G, Width);
    ExprAig EA(B);
    SatSolver S;
    CnfEmitter Em(G, S);
    AigLit Root = B.disequalLit(EA.blast(L), EA.blast(R));
    if (Root == Aig::falseLit()) {
      benchmark::DoNotOptimize(Root); // rewriting decided it
      continue;
    }
    S.addClause({Em.emit(Root)});
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_AigLinearMBAEquivalenceUnsat)->Arg(8)->Arg(16)->Arg(32);

void BM_AigQueryLoop(benchmark::State &State) {
  // The BlastBV+AIG protocol over a batch of related miters: per query a
  // fresh Full-level graph and solver, the miter root asserted as a unit,
  // one solve — or none when rewriting decides the miter.
  unsigned Width = (unsigned)State.range(0);
  Context Ctx(Width);
  const char *Pairs[][2] = {
      {"(x&~y) + y", "x|y"},
      {"(x|y) - y", "x&~y"},
      {"(x^y) + 2*(x&y)", "x+y"},
      {"x - (x&y)", "x&~y"},
  };
  std::vector<std::pair<const Expr *, const Expr *>> Queries;
  for (auto &P : Pairs)
    Queries.push_back({parseOrDie(Ctx, P[0]), parseOrDie(Ctx, P[1])});
  uint64_t Solves = 0, ShortCircuits = 0;
  for (auto _ : State) {
    for (auto &[L, R] : Queries) {
      Aig G;
      AigBlaster B(G, Width);
      ExprAig EA(B);
      AigLit Root = B.disequalLit(EA.blast(L), EA.blast(R));
      if (Root == Aig::falseLit() || Root == Aig::trueLit()) {
        ++ShortCircuits;
        benchmark::DoNotOptimize(Root);
        continue;
      }
      SatSolver S;
      CnfEmitter Em(G, S);
      S.addClause({Em.emit(Root)});
      benchmark::DoNotOptimize(S.solve());
      ++Solves;
    }
  }
  State.counters["solves"] =
      benchmark::Counter((double)Solves, benchmark::Counter::kAvgIterations);
  State.counters["short_circuits"] = benchmark::Counter(
      (double)ShortCircuits, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AigQueryLoop)->Arg(8)->Arg(16);

} // namespace
