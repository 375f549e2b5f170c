//===- bench/micro_sat.cpp - SAT/bit-blasting micro-benchmarks ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CNF size and solve time of the ripple-carry/shift-and-add circuits the
/// BlastBV+RW backend builds (AIG level Strash, construction-order
/// emission), plus raw CDCL throughput. micro_aig measures the same
/// operations under the prefix/carry-save encodings.
///
//===----------------------------------------------------------------------===//

#include "aig/Aig.h"
#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"
#include "ast/Context.h"
#include "ast/Parser.h"
#include "sat/Solver.h"

#include <benchmark/benchmark.h>

using namespace mba;
using namespace mba::aig;
using namespace mba::sat;

namespace {

/// The ripple profile's graph, word builder and emitter over one solver.
struct RippleBlaster {
  Aig G{AigLevel::Strash};
  AigBlaster B;
  CnfEmitter Em;

  RippleBlaster(SatSolver &S, unsigned Width)
      : B(G, Width, Encoding::Ripple), Em(G, S) {}

  void emitWord(const AigBlaster::Word &W) {
    for (AigLit L : W)
      Em.emit(L);
  }
};

/// BM_BlastAdder/BM_BlastMultiplier: the word operation encoded to CNF.
template <typename Op>
void blastBinaryOp(benchmark::State &State, Op Build) {
  unsigned Width = (unsigned)State.range(0);
  uint64_t Vars = 0, Clauses = 0;
  for (auto _ : State) {
    SatSolver S;
    RippleBlaster RB(S, Width);
    RB.emitWord(Build(RB.B, RB.B.freshWord(), RB.B.freshWord()));
    Vars = S.numVars();
    Clauses = S.stats().ClausesAdded;
  }
  State.counters["vars"] = (double)Vars;
  State.counters["clauses"] = (double)Clauses;
}

void BM_BlastAdder(benchmark::State &State) {
  blastBinaryOp(State, [](AigBlaster &B, const auto &X, const auto &Y) {
    return B.bvAdd(X, Y);
  });
}
BENCHMARK(BM_BlastAdder)->Arg(8)->Arg(32)->Arg(64);

void BM_BlastMultiplier(benchmark::State &State) {
  blastBinaryOp(State, [](AigBlaster &B, const auto &X, const auto &Y) {
    return B.bvMul(X, Y);
  });
}
BENCHMARK(BM_BlastMultiplier)->Arg(8)->Arg(16)->Arg(32);

/// The miter L != R encoded and solved (UNSAT: the sides are equivalent).
void solveMiter(benchmark::State &State, const char *LText,
                const char *RText) {
  unsigned Width = (unsigned)State.range(0);
  Context Ctx(Width);
  const Expr *L = parseOrDie(Ctx, LText);
  const Expr *R = parseOrDie(Ctx, RText);
  uint64_t Vars = 0, Clauses = 0;
  for (auto _ : State) {
    SatSolver S;
    RippleBlaster RB(S, Width);
    ExprAig EA(RB.B);
    S.addClause({RB.Em.emit(RB.B.disequalLit(EA.blast(L), EA.blast(R)))});
    benchmark::DoNotOptimize(S.solve());
    Vars = S.numVars();
    Clauses = S.stats().ClausesAdded;
  }
  State.counters["vars"] = (double)Vars;
  State.counters["clauses"] = (double)Clauses;
}

void BM_AdderEquivalenceUnsat(benchmark::State &State) {
  // x + y == y + x as a miter, per width.
  solveMiter(State, "x + y", "y + x");
}
BENCHMARK(BM_AdderEquivalenceUnsat)->Arg(8)->Arg(16)->Arg(32);

void BM_LinearMBAEquivalenceUnsat(benchmark::State &State) {
  solveMiter(State, "(x&~y) + y", "x|y");
}
BENCHMARK(BM_LinearMBAEquivalenceUnsat)->Arg(8)->Arg(16)->Arg(32);

void BM_RandomSat(benchmark::State &State) {
  // Under-constrained random 3-SAT throughput.
  for (auto _ : State) {
    State.PauseTiming();
    SatSolver S;
    uint64_t Seed = 42;
    auto Next = [&] {
      Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
      return Seed >> 33;
    };
    const unsigned NumVars = 200;
    for (unsigned I = 0; I != NumVars; ++I)
      S.newVar();
    for (unsigned C = 0; C != 2 * NumVars; ++C) {
      Lit Clause[3];
      for (int K = 0; K != 3; ++K)
        Clause[K] = Lit((Var)(Next() % NumVars), Next() & 1);
      S.addClause(std::span<const Lit>(Clause, 3));
    }
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_RandomSat);

} // namespace
