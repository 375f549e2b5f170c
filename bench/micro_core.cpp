//===- bench/micro_core.cpp - google-benchmark micro-benchmarks -----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Micro-benchmarks of the core primitives: interning, fingerprinting,
/// cloning, parsing, signature computation, basis solving, abstract
/// folding, full simplification per category, and obfuscation. These are
/// throughput tests for the library itself (the paper-facing numbers live
/// in the table*/fig* binaries).
///
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"
#include "ast/Context.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "gen/Obfuscator.h"
#include "linalg/TruthTable.h"
#include "mba/Basis.h"
#include "mba/Signature.h"
#include "mba/Simplifier.h"

#include <benchmark/benchmark.h>

using namespace mba;

namespace {

const char *SampleLinear = "2*(x|y) - (~x&y) - (x&~y) + 4*(x^y) - 3*(x&y)";
const char *SamplePoly = "(x&~y)*(~x&y) + (x&y)*(x|y)";
const char *SampleNonPoly = "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)";

void BM_Parse(benchmark::State &State) {
  for (auto _ : State) {
    Context Ctx(64);
    benchmark::DoNotOptimize(parseOrDie(Ctx, SampleLinear));
  }
}
BENCHMARK(BM_Parse);

void BM_Print(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear);
  for (auto _ : State)
    benchmark::DoNotOptimize(printExpr(Ctx, E));
}
BENCHMARK(BM_Print);

void BM_Signature(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSignature(Ctx, E));
}
BENCHMARK(BM_Signature);

void BM_BasisSolve(benchmark::State &State) {
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  std::vector<uint64_t> Sig = {0, 1, 1, 2, 3, 4, 5, 6};
  for (auto _ : State)
    benchmark::DoNotOptimize(
        solveBasis(Ctx, BasisKind::Conjunction, Sig, Vars));
}
BENCHMARK(BM_BasisSolve);

void BM_SimplifyLinear(benchmark::State &State) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, SampleLinear);
  for (auto _ : State)
    benchmark::DoNotOptimize(Solver.simplify(E));
}
BENCHMARK(BM_SimplifyLinear);

void BM_SimplifyPoly(benchmark::State &State) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, SamplePoly);
  for (auto _ : State)
    benchmark::DoNotOptimize(Solver.simplify(E));
}
BENCHMARK(BM_SimplifyPoly);

void BM_SimplifyNonPoly(benchmark::State &State) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, SampleNonPoly);
  for (auto _ : State)
    benchmark::DoNotOptimize(Solver.simplify(E));
}
BENCHMARK(BM_SimplifyNonPoly);

void BM_SimplifyColdCache(benchmark::State &State) {
  // Fresh solver per iteration: measures the no-lookup-table path.
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear);
  for (auto _ : State) {
    SimplifyOptions Opts;
    Opts.EnableCache = false;
    MBASolver Solver(Ctx, Opts);
    benchmark::DoNotOptimize(Solver.simplify(E));
  }
}
BENCHMARK(BM_SimplifyColdCache);

void BM_FoldAbstractChain(benchmark::State &State) {
  // The abstract-fold pre-pass over a left-deep ((x+1)+1)... chain: one
  // walk over one memo, so the time per node stays flat as the chain grows
  // (re-walking every sub-DAG made it grow with the depth).
  Context Ctx(64);
  const Expr *E = Ctx.getVar("x");
  for (int64_t I = 0; I != State.range(0); ++I)
    E = Ctx.getAdd(E, Ctx.getOne());
  for (auto _ : State)
    benchmark::DoNotOptimize(foldAbstract(Ctx, E));
  State.SetItemsProcessed(State.iterations() * State.range(0));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_FoldAbstractChain)->Arg(1000)->Arg(4000)->Complexity();

// Hash-consing cost: a lookup of a node the context already holds, and
// the creation of fresh nodes, which includes the interning table's
// growth (each iteration starts from an empty context).
void BM_InternHit(benchmark::State &State) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  std::vector<const Expr *> Nodes;
  for (uint64_t I = 0; I != 4096; ++I)
    Nodes.push_back(Ctx.getAdd(I % 2 ? X : Y, Ctx.getConst(I)));
  for (auto _ : State)
    for (const Expr *N : Nodes)
      benchmark::DoNotOptimize(Ctx.getAdd(N->lhs(), N->rhs()));
  State.SetItemsProcessed(State.iterations() * (int64_t)Nodes.size());
}
BENCHMARK(BM_InternHit);

void BM_InternMiss(benchmark::State &State) {
  for (auto _ : State) {
    Context Ctx(64);
    const Expr *E = Ctx.getVar("x");
    for (int64_t I = 0; I != State.range(0); ++I)
      E = Ctx.getXor(E, Ctx.getConst((uint64_t)I));
    benchmark::DoNotOptimize(E);
  }
  // Two fresh nodes (a constant and an xor) per step.
  State.SetItemsProcessed(State.iterations() * 2 * State.range(0));
}
BENCHMARK(BM_InternMiss)->Arg(1 << 12)->Arg(1 << 16);

// The structural fingerprint that keys the result and verdict caches, read
// from the root of an xor chain of the given DAG size. Each node carries
// its fingerprint from interning, so the time must not grow with the size.
void BM_ExprFingerprint(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = Ctx.getVar("x");
  for (int64_t I = 1; I < State.range(0) / 2; ++I)
    E = Ctx.getXor(E, Ctx.getConst((uint64_t)I));
  for (auto _ : State)
    benchmark::DoNotOptimize(exprFingerprint(E));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ExprFingerprint)->Arg(64)->Arg(65536)->Complexity();

// Copying corpus expressions into a fresh context, as the parallel
// harness does for every query it hands to a worker.
void BM_CloneExpr(benchmark::State &State) {
  Context Src(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 20;
  std::vector<CorpusEntry> Corpus = generateCorpus(Src, Opts);
  int64_t Nodes = 0;
  for (const CorpusEntry &Entry : Corpus)
    Nodes += (int64_t)countDagNodes(Entry.Obfuscated);
  for (auto _ : State) {
    Context Dst(64);
    for (const CorpusEntry &Entry : Corpus)
      benchmark::DoNotOptimize(cloneExpr(Dst, Entry.Obfuscated));
  }
  State.SetItemsProcessed(State.iterations() * Nodes);
}
BENCHMARK(BM_CloneExpr);

/// A bitwise expression over \p T variables for the truth-table benches
/// (deep enough that the column is not a single pattern fill).
const Expr *truthBenchExpr(Context &Ctx, std::vector<const Expr *> &Vars,
                           unsigned T) {
  Vars.clear();
  for (unsigned I = 0; I != T; ++I)
    Vars.push_back(Ctx.getVar("v" + std::to_string(I)));
  const Expr *E = Vars[0];
  for (unsigned I = 1; I != T; ++I) {
    const Expr *Term = I % 2 ? Ctx.getAnd(E, Vars[I])
                             : Ctx.getOr(Ctx.getNot(E), Vars[I]);
    E = Ctx.getXor(E, Term);
  }
  return E;
}

// Before/after pair for the word-packed truth-table kernel: the scalar
// row-at-a-time evaluator vs the packed 64-rows-per-word one.
void BM_TruthColumnScalar(benchmark::State &State) {
  Context Ctx(64);
  std::vector<const Expr *> Vars;
  const Expr *E = truthBenchExpr(Ctx, Vars, (unsigned)State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(truthColumn(Ctx, E, Vars));
}
BENCHMARK(BM_TruthColumnScalar)->Arg(6)->Arg(10);

void BM_TruthColumnPacked(benchmark::State &State) {
  Context Ctx(64);
  std::vector<const Expr *> Vars;
  const Expr *E = truthBenchExpr(Ctx, Vars, (unsigned)State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(truthColumnPacked(Ctx, E, Vars));
}
BENCHMARK(BM_TruthColumnPacked)->Arg(6)->Arg(10);

void BM_ObfuscateLinear(benchmark::State &State) {
  Context Ctx(64);
  Obfuscator Obf(Ctx, 1);
  const Expr *Target = parseOrDie(Ctx, "x + y");
  ObfuscationOptions Opts;
  for (auto _ : State)
    benchmark::DoNotOptimize(Obf.obfuscateLinear(Target, Opts));
}
BENCHMARK(BM_ObfuscateLinear);

void BM_CorpusGeneration(benchmark::State &State) {
  for (auto _ : State) {
    Context Ctx(64);
    CorpusOptions Opts;
    Opts.LinearCount = 10;
    Opts.PolyCount = 10;
    Opts.NonPolyCount = 10;
    benchmark::DoNotOptimize(generateCorpus(Ctx, Opts));
  }
}
BENCHMARK(BM_CorpusGeneration);

} // namespace
