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
#include "poly/Polynomial.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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

/// The printed obfuscated and ground sides of the paper corpus (1000
/// entries per category, seed 1, width 64): the text perfbench parses.
const std::vector<std::string> &paperCorpusTexts() {
  static const std::vector<std::string> Texts = [] {
    Context Gen(64);
    CorpusOptions Opts;
    Opts.Seed = 1;
    std::vector<std::string> Out;
    for (const CorpusEntry &E : generateCorpus(Gen, Opts)) {
      Out.push_back(printExpr(Gen, E.Obfuscated));
      Out.push_back(printExpr(Gen, E.Ground));
    }
    return Out;
  }();
  return Texts;
}

void BM_ParseCorpusText(benchmark::State &State) {
  // Every corpus text into one context, as a long-running process parses
  // them: after the first iteration every node is an intern hit, so this
  // is the parser's own cost per byte.
  const std::vector<std::string> &Texts = paperCorpusTexts();
  size_t Bytes = 0;
  for (const std::string &T : Texts)
    Bytes += T.size();
  Context Ctx(64);
  for (auto _ : State)
    for (const std::string &T : Texts)
      benchmark::DoNotOptimize(parseExpr(Ctx, T).E);
  State.SetBytesProcessed(State.iterations() * (int64_t)Bytes);
}
BENCHMARK(BM_ParseCorpusText);

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

void BM_SimplifyColdCorpus(benchmark::State &State) {
  // The cold query path: a fresh solver (empty lookup table, no shared
  // cache) simplifies both sides of 100 corpus entries per category. The
  // context, and with it the compiled evaluators, persists across
  // iterations.
  Context Ctx(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 100;
  Opts.Seed = 1;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, Opts);
  for (auto _ : State) {
    MBASolver Solver(Ctx);
    for (const CorpusEntry &E : Corpus) {
      benchmark::DoNotOptimize(Solver.simplify(E.Obfuscated));
      benchmark::DoNotOptimize(Solver.simplify(E.Ground));
    }
  }
  State.SetItemsProcessed(State.iterations() * 2 * (int64_t)Corpus.size());
}
BENCHMARK(BM_SimplifyColdCorpus);

void BM_PolyMul(benchmark::State &State) {
  // An A-term polynomial times a B-term one, over eight atoms, degrees 0 to
  // 2. 1x1 and 1x4 are the shapes the poly path's expansion multiplies on
  // the paper corpus: of the 35,739 products of paper_simplify's seed-1
  // ledger, 75% are 1x1, all but one have a factor of at most one term, and
  // no factor has more than 8. 8x8 and 32x32 are larger expansions of
  // products of sums, where many products collect into one monomial.
  constexpr uint64_t Mask = ~0ULL;
  auto Make = [&](uint64_t Seed, int64_t NumTerms) {
    Polynomial P(Mask);
    uint64_t X = Seed;
    while (P.numTerms() != (size_t)NumTerms) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Monomial M;
      for (unsigned D = (unsigned)(X >> 60) % 3; D; --D)
        M = M * Monomial::atom((AtomId)(X >> (40 + 3 * D)) % 8);
      P.addTerm(M, (X >> 8) | 1);
    }
    return P;
  };
  Polynomial A = Make(1, State.range(0)), B = Make(2, State.range(1));
  for (auto _ : State)
    benchmark::DoNotOptimize(A * B);
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(1));
}
BENCHMARK(BM_PolyMul)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({8, 8})
    ->Args({32, 32});

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
