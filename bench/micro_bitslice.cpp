//===- bench/micro_bitslice.cpp - Bitsliced evaluation benchmarks ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Micro-benchmarks of the bitsliced (transposed) evaluation path against
/// the scalar baseline it replaced:
///  * signature construction (computeSignature vs a per-corner loop over
///    the plain Evaluator) — the hot loop of classification and
///    simplification, and the headline ">= 10x at 3 variables / width 64"
///    number in docs/PERF.md;
///  * the corner traffic of the paper corpus (BM_SignatureCorpusNodes):
///    every 1-6-variable node the simplifier meets, one corner block each;
///  * batch point evaluation (BitslicedExpr vs evaluate) — the
///    sampling-refutation, fuzz-agreement and Syntia-oracle workload;
///  * the raw 64x64 bit-matrix transpose primitive;
///  * the wide-engine kernels (and/or/xor/add/mul/transpose) once per
///    supported ISA back end, reporting lanes/cycle and bytes/cycle so the
///    AVX2/AVX-512 win is machine-readable in the bench-smoke artifact
///    (`--benchmark_format=json`, counters `lanes_per_cycle` and
///    `bytes_per_cycle`).
///
/// `micro_bitslice --signature-dump` bypasses google-benchmark and prints a
/// deterministic signature/batch fingerprint for a fixed expression set on
/// the currently dispatched ISA (MBA_FORCE_ISA honoured, never echoed);
/// CI runs it under MBA_FORCE_ISA=scalar and the best ISA and asserts the
/// outputs are byte-identical.
///
//===----------------------------------------------------------------------===//

#include "ast/BitslicedEval.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "gen/Corpus.h"
#include "linalg/TruthTable.h"
#include "mba/Signature.h"
#include "mba/Simplifier.h"
#include "support/Bitslice.h"
#include "support/RNG.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_set>
#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h> // NOLINT(mba-isa-outside-seam): __rdtsc cycle counter, not SIMD dispatch
#endif

using namespace mba;

namespace {

// The signature workload: obfuscated corpus entries. Pick a median-size
// 3-variable linear entry from the regenerated paper corpus.
const Expr *corpusLinear3(Context &Ctx) {
  CorpusOptions Opts;
  Opts.LinearCount = 40;
  Opts.PolyCount = 0;
  Opts.NonPolyCount = 0;
  Opts.MinVars = 3;
  Opts.MaxVars = 3;
  Opts.IncludeSeedIdentities = false;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, Opts);
  return Corpus[Corpus.size() / 2].Obfuscated;
}

// The scalar baseline: one corner at a time through the plain Evaluator.
std::vector<uint64_t> signatureScalar(const Context &Ctx, const Expr *E,
                                      const std::vector<const Expr *> &Vars) {
  unsigned T = (unsigned)Vars.size();
  std::vector<uint64_t> Sig(size_t(1) << T);
  std::vector<uint64_t> Assignment(Ctx.numVars(), 0);
  for (size_t Row = 0; Row != Sig.size(); ++Row) {
    for (unsigned I = 0; I != T; ++I)
      Assignment[Vars[I]->varIndex()] =
          truthBit((unsigned)Row, I, T) ? Ctx.mask() : 0;
    Sig[Row] = (0 - evaluate(Ctx, E, Assignment)) & Ctx.mask();
  }
  return Sig;
}

void BM_SignatureScalar(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = corpusLinear3(Ctx);
  std::vector<const Expr *> Vars;
  for (const Expr *V : collectVariables(E))
    Vars.push_back(V);
  for (auto _ : State)
    benchmark::DoNotOptimize(signatureScalar(Ctx, E, Vars));
}
BENCHMARK(BM_SignatureScalar);

void BM_SignatureBitsliced(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = corpusLinear3(Ctx);
  std::vector<const Expr *> Vars;
  for (const Expr *V : collectVariables(E))
    Vars.push_back(V);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSignature(Ctx, E, Vars));
}
BENCHMARK(BM_SignatureBitsliced);

// Cold-path cost: compiling the bitsliced program for the corpus entry.
// computeSignature amortizes this through Context::getBitsliced (pointer
// identity = structural identity), so the warm numbers above pay it only
// on the first signature of each distinct DAG.
void BM_SignatureBitslicedColdCompile(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = corpusLinear3(Ctx);
  for (auto _ : State) {
    BitslicedExpr Compiled(Ctx, E);
    benchmark::DoNotOptimize(&Compiled);
  }
}
BENCHMARK(BM_SignatureBitslicedColdCompile);

// A small handwritten linear MBA: the lower bound on expression size,
// where per-call compile overhead is the whole story.
const char *SampleLinear3 =
    "2*(x|y) - (~x&y) - (x&~y) + 4*(x^y) - 3*(x&y) + (x&z) - (y|z)";

void BM_SignatureSmallScalar(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear3);
  std::vector<const Expr *> Vars = {Ctx.getVar("x"), Ctx.getVar("y"),
                                    Ctx.getVar("z")};
  for (auto _ : State)
    benchmark::DoNotOptimize(signatureScalar(Ctx, E, Vars));
}
BENCHMARK(BM_SignatureSmallScalar);

void BM_SignatureSmallBitsliced(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear3);
  std::vector<const Expr *> Vars = {Ctx.getVar("x"), Ctx.getVar("y"),
                                    Ctx.getVar("z")};
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSignature(Ctx, E, Vars));
}
BENCHMARK(BM_SignatureSmallBitsliced);

// Eight-variable signatures: 256 corners = four full 64-lane blocks.
const char *SampleLinear8 = "(a&b) + 2*(c|d) - (e^f) + 3*(g&~h) - (a|h)";

void BM_Signature8VarScalar(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear8);
  std::vector<const Expr *> Vars;
  for (const char *Name : {"a", "b", "c", "d", "e", "f", "g", "h"})
    Vars.push_back(Ctx.getVar(Name));
  for (auto _ : State)
    benchmark::DoNotOptimize(signatureScalar(Ctx, E, Vars));
}
BENCHMARK(BM_Signature8VarScalar);

void BM_Signature8VarBitsliced(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear8);
  std::vector<const Expr *> Vars;
  for (const char *Name : {"a", "b", "c", "d", "e", "f", "g", "h"})
    Vars.push_back(Ctx.getVar(Name));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeSignature(Ctx, E, Vars));
}
BENCHMARK(BM_Signature8VarBitsliced);

// The corner traffic of paper_simplify: every distinct non-leaf node with
// 1-6 variables in the seed-1, width-64 paper corpus — inputs, grounds and
// their simplified outputs — evaluated at its 2^t truth-table corners, one
// block of at most 64 lanes each. Compiling and mask setup happen once,
// outside the timed loop, so the time is the interpreter's alone.
struct CornerBlock {
  const BitslicedExpr *Compiled;
  std::vector<uint64_t> Masks;
  unsigned Lanes;
};

const std::vector<CornerBlock> &corpusCornerBlocks() {
  static Context Ctx(64); // owns the programs the blocks point to
  static const std::vector<CornerBlock> Blocks = [] {
    CorpusOptions Opts;
    Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 1000;
    Opts.Seed = 1;
    std::vector<const Expr *> Stack;
    MBASolver Solver(Ctx);
    for (const CorpusEntry &E : generateCorpus(Ctx, Opts))
      for (const Expr *R : {E.Obfuscated, E.Ground})
        Stack.insert(Stack.end(), {R, Solver.simplify(R)});
    std::unordered_set<const Expr *> Seen;
    VariableMemo Memo;
    std::vector<CornerBlock> Out;
    while (!Stack.empty()) {
      const Expr *N = Stack.back();
      Stack.pop_back();
      if (N->numOperands() == 0 || !Seen.insert(N).second)
        continue;
      for (unsigned I = 0; I != N->numOperands(); ++I)
        Stack.push_back(N->getOperand(I));
      std::vector<const Expr *> Vars = Memo.variables(N);
      const unsigned T = (unsigned)Vars.size();
      if (T == 0 || T > 6)
        continue;
      CornerBlock B{&Ctx.getBitsliced(N), {}, 1u << T};
      for (unsigned I = 0; I != T; ++I) {
        if (B.Masks.size() <= Vars[I]->varIndex())
          B.Masks.resize(Vars[I]->varIndex() + 1);
        B.Masks[Vars[I]->varIndex()] = bitslice::cornerMask(T - 1 - I, 0);
      }
      Out.push_back(std::move(B));
    }
    return Out;
  }();
  return Blocks;
}

void BM_SignatureCorpusNodes(benchmark::State &State) {
  const std::vector<CornerBlock> &Blocks = corpusCornerBlocks();
  uint64_t Out[64];
  for (auto _ : State) {
    for (const CornerBlock &B : Blocks) {
      B.Compiled->evaluateCorners(B.Masks, B.Lanes, Out);
      benchmark::DoNotOptimize(&Out[0]);
    }
    benchmark::ClobberMemory();
  }
  size_t Insts = 0;
  for (const CornerBlock &B : Blocks)
    Insts += B.Compiled->size();
  State.counters["nodes"] = (double)Blocks.size();
  State.counters["insts"] = (double)Insts;
  State.SetItemsProcessed(State.iterations() * (int64_t)Blocks.size());
}
BENCHMARK(BM_SignatureCorpusNodes)->Unit(benchmark::kMillisecond);

// Batch evaluation of 4096 random points (the sampling/fuzz workload).
constexpr size_t BatchPoints = 4096;

void BM_Batch4096Interpreted(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear3);
  RNG Rng(7);
  std::vector<uint64_t> X(BatchPoints), Y(BatchPoints), Z(BatchPoints);
  for (size_t I = 0; I != BatchPoints; ++I) {
    X[I] = Rng.next();
    Y[I] = Rng.next();
    Z[I] = Rng.next();
  }
  for (auto _ : State) {
    uint64_t Acc = 0;
    for (size_t I = 0; I != BatchPoints; ++I) {
      std::vector<uint64_t> Vals = {X[I], Y[I], Z[I]};
      Acc ^= evaluate(Ctx, E, Vals);
    }
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_Batch4096Interpreted);

void BM_Batch4096Bitsliced(benchmark::State &State) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, SampleLinear3);
  RNG Rng(7);
  std::vector<uint64_t> X(BatchPoints), Y(BatchPoints), Z(BatchPoints);
  for (size_t I = 0; I != BatchPoints; ++I) {
    X[I] = Rng.next();
    Y[I] = Rng.next();
    Z[I] = Rng.next();
  }
  BitslicedExpr Compiled(Ctx, E);
  const uint64_t *Ptrs[] = {X.data(), Y.data(), Z.data()};
  for (auto _ : State) {
    std::vector<uint64_t> Out = Compiled.evaluatePoints(Ptrs, BatchPoints);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_Batch4096Bitsliced);

void BM_Transpose64(benchmark::State &State) {
  RNG Rng(11);
  uint64_t M[64];
  for (uint64_t &W : M)
    W = Rng.next();
  for (auto _ : State) {
    bitslice::transpose64(M);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_Transpose64);

//===----------------------------------------------------------------------===//
// Per-ISA wide-kernel throughput: lanes/cycle and bytes/cycle
//===----------------------------------------------------------------------===//

#if defined(__x86_64__) || defined(_M_X64)
inline uint64_t cycleCounter() { return __rdtsc(); }
constexpr bool HaveCycleCounter = true;
#else
inline uint64_t cycleCounter() { return 0; }
constexpr bool HaveCycleCounter = false;
#endif

// One kernel invocation's footprint, for the derived counters. Lanes is
// the number of 64-bit lanes advanced per call; Bytes is the memory
// traffic (reads + writes) the call performs.
struct KernelShape {
  uint64_t Lanes;
  uint64_t Bytes;
};

constexpr unsigned KernelLanes = 4096;

// Times Fn (one kernel call) under the benchmark loop, reads the TSC
// around each call, and reports lanes/cycle and bytes/cycle counters.
// TSC on current x86 is constant-rate rather than core-clock, which is
// exactly what a cross-run artifact wants: the ratio AVX-512/AVX2/scalar
// is what the bench-smoke job tracks, not an absolute IPC claim.
template <typename Fn>
void runKernelBench(benchmark::State &State, KernelShape Shape, Fn &&Call) {
  uint64_t Cycles = 0;
  for (auto _ : State) {
    uint64_t T0 = cycleCounter();
    Call();
    Cycles += cycleCounter() - T0;
  }
  uint64_t Iters = (uint64_t)State.iterations();
  State.SetItemsProcessed((int64_t)(Iters * Shape.Lanes));
  State.SetBytesProcessed((int64_t)(Iters * Shape.Bytes));
  if (HaveCycleCounter && Cycles) {
    State.counters["lanes_per_cycle"] =
        benchmark::Counter((double)(Iters * Shape.Lanes) / (double)Cycles);
    State.counters["bytes_per_cycle"] =
        benchmark::Counter((double)(Iters * Shape.Bytes) / (double)Cycles);
  }
}

struct KernelInputs {
  std::vector<uint64_t> A, B, Out;
  KernelInputs() : A(KernelLanes), B(KernelLanes), Out(KernelLanes) {
    RNG Rng(13);
    for (unsigned I = 0; I != KernelLanes; ++I) {
      A[I] = Rng.next();
      B[I] = Rng.next();
    }
  }
};

// Registered once per supported ISA from main(): wide_<kernel>/<isa>.
void registerWideKernelBenches() {
  using bitslice::Isa;
  using bitslice::WideKernels;
  constexpr uint64_t LaneBytes = 3 * 8ull * KernelLanes; // A + B + Out
  for (Isa I : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    if (!bitslice::isaSupported(I))
      continue;
    const WideKernels &K = bitslice::kernelsFor(I);
    const std::string Suffix = std::string("/") + bitslice::isaName(I);
    auto Reg = [&](const char *Name, auto Fn, KernelShape Shape) {
      benchmark::RegisterBenchmark(("wide_" + std::string(Name) + Suffix).c_str(),
                                   [Fn, Shape](benchmark::State &State) {
                                     static KernelInputs In;
                                     runKernelBench(State, Shape, [&] {
                                       Fn(In.A.data(), In.B.data(),
                                          In.Out.data());
                                     });
                                   });
    };
    KernelShape Lane{KernelLanes, LaneBytes};
    Reg("and", [&K](const uint64_t *A, const uint64_t *B,
                    uint64_t *Out) { K.LaneAnd(A, B, Out, KernelLanes); },
        Lane);
    Reg("or", [&K](const uint64_t *A, const uint64_t *B,
                   uint64_t *Out) { K.LaneOr(A, B, Out, KernelLanes); },
        Lane);
    Reg("xor", [&K](const uint64_t *A, const uint64_t *B,
                    uint64_t *Out) { K.LaneXor(A, B, Out, KernelLanes); },
        Lane);
    Reg("add",
        [&K](const uint64_t *A, const uint64_t *B, uint64_t *Out) {
          K.LaneAddM(A, B, Out, KernelLanes, ~0ull);
        },
        Lane);
    Reg("mul",
        [&K](const uint64_t *A, const uint64_t *B, uint64_t *Out) {
          K.LaneMulM(A, B, Out, KernelLanes, ~0ull);
        },
        Lane);
    // Transpose works in-place over KernelLanes/64 blocks of 64 words:
    // every word is read and written once.
    constexpr unsigned Blocks = KernelLanes / 64;
    benchmark::RegisterBenchmark(
        ("wide_transpose" + Suffix).c_str(), [&K](benchmark::State &State) {
          static KernelInputs In;
          runKernelBench(State,
                         KernelShape{KernelLanes, 2 * 8ull * KernelLanes},
                         [&] { K.TransposeBlocks(In.A.data(), Blocks); });
        });
  }
}

//===----------------------------------------------------------------------===//
// --signature-dump: deterministic fingerprint for scalar-vs-SIMD CI diff
//===----------------------------------------------------------------------===//

// Prints signatures and a batch-evaluation digest for a fixed expression
// set on whatever ISA the wide engine currently dispatches to. The output
// deliberately never names the ISA: CI diffs two runs byte-for-byte.
int signatureDump() {
  for (unsigned Width : {8u, 16u, 32u, 64u}) {
    Context Ctx(Width);
    struct Case {
      const char *Text;
      std::vector<const char *> Vars;
    } Cases[] = {
        {SampleLinear3, {"x", "y", "z"}},
        {SampleLinear8, {"a", "b", "c", "d", "e", "f", "g", "h"}},
        {"(x ^ (y + 1)) * 3 - (x | ~y)", {"x", "y"}},
        {"~x + 2*(x & 0x5555) - (x | 0x1234)", {"x"}},
    };
    for (const Case &C : Cases) {
      const Expr *E = parseOrDie(Ctx, C.Text);
      std::vector<const Expr *> Vars;
      for (const char *Name : C.Vars)
        Vars.push_back(Ctx.getVar(Name));
      std::printf("sig w%u v%zu", Width, Vars.size());
      for (uint64_t S : computeSignature(Ctx, E, Vars))
        std::printf(" %016llx", (unsigned long long)S);
      std::printf("\n");

      // Batch evaluation over an awkward point count (padding tail paths
      // differ per backend and must still agree).
      constexpr size_t N = 173;
      RNG Rng(99 + Width);
      std::vector<std::vector<uint64_t>> Inputs(Vars.size());
      std::vector<const uint64_t *> Ptrs;
      for (auto &Col : Inputs) {
        Col.resize(N);
        for (uint64_t &V : Col)
          V = Rng.next() & Ctx.mask();
        Ptrs.push_back(Col.data());
      }
      BitslicedExpr Compiled(Ctx, E);
      uint64_t Digest = 0x9e3779b97f4a7c15ull;
      for (uint64_t V : Compiled.evaluatePoints({Ptrs.data(), Ptrs.size()}, N))
        Digest = (Digest ^ V) * 0x2545f4914f6cdd1dull;
      std::printf("batch w%u v%zu n%zu %016llx\n", Width, Vars.size(), N,
                  (unsigned long long)Digest);
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::string_view(argv[I]) == "--signature-dump")
      return signatureDump();
  registerWideKernelBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
