//===- tests/regression_test.cpp - Golden simplification outputs ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Golden outputs: the exact canonical text the default-configured
/// simplifier produces for a catalogue of inputs. Guards the public
/// behaviour against unintended drift — any change here should be a
/// deliberate improvement, reviewed like an API change.
///
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Simplifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace mba;

namespace {

struct Golden {
  const char *In;
  const char *Out;
};

// gtest names each case by this print, so it must not be the default byte
// dump (which shows the addresses of In and Out).
void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.In; }

class GoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTest, CanonicalOutputIsStable) {
  Context Ctx(64);
  MBASolver Solver(Ctx);
  const Expr *E = parseOrDie(Ctx, GetParam().In);
  EXPECT_EQ(printExpr(Ctx, Solver.simplify(E)), GetParam().Out)
      << "input: " << GetParam().In;
}

INSTANTIATE_TEST_SUITE_P(
    LinearCatalogue, GoldenTest,
    ::testing::Values(
        Golden{"2*(x|y) - (~x&y) - (x&~y)", "x+y"},
        Golden{"(x^y) + 2*(x|~y) + 2", "x-y"},
        Golden{"(x|y) + (~x|y) - ~x", "x+y"},
        Golden{"(x|y) + y - (~x&y)", "x+y"},
        Golden{"(x^y) + 2*y - 2*(~x&y)", "x+y"},
        Golden{"y + (x&~y) + (x&y)", "x+y"},
        Golden{"(x&~y) + y", "x|y"},
        Golden{"(x|y) - (x&y)", "x^y"},
        Golden{"x + y - 2*(x&y)", "x^y"},
        Golden{"x + y - (x|y)", "x&y"},
        Golden{"x + y - (x&y)", "x|y"},
        Golden{"~x + 1", "-x"},
        Golden{"-x - 1", "~x"},
        Golden{"(x&~y) - (~x&y)", "x-y"},
        Golden{"2*(x&~y) - (x^y)", "x-y"},
        Golden{"(x^y) - 2*(~x&y)", "x-y"},
        Golden{"3*(x&y) + 3*(x^y) - 2*(x|y)", "x|y"}));

INSTANTIATE_TEST_SUITE_P(
    PolyCatalogue, GoldenTest,
    ::testing::Values(
        Golden{"(x&~y)*(~x&y) + (x&y)*(x|y)", "x*y"},
        Golden{"(x&y)*(x|y) + (x&~y)*(~x&y)", "x*y"},
        Golden{"((x|y)+(x&y)) * ((x|y)+(x&y))",
               "x*x+2*x*y+y*y"},
        // (x|y - x&y)^2 == (x^y)^2, fully expanded over conj atoms.
        Golden{"(x|y)*(x|y) - 2*(x|y)*(x&y) + (x&y)*(x&y)",
               "4*(x&y)*(x&y)-4*(x&y)*y-4*x*(x&y)+x*x+2*x*y+y*y"}));

INSTANTIATE_TEST_SUITE_P(
    NonPolyCatalogue, GoldenTest,
    ::testing::Values(
        Golden{"((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)", "x-y+z"},
        Golden{"~(x-1)", "-x"},
        Golden{"((x+y)|z) + ((x+y)&z)", "x+y+z"},
        Golden{"~((x|y) + (x&y)) + 1", "-x-y"},
        Golden{"((x+y) | (-x-y-1)) + ((x+y) & (-x-y-1))", "-1"},
        Golden{"(x*2) & 1", "0"}));

INSTANTIATE_TEST_SUITE_P(
    TrivialCatalogue, GoldenTest,
    ::testing::Values(
        Golden{"x", "x"},
        Golden{"0", "0"},
        Golden{"x - x", "0"},
        Golden{"x ^ x", "0"},
        Golden{"x | ~x", "-1"},
        Golden{"x & ~x", "0"},
        Golden{"3*5 - 15", "0"},
        Golden{"~(60 + 3)", "-64"},
        Golden{"x & -1", "x"},
        Golden{"x | 0", "x"}));

/// FNV-1a digest of the printed simplify output of both sides of every
/// entry of the paper corpus (1000 entries per category, seed 1) at
/// \p Width, one line per output, through one default-configured solver.
/// Also reports how many outputs went into it.
uint64_t corpusOutputDigest(unsigned Width, size_t &Outputs) {
  Context Ctx(Width);
  CorpusOptions Opts;
  Opts.Seed = 1;
  std::vector<CorpusEntry> Corpus = generateCorpus(Ctx, Opts);
  MBASolver Solver(Ctx);
  uint64_t H = 0xcbf29ce484222325ULL;
  Outputs = 0;
  for (const CorpusEntry &Entry : Corpus) {
    for (const Expr *In : {Entry.Obfuscated, Entry.Ground}) {
      for (char C : printExpr(Ctx, Solver.simplify(In)) + "\n")
        H = (H ^ (uint8_t)C) * 0x100000001b3ULL;
      ++Outputs;
    }
  }
  return H;
}

// The whole corpus's simplified text, pinned: any change to an output of
// the default pipeline changes the digest. Recorded before the fused
// abstract fold, the flat polynomials, the per-call variable sets and the
// one-loop parser, which all had to leave every output as it was.
TEST(CorpusGolden, Width64OutputsAreStable) {
  size_t Outputs = 0;
  EXPECT_EQ(corpusOutputDigest(64, Outputs), 0xd503f24e26e17b19ULL);
  EXPECT_EQ(Outputs, 6000u);
}

TEST(CorpusGolden, Width3OutputsAreStable) {
  size_t Outputs = 0;
  EXPECT_EQ(corpusOutputDigest(3, Outputs), 0x1f758118f603abc9ULL);
  EXPECT_EQ(Outputs, 6000u);
}

} // namespace
