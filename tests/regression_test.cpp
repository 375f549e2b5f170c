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
#include "mba/Simplifier.h"

#include <gtest/gtest.h>

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

} // namespace
