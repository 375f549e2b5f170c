//===- tests/mba_core_test.cpp - Classify/metrics/signature/basis tests ---===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Basis.h"
#include "mba/BooleanMin.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Signature.h"

#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "linalg/TruthTable.h"
#include "poly/PolyExpr.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

//===----------------------------------------------------------------------===//
// Classification
//===----------------------------------------------------------------------===//

struct ClassifyCase {
  const char *Text;
  MBAKind Expected;
};

// gtest names each case by this print, so it must not be the default byte
// dump (which shows the address of Text).
void PrintTo(const ClassifyCase &C, std::ostream *OS) { *OS << C.Text; }

class ClassifyTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyTest, Classifies) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, GetParam().Text);
  EXPECT_EQ(classifyMBA(Ctx, E), GetParam().Expected) << GetParam().Text;
}

INSTANTIATE_TEST_SUITE_P(
    Linear, ClassifyTest,
    ::testing::Values(
        ClassifyCase{"x", MBAKind::Linear},
        ClassifyCase{"42", MBAKind::Linear},
        ClassifyCase{"x&y", MBAKind::Linear},
        ClassifyCase{"x + 2*y + (x&y) - 3*(x^y) + 4", MBAKind::Linear},
        ClassifyCase{"2*(x|y) - (~x&y) - (x&~y)", MBAKind::Linear},
        ClassifyCase{"-(x&y)", MBAKind::Linear},
        ClassifyCase{"(x&y)*5", MBAKind::Linear},
        ClassifyCase{"3*(2*(x^y))", MBAKind::Linear},
        ClassifyCase{"~x + ~y", MBAKind::Linear},
        ClassifyCase{"x&-1", MBAKind::Linear},  // -1 is a bitwise atom
        ClassifyCase{"x&0", MBAKind::Linear}));

INSTANTIATE_TEST_SUITE_P(
    Poly, ClassifyTest,
    ::testing::Values(
        ClassifyCase{"x*y", MBAKind::Polynomial},
        ClassifyCase{"(x&~y)*(~x&y) + (x&y)*(x|y)", MBAKind::Polynomial},
        ClassifyCase{"x*y + 2*(x&y) + 3*(x&~y)*(x|y) - 5", MBAKind::Polynomial},
        ClassifyCase{"(x+y)*(x-y)", MBAKind::Polynomial},
        ClassifyCase{"(x&y)*(x&y)*(x&y)", MBAKind::Polynomial}));

INSTANTIATE_TEST_SUITE_P(
    NonPoly, ClassifyTest,
    ::testing::Values(
        ClassifyCase{"(x+y)&z", MBAKind::NonPolynomial},
        ClassifyCase{"~(x-1)", MBAKind::NonPolynomial},
        ClassifyCase{"((x-y)|z) + ((x-y)&z)", MBAKind::NonPolynomial},
        ClassifyCase{"x&3", MBAKind::NonPolynomial}, // 3 is not 0/-1
        ClassifyCase{"~(x*y)", MBAKind::NonPolynomial}));

TEST(Classify, PureBitwise) {
  Context Ctx(64);
  EXPECT_TRUE(isPureBitwise(Ctx, parseOrDie(Ctx, "x & ~(y ^ z) | x")));
  EXPECT_TRUE(isPureBitwise(Ctx, parseOrDie(Ctx, "x & -1")));
  EXPECT_FALSE(isPureBitwise(Ctx, parseOrDie(Ctx, "x & 3")));
  EXPECT_FALSE(isPureBitwise(Ctx, parseOrDie(Ctx, "x + y")));
  EXPECT_FALSE(isPureBitwise(Ctx, parseOrDie(Ctx, "-x")));
}

TEST(Classify, KindNames) {
  EXPECT_STREQ(mbaKindName(MBAKind::Linear), "linear");
  EXPECT_STREQ(mbaKindName(MBAKind::Polynomial), "poly");
  EXPECT_STREQ(mbaKindName(MBAKind::NonPolynomial), "non-poly");
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, AlternationPaperExample) {
  // (x&y) + 2*z has exactly one alternation: the '+' with a bitwise child.
  Context Ctx(64);
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "(x&y) + 2*z")), 1u);
}

TEST(Metrics, AlternationPureExpressionsAreZero) {
  Context Ctx(64);
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "x & y | ~z ^ x")), 0u);
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "x + y*z - 3")), 0u);
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "x")), 0u);
}

TEST(Metrics, AlternationCountsEachBoundary) {
  Context Ctx(64);
  // '+' over two bitwise children: two boundaries.
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "(x&y) + (x|y)")), 2u);
  // ~(x+y): bitwise over arithmetic.
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "~(x+y)")), 1u);
  // Nested: ~( (x&y) + z ) has '~'->'+' and '+'->'&'.
  EXPECT_EQ(mbaAlternation(parseOrDie(Ctx, "~((x&y) + z)")), 2u);
}

TEST(Metrics, AlternationUsesTreeSemantics) {
  // A shared DAG node must be counted per occurrence.
  Context Ctx(64);
  const Expr *A = parseOrDie(Ctx, "x&y");
  const Expr *Sum = Ctx.getAdd(A, A); // (x&y) + (x&y): 2 alternations
  EXPECT_EQ(mbaAlternation(Sum), 2u);
}

TEST(Metrics, CountTerms) {
  Context Ctx(64);
  EXPECT_EQ(countTerms(parseOrDie(Ctx, "x + 2*y + (x&y) - 3*(x^y) + 4")), 5u);
  EXPECT_EQ(countTerms(parseOrDie(Ctx, "x")), 1u);
  EXPECT_EQ(countTerms(parseOrDie(Ctx, "-(x + y)")), 2u);
  EXPECT_EQ(countTerms(parseOrDie(Ctx, "(x+y)*(x-y)")), 1u);
}

TEST(Metrics, MaxCoefficient) {
  Context Ctx(64);
  EXPECT_EQ(maxCoefficient(Ctx, parseOrDie(Ctx, "3*x - 17*y + 5")), 17u);
  EXPECT_EQ(maxCoefficient(Ctx, parseOrDie(Ctx, "x + y")), 0u);
  // -1 has magnitude 1.
  EXPECT_EQ(maxCoefficient(Ctx, parseOrDie(Ctx, "x & -1")), 1u);
}

TEST(Metrics, MeasureComplexityBundle) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "x + 2*y + (x&y) - 3*(x^y) + 4");
  ComplexityMetrics M = measureComplexity(Ctx, E);
  EXPECT_EQ(M.Kind, MBAKind::Linear);
  EXPECT_EQ(M.NumVariables, 2u);
  EXPECT_EQ(M.NumTerms, 5u);
  EXPECT_EQ(M.MaxCoefficient, 4u);
  EXPECT_GT(M.Length, 0u);
  EXPECT_EQ(M.Alternation, 2u); // '&' and '^' children of the +/- spine
}

//===----------------------------------------------------------------------===//
// Signature vectors
//===----------------------------------------------------------------------===//

TEST(Signature, PaperExample2) {
  // sig(2*(x|y) - (~x&y) - (x&~y)) = (0, 1, 1, 2).
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
  auto Sig = computeSignature(Ctx, E);
  EXPECT_EQ(Sig, (std::vector<uint64_t>{0, 1, 1, 2}));
}

TEST(Signature, BitwiseSignatureIsTruthColumn) {
  Context Ctx(64);
  std::vector<const Expr *> Vars;
  const Expr *E = parseOrDie(Ctx, "x^y");
  auto Sig = computeSignature(Ctx, E, &Vars);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Sig, (std::vector<uint64_t>{0, 1, 1, 0}));
}

TEST(Signature, ConstantSignature) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *E = Ctx.getAdd(X, Ctx.getConst(5)); // x + 5
  std::vector<const Expr *> Vars = {X};
  auto Sig = computeSignature(Ctx, E, Vars);
  // Row x=0: -(5) = -5; row x=-1: -(-1+5) = -4.
  EXPECT_EQ(Sig[0], (uint64_t)-5);
  EXPECT_EQ(Sig[1], (uint64_t)-4);
}

TEST(Signature, Theorem1EquivalenceHolds) {
  Context Ctx(64);
  // The Section 4.2 pair: 2(x|y)-(~x&y)-(x&~y) == (~x&y)+(x&~y)+2(x&y).
  const Expr *E1 = parseOrDie(Ctx, "2*(x|y) - (~x&y) - (x&~y)");
  const Expr *E2 = parseOrDie(Ctx, "(~x&y) + (x&~y) + 2*(x&y)");
  EXPECT_TRUE(linearMBAEquivalent(Ctx, E1, E2));
  // And x - y == (x^y) + 2*(x|~y) + 2 from Example 1.
  const Expr *E3 = parseOrDie(Ctx, "x - y");
  const Expr *E4 = parseOrDie(Ctx, "(x^y) + 2*(x|~y) + 2");
  EXPECT_TRUE(linearMBAEquivalent(Ctx, E3, E4));
  EXPECT_FALSE(linearMBAEquivalent(Ctx, E3, parseOrDie(Ctx, "x + y")));
}

TEST(Signature, DifferentVariableSetsHandled) {
  Context Ctx(64);
  EXPECT_TRUE(linearMBAEquivalent(Ctx, parseOrDie(Ctx, "y + x - y"),
                                  parseOrDie(Ctx, "x")));
}

TEST(Signature, Theorem1AgreesWithRandomEvaluation) {
  // Property: signature equality <=> agreement on random inputs, for random
  // linear MBA pairs built from a shared pool of bitwise terms.
  Context Ctx(16);
  RNG Rng(41);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  std::vector<const Expr *> Pool = {
      X, Y, Ctx.getAnd(X, Y), Ctx.getOr(X, Y), Ctx.getXor(X, Y),
      Ctx.getNot(X), Ctx.getAnd(Ctx.getNot(X), Y)};
  for (int Trial = 0; Trial < 60; ++Trial) {
    auto RandomLinear = [&]() {
      const Expr *E = Ctx.getConst(Rng.below(8));
      for (int T = 0; T < 4; ++T) {
        const Expr *Term = Ctx.getMul(Ctx.getConst(Rng.below(5)),
                                      Pool[Rng.below(Pool.size())]);
        E = Rng.chance(1, 2) ? Ctx.getAdd(E, Term) : Ctx.getSub(E, Term);
      }
      return E;
    };
    const Expr *E1 = RandomLinear();
    const Expr *E2 = RandomLinear();
    bool SigEq = linearMBAEquivalent(Ctx, E1, E2);
    bool EvalEq = true;
    for (int I = 0; I < 256 && EvalEq; ++I) {
      uint64_t Vals[] = {Rng.next() & 0xffff, Rng.next() & 0xffff};
      EvalEq = evaluate(Ctx, E1, Vals) == evaluate(Ctx, E2, Vals);
    }
    // Signature equality is exact; random agreement on 256 samples of a
    // 16-bit space almost surely matches it (inequivalent linear MBA
    // differ on a corner, which random sampling may miss only for equal-
    // on-samples pairs; assert one direction strictly).
    if (SigEq) {
      EXPECT_TRUE(EvalEq);
    }
    if (!EvalEq) {
      EXPECT_FALSE(SigEq);
    }
  }
}

//===----------------------------------------------------------------------===//
// Normalized bases
//===----------------------------------------------------------------------===//

TEST(Basis, ConjunctionBasisExprs) {
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  EXPECT_EQ(printExpr(Ctx, basisExpr(Ctx, BasisKind::Conjunction, 0b100, Vars)),
            "x");
  EXPECT_EQ(printExpr(Ctx, basisExpr(Ctx, BasisKind::Conjunction, 0b011, Vars)),
            "y&z");
  EXPECT_EQ(printExpr(Ctx, basisExpr(Ctx, BasisKind::Conjunction, 0b111, Vars)),
            "x&y&z");
  EXPECT_EQ(printExpr(Ctx, basisExpr(Ctx, BasisKind::Disjunction, 0b110, Vars)),
            "x|y");
}

TEST(Basis, Section43Example) {
  // sig = (0,1,1,2) in the conjunction basis is x + y (all bitwise terms
  // vanish) — the paper's headline linear simplification.
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  const Expr *Vars[] = {X, Y};
  std::vector<uint64_t> Sig = {0, 1, 1, 2};
  LinearCombo Combo = solveBasis(Ctx, BasisKind::Conjunction, Sig, Vars);
  EXPECT_EQ(Combo.Constant, 0u);
  ASSERT_EQ(Combo.Terms.size(), 2u);
  EXPECT_EQ(Combo.Terms[0], (std::pair<uint64_t, const Expr *>{1, X}));
  EXPECT_EQ(Combo.Terms[1], (std::pair<uint64_t, const Expr *>{1, Y}));
}

TEST(Basis, ComboSignatureRoundTrip) {
  // Property: rebuilding an expression from solveBasis output reproduces
  // the original signature, in both bases.
  Context Ctx(32);
  RNG Rng(5);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  for (BasisKind Kind : {BasisKind::Conjunction, BasisKind::Disjunction}) {
    for (int Trial = 0; Trial < 40; ++Trial) {
      std::vector<uint64_t> Sig(8);
      for (auto &S : Sig)
        S = Rng.next() & Ctx.mask();
      LinearCombo Combo = solveBasis(Ctx, Kind, Sig, Vars);
      const Expr *E = buildLinearCombination(Ctx, Combo.Terms, Combo.Constant);
      EXPECT_EQ(computeSignature(Ctx, E, Vars), Sig)
          << printExpr(Ctx, E) << " basis " << (int)Kind;
    }
  }
}

TEST(Basis, Table5Reproduction) {
  // The paper's pre-computed two-variable table (Table 5), row by row:
  // signature -> normalized MBA over {x, y, x&y, -1}.
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  struct Row {
    std::vector<uint64_t> Sig;
    const char *Expected;
  };
  uint64_t M1 = (uint64_t)-1; // the constant -1 in signatures
  const Row Rows[] = {
      // Base vectors.
      {{0, 0, 1, 1}, "x"},
      {{0, 1, 0, 1}, "y"},
      {{0, 0, 0, 1}, "x&y"},
      {{1, 1, 1, 1}, "-1"},
      // Derivative rows.
      {{0, 0, 0, 0}, "0"},
      {{0, 0, 1, 0}, "x-(x&y)"},
      {{0, 1, 0, 0}, "y-(x&y)"},
      {{0, 1, 1, 0}, "x+y-2*(x&y)"},
      {{0, 1, 1, 1}, "x+y-(x&y)"},
      {{1, 0, 0, 0}, "-x-y+(x&y)-1"},
      {{1, 0, 0, 1}, "-x-y+2*(x&y)-1"},
      {{1, 0, 1, 0}, "-y-1"},
      {{1, 0, 1, 1}, "-y+(x&y)-1"},
      {{1, 1, 0, 0}, "-x-1"},
      {{1, 1, 0, 1}, "-x+(x&y)-1"},
      {{1, 1, 1, 0}, "-(x&y)-1"},
  };
  for (const Row &R : Rows) {
    std::vector<uint64_t> Sig = R.Sig;
    for (auto &S : Sig)
      if (S == 1)
        S = 1; // signatures use 1 where the table shows 1
    (void)M1;
    LinearCombo Combo = solveBasis(Ctx, BasisKind::Conjunction, Sig, Vars);
    const Expr *E = buildLinearCombination(Ctx, Combo.Terms, Combo.Constant);
    EXPECT_EQ(printExpr(Ctx, E), R.Expected);
  }
}

TEST(Basis, DisjunctionBasisTable9Shape) {
  // In the Table 9 basis, sig(x&y) = (0,0,0,1) must come out as
  // x + y - (x|y) (inclusion-exclusion).
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  std::vector<uint64_t> Sig = {0, 0, 0, 1};
  LinearCombo Combo = solveBasis(Ctx, BasisKind::Disjunction, Sig, Vars);
  const Expr *E = buildLinearCombination(Ctx, Combo.Terms, Combo.Constant);
  EXPECT_EQ(printExpr(Ctx, E), "x+y-(x|y)");
}

//===----------------------------------------------------------------------===//
// Boolean minimal synthesis
//===----------------------------------------------------------------------===//

TEST(BooleanMin, TwoVariableBasics) {
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  unsigned Cost = 0;
  // Truth bit k corresponds to row k: x^y has rows (0,1,1,0) -> bits 0b0110.
  const Expr *Xor = synthesizeBitwise(Ctx, Vars, 0b0110, &Cost);
  EXPECT_EQ(printExpr(Ctx, Xor), "x^y");
  EXPECT_EQ(Cost, 1u);
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b1000)), "x&y");
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b1110)), "x|y");
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b1100)), "x");
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b0011)), "~x");
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b0000)), "0");
  EXPECT_EQ(printExpr(Ctx, synthesizeBitwise(Ctx, Vars, 0b1111)), "-1");
}

TEST(BooleanMin, AllFunctionsRealizeTheirTruthTable) {
  for (unsigned T = 1; T <= 3; ++T) {
    Context Ctx(8);
    std::vector<const Expr *> Vars;
    for (unsigned I = 0; I != T; ++I)
      Vars.push_back(Ctx.getVar(std::string(1, (char)('a' + I))));
    unsigned Rows = 1u << T;
    for (uint32_t F = 0; F != (1u << Rows); ++F) {
      const Expr *E = synthesizeBitwise(Ctx, Vars, F);
      ASSERT_NE(E, nullptr);
      auto Column = truthColumn(Ctx, E, Vars);
      for (unsigned K = 0; K != Rows; ++K)
        ASSERT_EQ(Column[K], (F >> K) & 1)
            << "t=" << T << " f=" << F << " -> " << printExpr(Ctx, E);
    }
  }
}

TEST(BooleanMin, CostsAreMinimalForKnownFunctions) {
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  unsigned Cost = ~0u;
  synthesizeBitwise(Ctx, Vars, 0b1100, &Cost); // x
  EXPECT_EQ(Cost, 0u);
  synthesizeBitwise(Ctx, Vars, 0b0110, &Cost); // x^y
  EXPECT_EQ(Cost, 1u);
  synthesizeBitwise(Ctx, Vars, 0b1001, &Cost); // ~(x^y)
  EXPECT_EQ(Cost, 2u);
}

} // namespace
