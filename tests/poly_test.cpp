//===- tests/poly_test.cpp - Polynomial ring tests ------------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "poly/PolyExpr.h"
#include "poly/Polynomial.h"

#include "ast/Evaluator.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

constexpr uint64_t Mask64 = ~0ULL;

TEST(Monomial, ProductMergesExponents) {
  Monomial X = Monomial::atom(0);
  Monomial Y = Monomial::atom(1);
  Monomial XY = X * Y;
  EXPECT_EQ(XY.degree(), 2u);
  Monomial X2Y = XY * X;
  EXPECT_EQ(X2Y.degree(), 3u);
  ASSERT_EQ(X2Y.powers().size(), 2u);
  EXPECT_EQ(X2Y.powers()[0], (std::pair<AtomId, uint32_t>{0, 2}));
  EXPECT_EQ(X2Y.powers()[1], (std::pair<AtomId, uint32_t>{1, 1}));
}

TEST(Monomial, OrderingIsDegreeFirst) {
  Monomial C;                       // 1
  Monomial X = Monomial::atom(0);   // degree 1
  Monomial Y2 = Monomial::atom(1) * Monomial::atom(1);
  EXPECT_LT(C, X);
  EXPECT_LT(X, Y2);
}

TEST(Polynomial, AdditionCollectsAndCancels) {
  Polynomial A = Polynomial::atom(0, Mask64);
  Polynomial B = Polynomial::atom(0, Mask64);
  Polynomial Sum = A + B;
  EXPECT_EQ(Sum.linearCoefficient(0), 2u);
  Polynomial Zero = Sum - Sum;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.asConstant(), std::optional<uint64_t>(0));
}

TEST(Polynomial, MultiplicationExpands) {
  // (x + 1) * (x - 1) = x^2 - 1
  Polynomial X = Polynomial::atom(0, Mask64);
  Polynomial One = Polynomial::constant(1, Mask64);
  Polynomial P = (X + One) * (X - One);
  EXPECT_EQ(P.numTerms(), 2u);
  EXPECT_EQ(P.constantTerm(), Mask64); // -1
  EXPECT_EQ(P.degree(), 2u);
  EXPECT_FALSE(P.isLinear());
}

TEST(Polynomial, ArithmeticWrapsToWidth) {
  uint64_t Mask8 = 0xff;
  Polynomial A = Polynomial::constant(200, Mask8);
  Polynomial B = Polynomial::constant(100, Mask8);
  EXPECT_EQ((A + B).asConstant(), std::optional<uint64_t>((200 + 100) & 0xff));
  EXPECT_EQ((A * B).asConstant(), std::optional<uint64_t>((200 * 100) & 0xff));
}

TEST(Polynomial, ScaledAndNegated) {
  Polynomial X = Polynomial::atom(0, Mask64);
  EXPECT_EQ(X.scaled(3).linearCoefficient(0), 3u);
  EXPECT_EQ(X.negated().linearCoefficient(0), Mask64);
  EXPECT_EQ(X.scaled(0).numTerms(), 0u);
}

TEST(Polynomial, TryMulRespectsCap) {
  // Product of polynomials with many distinct atoms each exceeds the cap
  // only when the term count explodes; small products succeed.
  Polynomial A(Mask64), B(Mask64);
  for (AtomId I = 0; I < 10; ++I) {
    A.addTerm(Monomial::atom(I), 1);
    B.addTerm(Monomial::atom(100 + I), 1);
  }
  auto P = tryMul(A, B);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->numTerms(), 100u);
}

TEST(PolyExpr, PaperSection44Cancellation) {
  // (x - x&y) * (y - x&y) + (x&y) * (x + y - x&y) == x*y after expansion,
  // treating x, y, x&y as atoms — the paper's flagship cancellation.
  Context Ctx(64);
  const Expr *E =
      parseOrDie(Ctx, "(x - (x&y)) * (y - (x&y)) + (x&y) * (x + y - (x&y))");
  AtomMap Atoms;
  auto IsAtom = [](const Expr *N) {
    return N->isVar() || isBitwiseKind(N->kind());
  };
  auto P = exprToPolynomial(Ctx, E, Atoms, IsAtom);
  ASSERT_TRUE(P.has_value());
  const Expr *R = polynomialToExpr(Ctx, *P, Atoms);
  EXPECT_EQ(printExpr(Ctx, R), "x*y");
}

TEST(PolyExpr, RoundTripPreservesSemantics) {
  Context Ctx(64);
  RNG Rng(11);
  const char *Samples[] = {
      "3*x*y - 2*x + y*y*y - 7",
      "(x + y) * (x - y)",
      "-(x*y) + x*y",
      "2*(x&y)*(x&y) - (x&y)",
      "x*(y*(z*(x+1)))",
  };
  auto IsAtom = [](const Expr *N) {
    return N->isVar() || isBitwiseKind(N->kind());
  };
  for (const char *S : Samples) {
    AtomMap Atoms;
    const Expr *E = parseOrDie(Ctx, S);
    auto P = exprToPolynomial(Ctx, E, Atoms, IsAtom);
    ASSERT_TRUE(P.has_value()) << S;
    const Expr *R = polynomialToExpr(Ctx, *P, Atoms);
    for (int I = 0; I < 100; ++I) {
      uint64_t Vals[] = {Rng.next(), Rng.next(), Rng.next()};
      EXPECT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, R, Vals)) << S;
    }
  }
}

TEST(PolyExpr, RejectsBitwiseUnderArithmeticWhenNotAtom) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "(x&y) + 1");
  AtomMap Atoms;
  // Only variables are atoms: the bitwise node is unreachable territory.
  auto P = exprToPolynomial(Ctx, E, Atoms,
                            [](const Expr *N) { return N->isVar(); });
  EXPECT_FALSE(P.has_value());
}

TEST(PolyExpr, ExpansionCapReturnsNullopt) {
  // prod_{i=1..40} (x_i + 1) has 2^40 terms: must hit the cap, not hang.
  Context Ctx(64);
  const Expr *E = nullptr;
  for (int I = 0; I < 40; ++I) {
    const Expr *F =
        Ctx.getAdd(Ctx.getVar("v" + std::to_string(I)), Ctx.getOne());
    E = E ? Ctx.getMul(E, F) : F;
  }
  AtomMap Atoms;
  auto P = exprToPolynomial(Ctx, E, Atoms,
                            [](const Expr *N) { return N->isVar(); });
  EXPECT_FALSE(P.has_value());
}

TEST(PolyExpr, HundredThousandLevelChainConvertsWithoutRecursion) {
  // (e*3)+k, 50,000 times: 100,000 arithmetic levels above x. A converter
  // that recursed once per level overflowed the stack at a fifth of this.
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *E = X;
  uint64_t Scale = 1, Offset = 0;
  for (uint64_t K = 0; K < 50000; ++K) {
    E = Ctx.getAdd(Ctx.getMul(E, Ctx.getConst(3)), Ctx.getConst(K));
    Scale *= 3;
    Offset = Offset * 3 + K;
  }
  AtomMap Atoms;
  auto P = exprToPolynomial(Ctx, E, Atoms,
                            [](const Expr *N) { return N->isVar(); });
  ASSERT_TRUE(P.has_value());
  ASSERT_EQ(Atoms.size(), 1u);
  // The result is Scale*x + Offset (mod 2^64).
  EXPECT_EQ(P->numTerms(), 2u);
  EXPECT_EQ(P->linearCoefficient(0), Scale);
  EXPECT_EQ(P->constantTerm(), Offset);
}

TEST(PolyExpr, BuildLinearCombinationFormatting) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  const Expr *AndXY = Ctx.getAnd(X, Y);
  // x + y - 2*(x&y)
  const Expr *E = buildLinearCombination(
      Ctx, {{1, X}, {1, Y}, {(uint64_t)-2, AndXY}}, 0);
  EXPECT_EQ(printExpr(Ctx, E), "x+y-2*(x&y)");
  // Constant-only and zero cases.
  EXPECT_EQ(printExpr(Ctx, buildLinearCombination(Ctx, {}, (uint64_t)-1)),
            "-1");
  EXPECT_EQ(printExpr(Ctx, buildLinearCombination(Ctx, {}, 0)), "0");
  // Leading negative term renders with unary minus.
  const Expr *F = buildLinearCombination(Ctx, {{(uint64_t)-1, X}}, 1);
  EXPECT_EQ(printExpr(Ctx, F), "-x+1");
}

TEST(PolyExpr, PolynomialToExprZero) {
  Context Ctx(64);
  AtomMap Atoms;
  Polynomial Zero(Mask64);
  EXPECT_EQ(polynomialToExpr(Ctx, Zero, Atoms), Ctx.getZero());
}

} // namespace
