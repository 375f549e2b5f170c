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

#include <map>
#include <vector>

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

/// The coefficient map Polynomial was first written as: every operation is
/// a sequence of addTerm calls into a std::map ordered by Monomial's
/// operator<. The flat representation must agree with it term for term,
/// in iteration order.
class MapPolynomial {
public:
  explicit MapPolynomial(uint64_t Mask) : Mask(Mask) {}

  void addTerm(const Monomial &M, uint64_t Coeff) {
    Coeff &= Mask;
    if (!Coeff)
      return;
    auto [It, Inserted] = Terms.emplace(M, Coeff);
    if (Inserted)
      return;
    It->second = (It->second + Coeff) & Mask;
    if (!It->second)
      Terms.erase(It);
  }
  MapPolynomial plus(const MapPolynomial &O, bool Minus) const {
    MapPolynomial R = *this;
    for (auto &[M, C] : O.Terms)
      R.addTerm(M, Minus ? 0 - C : C);
    return R;
  }
  MapPolynomial times(const MapPolynomial &O) const {
    MapPolynomial R(Mask);
    for (auto &[MA, CA] : Terms)
      for (auto &[MB, CB] : O.Terms)
        R.addTerm(MA * MB, CA * CB);
    return R;
  }
  MapPolynomial scaled(uint64_t C) const {
    MapPolynomial R(Mask);
    for (auto &[M, Coeff] : Terms)
      R.addTerm(M, Coeff * C);
    return R;
  }

  uint64_t Mask;
  std::map<Monomial, uint64_t> Terms;
};

std::vector<std::pair<Monomial, uint64_t>> termsOf(const Polynomial &P) {
  std::vector<std::pair<Monomial, uint64_t>> Out;
  for (auto &[M, C] : P.terms())
    Out.push_back({M, C});
  return Out;
}

std::vector<std::pair<Monomial, uint64_t>> termsOf(const MapPolynomial &P) {
  return {P.Terms.begin(), P.Terms.end()};
}

/// Checks every observer of \p P against the reference \p Ref.
void expectSame(const Polynomial &P, const MapPolynomial &Ref,
                unsigned MaxAtom) {
  ASSERT_EQ(termsOf(P), termsOf(Ref));
  EXPECT_EQ(P.numTerms(), Ref.Terms.size());
  EXPECT_EQ(P.isZero(), Ref.Terms.empty());
  auto Find = [&](const Monomial &M) -> uint64_t {
    auto It = Ref.Terms.find(M);
    return It == Ref.Terms.end() ? 0 : It->second;
  };
  EXPECT_EQ(P.constantTerm(), Find(Monomial()));
  for (AtomId A = 0; A <= MaxAtom; ++A)
    EXPECT_EQ(P.linearCoefficient(A), Find(Monomial::atom(A)));
  unsigned Degree = 0;
  bool Linear = true;
  for (auto &[M, C] : Ref.Terms) {
    Degree = std::max(Degree, M.degree());
    Linear &= M.degree() <= 1;
  }
  EXPECT_EQ(P.degree(), Degree);
  EXPECT_EQ(P.isLinear(), Linear);
  std::optional<uint64_t> Const;
  if (Ref.Terms.empty())
    Const = 0;
  else if (Ref.Terms.size() == 1 && Ref.Terms.begin()->first.isConstant())
    Const = Ref.Terms.begin()->second;
  EXPECT_EQ(P.asConstant(), Const);
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

  // 128 x 128 distinct linear terms make exactly MaxPolynomialTerms
  // products and pass; one more term on either side exceeds the cap.
  Polynomial C(Mask64), D(Mask64);
  MapPolynomial RC(Mask64), RD(Mask64);
  for (AtomId I = 0; I < 128; ++I) {
    C.addTerm(Monomial::atom(I), I + 1);
    RC.addTerm(Monomial::atom(I), I + 1);
    D.addTerm(Monomial::atom(1000 + I), 3 * I + 2);
    RD.addTerm(Monomial::atom(1000 + I), 3 * I + 2);
  }
  P = tryMul(C, D);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->numTerms(), MaxPolynomialTerms);
  EXPECT_EQ(termsOf(*P), termsOf(RC.times(RD)));
  C.addTerm(Monomial(), 7);
  EXPECT_FALSE(tryMul(C, D).has_value());
  EXPECT_FALSE(tryMul(D, C).has_value());
}

TEST(Polynomial, MatchesTheMapReferenceOnRandomArithmetic) {
  constexpr unsigned MaxAtom = 4;
  for (unsigned Width : {3u, 8u, 64u}) {
    uint64_t Mask = Width == 64 ? ~0ULL : (1ULL << Width) - 1;
    RNG Rng(99 + Width);
    // Coefficients that cancel often: small values, their negations and
    // multiples of high powers of two, which vanish under scaling.
    auto Coeff = [&]() -> uint64_t {
      switch (Rng.below(4)) {
      case 0:
        return 1 + Rng.below(3);
      case 1:
        return 0 - (1 + Rng.below(3));
      case 2:
        return 1ULL << Rng.below(Width);
      default:
        return Rng.next();
      }
    };
    auto RandomMonomial = [&] {
      Monomial M;
      for (unsigned D = (unsigned)Rng.below(4); D; --D)
        M = M * Monomial::atom((AtomId)Rng.below(MaxAtom + 1));
      return M;
    };
    auto Random = [&](Polynomial &P, MapPolynomial &Ref) {
      for (unsigned N = (unsigned)Rng.below(12); N; --N) {
        Monomial M = RandomMonomial();
        uint64_t C = Coeff();
        P.addTerm(M, C);
        Ref.addTerm(M, C);
      }
    };
    for (int Trial = 0; Trial < 300; ++Trial) {
      Polynomial A(Mask), B(Mask);
      MapPolynomial RA(Mask), RB(Mask);
      Random(A, RA);
      Random(B, RB);
      // Share some terms so that sums and differences cancel.
      if (Rng.chance(1, 2))
        for (auto &[M, C] : termsOf(RA)) {
          B.addTerm(M, 0 - C);
          RB.addTerm(M, 0 - C);
        }
      expectSame(A, RA, MaxAtom);
      expectSame(B, RB, MaxAtom);
      expectSame(A + B, RA.plus(RB, false), MaxAtom);
      expectSame(A - B, RA.plus(RB, true), MaxAtom);
      expectSame(A - A, MapPolynomial(Mask), MaxAtom);
      expectSame(A * B, RA.times(RB), MaxAtom);
      expectSame(A.negated(), RA.scaled(Mask), MaxAtom);
      uint64_t C = Coeff();
      expectSame(A.scaled(C), RA.scaled(C), MaxAtom);
      expectSame(A.scaled(0), MapPolynomial(Mask), MaxAtom);
      std::optional<Polynomial> P = tryMul(A, B);
      ASSERT_TRUE(P.has_value());
      expectSame(*P, RA.times(RB), MaxAtom);
    }
  }
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
