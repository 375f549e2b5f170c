//===- tests/smtlib_test.cpp - SMT-LIB2 export tests ----------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/SmtLib.h"
#include "solvers/SmtLibParser.h"

#include "ast/DotPrinter.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mba;

namespace {

TEST(SmtLib, TermRendering) {
  Context Ctx(64);
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "x")), "x");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "5")), "(_ bv5 64)");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "x+y")), "(bvadd x y)");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "~x")), "(bvnot x)");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "-x")), "(bvneg x)");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "x*y - (x&y)")),
            "(bvsub (bvmul x y) (bvand x y))");
  EXPECT_EQ(toSmtLibTerm(Ctx, parseOrDie(Ctx, "x|y^z")),
            "(bvor x (bvxor y z))");
}

TEST(SmtLib, ConstantsUseContextWidth) {
  Context Ctx(8);
  EXPECT_EQ(toSmtLibTerm(Ctx, Ctx.getAllOnes()), "(_ bv255 8)");
}

TEST(SmtLib, QueryStructure) {
  Context Ctx(32);
  const Expr *A = parseOrDie(Ctx, "x + y");
  const Expr *B = parseOrDie(Ctx, "(x^y) + 2*(x&y)");
  std::string Q = toSmtLibQuery(Ctx, A, B);
  EXPECT_NE(Q.find("(set-logic QF_BV)"), std::string::npos);
  EXPECT_NE(Q.find("(declare-const x (_ BitVec 32))"), std::string::npos);
  EXPECT_NE(Q.find("(declare-const y (_ BitVec 32))"), std::string::npos);
  EXPECT_NE(Q.find("(assert (distinct "), std::string::npos);
  EXPECT_NE(Q.find("(check-sat)"), std::string::npos);
  // Each variable declared exactly once.
  EXPECT_EQ(Q.find("declare-const x"), Q.rfind("declare-const x"));
}

TEST(SmtLib, ExportedIdentityIsUnsatUnderZ3) {
  Context Ctx(64);
  std::string Q = toSmtLibQuery(Ctx, parseOrDie(Ctx, "(x&~y) + y"),
                                parseOrDie(Ctx, "x|y"));
  auto R = solveSmtLibWithZ3(Q, 30);
  if (!R.has_value())
    GTEST_SKIP() << "Z3 unavailable or unknown";
  EXPECT_FALSE(*R) << "identity must be unsat (no counterexample)";
}

TEST(SmtLib, ExportedNonIdentityIsSatUnderZ3) {
  Context Ctx(64);
  std::string Q = toSmtLibQuery(Ctx, parseOrDie(Ctx, "x + y"),
                                parseOrDie(Ctx, "x | y"));
  auto R = solveSmtLibWithZ3(Q, 30);
  if (!R.has_value())
    GTEST_SKIP() << "Z3 unavailable or unknown";
  EXPECT_TRUE(*R) << "non-identity must have a counterexample";
}

TEST(SmtLibParser, ReadsExportedQueriesBack) {
  // Export -> parse round trip preserves semantics of both sides.
  Context Ctx(64);
  const Expr *A = parseOrDie(Ctx, "(x&~y)*(~x&y) + (x&y)*(x|y)");
  const Expr *B = parseOrDie(Ctx, "x*y");
  std::string Script = toSmtLibQuery(Ctx, A, B);

  Context Fresh(64);
  std::string Error;
  auto Q = parseSmtLibQuery(Fresh, Script, &Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  EXPECT_TRUE(Q->IsDistinct);
  EXPECT_EQ(Q->Width, 64u);
  RNG Rng(21);
  for (int I = 0; I < 100; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next()};
    EXPECT_EQ(evaluate(Fresh, Q->Lhs, Vals), evaluate(Ctx, A, Vals));
    EXPECT_EQ(evaluate(Fresh, Q->Rhs, Vals), evaluate(Ctx, B, Vals));
  }
}

TEST(SmtLibParser, AcceptsCommonVariations) {
  Context Ctx(8);
  std::string Error;
  // declare-fun form, n-ary bvadd, hex literal, negated equality.
  const char *Script = R"(
; a comment
(set-logic QF_BV)
(declare-fun x () (_ BitVec 8))
(declare-fun y () (_ BitVec 8))
(assert (not (= (bvadd x y #x01) (bvor x y))))
(check-sat)
)";
  auto Q = parseSmtLibQuery(Ctx, Script, &Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  EXPECT_TRUE(Q->IsDistinct); // not(=) == distinct
  uint64_t Vals[] = {3, 5};
  EXPECT_EQ(evaluate(Ctx, Q->Lhs, Vals), 9u);
  EXPECT_EQ(evaluate(Ctx, Q->Rhs, Vals), 7u);
}

TEST(SmtLibParser, RejectsUnsupportedInput) {
  Context Ctx(64);
  std::string Error;
  EXPECT_FALSE(parseSmtLibQuery(Ctx, "(assert", &Error).has_value());
  EXPECT_FALSE(parseSmtLibQuery(Ctx, "(frobnicate x)", &Error).has_value());
  EXPECT_FALSE(
      parseSmtLibQuery(Ctx, "(assert (bvult x y))", &Error).has_value());
  // Width mismatch with the context.
  EXPECT_FALSE(parseSmtLibQuery(
                   Ctx, "(declare-const x (_ BitVec 8))"
                        "(assert (= x x))",
                   &Error)
                   .has_value());
  EXPECT_NE(Error.find("width"), std::string::npos);
  // No assertion at all.
  EXPECT_FALSE(parseSmtLibQuery(Ctx, "(set-logic QF_BV)", &Error).has_value());
}

/// A distinct query whose lhs nests \p Levels bvadd applications:
/// (bvadd (bvadd ... (bvadd x 1) ... 1) 1).
std::string nestedQuery(unsigned Levels) {
  std::string Lhs;
  for (unsigned I = 0; I != Levels; ++I)
    Lhs += "(bvadd ";
  Lhs += "x";
  for (unsigned I = 0; I != Levels; ++I)
    Lhs += " 1)";
  return "(declare-const x (_ BitVec 64))\n(assert (distinct " + Lhs +
         " x))\n(check-sat)\n";
}

TEST(SmtLibParser, NestingBeyondTheCapIsADiagnostic) {
  // 100k levels used to overflow the recursive s-expression reader.
  Context Ctx(64);
  std::string Error;
  EXPECT_FALSE(parseSmtLibQuery(Ctx, nestedQuery(100000), &Error).has_value());
  EXPECT_NE(Error.find("nesting"), std::string::npos) << Error;
}

TEST(SmtLibParser, ThousandLevelsStillParse) {
  Context Ctx(64);
  std::string Error;
  auto Q = parseSmtLibQuery(Ctx, nestedQuery(1000), &Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  EXPECT_EQ(countDagNodes(Q->Lhs), 1002u); // 1000 sums over x and 1
  uint64_t Vals[] = {5};
  EXPECT_EQ(evaluate(Ctx, Q->Lhs, Vals), 1005u);
}

TEST(DotPrinter, RendersDagStructure) {
  Context Ctx(64);
  const Expr *Shared = parseOrDie(Ctx, "x&y");
  const Expr *E = Ctx.getAdd(Shared, Ctx.getMul(Shared, Ctx.getConst(3)));
  std::string Dot = toDot(Ctx, E, "g");
  EXPECT_NE(Dot.find("digraph g {"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box,label=\"x\""), std::string::npos);
  EXPECT_NE(Dot.find("shape=diamond,label=\"3\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"&\""), std::string::npos);
  // The shared x&y node appears exactly once.
  size_t First = Dot.find("label=\"&\"");
  EXPECT_EQ(Dot.find("label=\"&\"", First + 1), std::string::npos);
  // Node count: x, y, x&y, 3, mul, add = 6 declarations.
  size_t Count = 0, Pos = 0;
  while ((Pos = Dot.find("  n", Pos)) != std::string::npos) {
    size_t Bracket = Dot.find(' ', Pos + 2);
    if (Dot[Bracket + 1] == '[')
      ++Count;
    Pos += 3;
  }
  EXPECT_EQ(Count, 6u);
}

} // namespace
