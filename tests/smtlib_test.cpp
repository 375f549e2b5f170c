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
#include "ast/Printer.h"
#include "gen/Corpus.h"
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

  // Input that used to be misread instead of rejected. Each case names a
  // word its diagnostic must contain.
  auto Rejects = [](unsigned Width, const std::string &Script,
                    const char *Needle) {
    Context C(Width);
    std::string Err;
    EXPECT_FALSE(parseSmtLibQuery(C, Script, &Err).has_value()) << Script;
    EXPECT_NE(Err.find(Needle), std::string::npos) << Script << ": " << Err;
  };
  auto Query = [](unsigned Width, const std::string &Lhs) {
    return "(declare-const x (_ BitVec " + std::to_string(Width) +
           "))(assert (distinct " + Lhs + " x))";
  };
  // An undeclared symbol was a fresh variable.
  Rejects(64, Query(64, "(bvand x y)"), "undeclared symbol 'y'");
  // #xZZ read as 0, 12abc as 12.
  Rejects(8, Query(8, "#xZZ"), "malformed literal");
  Rejects(64, Query(64, "(bvadd x 12abc)"), "malformed numeral");
  // A declared width with trailing bytes read as its leading digits.
  Rejects(64, "(declare-const x (_ BitVec 64x))(assert (= x x))",
          "malformed bit-vector width");
  // A symbol name the exporter could not write back.
  Rejects(64, "(declare-const |x| (_ BitVec 64))(assert (= |x| |x|))",
          "unsupported symbol name");
}

TEST(SmtLibParser, LiteralsFollowTheScriptWidth) {
  // #b literals are constants: (distinct (bvand x #b1111) x) at width 4
  // compares x&15 with x, not x with a fresh variable named #b1111.
  Context Ctx(4);
  std::string Error;
  auto Q = parseSmtLibQuery(Ctx,
                            "(declare-const x (_ BitVec 4))"
                            "(assert (distinct (bvand x #b1111) x))",
                            &Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  EXPECT_EQ(Q->Lhs, Ctx.getAnd(Ctx.getVar("x"), Ctx.getConst(15)))
      << printExpr(Ctx, Q->Lhs);

  // Each literal reads as Value, or, when Needle is set, is rejected with
  // a diagnostic containing Needle.
  struct Case {
    unsigned Width;
    const char *Literal;
    uint64_t Value;
    const char *Needle;
  };
  const Case Cases[] = {
      {4, "#b0101", 5, ""},
      {4, "#x5", 5, ""},
      {4, "5", 5, ""},
      {4, "(_ bv5 4)", 5, ""},
      {8, "#x0f", 15, ""},
      {8, "#xF0", 240, ""},
      {64, "18446744073709551615", ~0ULL, ""},
      {64, "#xffffffffffffffff", ~0ULL, ""},
      // SMT-LIB gives #b and #x literals the width of their digits.
      {4, "#b101", 0, "has 3 bits"},
      {4, "#b01010", 0, "has 5 bits"},
      {4, "#x05", 0, "has 8 bits"},
      {8, "#x1", 0, "has 4 bits"},
      {64, "#x1ffffffffffffffff", 0, "has 68 bits"},
      // Values of 2^w or more do not wrap.
      {4, "16", 0, "does not fit"},
      {4, "(_ bv16 4)", 0, "does not fit"},
      {64, "18446744073709551616", 0, "malformed numeral"},
      // A literal of another width.
      {4, "(_ bv1 8)", 0, "script width 4"},
      {4, "(_ bv1 4x)", 0, "malformed literal"},
  };
  for (const Case &C : Cases) {
    Context W(C.Width);
    std::string Script = "(declare-const x (_ BitVec " +
                         std::to_string(C.Width) + "))(assert (= " +
                         C.Literal + " x))";
    std::string Err;
    auto R = parseSmtLibQuery(W, Script, &Err);
    if (*C.Needle) {
      EXPECT_FALSE(R.has_value()) << Script;
      EXPECT_NE(Err.find(C.Needle), std::string::npos) << Script << ": " << Err;
    } else {
      ASSERT_TRUE(R.has_value()) << Script << ": " << Err;
      EXPECT_EQ(R->Lhs, W.getConst(C.Value)) << Script;
    }
  }
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

/// The reader's contract on one script: it never crashes, a rejected
/// script gets a diagnostic, and an accepted one exports to a script that
/// reads back to the same nodes. Returns whether \p Script was accepted.
bool expectReaderContract(Context &Ctx, const std::string &Script) {
  std::string Error;
  auto Q = parseSmtLibQuery(Ctx, Script, &Error);
  if (!Q) {
    EXPECT_FALSE(Error.empty()) << Script;
    return false;
  }
  std::string Again = toSmtLibQuery(Ctx, Q->Lhs, Q->Rhs);
  auto R = parseSmtLibQuery(Ctx, Again, &Error);
  EXPECT_TRUE(R.has_value()) << Error << "\n" << Again;
  if (R) {
    EXPECT_EQ(R->Lhs, Q->Lhs) << Script;
    EXPECT_EQ(R->Rhs, Q->Rhs) << Script;
  }
  return true;
}

TEST(SmtLibParser, MutatedExportedQueriesKeepTheContract) {
  // Seed-1 corpus queries as toSmtLibQuery exports them, then every
  // truncation, seeded byte flips and insertions, nesting around the cap
  // and oversized literals.
  Context Gen(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 2;
  Opts.Seed = 1;
  Opts.IncludeSeedIdentities = false;
  std::vector<std::string> Samples;
  for (const CorpusEntry &E : generateCorpus(Gen, Opts))
    Samples.push_back(toSmtLibQuery(Gen, E.Obfuscated, E.Ground));
  ASSERT_GE(Samples.size(), 6u);

  Context Ctx(64);
  for (const std::string &S : Samples)
    ASSERT_TRUE(parseSmtLibQuery(Ctx, S).has_value()) << S;
  RNG Rng(1);
  const std::string Alphabet("() _#bvx019aFZ;|\"\n\t\0\xff", 21);
  size_t Accepted = 0, Rejected = 0;
  auto Check = [&](const std::string &Script) {
    ++(expectReaderContract(Ctx, Script) ? Accepted : Rejected);
  };
  for (const std::string &S : Samples) {
    for (size_t Len = 0; Len <= S.size(); ++Len)
      Check(S.substr(0, Len));
    for (size_t I = 0; I != S.size(); ++I) {
      std::string Flipped = S;
      Flipped[I] = (char)(Flipped[I] ^ (1u << Rng.below(8)));
      Check(Flipped);
      std::string Inserted = S;
      Inserted.insert(I, 1, Alphabet[Rng.below(Alphabet.size())]);
      Check(Inserted);
    }
  }
  // Both sides of the contract were exercised.
  EXPECT_GT(Accepted, 100u);
  EXPECT_GT(Rejected, 100u);

  // The cap is 2048 nested lists; the assert and distinct lists are two.
  for (unsigned Levels : {2047u, 2048u, 2049u}) {
    std::string Lhs;
    for (unsigned I = 2; I != Levels; ++I)
      Lhs += "(bvnot ";
    Lhs += "x" + std::string(Levels - 2, ')');
    std::string Script = "(declare-const x (_ BitVec 64))\n(assert (distinct " +
                         Lhs + " x))\n";
    expectReaderContract(Ctx, Script);
    std::string Error;
    EXPECT_EQ(parseSmtLibQuery(Ctx, Script, &Error).has_value(),
              Levels <= 2048)
        << Levels << ": " << Error;
  }

  const std::string Huge[] = {
      "18446744073709551616",
      "99999999999999999999999999999999",
      "#x" + std::string(17, 'f'),
      "#x1" + std::string(16, '0'),
      "#b" + std::string(65, '1'),
      "(_ bv18446744073709551616 64)",
      "(_ bv1 18446744073709551680)",
      "(_ bv18446744073709551615 8)",
  };
  for (unsigned Width : {64u, 8u}) {
    Context Narrow(Width);
    std::string Decl = "(declare-const x (_ BitVec " + std::to_string(Width) +
                       "))\n";
    for (const std::string &C : Huge) {
      std::string Script = Decl + "(assert (= (bvadd x " + C + ") x))\n";
      expectReaderContract(Narrow, Script);
      EXPECT_FALSE(parseSmtLibQuery(Narrow, Script).has_value()) << Script;
    }
    expectReaderContract(
        Narrow, "(declare-const x (_ BitVec 18446744073709551680))\n"
                "(assert (= x x))\n");
  }
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
