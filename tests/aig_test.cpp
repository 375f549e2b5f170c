//===- tests/aig_test.cpp - AIG layer and bit-blasting backend tests ------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aig/Aig.h"
#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"

#include "ast/BitslicedEval.h"
#include "ast/Evaluator.h"
#include "ast/Parser.h"
#include "gen/Corpus.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Json.h"
#include "support/QueryLog.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mba;
using namespace mba::aig;

namespace {

//===----------------------------------------------------------------------===//
// Core graph: strashing, constant propagation, two-level rewriting
//===----------------------------------------------------------------------===//

TEST(AigCore, ConstantAndTrivialRules) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput();
  EXPECT_EQ(G.mkAnd(A, Aig::falseLit()), Aig::falseLit());
  EXPECT_EQ(G.mkAnd(Aig::trueLit(), B), B);
  EXPECT_EQ(G.mkAnd(A, Aig::trueLit()), A);
  EXPECT_EQ(G.mkAnd(A, A), A);
  EXPECT_EQ(G.mkAnd(A, ~A), Aig::falseLit());
  EXPECT_EQ(G.stats().AndNodes, 0u); // nothing above built a node
  EXPECT_GE(G.stats().ConstFolds, 2u);
}

TEST(AigCore, StructuralHashingDedupsAcrossOperandOrder) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput();
  AigLit N1 = G.mkAnd(A, B);
  AigLit N2 = G.mkAnd(B, A);
  AigLit N3 = G.mkAnd(A, B);
  EXPECT_EQ(N1, N2);
  EXPECT_EQ(N1, N3);
  EXPECT_EQ(G.stats().AndNodes, 1u);
  EXPECT_EQ(G.stats().StrashHits, 2u);
}

TEST(AigCore, TwoLevelRewriteRules) {
  Aig G;
  AigLit X = G.mkInput(), Y = G.mkInput();
  AigLit XY = G.mkAnd(X, Y);

  // Idempotence/absorption: (x&y) & x == x&y.
  EXPECT_EQ(G.mkAnd(XY, X), XY);
  EXPECT_EQ(G.mkAnd(Y, XY), XY);
  // Contradiction: (x&y) & ~x == false.
  EXPECT_EQ(G.mkAnd(XY, ~X), Aig::falseLit());
  // Subsumption: ~(x&y) & ~x == ~x.
  EXPECT_EQ(G.mkAnd(~XY, ~X), ~X);
  // Substitution: ~(x&y) & x == x & ~y.
  AigLit XNotY = G.mkAnd(X, ~Y);
  EXPECT_EQ(G.mkAnd(~XY, X), XNotY);
  // Resolution: ~(x&y) & ~(x&~y) == ~x.
  EXPECT_EQ(G.mkAnd(~XY, ~XNotY), ~X);
  // Contradiction across grandchildren: (x&y) & (x&~y) == false.
  EXPECT_EQ(G.mkAnd(XY, XNotY), Aig::falseLit());
  EXPECT_GE(G.stats().Rewrites, 7u);
}

TEST(AigCore, MiterOfIdenticalStructureIsConstantFalse) {
  // The whole point of strashing for equivalence checking: both sides of
  // x&y vs y&x produce the same node, so the miter folds to false.
  Aig G;
  AigBlaster B(G, 8);
  auto X = B.freshWord(), Y = B.freshWord();
  auto L = B.bvAdd(X, Y);
  auto R = B.bvAdd(Y, X);
  EXPECT_EQ(B.disequalLit(L, R), Aig::falseLit());
}

TEST(AigCore, XorMuxDetection) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput(), S = G.mkInput();
  AigLit X = G.mkXor(A, B);
  ASSERT_TRUE(X.complemented()); // xor is built as ~(~(a&~b) & ~(~a&b))
  XorMux MX = G.matchXorMux(X.node());
  EXPECT_EQ(MX.K, XorMux::Xor);

  AigLit M = G.mkMux(S, A, B);
  XorMux MM = G.matchXorMux(M.node());
  EXPECT_EQ(MM.K, XorMux::Mux);

  AigLit Plain = G.mkAnd(A, B);
  EXPECT_EQ(G.matchXorMux(Plain.node()).K, XorMux::None);
}

TEST(AigCore, SimulateTruthTables) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput();
  AigLit And = G.mkAnd(A, B), Or = G.mkOr(A, B), Xor = G.mkXor(A, B);
  uint64_t PA = 0b0101, PB = 0b0011;
  std::vector<uint64_t> V;
  G.simulate(std::vector<uint64_t>{PA, PB}, V);
  uint64_t M = 0xF; // 4 lanes of interest
  EXPECT_EQ(Aig::simValue(V, And) & M, PA & PB);
  EXPECT_EQ(Aig::simValue(V, Or) & M, (PA | PB) & M);
  EXPECT_EQ(Aig::simValue(V, Xor) & M, (PA ^ PB) & M);
  EXPECT_EQ(Aig::simValue(V, ~And) & M, ~(PA & PB) & M);
  EXPECT_EQ(Aig::simValue(V, Aig::trueLit()) & M, M);
  EXPECT_EQ(Aig::simValue(V, Aig::falseLit()) & M, 0u);
}

//===----------------------------------------------------------------------===//
// Levels: Plain builds every gate, Strash only folds and hashes
//===----------------------------------------------------------------------===//

TEST(BitBlasterTest, PlainModeCreatesFreshGates) {
  Aig G(AigLevel::Plain);
  AigLit X = G.mkInput(), Y = G.mkInput();
  AigLit G1 = G.mkAnd(X, Y);
  AigLit G2 = G.mkAnd(X, Y);
  EXPECT_NE(G1, G2);
  // Not even constants fold.
  EXPECT_NE(G.mkAnd(X, Aig::trueLit()), X);
  EXPECT_NE(G.mkAnd(X, Aig::falseLit()), Aig::falseLit());
  EXPECT_EQ(G.stats().AndNodes, 4u);
  EXPECT_EQ(G.stats().ConstFolds, 0u);
}

TEST(BitBlasterTest, RewritingFoldsConstantGates) {
  Aig G(AigLevel::Strash);
  AigLit T = Aig::trueLit(), F = Aig::falseLit();
  EXPECT_EQ(G.mkAnd(T, T), T);
  EXPECT_EQ(G.mkAnd(T, F), F);
  EXPECT_EQ(G.mkXor(T, T), F);
  EXPECT_EQ(G.mkXor(T, F), T);
  AigLit X = G.mkInput();
  EXPECT_EQ(G.mkAnd(X, X), X);
  EXPECT_EQ(G.mkAnd(X, ~X), F);
  EXPECT_EQ(G.mkXor(X, X), F);
  EXPECT_EQ(G.mkXor(X, ~X), T);
  EXPECT_EQ(G.mkXor(X, F), X);
  EXPECT_EQ(G.mkXor(T, X), ~X);
  EXPECT_EQ(G.stats().AndNodes, 0u); // everything folded
}

TEST(BitBlasterTest, StructuralHashingSharesGates) {
  Aig G(AigLevel::Strash);
  AigLit X = G.mkInput(), Y = G.mkInput();
  AigLit G1 = G.mkAnd(X, Y);
  AigLit G2 = G.mkAnd(Y, X); // commuted: must hit the hash
  EXPECT_EQ(G1, G2);
  EXPECT_EQ(G.stats().AndNodes, 1u);
  // XOR polarity normalisation: xor(~x, y) == ~xor(x, y), one gate for all.
  AigLit X1 = G.mkXor(X, Y);
  EXPECT_EQ(G.mkXor(~X, Y), ~X1);
  EXPECT_EQ(G.mkXor(Y, ~X), ~X1);
  EXPECT_EQ(G.mkXor(~X, ~Y), X1);
  EXPECT_EQ(G.stats().AndNodes, 4u);
  // No two-level rewriting: (x&y) & x is a new gate, not x&y.
  EXPECT_NE(G.mkAnd(G1, X), G1);
  EXPECT_EQ(G.stats().Rewrites, 0u);
}

//===----------------------------------------------------------------------===//
// CNF emission
//===----------------------------------------------------------------------===//

/// Pins AIG input \p In to SAT value \p Value through the emitter's input
/// variable.
void pinInput(sat::SatSolver &S, CnfEmitter &Em, AigLit In, bool Value) {
  sat::Lit L = Em.emit(In);
  S.addClause({Value ? L : ~L});
}

TEST(AigCnf, EmitterAgreesWithSimulation) {
  // Every (a, b, sel) corner of a mixed xor/mux/and cone: pin the inputs,
  // solve, and compare the forced root value against simulation.
  for (unsigned Corner = 0; Corner != 8; ++Corner) {
    bool AV = Corner & 1, BV = Corner & 2, SV = Corner & 4;
    Aig G;
    AigLit A = G.mkInput(), B = G.mkInput(), S = G.mkInput();
    AigLit Root = G.mkAnd(G.mkXor(A, B), ~G.mkMux(S, A, ~B));

    std::vector<uint64_t> Values;
    G.simulate(std::vector<uint64_t>{AV ? ~0ULL : 0, BV ? ~0ULL : 0,
                                     SV ? ~0ULL : 0},
               Values);
    bool Expected = Aig::simValue(Values, Root) & 1;

    sat::SatSolver Solver;
    CnfEmitter Em(G, Solver);
    sat::Lit RootLit = Em.emit(Root);
    pinInput(Solver, Em, A, AV);
    pinInput(Solver, Em, B, BV);
    pinInput(Solver, Em, S, SV);
    ASSERT_EQ(Solver.solve(), sat::SatResult::Sat);
    EXPECT_EQ(Solver.modelValue(RootLit.var()) != RootLit.negated(), Expected)
        << "corner " << Corner;
  }
}

TEST(AigCnf, IncrementalEmissionReusesEncodedCone) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput(), C = G.mkInput();
  AigLit N1 = G.mkAnd(A, B);

  sat::SatSolver S;
  CnfEmitter Em(G, S);
  sat::Lit L1 = Em.emit(N1);
  unsigned VarsAfterFirst = S.numVars();

  // Same root again: answered from the map, no new variables.
  sat::Lit L1Again = Em.emit(N1);
  EXPECT_EQ(L1, L1Again);
  EXPECT_EQ(S.numVars(), VarsAfterFirst);
  EXPECT_GE(Em.cacheHits(), 1u);

  // A root sharing the cone: only the new node and input get variables.
  AigLit N2 = G.mkAnd(N1, C);
  Em.emit(N2);
  EXPECT_EQ(S.numVars(), VarsAfterFirst + 2);
}

TEST(AigCnf, NodeOrderNumbersTheConeInConstructionOrder) {
  Aig G;
  AigLit A = G.mkInput(), B = G.mkInput(), C = G.mkInput();
  AigLit Dead = G.mkAnd(A, C); // built, but outside the root's cone
  AigLit AB = G.mkAnd(A, B);
  AigLit Root = G.mkAnd(AB, ~C);
  ASSERT_LT(Dead.node(), AB.node());

  sat::SatSolver S;
  CnfEmitter Em(G, S);
  sat::Lit RootLit = Em.emit(Root);
  // Inputs a, b, c, then a&b, then the root: the dead gate gets nothing.
  EXPECT_EQ(S.numVars(), 5u);
  EXPECT_EQ(Em.emit(A).var(), 0u);
  EXPECT_EQ(Em.emit(C).var(), 2u);
  EXPECT_EQ(Em.emit(AB).var(), 3u);
  EXPECT_EQ(RootLit.var(), 4u);
  EXPECT_EQ(S.numVars(), 5u);
}

//===----------------------------------------------------------------------===//
// Exhaustive width-<=6 agreement: AIG vs interpreter vs BitslicedEval
//===----------------------------------------------------------------------===//

/// All ops the MBA language can produce, as parseable expressions.
const char *const OpExprs[] = {"x+y", "x-y", "x*y", "x&y",
                               "x|y", "x^y", "~x",  "-x"};

/// Every level/encoding pair: the three backends' profiles and the rest.
struct BlastConfig {
  AigLevel Level;
  Encoding Enc;
};
const BlastConfig AllConfigs[] = {
    {AigLevel::Plain, Encoding::Ripple},  {AigLevel::Plain, Encoding::Prefix},
    {AigLevel::Strash, Encoding::Ripple}, {AigLevel::Strash, Encoding::Prefix},
    {AigLevel::Full, Encoding::Ripple},   {AigLevel::Full, Encoding::Prefix},
};

TEST(AigWord, ExhaustiveAgreementUpToWidth6) {
  for (unsigned W = 1; W <= 6; ++W) {
    uint64_t Mask = (1ULL << W) - 1;
    unsigned NumVals = 1u << W; // <= 64, one simulation lane per y value
    for (const char *Text : OpExprs) {
      for (const BlastConfig &Cfg : AllConfigs) {
        Context Ctx(W);
        const Expr *E = parseOrDie(Ctx, Text);
        const Expr *XV = Ctx.getVar("x");
        const Expr *YV = Ctx.getVar("y");

        Aig G(Cfg.Level);
        AigBlaster AB(G, W, Cfg.Enc);
        ExprAig EA(AB);
        AigBlaster::Word R = EA.blast(E);
        BitslicedExpr Sliced(Ctx, E);

        for (uint64_t A = 0; A != NumVals; ++A) {
          // Lane k simulates y = k; x is the broadcast constant A.
          std::vector<uint64_t> Patterns(G.numInputs(), 0);
          const AigBlaster::Word &XW = EA.inputWord(XV);
          for (unsigned I = 0; I != W; ++I)
            Patterns[G.inputOrdinal(XW[I].node())] =
                (A >> I) & 1 ? ~0ULL : 0;
          if (std::string_view(Text).find('y') != std::string_view::npos) {
            const AigBlaster::Word &YW = EA.inputWord(YV);
            for (unsigned I = 0; I != W; ++I) {
              uint64_t Pattern = 0;
              for (uint64_t BVal = 0; BVal != NumVals; ++BVal)
                Pattern |= ((BVal >> I) & 1) << BVal;
              Patterns[G.inputOrdinal(YW[I].node())] = Pattern;
            }
          }
          std::vector<uint64_t> Values;
          G.simulate(Patterns, Values);

          // Reference lanes from the bitsliced evaluator.
          std::vector<uint64_t> XLanes(NumVals, A), YLanes(NumVals);
          for (uint64_t BVal = 0; BVal != NumVals; ++BVal)
            YLanes[BVal] = BVal;
          const uint64_t *Lanes[2] = {XLanes.data(), YLanes.data()};
          std::vector<uint64_t> Ref = Sliced.evaluatePoints(Lanes, NumVals);

          for (uint64_t BVal = 0; BVal != NumVals; ++BVal) {
            uint64_t AigVal = 0;
            for (unsigned I = 0; I != W; ++I)
              AigVal |= ((Aig::simValue(Values, R[I]) >> BVal) & 1) << I;
            uint64_t Inputs[2] = {A, BVal};
            uint64_t Interp = evaluate(Ctx, E, Inputs);
            EXPECT_EQ(AigVal, Interp & Mask)
                << Text << " W=" << W << " x=" << A << " y=" << BVal
                << " level=" << (int)Cfg.Level << " enc=" << (int)Cfg.Enc;
            EXPECT_EQ(Ref[BVal] & Mask, Interp & Mask)
                << Text << " W=" << W << " x=" << A << " y=" << BVal;
          }
        }
      }
    }
  }
}
/// SAT-proves the ripple-carry/shift-and-add/chained-miter encodings equal
/// the prefix/carry-save/tree ones over ALL inputs: both circuits hang off
/// the same input nodes of one Plain-level AIG (so nothing is shared or
/// folded away), and the miter must come back UNSAT.
TEST(AigWord, CrossEncodingEquivalenceWithRippleCarry) {
  enum OpKind { Add, Sub, Mul, Neg, Cmp };
  for (unsigned W = 1; W <= 6; ++W) {
    for (OpKind Op : {Add, Sub, Mul, Neg, Cmp}) {
      Aig G(AigLevel::Plain);
      AigBlaster Ripple(G, W, Encoding::Ripple);
      AigBlaster Prefix(G, W, Encoding::Prefix);
      AigBlaster::Word X = Ripple.freshWord(), Y = Ripple.freshWord();
      auto Build = [&](AigBlaster &B) {
        return Op == Add   ? B.bvAdd(X, Y)
               : Op == Sub ? B.bvSub(X, Y)
               : Op == Mul ? B.bvMul(X, Y)
                           : B.bvNeg(X);
      };
      AigLit Miter =
          Op == Cmp ? G.mkXor(Ripple.disequalLit(X, Y),
                              Prefix.disequalLit(X, Y))
                    : Prefix.disequalLit(Build(Ripple), Build(Prefix));

      sat::SatSolver S;
      CnfEmitter Em(G, S);
      S.addClause({Em.emit(Miter)}); // some bit differs somewhere?
      EXPECT_EQ(S.solve(), sat::SatResult::Unsat)
          << "op " << (int)Op << " width " << W;
    }
  }
}

//===----------------------------------------------------------------------===//
// The BlastBV / BlastBV+RW circuits through CNF and SAT
//===----------------------------------------------------------------------===//

/// One ripple-encoded word builder over a fresh graph and emitter: Plain
/// for the BlastBV profile, Strash (\p Rewriting) for BlastBV+RW.
struct RippleProfile {
  Aig G;
  AigBlaster B;
  CnfEmitter Em;

  RippleProfile(sat::SatSolver &S, unsigned Width, bool Rewriting)
      : G(Rewriting ? AigLevel::Strash : AigLevel::Plain),
        B(G, Width, Encoding::Ripple), Em(G, S) {}

  /// Encodes \p W so modelWord() can read it after solving.
  void emitWord(const AigBlaster::Word &W) {
    for (AigLit L : W)
      Em.emit(L);
  }

  /// The model value of an emitted word as an integer.
  uint64_t modelWord(const sat::SatSolver &S, const AigBlaster::Word &W) {
    uint64_t V = 0;
    for (unsigned I = 0; I != W.size(); ++I) {
      sat::Lit L = Em.emit(W[I]);
      if (S.modelValue(L.var()) != L.negated())
        V |= 1ULL << I;
    }
    return V;
  }

  /// Forces input word \p W to \p Value with unit clauses.
  void pin(sat::SatSolver &S, const AigBlaster::Word &W, uint64_t Value) {
    for (unsigned I = 0; I != W.size(); ++I) {
      sat::Lit L = Em.emit(W[I]);
      S.addClause({(Value >> I & 1) ? L : ~L});
    }
  }
};

/// Every operation on constant operands, solved and read back from the
/// model, per width and profile.
class CircuitParamTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(CircuitParamTest, ArithmeticMatchesReference) {
  auto [Width, Rewriting] = GetParam();
  RNG Rng(500 + Width + (Rewriting ? 1 : 0));
  uint64_t Mask = Width == 64 ? ~0ULL : ((1ULL << Width) - 1);
  for (int Trial = 0; Trial < 12; ++Trial) {
    uint64_t AVal = Rng.next() & Mask;
    uint64_t BVal = Rng.next() & Mask;
    sat::SatSolver S;
    RippleProfile P(S, Width, Rewriting);
    AigBlaster &B = P.B;
    auto A = B.constWord(AVal);
    auto BB = B.constWord(BVal);

    struct OpCase {
      AigBlaster::Word W;
      uint64_t Expected;
    };
    std::vector<OpCase> Cases = {
        {B.bvAdd(A, BB), (AVal + BVal) & Mask},
        {B.bvSub(A, BB), (AVal - BVal) & Mask},
        {B.bvMul(A, BB), (AVal * BVal) & Mask},
        {B.bvAnd(A, BB), AVal & BVal},
        {B.bvOr(A, BB), AVal | BVal},
        {B.bvXor(A, BB), AVal ^ BVal},
        {B.bvNot(A), ~AVal & Mask},
        {B.bvNeg(A), (0 - AVal) & Mask},
    };
    for (auto &C : Cases)
      P.emitWord(C.W);
    ASSERT_EQ(S.solve(), sat::SatResult::Sat);
    for (auto &C : Cases)
      ASSERT_EQ(P.modelWord(S, C.W), C.Expected)
          << "width " << Width << " rewriting " << Rewriting;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndConfigs, CircuitParamTest,
    ::testing::Combine(::testing::Values(1u, 4u, 8u, 16u, 32u, 64u),
                       ::testing::Bool()));

TEST(ExprBlasterTest, CircuitAgreesWithEvaluator) {
  // Blast an expression, force the inputs to concrete values with unit
  // clauses, and compare the circuit output with the interpreter.
  Context Ctx(16);
  RNG Rng(808);
  const char *Samples[] = {
      "x + y",
      "x * y - (x & y)",
      "~(x - 1)",
      "(x&~y)*(~x&y) + (x&y)*(x|y)",
      "2*(x|y) - (~x&y) - (x&~y)",
      "-x ^ (y | 3)",
  };
  for (const char *Text : Samples) {
    const Expr *E = parseOrDie(Ctx, Text);
    for (int Trial = 0; Trial < 6; ++Trial) {
      uint64_t XV = Rng.next() & Ctx.mask(), YV = Rng.next() & Ctx.mask();
      sat::SatSolver S;
      RippleProfile P(S, Ctx.width(), /*Rewriting=*/Trial % 2);
      ExprAig EA(P.B);
      auto Out = EA.blast(E);
      P.emitWord(Out);
      P.pin(S, EA.inputWord(Ctx.getVar("x")), XV);
      P.pin(S, EA.inputWord(Ctx.getVar("y")), YV);
      ASSERT_EQ(S.solve(), sat::SatResult::Sat) << Text;
      uint64_t Vals[] = {XV, YV};
      ASSERT_EQ(P.modelWord(S, Out), evaluate(Ctx, E, Vals)) << Text;
    }
  }
}

TEST(ExprBlasterTest, EquivalenceRefutationUnsat) {
  // (x&~y) + y == x|y: asserting disequality must be UNSAT.
  for (bool Rewriting : {false, true}) {
    Context Ctx(8);
    sat::SatSolver S;
    RippleProfile P(S, 8, Rewriting);
    ExprAig EA(P.B);
    auto L = EA.blast(parseOrDie(Ctx, "(x&~y) + y"));
    auto R = EA.blast(parseOrDie(Ctx, "x|y"));
    S.addClause({P.Em.emit(P.B.disequalLit(L, R))});
    EXPECT_EQ(S.solve(), sat::SatResult::Unsat) << "rewriting " << Rewriting;
  }
}

TEST(ExprBlasterTest, NonEquivalenceFindsWitness) {
  // x + y != x | y somewhere (e.g. x = y = 1): SAT with a valid witness.
  for (bool Rewriting : {false, true}) {
    Context Ctx(8);
    sat::SatSolver S;
    RippleProfile P(S, 8, Rewriting);
    ExprAig EA(P.B);
    const Expr *EL = parseOrDie(Ctx, "x + y");
    const Expr *ER = parseOrDie(Ctx, "x | y");
    S.addClause({P.Em.emit(P.B.disequalLit(EA.blast(EL), EA.blast(ER)))});
    const AigBlaster::Word &XW = EA.inputWord(Ctx.getVar("x"));
    const AigBlaster::Word &YW = EA.inputWord(Ctx.getVar("y"));
    P.emitWord(XW);
    P.emitWord(YW);
    ASSERT_EQ(S.solve(), sat::SatResult::Sat);
    uint64_t Vals[] = {P.modelWord(S, XW), P.modelWord(S, YW)};
    EXPECT_NE(evaluate(Ctx, EL, Vals), evaluate(Ctx, ER, Vals))
        << "rewriting " << Rewriting;
  }
}

TEST(ExprBlasterTest, SharedSubDagBlastedOnce) {
  // Even at the Plain level, where no gate is shared, the translator's
  // memo blasts a repeated subexpression once.
  Context Ctx(8);
  const Expr *Shared = parseOrDie(Ctx, "x*y");
  auto GatesFor = [&](const Expr *E) {
    Aig G(AigLevel::Plain);
    AigBlaster B(G, 8, Encoding::Ripple);
    ExprAig EA(B);
    EA.blast(E);
    return G.stats().AndNodes;
  };
  // The sum costs one adder more than the product alone — not two products.
  EXPECT_LT(GatesFor(Ctx.getAdd(Shared, Shared)), 2 * GatesFor(Shared));
}

//===----------------------------------------------------------------------===//
// The per-query protocol: no query sees another's state
//===----------------------------------------------------------------------===//

/// One check record's search fingerprint, read from the query log.
struct QuerySearch {
  std::string Verdict;
  double Conflicts, CnfVars;

  bool operator==(const QuerySearch &) const = default;
};

TEST(AigChecker, QueryOrderDoesNotChangeTheSearch) {
  // Width 4: every query decides well under the budget for all three
  // backends (width 8 already pushes some poly miters past 10s on the
  // in-tree CDCL solver).
  Context Ctx(4);
  CorpusOptions Opt;
  Opt.LinearCount = 40;
  Opt.PolyCount = 30;
  Opt.NonPolyCount = 30;
  Opt.MaxVars = 3;
  Opt.IncludeSeedIdentities = false;
  auto Corpus = generateCorpus(Ctx, Opt);
  ASSERT_EQ(Corpus.size(), 100u);

  // 100 equivalent pairs plus 100 shifted (mostly inequivalent) pairs.
  std::vector<std::pair<const Expr *, const Expr *>> Queries;
  for (const CorpusEntry &E : Corpus)
    Queries.push_back({E.Obfuscated, E.Ground});
  for (size_t I = 0; I != Corpus.size(); ++I)
    Queries.push_back(
        {Corpus[I].Obfuscated, Corpus[(I + 1) % Corpus.size()].Ground});
  ASSERT_EQ(Queries.size(), 200u);

  // One checker serves the corpus forward, then reversed. Each query
  // builds its graph and solver afresh, so its verdict, encoding and
  // search cannot depend on the queries before it.
  auto Checker = makeAigChecker();
  auto Run = [&](bool Reversed) {
    querylog::beginCapture();
    for (size_t K = 0; K != Queries.size(); ++K) {
      auto &[A, B] = Queries[Reversed ? Queries.size() - 1 - K : K];
      Checker->check(Ctx, A, B, /*TimeoutSeconds=*/10);
    }
    std::vector<QuerySearch> Out;
    for (const std::string &Line : querylog::endCapture()) {
      json::Value Rec;
      EXPECT_TRUE(json::parse(Line, Rec)) << Line;
      Out.push_back({std::string(Rec.stringAt("verdict")),
                     Rec.numberAt("sat_conflicts"), Rec.numberAt("cnf_vars")});
    }
    if (Reversed)
      std::reverse(Out.begin(), Out.end());
    return Out;
  };
  std::vector<QuerySearch> Forward = Run(false), Backward = Run(true);
  ASSERT_EQ(Forward.size(), Queries.size());
  ASSERT_EQ(Backward.size(), Queries.size());
  double TotalConflicts = 0;
  for (size_t I = 0; I != Queries.size(); ++I) {
    EXPECT_EQ(Forward[I], Backward[I]) << "query " << I;
    TotalConflicts += Forward[I].Conflicts;
  }
  EXPECT_GT(TotalConflicts, 0) << "the corpus must reach the CDCL search";

  // The verdicts agree with BlastBV+RW, and at width 4 with a 10s budget
  // everything is decided.
  auto Reference = makeBlastChecker(/*EnableRewriting=*/true);
  for (size_t I = 0; I != Queries.size(); ++I) {
    ASSERT_NE(Forward[I].Verdict, "timeout") << "query " << I;
    auto &[A, B] = Queries[I];
    CheckResult RR = Reference->check(Ctx, A, B, /*TimeoutSeconds=*/10);
    if (RR.Outcome != Verdict::Timeout) {
      EXPECT_EQ(Forward[I].Verdict, verdictName(RR.Outcome))
          << "AIG backend disagrees with BlastBV+RW on query " << I;
    }
  }
}

} // namespace
