//===- tests/analysis_test.cpp - Verifier and abstract-domain tests -------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the soundness-auditing subsystem (src/analysis): the IR
/// verifier and the multi-domain abstract-interpretation framework.
///
/// The load-bearing regression tests here pin down that the parity and
/// interval domains each decide expressions the known-bits domain cannot:
///  * parity exploits DAG operand sharing — `(x + x) & 1 == 0`;
///  * intervals propagate magnitude prefixes — `((x & 3) + 252) & 252`
///    at width 8 is the constant 252.
///
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"

#include "analysis/EGraph.h"
#include "analysis/KnownBits.h"
#include "analysis/Prover.h"
#include "analysis/Rules.h"
#include "analysis/Verifier.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

using namespace mba;

namespace {

//===----------------------------------------------------------------------===//
// IR verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, WellFormedExpressionsPass) {
  Context Ctx(32);
  const Expr *E = parseOrDie(Ctx, "2*(x|y) - (~x&y) + (x^y)*(x&3) - -z");
  VerifyResult R = verifyExpr(Ctx, E);
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_TRUE(verifyContext(Ctx).ok());
}

TEST(VerifierTest, ContextVerifiesAfterHeavyUse) {
  Context Ctx(16);
  RNG Rng(99);
  const Expr *Vars[] = {Ctx.getVar("a"), Ctx.getVar("b"), Ctx.getVar("c")};
  const Expr *E = Vars[0];
  for (int I = 0; I < 500; ++I) {
    const Expr *V = Vars[Rng.below(3)];
    switch (Rng.below(6)) {
    case 0: E = Ctx.getAdd(E, V); break;
    case 1: E = Ctx.getMul(E, Ctx.getConst(Rng.next())); break;
    case 2: E = Ctx.getXor(E, V); break;
    case 3: E = Ctx.getNot(E); break;
    case 4: E = Ctx.getSub(V, E); break;
    default: E = Ctx.getOr(E, Ctx.getAnd(E, V)); break;
    }
  }
  VerifyResult R = verifyContext(Ctx);
  EXPECT_TRUE(R.ok()) << R.Message;
}

TEST(VerifierTest, RejectsForeignNodes) {
  // A structurally fine node from another context is not interned here:
  // the verifier must refuse it rather than silently accept look-alikes.
  Context Ours(32), Theirs(32);
  const Expr *Foreign = Theirs.getAdd(Theirs.getVar("x"), Theirs.getConst(1));
  VerifyResult R = verifyExpr(Ours, Foreign);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Message.find("not interned"), std::string::npos) << R.Message;
}

TEST(VerifierTest, RejectsForeignVariables) {
  Context Ours(32), Theirs(32);
  Ours.getVar("x");
  const Expr *TheirVar = Theirs.getVar("y");
  Theirs.getVar("z");
  // Same dense index range, different identity: the variable-table check
  // must notice the pointer mismatch.
  VerifyResult R = verifyExpr(Ours, TheirVar);
  EXPECT_FALSE(R.ok());
}

TEST(VerifierTest, RejectsNull) {
  Context Ctx(8);
  EXPECT_FALSE(verifyExpr(Ctx, nullptr).ok());
}

//===----------------------------------------------------------------------===//
// Parity / congruence domain
//===----------------------------------------------------------------------===//

TEST(ParityDomainTest, ConstantsAndStructure) {
  Context Ctx(8);
  Parity P = computeParity(Ctx, parseOrDie(Ctx, "12"));
  EXPECT_EQ(P.KnownLow, 8u);
  EXPECT_EQ(P.Residue, 12u);
  // x is top; x*2 is even; x*4 ≡ 0 (mod 4).
  EXPECT_TRUE(computeParity(Ctx, parseOrDie(Ctx, "x")).isTop());
  P = computeParity(Ctx, parseOrDie(Ctx, "x*2"));
  EXPECT_GE(P.KnownLow, 1u);
  EXPECT_EQ(P.Residue & 1, 0u);
  P = computeParity(Ctx, parseOrDie(Ctx, "x*4 + 3"));
  EXPECT_GE(P.KnownLow, 2u);
  EXPECT_EQ(P.Residue & 3, 3u);
}

TEST(ParityDomainTest, SharedOperandDoubling) {
  // Hash-consing makes the two operands of x + x the same node, so the
  // domain may conclude the sum is even although x itself is unknown.
  Context Ctx(64);
  Parity P = computeParity(Ctx, parseOrDie(Ctx, "x + x"));
  EXPECT_GE(P.KnownLow, 1u);
  EXPECT_EQ(P.Residue & 1, 0u);
  // x - x and x ^ x collapse to the constant 0 outright.
  EXPECT_EQ(computeParity(Ctx, parseOrDie(Ctx, "x - x")).KnownLow, 64u);
  EXPECT_EQ(computeParity(Ctx, parseOrDie(Ctx, "x - x")).Residue, 0u);
  EXPECT_EQ(computeParity(Ctx, parseOrDie(Ctx, "x ^ x")).KnownLow, 64u);
}

TEST(ParityDomainTest, FoldsWhatKnownBitsCannot) {
  // The known-bits add transfer needs a known trailing window on *both*
  // operands; x + x has none, so known-bits proves nothing about the low
  // bit. The parity domain sees the doubled operand and folds.
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "(x + x) & 1");
  EXPECT_EQ(foldKnownBits(Ctx, E), E); // known-bits alone: no progress
  KnownBits K = computeKnownBits(Ctx, E);
  EXPECT_EQ(K.knownMask() & 1, 0u);
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, E)), "0");
  // The odd companion: (x + x) + 1 is odd, so & 1 gives 1.
  const Expr *Odd = parseOrDie(Ctx, "((x + x) + 1) & 1");
  EXPECT_EQ(foldKnownBits(Ctx, Odd), Odd);
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, Odd)), "1");
}

//===----------------------------------------------------------------------===//
// Interval domain
//===----------------------------------------------------------------------===//

TEST(IntervalDomainTest, RangeArithmetic) {
  Context Ctx(8);
  Interval I = computeInterval(Ctx, parseOrDie(Ctx, "x & 15"));
  EXPECT_EQ(I.Lo, 0u);
  EXPECT_EQ(I.Hi, 15u);
  I = computeInterval(Ctx, parseOrDie(Ctx, "(x & 15) + 16"));
  EXPECT_EQ(I.Lo, 16u);
  EXPECT_EQ(I.Hi, 31u);
  I = computeInterval(Ctx, parseOrDie(Ctx, "(x & 3) * (y & 3)"));
  EXPECT_EQ(I.Lo, 0u);
  EXPECT_EQ(I.Hi, 9u);
  I = computeInterval(Ctx, parseOrDie(Ctx, "~(x & 15)"));
  EXPECT_EQ(I.Lo, 240u);
  EXPECT_EQ(I.Hi, 255u);
  // Possible wraparound widens to top.
  I = computeInterval(Ctx, parseOrDie(Ctx, "x + 1"));
  EXPECT_EQ(I.Lo, 0u);
  EXPECT_EQ(I.Hi, 255u);
}

TEST(IntervalDomainTest, FoldsWhatKnownBitsCannot) {
  // (x & 3) + 252 has no known trailing window (bits 0-1 unknown), so the
  // known-bits add transfer learns nothing at all. The interval domain
  // bounds the sum in [252, 255], whose common prefix fixes the high six
  // bits, and the final mask erases the remaining uncertainty.
  Context Ctx(8);
  // (The printer renders width-8 constants in signed form: 252 is -4.)
  const Expr *E = parseOrDie(Ctx, "((x & 3) + 252) & 252");
  EXPECT_EQ(foldKnownBits(Ctx, E), E); // known-bits alone: no progress
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, E)), "-4");
  // The | twin: forcing the low bits on collapses [252,255] to 255 (-1).
  const Expr *OrE = parseOrDie(Ctx, "((x & 3) + 252) | 3");
  EXPECT_EQ(foldKnownBits(Ctx, OrE), OrE);
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, OrE)), "-1");
}

//===----------------------------------------------------------------------===//
// Engine soundness and refutation
//===----------------------------------------------------------------------===//

/// Uniform random expression over the full operator set (mirrors the fuzz
/// harness generator, shallower).
const Expr *randomExpr(Context &Ctx, RNG &Rng,
                       std::span<const Expr *const> Vars, unsigned Depth) {
  if (Depth == 0 || Rng.chance(1, 4)) {
    if (Rng.chance(1, 2))
      return Vars[Rng.below(Vars.size())];
    return Ctx.getConst(Rng.chance(1, 2) ? Rng.next() : Rng.below(16));
  }
  ExprKind Kinds[] = {ExprKind::Not, ExprKind::Neg, ExprKind::Add,
                      ExprKind::Sub, ExprKind::Mul, ExprKind::And,
                      ExprKind::Or,  ExprKind::Xor};
  ExprKind K = Kinds[Rng.below(std::size(Kinds))];
  if (isUnaryKind(K))
    return Ctx.getUnary(K, randomExpr(Ctx, Rng, Vars, Depth - 1));
  return Ctx.getBinary(K, randomExpr(Ctx, Rng, Vars, Depth - 1),
                       randomExpr(Ctx, Rng, Vars, Depth - 1));
}

TEST(AbstractInterpTest, AllDomainsSoundOnRandomExpressions) {
  // Property: every domain's abstract value contains the concrete value of
  // every node, for every sampled input. This is the Galois-connection
  // soundness obligation checked dynamically.
  for (unsigned Width : {1u, 8u, 32u, 64u}) {
    Context Ctx(Width);
    RNG Rng(1234 + Width);
    const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
    KnownBitsDomain KBD(Ctx.mask());
    ParityDomain PD(Ctx.width());
    IntervalDomain ID(Ctx.mask());
    for (int Trial = 0; Trial < 60; ++Trial) {
      const Expr *E = randomExpr(Ctx, Rng, Vars, 4);
      NodeMap<KnownBits> KBMemo;
      NodeMap<Parity> PMemo;
      NodeMap<Interval> IMemo;
      computeAbstract(KBD, E, KBMemo);
      computeAbstract(PD, E, PMemo);
      computeAbstract(ID, E, IMemo);
      for (int I = 0; I < 20; ++I) {
        uint64_t Vals[] = {Rng.next() & Ctx.mask(), Rng.next() & Ctx.mask(),
                           Rng.next() & Ctx.mask()};
        std::unordered_map<const Expr *, uint64_t> Concrete;
        forEachNodePostOrder(E, [&](const Expr *N) {
          uint64_t V = evaluate(Ctx, N, Vals);
          Concrete.emplace(N, V);
          KnownBits KB = KBMemo.at(N);
          ASSERT_EQ(V & KB.Zero, 0u) << printExpr(Ctx, N);
          ASSERT_EQ(V & KB.One, KB.One) << printExpr(Ctx, N);
          Parity P = PMemo.at(N);
          ASSERT_EQ(V & lowBitsMask(P.KnownLow), P.Residue)
              << printExpr(Ctx, N) << " width " << Width;
          ASSERT_TRUE(IMemo.at(N).contains(V))
              << printExpr(Ctx, N) << " = " << V << " not in ["
              << IMemo.at(N).Lo << ", " << IMemo.at(N).Hi << "]";
        });
      }
    }
  }
}

TEST(AbstractInterpTest, FoldAbstractPreservesSemantics) {
  Context Ctx(16);
  RNG Rng(777);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  for (int Trial = 0; Trial < 80; ++Trial) {
    const Expr *E = randomExpr(Ctx, Rng, Vars, 5);
    const Expr *F = foldAbstract(Ctx, E);
    ASSERT_TRUE(verifyExpr(Ctx, F).ok());
    for (int I = 0; I < 20; ++I) {
      uint64_t Vals[] = {Rng.next(), Rng.next(), Rng.next()};
      ASSERT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, F, Vals))
          << printExpr(Ctx, E) << " -> " << printExpr(Ctx, F);
    }
  }
}

TEST(AbstractInterpTest, RefutesProvablyDifferentExpressions) {
  Context Ctx(8);
  // Parity: 2x vs 2x + 1 differ in the low bit on every input.
  auto R = refuteEquivalence(Ctx, parseOrDie(Ctx, "x + x"),
                             parseOrDie(Ctx, "(x + x) + 1"));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Domain, "parity");
  // Interval: disjoint ranges [8,11] vs [16,19]. Neither side has a known
  // trailing bit (bits 0-1 are free), so known-bits and parity see nothing
  // and only the interval domain refutes.
  R = refuteEquivalence(Ctx, parseOrDie(Ctx, "(x & 3) + 8"),
                        parseOrDie(Ctx, "(y & 3) + 16"));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Domain, "interval");
  // Known-bits: conflicting decided bit.
  R = refuteEquivalence(Ctx, parseOrDie(Ctx, "x * 2"),
                        parseOrDie(Ctx, "y | 1"));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Domain, "known-bits");
  // No false refutation on actually-equivalent forms.
  EXPECT_FALSE(refuteEquivalence(Ctx, parseOrDie(Ctx, "x + y"),
                                 parseOrDie(Ctx, "(x^y) + 2*(x&y)")));
}

TEST(AbstractInterpTest, RefutationNeverFiresOnEquivalentRandomPairs) {
  // refuteEquivalence must be a *proof* of difference: feeding it two
  // expressions that are literally the same function (one obfuscated by a
  // semantics-preserving wrapper) must never produce a refutation.
  Context Ctx(32);
  RNG Rng(4242);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y")};
  for (int Trial = 0; Trial < 60; ++Trial) {
    const Expr *E = randomExpr(Ctx, Rng, Vars, 4);
    // ~~E and E + 0 and E * 1 are E.
    const Expr *Same = nullptr;
    switch (Rng.below(3)) {
    case 0: Same = Ctx.getNot(Ctx.getNot(E)); break;
    case 1: Same = Ctx.getAdd(E, Ctx.getZero()); break;
    default: Same = Ctx.getMul(E, Ctx.getOne()); break;
    }
    auto R = refuteEquivalence(Ctx, E, Same);
    ASSERT_FALSE(R.has_value())
        << printExpr(Ctx, E) << " falsely refuted via " << R->Domain << ": "
        << R->Detail;
  }
}

TEST(AbstractInterpTest, WorksAtWidthOne) {
  Context Ctx(1);
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, parseOrDie(Ctx, "x + x"))), "0");
  EXPECT_EQ(printExpr(Ctx, foldAbstract(Ctx, parseOrDie(Ctx, "x ^ x"))), "0");
  Parity P = computeParity(Ctx, parseOrDie(Ctx, "x * 3"));
  EXPECT_LE(P.KnownLow, 1u);
}

/// A domain that forwards to \p Inner and counts transfer-function calls
/// (top, constant, unary and binary alike).
template <class Inner> class CountingDomain {
public:
  using Value = typename Inner::Value;

  explicit CountingDomain(Inner D) : D(D) {}

  Value top() const { return ++Calls, D.top(); }
  Value constant(uint64_t C) const { return ++Calls, D.constant(C); }
  Value unary(ExprKind K, const Value &A) const {
    return ++Calls, D.unary(K, A);
  }
  Value binary(ExprKind K, const Value &A, const Value &B,
               bool SameOperand) const {
    return ++Calls, D.binary(K, A, B, SameOperand);
  }

  mutable size_t Calls = 0;

private:
  Inner D;
};

/// Drives computeAbstract over one memo at every node of \p E, operands
/// first — the access pattern of foldAbstract's bottom-up rewrite — and
/// returns the number of transfer-function calls.
size_t transferCallsBottomUp(const Context &Ctx, const Expr *E) {
  CountingDomain<KnownBitsDomain> D(KnownBitsDomain(Ctx.mask()));
  NodeMap<KnownBits> Memo;
  forEachNodePostOrder(E, [&](const Expr *N) { computeAbstract(D, N, Memo); });
  computeAbstract(D, E, Memo); // asking again costs nothing
  return D.Calls;
}

TEST(AbstractInterpTest, TransferOncePerNodeOnDeepChain) {
  Context Ctx(64);
  const Expr *Y = Ctx.getVar("y");
  const Expr *E = Ctx.getVar("x");
  for (int I = 0; I < 5000; ++I)
    E = I % 2 ? Ctx.getAdd(E, Ctx.getOne()) : Ctx.getAnd(Ctx.getMul(E, Y), Y);
  EXPECT_EQ(transferCallsBottomUp(Ctx, E), countDagNodes(E));
}

TEST(AbstractInterpTest, TransferOncePerNodeOnSharedDag) {
  // Each level uses the previous one three times: ~3^40 tree nodes in a
  // DAG of about a hundred.
  Context Ctx(64);
  const Expr *Y = Ctx.getVar("y");
  const Expr *E = Ctx.getVar("x");
  for (int I = 0; I < 40; ++I)
    E = Ctx.getXor(Ctx.getAdd(E, E), Ctx.getAnd(E, Y));
  EXPECT_EQ(transferCallsBottomUp(Ctx, E), countDagNodes(E));
}

TEST(AbstractInterpTest, FoldAbstractMatchesPerDomainFolding) {
  // foldAbstract runs the three domains over one memo. It must fold exactly
  // as one memo per domain would, asking known bits, then parity, then
  // intervals at every rebuilt node.
  for (unsigned Width : {3u, 8u, 64u}) {
    Context Ctx(Width);
    RNG Rng(4242 + Width);
    const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
    KnownBitsDomain KBD(Ctx.mask());
    ParityDomain PD(Ctx.width());
    IntervalDomain ID(Ctx.mask());
    for (int Trial = 0; Trial < 200; ++Trial) {
      const Expr *E = randomExpr(Ctx, Rng, Vars, 5);
      NodeMap<KnownBits> KBMemo;
      NodeMap<Parity> PMemo;
      NodeMap<Interval> IMemo;
      const Expr *Reference =
          rewriteBottomUp(Ctx, E, [&](const Expr *N) -> const Expr * {
            if (N->isLeaf())
              return N;
            if (auto C = KBD.asConstant(computeAbstract(KBD, N, KBMemo)))
              return Ctx.getConst(*C);
            if (auto C = PD.asConstant(computeAbstract(PD, N, PMemo)))
              return Ctx.getConst(*C);
            if (auto C = ID.asConstant(computeAbstract(ID, N, IMemo)))
              return Ctx.getConst(*C);
            return N;
          });
      ASSERT_EQ(foldAbstract(Ctx, E), Reference) << printExpr(Ctx, E);
    }
  }
}

TEST(AbstractInterpTest, FoldAbstractCompletesOnDeepChain) {
  // A left-deep ((x+1)+1)... chain of 200k nodes, built directly (the
  // parser caps nesting). C + C is even, so parity folds (C + C) & 1 to 0.
  Context Ctx(64);
  const Expr *C = Ctx.getVar("x");
  for (int I = 0; I < 200000; ++I)
    C = Ctx.getAdd(C, Ctx.getOne());
  EXPECT_EQ(foldAbstract(Ctx, C), C); // nothing in the chain is constant
  const Expr *E = Ctx.getAnd(Ctx.getAdd(C, C), Ctx.getOne());
  EXPECT_EQ(foldAbstract(Ctx, E), Ctx.getZero());
}

TEST(IntervalDomainTest, MulByEvenConstantShiftsTheBound) {
  // Constant multiplier c = m·2^t keeps the product a multiple of 2^t even
  // after wraparound, so the interval top drops by the trailing-zero bits
  // — where the old transfer had to give up with [0, mask].
  Context Ctx(8);
  Interval I = computeInterval(Ctx, parseOrDie(Ctx, "x * 4"));
  EXPECT_EQ(I.Lo, 0u);
  EXPECT_EQ(I.Hi, 252u);
  I = computeInterval(Ctx, parseOrDie(Ctx, "6 * x"));
  EXPECT_EQ(I.Hi, 254u); // 6 = 3·2: one trailing zero
  I = computeInterval(Ctx, parseOrDie(Ctx, "x * 32"));
  EXPECT_EQ(I.Hi, 224u);
  // Odd constants and non-constant multipliers still widen to top.
  I = computeInterval(Ctx, parseOrDie(Ctx, "x * 3"));
  EXPECT_EQ(I.Hi, 255u);
  I = computeInterval(Ctx, parseOrDie(Ctx, "x * y"));
  EXPECT_EQ(I.Hi, 255u);
}

TEST(IntervalDomainTest, MulEvenConstantTransferIsSound) {
  // Exhaustive at width 8: every product must land inside the transfer's
  // interval for a spread of even and odd multipliers.
  Context Ctx(8);
  for (uint64_t C : {2u, 4u, 6u, 12u, 40u, 128u, 130u, 255u}) {
    Interval I = computeInterval(
        Ctx, Ctx.getMul(Ctx.getVar("x"), Ctx.getConst(C)));
    for (uint64_t X = 0; X != 256; ++X) {
      uint64_t V = (X * C) & Ctx.mask();
      ASSERT_TRUE(I.contains(V)) << "c=" << C << " x=" << X;
    }
  }
}

//===----------------------------------------------------------------------===//
// E-graph: hashcons, congruence closure, folding, extraction
//===----------------------------------------------------------------------===//

TEST(EGraphTest, HashConsingInternsEachNodeOnce) {
  Context Ctx(32);
  EGraph G(Ctx);
  EClassId A = G.addExpr(parseOrDie(Ctx, "x + y"));
  EClassId B = G.addExpr(parseOrDie(Ctx, "x + y"));
  EXPECT_EQ(G.find(A), G.find(B));
  // x, y, x+y: three e-nodes, three classes.
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.numClasses(), 3u);
}

TEST(EGraphTest, CongruenceClosurePropagatesThroughOperators) {
  // Merging b ≡ c must pull a+b and a+c (and then (a+b)*d, (a+c)*d)
  // together at rebuild() — the congruence invariant.
  Context Ctx(32);
  EGraph G(Ctx);
  EClassId AB = G.addExpr(parseOrDie(Ctx, "(a + b) * d"));
  EClassId AC = G.addExpr(parseOrDie(Ctx, "(a + c) * d"));
  ASSERT_NE(G.find(AB), G.find(AC));
  G.merge(G.addExpr(parseOrDie(Ctx, "b")), G.addExpr(parseOrDie(Ctx, "c")));
  G.rebuild();
  EXPECT_TRUE(G.sameClass(AB, AC));
}

TEST(EGraphTest, FoldsConstantOperandsEagerly) {
  Context Ctx(32);
  EGraph G(Ctx);
  EClassId Id = G.addExpr(parseOrDie(Ctx, "2 * 3"));
  ASSERT_TRUE(G.constantOf(Id).has_value());
  EXPECT_EQ(*G.constantOf(Id), 6u);
}

TEST(EGraphTest, FoldsConstantsDiscoveredByMerging) {
  // x+4 is not constant — until x is learned equal to 2; rebuild() must
  // then fold the parent to 6.
  Context Ctx(32);
  EGraph G(Ctx);
  EClassId Sum = G.addExpr(parseOrDie(Ctx, "x + 4"));
  EXPECT_FALSE(G.constantOf(Sum).has_value());
  G.merge(G.addVar(parseOrDie(Ctx, "x")->varIndex()), G.addConst(2));
  G.rebuild();
  ASSERT_TRUE(G.constantOf(Sum).has_value());
  EXPECT_EQ(*G.constantOf(Sum), 6u);
}

TEST(EGraphTest, ConstantsTruncateToTheContextWidth) {
  Context Ctx(8);
  EGraph G(Ctx);
  EXPECT_EQ(G.find(G.addConst(256)), G.find(G.addConst(0)));
  EXPECT_EQ(G.find(G.addConst(~0ULL)), G.find(G.addConst(255)));
}

TEST(EGraphTest, ExtractsTheSmallestKnownForm) {
  Context Ctx(32);
  EGraph G(Ctx);
  EClassId Big = G.addExpr(parseOrDie(Ctx, "(x | y) + (x & y)"));
  const Expr *Small = parseOrDie(Ctx, "x + y");
  G.merge(Big, G.addExpr(Small));
  G.rebuild();
  EXPECT_EQ(G.extract(Big), Small);
}

TEST(EGraphTest, ExtractCompletesOnDeepChain) {
  // addExpr and extract walk the e-graph iteratively: a 100k-deep chain
  // used to overflow extract's recursive builder.
  Context Ctx(64);
  const Expr *E = Ctx.getVar("x");
  for (int I = 0; I < 100000; ++I)
    E = Ctx.getAdd(E, Ctx.getConst(1));
  EGraph G(Ctx);
  EClassId Root = G.addExpr(E);
  G.rebuild();
  EXPECT_EQ(G.extract(Root), E);
}

/// \p K applied to constant operands, modulo \p Ctx's width.
uint64_t foldConstants(const Context &Ctx, ExprKind K, uint64_t A,
                       uint64_t B) {
  switch (K) {
  case ExprKind::Not: return Ctx.truncate(~A);
  case ExprKind::Neg: return Ctx.truncate(0 - A);
  case ExprKind::Add: return Ctx.truncate(A + B);
  case ExprKind::Sub: return Ctx.truncate(A - B);
  case ExprKind::Mul: return Ctx.truncate(A * B);
  case ExprKind::And: return A & B;
  case ExprKind::Or: return A | B;
  default: return A ^ B;
  }
}

/// A brute-force congruence closure over \p Terms (distinct, each after its
/// operands): the explicit \p Merges, plus congruence and constant folding,
/// applied over all term pairs until nothing changes. Returns each term's
/// representative index.
std::vector<size_t>
naiveClosure(const Context &Ctx, const std::vector<const Expr *> &Terms,
             const std::vector<std::pair<size_t, size_t>> &Merges) {
  std::unordered_map<const Expr *, size_t> Index;
  for (size_t I = 0; I != Terms.size(); ++I)
    Index.emplace(Terms[I], I);
  std::vector<size_t> Rep(Terms.size());
  for (size_t I = 0; I != Rep.size(); ++I)
    Rep[I] = I;
  auto Find = [&](size_t I) {
    while (Rep[I] != I)
      I = Rep[I];
    return I;
  };
  bool Changed = false;
  auto Union = [&](size_t A, size_t B) {
    A = Find(A);
    B = Find(B);
    if (A != B) {
      Rep[std::max(A, B)] = std::min(A, B);
      Changed = true;
    }
  };
  for (auto [A, B] : Merges)
    Union(A, B);
  do {
    Changed = false;
    // The constant value of each class, to a fixpoint: a Const member, or an
    // operator member whose operand classes have values.
    std::unordered_map<size_t, uint64_t> ClassValue;
    for (bool Grew = true; Grew;) {
      Grew = false;
      for (size_t I = 0; I != Terms.size(); ++I) {
        const Expr *T = Terms[I];
        std::optional<uint64_t> V;
        auto ValueOf = [&](const Expr *Op) -> std::optional<uint64_t> {
          auto It = ClassValue.find(Find(Index.at(Op)));
          if (It == ClassValue.end())
            return std::nullopt;
          return It->second;
        };
        if (T->kind() == ExprKind::Const) {
          V = T->constValue();
        } else if (isUnaryKind(T->kind())) {
          if (auto A = ValueOf(T->operand()))
            V = foldConstants(Ctx, T->kind(), *A, 0);
        } else if (isBinaryKind(T->kind())) {
          auto A = ValueOf(T->lhs()), B = ValueOf(T->rhs());
          if (A && B)
            V = foldConstants(Ctx, T->kind(), *A, *B);
        }
        if (V && ClassValue.emplace(Find(I), *V).second)
          Grew = true;
      }
    }
    std::unordered_map<uint64_t, size_t> ClassOfValue;
    for (auto [Cls, V] : ClassValue)
      if (auto [It, New] = ClassOfValue.emplace(V, Cls); !New)
        Union(It->second, Cls);
    // Congruence: same operator over operands in the same classes.
    for (size_t I = 0; I != Terms.size(); ++I)
      for (size_t J = I + 1; J != Terms.size(); ++J) {
        const Expr *A = Terms[I], *B = Terms[J];
        if (A->kind() != B->kind() || A->isLeaf())
          continue;
        bool Same = true;
        for (unsigned Op = 0; Op != A->numOperands(); ++Op)
          Same &= Find(Index.at(A->getOperand(Op))) ==
                  Find(Index.at(B->getOperand(Op)));
        if (Same)
          Union(I, J);
      }
  } while (Changed);
  for (size_t I = 0; I != Rep.size(); ++I)
    Rep[I] = Find(I);
  return Rep;
}

TEST(EGraphTest, RebuildMatchesNaiveCongruenceClosure) {
  // Property, over 200 seeds: random addExpr calls interleaved with random
  // merges (and occasional rebuilds), then one final rebuild(). Odd seeds
  // merge random non-constant classes; even seeds give variables constant
  // values, which never contradict each other. Afterwards every canonical
  // e-node lives in exactly one class, every class's node list is strictly
  // sorted by (kind, lhs, rhs, aux) — sorted by kind and without a repeated
  // entry — and the class partition of the added terms is the brute-force
  // closure's. Width 4 keeps constants colliding, so folding merges classes
  // too.
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Context Ctx(4);
    RNG Rng(Seed);
    const Expr *Vars[] = {Ctx.getVar("a"), Ctx.getVar("b"), Ctx.getVar("c")};
    EGraph G(Ctx);
    std::vector<const Expr *> Terms;
    std::unordered_map<const Expr *, EClassId> ClassOf;
    std::vector<std::pair<size_t, size_t>> Merges;
    std::unordered_set<const Expr *> Assigned;
    auto IndexOf = [&](const Expr *T) {
      return (size_t)(std::find(Terms.begin(), Terms.end(), T) - Terms.begin());
    };
    for (int Step = 0; Step != 10; ++Step) {
      const Expr *E = randomExpr(Ctx, Rng, Vars, 3);
      G.addExpr(E);
      forEachNodePostOrder(E, [&](const Expr *N) {
        if (ClassOf.emplace(N, G.addExpr(N)).second)
          Terms.push_back(N);
      });
      if (Seed % 2 == 0) {
        // Assign a variable a constant, at most once each, so that rebuild()
        // must fold operators whose operands became constant by merging.
        const Expr *Var = Vars[Rng.below(std::size(Vars))];
        const Expr *C = Ctx.getConst(Rng.below(16));
        if (ClassOf.contains(Var) && Assigned.insert(Var).second) {
          if (ClassOf.emplace(C, G.addExpr(C)).second)
            Terms.push_back(C);
          G.merge(ClassOf[Var], ClassOf[C]);
          Merges.push_back({IndexOf(Var), IndexOf(C)});
        }
      } else {
        for (uint64_t M = Rng.below(3); M != 0; --M) {
          const Expr *A = Terms[Rng.below(Terms.size())];
          const Expr *B = Terms[Rng.below(Terms.size())];
          if (G.constantOf(ClassOf[A]) || G.constantOf(ClassOf[B]))
            continue;
          G.merge(ClassOf[A], ClassOf[B]);
          Merges.push_back({IndexOf(A), IndexOf(B)});
        }
      }
      if (Rng.chance(1, 3))
        G.rebuild();
    }
    G.rebuild();

    std::map<std::tuple<ExprKind, EClassId, EClassId, uint64_t>, EClassId>
        Home;
    for (EClassId Cls : G.canonicalClasses()) {
      const std::vector<ENode> &Nodes = G.nodesOf(Cls);
      for (size_t I = 0; I != Nodes.size(); ++I) {
        const ENode &N = Nodes[I];
        if (I) {
          ASSERT_LT(std::tie(Nodes[I - 1].Kind, Nodes[I - 1].Lhs,
                             Nodes[I - 1].Rhs, Nodes[I - 1].Aux),
                    std::tie(N.Kind, N.Lhs, N.Rhs, N.Aux))
              << "seed " << Seed << ": class " << Cls << " out of order";
        }
        EClassId L = N.Kind == ExprKind::Var || N.Kind == ExprKind::Const
                         ? 0
                         : G.find(N.Lhs);
        EClassId R = isBinaryKind(N.Kind) ? G.find(N.Rhs) : 0;
        auto [It, New] = Home.emplace(std::tuple{N.Kind, L, R, N.Aux}, Cls);
        ASSERT_TRUE(New || It->second == Cls)
            << "seed " << Seed << ": one e-node in classes " << It->second
            << " and " << Cls;
      }
    }

    std::vector<size_t> Rep = naiveClosure(Ctx, Terms, Merges);
    for (size_t I = 0; I != Terms.size(); ++I)
      for (size_t J = I + 1; J != Terms.size(); ++J)
        ASSERT_EQ(Rep[I] == Rep[J],
                  G.sameClass(ClassOf[Terms[I]], ClassOf[Terms[J]]))
            << "seed " << Seed << ": " << printExpr(Ctx, Terms[I]) << " vs "
            << printExpr(Ctx, Terms[J]);
  }
}

//===----------------------------------------------------------------------===//
// Rule certification: every shipped rule, all widths, unsound rejection
//===----------------------------------------------------------------------===//

TEST(RuleCertification, ShippedTableFullyCertified) {
  RuleSet RS;
  addDefaultRules(RS);
  CertifySummary S = certifyRules(RS);
  EXPECT_TRUE(S.allCertified());
  for (const RuleCert &C : S.Results)
    EXPECT_TRUE(C.ok()) << C.Name << ": " << C.Detail;
  // Both provers must carry their share: the ring axioms certify
  // polynomially, the MBA bridges by corner sums.
  unsigned Poly = 0, Corner = 0;
  for (const EqualityRule &R : RS.rules()) {
    Poly += R.Certified == CertMethod::Polynomial;
    Corner += R.Certified == CertMethod::LinearCorner;
  }
  EXPECT_GT(Poly, 0u);
  EXPECT_GT(Corner, 0u);
}

TEST(RuleCertification, ShippedRulesHoldAtEveryWidth2Through64) {
  // The certificate claims all-width soundness; spot-check it against the
  // concrete evaluator by re-parsing each rule's surface syntax into a
  // context of every width and sampling random points.
  RuleSet RS;
  addDefaultRules(RS);
  RNG Rng(0xA11);
  for (unsigned Width = 2; Width <= 64; ++Width) {
    Context Ctx(Width);
    for (const EqualityRule &R : RS.rules()) {
      const Expr *L = parseOrDie(Ctx, R.LhsText);
      const Expr *Rh = parseOrDie(Ctx, R.RhsText);
      std::vector<uint64_t> Vals(Ctx.numVars());
      for (int I = 0; I < 24; ++I) {
        for (uint64_t &V : Vals)
          V = Rng.next();
        ASSERT_EQ(evaluate(Ctx, L, Vals), evaluate(Ctx, Rh, Vals))
            << "rule " << R.Name << " fails at width " << Width;
      }
    }
  }
}

TEST(RuleCertification, RejectsDeliberatelyUnsoundRules) {
  // An injected unsound rule must stay Uncertified, with the witnessing
  // corner reported — the table is checked data, not trusted code.
  RuleSet RS;
  RS.add("bogus-add-to-or", "a+b", "a|b");
  RS.add("bogus-mul-to-and", "a*b", "a&b");
  RS.add("bogus-neg", "-a", "~a");
  RS.add("sound-control", "a+b", "(a|b)+(a&b)"); // genuine Table 5 entry
  CertifySummary S = certifyRules(RS);
  EXPECT_EQ(S.NumCertified, 1u);
  EXPECT_FALSE(S.allCertified());
  for (const RuleCert &C : S.Results) {
    if (C.Name == "sound-control") {
      EXPECT_TRUE(C.ok());
      continue;
    }
    EXPECT_FALSE(C.ok()) << C.Name;
    EXPECT_FALSE(C.Detail.empty()) << C.Name;
  }
  // And pruning drops exactly the bogus ones.
  EXPECT_EQ(RS.pruneUncertified(), 3u);
  ASSERT_EQ(RS.rules().size(), 1u);
  EXPECT_EQ(RS.rules().front().Name, "sound-control");
}

TEST(RuleCertification, CertificationIsIdempotent) {
  RuleSet RS;
  addDefaultRules(RS);
  CertifySummary First = certifyRules(RS);
  CertifySummary Second = certifyRules(RS);
  ASSERT_EQ(First.Results.size(), Second.Results.size());
  for (size_t I = 0; I != First.Results.size(); ++I)
    EXPECT_EQ(First.Results[I].Method, Second.Results[I].Method)
        << First.Results[I].Name;
}

TEST(RuleCertification, CertifiedRulesSingletonIsFullyCertified) {
  for (const EqualityRule &R : certifiedRules().rules())
    EXPECT_NE(R.Certified, CertMethod::Uncertified) << R.Name;
  EXPECT_FALSE(certifiedRules().rules().empty());
}

//===----------------------------------------------------------------------===//
// The equality-saturation prover
//===----------------------------------------------------------------------===//

TEST(ProverTest, SyntacticAndCongruentFastPaths) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "x*y + (x&z)");
  EXPECT_EQ(proveEquivalence(Ctx, E, E).Outcome, ProveOutcome::Proved);
  // Constant folding inside the e-graph: congruence without saturation.
  ProveResult R =
      proveEquivalence(Ctx, parseOrDie(Ctx, "x + (2*3)"),
                       parseOrDie(Ctx, "x + 6"));
  EXPECT_EQ(R.Outcome, ProveOutcome::Proved);
}

TEST(ProverTest, ProvesTable5AndRingIdentities) {
  Context Ctx(64);
  const std::pair<const char *, const char *> Identities[] = {
      {"(x&~y)+y", "x|y"},
      {"(x|y)+(x&y)", "x+y"},
      {"(x^y)+2*(x&y)", "x+y"},
      {"2*(x|y)-(x^y)", "x+y"},
      {"x+y-(x&y)", "x|y"},
      {"(x|y)-(x&y)", "x^y"},
      {"(x&~y)-(~x&y)", "x-y"},
      {"~(x&y)", "~x|~y"},
      {"-(-x)", "x"},
      {"(x+y)+z", "x+(y+z)"},
      {"x*(y+z)", "x*y+x*z"},
  };
  for (auto [Lhs, Rhs] : Identities) {
    ProveResult R = proveEquivalence(Ctx, parseOrDie(Ctx, Lhs),
                                     parseOrDie(Ctx, Rhs));
    EXPECT_EQ(R.Outcome, ProveOutcome::Proved)
        << Lhs << " == " << Rhs << " (" << R.Detail << ")";
  }
}

TEST(ProverTest, RefutesViaAbstractDomains) {
  Context Ctx(64);
  // Parity: 2x is even, 2x+1 is odd — different on every input.
  ProveResult R = proveEquivalence(Ctx, parseOrDie(Ctx, "2*x"),
                                   parseOrDie(Ctx, "2*x + 1"));
  EXPECT_EQ(R.Outcome, ProveOutcome::Refuted);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(ProverTest, UnknownOnUndecidablePairsWithinBudget) {
  Context Ctx(64);
  // Different variables: not equal, but no domain refutes a top value.
  EXPECT_EQ(proveEquivalence(Ctx, parseOrDie(Ctx, "x"), parseOrDie(Ctx, "y"))
                .Outcome,
            ProveOutcome::Unknown);
  // x*x vs x: unequal beyond the rule fragment; must stay Unknown, never
  // a false verdict.
  EXPECT_EQ(proveEquivalence(Ctx, parseOrDie(Ctx, "x*x"),
                             parseOrDie(Ctx, "x"))
                .Outcome,
            ProveOutcome::Unknown);
}

TEST(ProverTest, ReportsSaturationStatistics) {
  Context Ctx(64);
  ProveResult R = proveEquivalence(Ctx, parseOrDie(Ctx, "(x|y)+(x&y)"),
                                   parseOrDie(Ctx, "x+y"));
  ASSERT_EQ(R.Outcome, ProveOutcome::Proved);
  EXPECT_GE(R.Stats.Iterations, 1u);
  EXPECT_GT(R.Stats.Matches, 0u);
  EXPECT_GT(R.Stats.ENodes, 0u);
}

TEST(ProverTest, UncertifiedRulesNeverTouchTheEGraph) {
  // A custom rule set whose only entry is unsound and uncertified: the
  // saturation loop must skip it, leaving the (false) equivalence Unknown
  // rather than "proving" it.
  Context Ctx(64);
  RuleSet RS;
  RS.add("bogus-add-to-or", "a+b", "a|b");
  Prover P(Ctx, &RS);
  EXPECT_EQ(P.prove(parseOrDie(Ctx, "x+y"), parseOrDie(Ctx, "x|y")).Outcome,
            ProveOutcome::Unknown);
  // Certification fails; the rule stays out even after the attempt.
  certifyRules(RS);
  EXPECT_EQ(P.prove(parseOrDie(Ctx, "x+y"), parseOrDie(Ctx, "x|y")).Outcome,
            ProveOutcome::Unknown);
}

TEST(ProverTest, BudgetBoundsTheSearch) {
  Context Ctx(64);
  ProveBudget Tiny;
  Tiny.MaxIterations = 0; // congruence closure only, no saturation
  ProveResult R = proveEquivalence(Ctx, parseOrDie(Ctx, "(x|y)+(x&y)"),
                                   parseOrDie(Ctx, "x+y"), Tiny);
  EXPECT_EQ(R.Outcome, ProveOutcome::Unknown);
  EXPECT_EQ(R.Stats.Iterations, 0u);
}

TEST(ProverTest, RawWidth3SliceOutcomes) {
  // The queries raw_bitblast poses at stage 0: the first 10 entries of each
  // (category, variable count) bucket of the width-3 corpus, printed in a
  // private context and parsed into the prover's. The floors are the
  // counts proved before the deduplicating rebuild and the continuation
  // matcher, and every proof must hold on all inputs.
  for (auto [Seed, MinProved] : {std::pair{1u, 23u}, {2u, 19u}}) {
    Context Gen(3), Ctx(3);
    CorpusOptions Opts;
    Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 100;
    Opts.Seed = Seed;
    std::map<std::pair<MBAKind, unsigned>, unsigned> Taken;
    std::vector<std::pair<const Expr *, const Expr *>> Pairs;
    for (const CorpusEntry &E : generateCorpus(Gen, Opts))
      if (Taken[{E.Category, E.NumVars}]++ < 10)
        Pairs.push_back({parseOrDie(Ctx, printExpr(Gen, E.Obfuscated)),
                         parseOrDie(Ctx, printExpr(Gen, E.Ground))});
    ASSERT_EQ(Pairs.size(), 110u);
    Prover P(Ctx);
    unsigned Proved = 0;
    for (auto [A, B] : Pairs) {
      if (P.prove(A, B).Outcome != ProveOutcome::Proved)
        continue;
      ++Proved;
      // Every assignment of the pair's variables; the context's others
      // stay 0.
      std::vector<const Expr *> Used = collectVariables(A);
      for (const Expr *V : collectVariables(B))
        if (std::find(Used.begin(), Used.end(), V) == Used.end())
          Used.push_back(V);
      std::vector<uint64_t> Vals(Ctx.numVars());
      for (uint64_t Point = 0; Point != 1ull << (3 * Used.size()); ++Point) {
        for (size_t V = 0; V != Used.size(); ++V)
          Vals[Used[V]->varIndex()] = (Point >> (3 * V)) & 7;
        ASSERT_EQ(evaluate(Ctx, A, Vals), evaluate(Ctx, B, Vals))
            << "seed " << Seed << ": " << printExpr(Ctx, A)
            << " == " << printExpr(Ctx, B);
      }
    }
    EXPECT_GE(Proved, MinProved) << "seed " << Seed;
  }
}

TEST(ProverTest, SaturateAndExtractShrinksKnownIdentities) {
  Context Ctx(64);
  Prover P(Ctx);
  const Expr *E = parseOrDie(Ctx, "(x | y) + (x & y)");
  const Expr *S = P.saturateAndExtract(E);
  // The minimal form is x+y (or its commutation, depending on discovery
  // order) — 3 tree nodes either way.
  EXPECT_EQ(countTreeNodes(S), 3u) << printExpr(Ctx, S);
  EXPECT_EQ(proveEquivalence(Ctx, E, S).Outcome, ProveOutcome::Proved);
  // Extraction must never grow the expression (commutation is allowed).
  const Expr *Already = parseOrDie(Ctx, "x ^ y");
  const Expr *Kept = P.saturateAndExtract(Already);
  EXPECT_LE(countTreeNodes(Kept), countTreeNodes(Already));
  EXPECT_EQ(proveEquivalence(Ctx, Already, Kept).Outcome,
            ProveOutcome::Proved);
}

} // namespace
