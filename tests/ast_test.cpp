//===- tests/ast_test.cpp - AST, parser, printer, evaluator tests --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/NodeMap.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "mba/Simplifier.h"
#include "support/Cache.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace mba;

namespace {

// The fingerprint shares the Value slot with constants, so nodes stay as
// small as before it was stored.
static_assert(sizeof(Expr) == 40);

TEST(Context, InterningDeduplicatesNodes) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  EXPECT_EQ(X, Ctx.getVar("x"));
  EXPECT_NE(X, Y);
  EXPECT_EQ(Ctx.getAdd(X, Y), Ctx.getAdd(X, Y));
  EXPECT_NE(Ctx.getAdd(X, Y), Ctx.getAdd(Y, X)); // not canonicalized
  EXPECT_EQ(Ctx.getConst(5), Ctx.getConst(5));
  EXPECT_EQ(Ctx.getNot(X), Ctx.getNot(X));
}

TEST(Context, WidthMaskAndTruncation) {
  Context Ctx(8);
  EXPECT_EQ(Ctx.mask(), 0xffu);
  EXPECT_EQ(Ctx.getConst(0x1ff)->constValue(), 0xffu);
  EXPECT_EQ(Ctx.toSigned(0xff), -1);
  EXPECT_EQ(Ctx.toSigned(0x7f), 127);
  EXPECT_EQ(Ctx.toSigned(0x80), -128);
}

TEST(Context, Width64Mask) {
  Context Ctx(64);
  EXPECT_EQ(Ctx.mask(), ~0ULL);
  EXPECT_EQ(Ctx.toSigned(~0ULL), -1);
}

TEST(Context, VarIndicesAreDense) {
  Context Ctx(32);
  EXPECT_EQ(Ctx.getVar("a")->varIndex(), 0u);
  EXPECT_EQ(Ctx.getVar("b")->varIndex(), 1u);
  EXPECT_EQ(Ctx.getVar("a")->varIndex(), 0u);
  EXPECT_EQ(Ctx.numVars(), 2u);
  EXPECT_EQ(Ctx.getVarByIndex(1), Ctx.getVar("b"));
}

TEST(Context, RebuildReturnsSameNodeWhenUnchanged) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  const Expr *E = Ctx.getAdd(X, Y);
  EXPECT_EQ(Ctx.rebuild(E, X, Y), E);
  EXPECT_EQ(Ctx.rebuild(E, Y, X), Ctx.getAdd(Y, X));
  const Expr *N = Ctx.getNot(X);
  EXPECT_EQ(Ctx.rebuild(N, X, nullptr), N);
}

TEST(Context, InternsAMillionNodesThroughTableGrowth) {
  // Enough distinct nodes to double the interning table a dozen times.
  // Every node must stay findable at the pointer first handed out.
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  std::vector<const Expr *> Sample;
  const Expr *Prev = X;
  for (uint64_t I = 0; I < 400000; ++I) {
    const Expr *C = Ctx.getConst(I);
    const Expr *Sum = Ctx.getAdd(Prev, C);
    Prev = Ctx.getNot(Sum);
    if (I % 997 == 0)
      Sample.insert(Sample.end(), {C, Sum, Prev});
  }
  ASSERT_GT(Ctx.numNodes(), 1000000u);
  size_t Before = Ctx.numNodes();
  for (size_t I = 0; I < Sample.size(); I += 3) {
    const Expr *C = Sample[I], *Sum = Sample[I + 1], *Not = Sample[I + 2];
    EXPECT_EQ(Ctx.getConst(C->constValue()), C);
    EXPECT_EQ(Ctx.getAdd(Sum->lhs(), Sum->rhs()), Sum);
    EXPECT_EQ(Ctx.getNot(Not->operand()), Not);
    EXPECT_EQ(Ctx.findInterned(ExprKind::Const, nullptr, nullptr,
                               C->constValue()),
              C);
    EXPECT_EQ(Ctx.findInterned(ExprKind::Add, Sum->lhs(), Sum->rhs(), 0), Sum);
    EXPECT_EQ(Ctx.findInterned(ExprKind::Not, Not->operand(), nullptr, 0),
              Not);
  }
  EXPECT_EQ(Ctx.numNodes(), Before); // re-requests created nothing
  EXPECT_EQ(Ctx.findInterned(ExprKind::Sub, X, X, 0), nullptr);
  EXPECT_EQ(Ctx.findInterned(ExprKind::Const, nullptr, nullptr, ~0ULL),
            nullptr);
  NodeSet Owned;
  size_t Visits = 0;
  Ctx.forEachOwnedNode([&](const Expr *N) {
    ++Visits;
    Owned.insert(N);
  });
  EXPECT_EQ(Visits, Ctx.numNodes());
  EXPECT_EQ(Owned.size(), Ctx.numNodes());
}

TEST(NodeMap, EmplaceKeepsTheFirstValue) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  NodeMap<int> Map;
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.find(X), nullptr); // lookup in a table with no storage
  auto [V, Inserted] = Map.emplace(X, 1);
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(*V, 1);
  auto [Again, InsertedAgain] = Map.emplace(X, 2);
  EXPECT_FALSE(InsertedAgain);
  EXPECT_EQ(*Again, 1);
  EXPECT_EQ(Map.at(X), 1);
  EXPECT_EQ(Map.find(Y), nullptr);
  EXPECT_FALSE(Map.contains(Y));
  Map.at(X) += 5; // at() hands out the stored value
  EXPECT_EQ(*Map.find(X), 6);
  EXPECT_EQ(Map.size(), 1u);
}

TEST(NodeMap, GrowthKeepsEveryEntry) {
  Context Ctx(64);
  std::vector<const Expr *> Keys;
  for (uint64_t I = 0; I < 5000; ++I)
    Keys.push_back(Ctx.getConst(I));
  NodeMap<uint64_t> Map;
  NodeSet Set;
  for (size_t I = 0; I < Keys.size(); ++I) {
    ASSERT_TRUE(Map.emplace(Keys[I], I * 7).second);
    ASSERT_TRUE(Set.insert(Keys[I]));
    ASSERT_FALSE(Set.insert(Keys[I]));
  }
  EXPECT_GE(Map.capacity(), 2 * Keys.size()); // several doublings
  EXPECT_EQ(Map.size(), Keys.size());
  EXPECT_EQ(Set.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    ASSERT_EQ(Map.at(Keys[I]), I * 7);
    ASSERT_TRUE(Set.contains(Keys[I]));
  }
  EXPECT_EQ(Map.find(Ctx.getVar("x")), nullptr);
  EXPECT_FALSE(Set.contains(Ctx.getVar("x")));

  // reserve() re-places the entries once; the reserved count then fits.
  NodeMap<uint64_t> Reserved;
  Reserved.emplace(Keys[0], 0);
  Reserved.reserve(1000);
  size_t Capacity = Reserved.capacity();
  EXPECT_GE(Capacity, 2000u);
  for (size_t I = 0; I < 1000; ++I)
    Reserved.emplace(Keys[I], I);
  EXPECT_EQ(Reserved.capacity(), Capacity);
  EXPECT_EQ(Reserved.at(Keys[0]), 0u); // the first value was kept
  EXPECT_EQ(Reserved.at(Keys[999]), 999u);
}

TEST(NodeMap, ClearReusesOrReleasesStorage) {
  Context Ctx(64);
  std::vector<const Expr *> Keys;
  for (uint64_t I = 0; I < 20000; ++I)
    Keys.push_back(Ctx.getConst(I));
  NodeMap<const Expr *> Map;
  for (int I = 0; I < 100; ++I)
    Map.emplace(Keys[I], Keys[I + 1]);
  size_t SmallCapacity = Map.capacity();
  Map.clear();
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.capacity(), SmallCapacity); // kept for the next call
  EXPECT_EQ(Map.find(Keys[0]), nullptr);
  Map.emplace(Keys[7], Keys[0]);
  EXPECT_EQ(Map.at(Keys[7]), Keys[0]);
  EXPECT_EQ(Map.size(), 1u);

  // One huge call, then a small one: the small call's clear frees the
  // storage the huge one grew instead of keeping it forever.
  Map.clear();
  for (const Expr *K : Keys)
    Map.emplace(K, K);
  size_t HugeCapacity = Map.capacity();
  Map.clear();
  EXPECT_EQ(Map.capacity(), HugeCapacity);
  for (int I = 0; I < 10; ++I)
    Map.emplace(Keys[I], nullptr);
  Map.clear();
  EXPECT_LT(Map.capacity(), HugeCapacity / 16);
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(Map.emplace(Keys[I], Keys[I]).second);
  EXPECT_EQ(Map.at(Keys[9]), Keys[9]);
}

TEST(Context, SimplifiedTextIsIndependentOfTableLayout) {
  // The same corpus slice simplified in a fresh context and in one whose
  // tables were pre-filled with unrelated nodes: node addresses and probe
  // sequences differ, the printed outputs must not.
  Context Gen(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 40;
  std::vector<std::string> Inputs;
  for (const CorpusEntry &Entry : generateCorpus(Gen, Opts))
    Inputs.push_back(printExpr(Gen, Entry.Obfuscated));
  ASSERT_GE(Inputs.size(), 120u);

  auto SimplifyAll = [&](Context &Ctx) {
    MBASolver Solver(Ctx);
    std::vector<std::string> Out;
    for (const std::string &Text : Inputs)
      Out.push_back(printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, Text))));
    return Out;
  };
  Context Fresh(64);
  Context Filled(64);
  RNG Rng(17);
  const Expr *U = Filled.getVar("u"), *W = Filled.getVar("w");
  for (int I = 0; I < 50000; ++I) {
    const Expr *C = Filled.getConst(Rng.next());
    U = Filled.getXor(Filled.getMul(U, C), W);
  }
  EXPECT_EQ(SimplifyAll(Fresh), SimplifyAll(Filled));
}

/// The fingerprint definition as a walk over the DAG, the way it was
/// computed before nodes stored it: each node's hash mixes its kind with
/// its name, its value or its operands' hashes, lhs first. Fills \p Memo,
/// which may be shared between calls, and returns the hash of \p E.
uint64_t referenceFingerprint(const Expr *E, NodeMap<uint64_t> &Memo) {
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    uint64_t H = hashMix64((uint64_t)N->kind() + 0x517cc1b727220a95ULL);
    if (N->isVar())
      H = hashCombine64(H, hashBytes64(N->varName(),
                                       std::strlen(N->varName())));
    else if (N->isConst())
      H = hashCombine64(H, N->constValue());
    for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I)
      H = hashCombine64(H, Memo.at(N->getOperand(I)));
    Memo.emplace(N, H);
  });
  return Memo.at(E);
}

TEST(ExprFingerprint, EveryInternedNodeMatchesTheReferenceWalk) {
  for (unsigned Width : {3u, 64u}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    Context Gen(Width);
    std::vector<std::string> Texts;
    for (const CorpusEntry &Entry : generateCorpus(Gen, CorpusOptions())) {
      Texts.push_back(printExpr(Gen, Entry.Ground));
      Texts.push_back(printExpr(Gen, Entry.Obfuscated));
    }
    ASSERT_EQ(Texts.size(), 6000u);

    // Two contexts interning the texts in opposite orders: node addresses
    // and creation order differ, fingerprints must not.
    Context Forward(Width), Backward(Width);
    std::vector<const Expr *> F, B(Texts.size());
    for (const std::string &T : Texts)
      F.push_back(parseOrDie(Forward, T));
    for (size_t I = Texts.size(); I-- != 0;)
      B[I] = parseOrDie(Backward, Texts[I]);
    for (size_t I = 0; I != Texts.size(); ++I)
      ASSERT_EQ(exprFingerprint(F[I]), exprFingerprint(B[I])) << Texts[I];

    for (const Context *Ctx : {&Forward, &Backward}) {
      NodeMap<uint64_t> Memo;
      size_t Checked = 0;
      Ctx->forEachOwnedNode([&](const Expr *N) {
        ++Checked;
        EXPECT_EQ(exprFingerprint(N), referenceFingerprint(N, Memo));
      });
      EXPECT_EQ(Checked, Ctx->numNodes());
    }
  }
}

TEST(ExprFingerprint, HundredThousandLevelChainMatchesTheReference) {
  Context Ctx(64);
  const Expr *E = Ctx.getVar("x");
  for (uint64_t K = 1; K <= 100000; ++K)
    E = Ctx.getAdd(E, Ctx.getConst(K));
  NodeMap<uint64_t> Memo;
  EXPECT_EQ(exprFingerprint(E), referenceFingerprint(E, Memo));
}

TEST(Context, ReinterningEveryNodeReturnsTheSameNode) {
  // A fresh context holding a corpus slice: asking again for each node's
  // key, through the builders and through findInterned, must find the node
  // itself. Operator nodes keep their fingerprint where constants keep
  // their value, so a lookup that compared that slot for every kind would
  // miss here.
  Context Gen(64);
  CorpusOptions Opts;
  Opts.LinearCount = Opts.PolyCount = Opts.NonPolyCount = 100;
  std::vector<CorpusEntry> Corpus = generateCorpus(Gen, Opts);
  Context Ctx(64);
  for (const CorpusEntry &Entry : Corpus) {
    cloneExpr(Ctx, Entry.Ground);
    cloneExpr(Ctx, Entry.Obfuscated);
  }
  std::vector<const Expr *> Owned;
  Ctx.forEachOwnedNode([&](const Expr *N) { Owned.push_back(N); });
  size_t Before = Ctx.numNodes();
  ASSERT_EQ(Owned.size(), Before);
  for (const Expr *N : Owned) {
    const Expr *Again;
    uint64_t Aux = 0;
    switch (N->kind()) {
    case ExprKind::Var:
      Again = Ctx.getVar(N->varName());
      Aux = N->varIndex();
      break;
    case ExprKind::Const:
      Again = Ctx.getConst(N->constValue());
      Aux = N->constValue();
      break;
    default:
      Again = N->isUnary() ? Ctx.getUnary(N->kind(), N->operand())
                           : Ctx.getBinary(N->kind(), N->lhs(), N->rhs());
      break;
    }
    EXPECT_EQ(Again, N);
    EXPECT_EQ(Ctx.findInterned(N->kind(), N->isLeaf() ? nullptr : N->lhs(),
                               N->isBinary() ? N->rhs() : nullptr, Aux),
              N);
  }
  EXPECT_EQ(Ctx.numNodes(), Before);
}

TEST(ExprKindPredicates, Classification) {
  EXPECT_TRUE(isArithmeticKind(ExprKind::Add));
  EXPECT_TRUE(isArithmeticKind(ExprKind::Neg));
  EXPECT_FALSE(isArithmeticKind(ExprKind::And));
  EXPECT_TRUE(isBitwiseKind(ExprKind::Not));
  EXPECT_TRUE(isBitwiseKind(ExprKind::Xor));
  EXPECT_FALSE(isBitwiseKind(ExprKind::Mul));
  EXPECT_TRUE(isCommutativeKind(ExprKind::Mul));
  EXPECT_FALSE(isCommutativeKind(ExprKind::Sub));
}

TEST(Evaluator, BasicOperators) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  uint64_t Vals[] = {7, 12};
  EXPECT_EQ(evaluate(Ctx, Ctx.getAdd(X, Y), Vals), 19u);
  EXPECT_EQ(evaluate(Ctx, Ctx.getSub(X, Y), Vals), (uint64_t)-5);
  EXPECT_EQ(evaluate(Ctx, Ctx.getMul(X, Y), Vals), 84u);
  EXPECT_EQ(evaluate(Ctx, Ctx.getAnd(X, Y), Vals), 4u);
  EXPECT_EQ(evaluate(Ctx, Ctx.getOr(X, Y), Vals), 15u);
  EXPECT_EQ(evaluate(Ctx, Ctx.getXor(X, Y), Vals), 11u);
  EXPECT_EQ(evaluate(Ctx, Ctx.getNot(X), Vals), ~7ULL);
  EXPECT_EQ(evaluate(Ctx, Ctx.getNeg(X), Vals), (uint64_t)-7);
}

TEST(Evaluator, NarrowWidthWraps) {
  Context Ctx(8);
  const Expr *X = Ctx.getVar("x");
  uint64_t Vals[] = {200};
  EXPECT_EQ(evaluate(Ctx, Ctx.getAdd(X, X), Vals), (200 + 200) & 0xffu);
  EXPECT_EQ(evaluate(Ctx, Ctx.getMul(X, X), Vals), (200 * 200) & 0xffu);
}

TEST(Evaluator, MissingVariableIsZero) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  uint64_t Vals[] = {3}; // y unbound
  EXPECT_EQ(evaluate(Ctx, Ctx.getOr(X, Y), Vals), 3u);
}

TEST(Evaluator, MapOverload) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  std::unordered_map<const Expr *, uint64_t> Vals = {{X, 41}};
  EXPECT_EQ(evaluate(Ctx, Ctx.getAdd(X, Ctx.getOne()), Vals), 42u);
}

TEST(Evaluator, HundredThousandLevelChainEvaluatesWithoutRecursion) {
  // x+1+2+...+100000, left-deep. An evaluator that recursed once per level
  // overflowed the stack on this chain.
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *E = X;
  for (uint64_t K = 1; K <= 100000; ++K)
    E = Ctx.getAdd(E, Ctx.getConst(K));
  uint64_t Vals[] = {5};
  uint64_t Expected = 5 + 100000ULL * 100001ULL / 2;
  EXPECT_EQ(evaluate(Ctx, E, Vals), Expected);
  std::unordered_map<const Expr *, uint64_t> Map = {{X, 5}};
  EXPECT_EQ(evaluate(Ctx, E, Map), Expected);
}

TEST(Evaluator, HackersDelightIdentities) {
  // Classic identities from the paper's Background section hold for random
  // inputs: x | y == (x & ~y) + y and x ^ y == (x | y) - (x & y).
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  const Expr *Lhs1 = Ctx.getOr(X, Y);
  const Expr *Rhs1 = Ctx.getAdd(Ctx.getAnd(X, Ctx.getNot(Y)), Y);
  const Expr *Lhs2 = Ctx.getXor(X, Y);
  const Expr *Rhs2 = Ctx.getSub(Ctx.getOr(X, Y), Ctx.getAnd(X, Y));
  RNG Rng(1);
  for (int I = 0; I < 100; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next()};
    EXPECT_EQ(evaluate(Ctx, Lhs1, Vals), evaluate(Ctx, Rhs1, Vals));
    EXPECT_EQ(evaluate(Ctx, Lhs2, Vals), evaluate(Ctx, Rhs2, Vals));
  }
}

TEST(Parser, PrecedenceMatchesPython) {
  Context Ctx(64);
  // '&' binds looser than '+': x&y+2 == x & (y+2).
  const Expr *E = parseOrDie(Ctx, "x&y+2");
  ASSERT_EQ(E->kind(), ExprKind::And);
  EXPECT_EQ(E->rhs()->kind(), ExprKind::Add);
  // '|' loosest, '^' between '|' and '&'.
  const Expr *F = parseOrDie(Ctx, "a|b^c&d");
  ASSERT_EQ(F->kind(), ExprKind::Or);
  EXPECT_EQ(F->rhs()->kind(), ExprKind::Xor);
  ASSERT_EQ(F->rhs()->rhs()->kind(), ExprKind::And);
}

TEST(Parser, UnaryOperators) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "~x * -y");
  ASSERT_EQ(E->kind(), ExprKind::Mul);
  EXPECT_EQ(E->lhs()->kind(), ExprKind::Not);
  EXPECT_EQ(E->rhs()->kind(), ExprKind::Neg);
  // Double negation parses.
  const Expr *F = parseOrDie(Ctx, "--x");
  ASSERT_EQ(F->kind(), ExprKind::Neg);
  EXPECT_EQ(F->operand()->kind(), ExprKind::Neg);
}

TEST(Parser, NegativeConstantsFold) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "-1");
  ASSERT_TRUE(E->isConst());
  EXPECT_EQ(E->constValue(), ~0ULL);
  const Expr *F = parseOrDie(Ctx, "~0");
  ASSERT_TRUE(F->isConst());
  EXPECT_EQ(F->constValue(), ~0ULL);
}

TEST(Parser, HexLiterals) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "0xdeadBEEF");
  ASSERT_TRUE(E->isConst());
  EXPECT_EQ(E->constValue(), 0xdeadbeefULL);
}

TEST(Parser, SubtractionIsLeftAssociative) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "a-b-c");
  ASSERT_EQ(E->kind(), ExprKind::Sub);
  EXPECT_EQ(E->lhs()->kind(), ExprKind::Sub);
  uint64_t Vals[] = {10, 3, 2};
  EXPECT_EQ(evaluate(Ctx, E, Vals), 5u);
}

TEST(Parser, PaperFigure1Expression) {
  Context Ctx(64);
  const Expr *E =
      parseOrDie(Ctx, "(x&~y)*(~x&y) + (x&y)*(x|y)");
  const Expr *XY = parseOrDie(Ctx, "x*y");
  RNG Rng(7);
  for (int I = 0; I < 200; ++I) {
    uint64_t Vals[] = {Rng.next(), Rng.next()};
    EXPECT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, XY, Vals));
  }
}

TEST(Parser, ErrorsAreReported) {
  Context Ctx(64);
  EXPECT_FALSE(parseExpr(Ctx, "x +").ok());
  EXPECT_FALSE(parseExpr(Ctx, "(x").ok());
  EXPECT_FALSE(parseExpr(Ctx, "x $ y").ok());
  EXPECT_FALSE(parseExpr(Ctx, "").ok());
  EXPECT_FALSE(parseExpr(Ctx, "x y").ok());
  ParseResult R = parseExpr(Ctx, "x + $");
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(R.ErrorPos, 4u);
}

// Every diagnostic of the parser, pinned by message and byte offset. An
// empty message marks an input that must parse.
TEST(Parser, DiagnosticsTable) {
  struct Row {
    std::string In;
    const char *Error;
    size_t Pos;
  };
  const Row Rows[] = {
      {"", "unexpected end of input", 0},
      {"   ", "unexpected end of input", 3},
      {"x +", "unexpected end of input", 3},
      {"x + ", "unexpected end of input", 4},
      {"(x", "expected ')'", 2},
      {"( x ", "expected ')'", 4},
      {"x $ y", "unexpected trailing input", 2},
      {"x y", "unexpected trailing input", 2},
      {"x + $", "unexpected character '$'", 4},
      {")", "unexpected character ')'", 0},
      {"x)", "unexpected trailing input", 1},
      {"()", "unexpected character ')'", 1},
      {"(x))", "unexpected trailing input", 3},
      {"0x", "unexpected trailing input", 1},
      {"0xg", "expected hex digits after 0x", 2},
      {"0x ", "expected hex digits after 0x", 2},
      {"0X", "unexpected trailing input", 1},
      {"0x1g", "unexpected trailing input", 3},
      {"x ^^ y", "unexpected character '^'", 3},
      {"-", "unexpected end of input", 1},
      {"~", "unexpected end of input", 1},
      {"- ", "unexpected end of input", 2},
      {"x * * y", "unexpected character '*'", 4},
      {"x ** y", "unexpected character '*'", 3},
      {"x &", "unexpected end of input", 3},
      {"x |", "unexpected end of input", 3},
      {"x | | y", "unexpected character '|'", 4},
      {"x - ", "unexpected end of input", 4},
      {"1 2", "unexpected trailing input", 2},
      {"12 x", "unexpected trailing input", 3},
      {"x\t+\n$", "unexpected character '$'", 4},
      {"((x)", "expected ')'", 4},
      {"(x+y", "expected ')'", 4},
      {"   (   x   +   y  ", "expected ')'", 18},
      {"x+y)", "unexpected trailing input", 3},
      {"x + (y * )", "unexpected character ')'", 9},
      {"-(x + )", "unexpected character ')'", 6},
      {"~(", "unexpected end of input", 2},
      {"9abc", "unexpected trailing input", 1},
      {"a.b", "unexpected trailing input", 1},
      {"x @", "unexpected trailing input", 2},
      {"x // y", "unexpected trailing input", 2},
      {"x < y", "unexpected trailing input", 2},
      {"x != y", "unexpected trailing input", 2},
      {"x + \xC3\xA9", "unexpected character '\xC3'", 4},
      {"x\v+\fy", "", 0},
      // The nesting cap: 2048 levels of parentheses and prefix operators
      // together parse, the next level is the diagnostic.
      {std::string(2048, '(') + "x" + std::string(2048, ')'),
       "nesting deeper than 2048 levels", 2048},
      {std::string(2047, '(') + "x" + std::string(2047, ')'), "", 0},
      {std::string(2048, '~') + "x", "nesting deeper than 2048 levels", 2048},
      {std::string(2047, '~') + "x", "", 0},
      {"y + " + std::string(2047, '-') + "(x)",
       "nesting deeper than 2048 levels", 2052},
      {"y + " + std::string(2046, '-') + "(x)", "", 0},
      {std::string(1000, '(') + " " + std::string(1048, '~') + " x" +
           std::string(1000, ')'),
       "nesting deeper than 2048 levels", 2049},
  };
  for (const Row &R : Rows) {
    Context Ctx(64);
    ParseResult P = parseExpr(Ctx, R.In);
    std::string Shown = R.In.size() > 40 ? R.In.substr(0, 40) + "..." : R.In;
    EXPECT_EQ(P.ok(), !*R.Error) << Shown;
    EXPECT_EQ(P.Error, R.Error) << Shown;
    EXPECT_EQ(P.ErrorPos, R.Pos) << Shown;
  }
}

TEST(Parser, NestingBeyondTheCapIsADiagnostic) {
  Context Ctx(64);
  // 100k levels used to overflow the recursive descent's stack.
  std::string Deep = std::string(100000, '(') + "x" + std::string(100000, ')');
  ParseResult R = parseExpr(Ctx, Deep);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("nesting"), std::string::npos) << R.Error;
  // Prefix operators recurse too and share the cap.
  R = parseExpr(Ctx, std::string(100000, '~') + "x");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("nesting"), std::string::npos) << R.Error;
}

TEST(Parser, ThousandLevelsStillParse) {
  Context Ctx(64);
  std::string Parens;
  for (int I = 0; I < 1000; ++I)
    Parens += "(x+";
  Parens += "1" + std::string(1000, ')');
  ParseResult R = parseExpr(Ctx, Parens);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(countDagNodes(R.E), 1002u); // 1000 sums over a shared x and 1
  R = parseExpr(Ctx, std::string(1000, '~') + "x");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(countDagNodes(R.E), 1001u);
}

TEST(Parser, CapDepthWithEveryPrecedenceRiseParses) {
  // Each level climbs through all five operator precedences before its
  // parenthesis: the most stack one level takes, at the deepest level the
  // cap admits.
  Context Ctx(64);
  std::string Text;
  for (int I = 0; I < 2047; ++I)
    Text += "a|b^c&d+e*(";
  Text += "x" + std::string(2047, ')');
  ParseResult R = parseExpr(Ctx, Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(countDagNodes(R.E), 6u + 5u * 2047u); // 6 leaves, 5 ops a level
}

TEST(Printer, ConstantsPrintSigned) {
  Context Ctx(64);
  EXPECT_EQ(printExpr(Ctx, Ctx.getAllOnes()), "-1");
  EXPECT_EQ(printExpr(Ctx, Ctx.getConst(42)), "42");
}

TEST(Printer, MinimalParentheses) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *Y = Ctx.getVar("y");
  const Expr *Z = Ctx.getVar("z");
  EXPECT_EQ(printExpr(Ctx, Ctx.getAdd(Ctx.getMul(X, Y), Z)), "x*y+z");
  EXPECT_EQ(printExpr(Ctx, Ctx.getMul(Ctx.getAdd(X, Y), Z)), "(x+y)*z");
  EXPECT_EQ(printExpr(Ctx, Ctx.getAnd(Ctx.getAdd(X, Y), Z)), "x+y&z");
  EXPECT_EQ(printExpr(Ctx, Ctx.getAdd(Ctx.getAnd(X, Y), Z)), "(x&y)+z");
  EXPECT_EQ(printExpr(Ctx, Ctx.getSub(X, Ctx.getSub(Y, Z))), "x-(y-z)");
  EXPECT_EQ(printExpr(Ctx, Ctx.getSub(Ctx.getSub(X, Y), Z)), "x-y-z");
}

TEST(Printer, DeepChainsPrintWithoutRecursion) {
  // 100k levels used to overflow the recursive printer's stack.
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *One = Ctx.getConst(1);
  const Expr *Left = X, *Right = One, *Nots = X;
  std::string LeftText = "x", RightText;
  for (int I = 0; I < 100000; ++I) {
    Left = Ctx.getAdd(Left, One); // ((x+1)+1)...: no parentheses
    Right = Ctx.getSub(X, Right); // x-(x-(...)): one pair per inner level
    Nots = Ctx.getNot(Nots);
    LeftText += "+1";
  }
  for (int I = 0; I < 99999; ++I)
    RightText += "x-(";
  RightText += "x-1" + std::string(99999, ')');
  EXPECT_EQ(printExpr(Ctx, Left), LeftText);
  EXPECT_EQ(printExpr(Ctx, Right), RightText);
  EXPECT_EQ(printExpr(Ctx, Nots), std::string(100000, '~') + "x");
}

TEST(Printer, RoundTripPreservesSemantics) {
  Context Ctx(64);
  RNG Rng(99);
  const char *Samples[] = {
      "x+2*y+(x&y)-3*(x^y)+4",
      "2*(x|y)-(~x&y)-(x&~y)",
      "(x&~y)*(~x&y)+(x&y)*(x|y)",
      "((x&~y-~x&y)|z)+((x&~y-~x&y)&z)",
      "~(x-1)",
      "-x-1",
      "x^y^z^w",
  };
  for (const char *S : Samples) {
    const Expr *E = parseOrDie(Ctx, S);
    std::string Printed = printExpr(Ctx, E);
    const Expr *F = parseOrDie(Ctx, Printed);
    for (int I = 0; I < 50; ++I) {
      uint64_t Vals[] = {Rng.next(), Rng.next(), Rng.next(), Rng.next()};
      EXPECT_EQ(evaluate(Ctx, E, Vals), evaluate(Ctx, F, Vals))
          << "sample: " << S << " printed: " << Printed;
    }
  }
}

TEST(ExprUtils, CollectVariablesSortsByName) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "b + a*c + a");
  auto Vars = collectVariables(E);
  ASSERT_EQ(Vars.size(), 3u);
  EXPECT_STREQ(Vars[0]->varName(), "a");
  EXPECT_STREQ(Vars[1]->varName(), "b");
  EXPECT_STREQ(Vars[2]->varName(), "c");
}

TEST(ExprUtils, ContainsSubExpr) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "(x&y) + z");
  const Expr *Sub = parseOrDie(Ctx, "x&y");
  const Expr *Other = parseOrDie(Ctx, "x|y");
  EXPECT_TRUE(containsSubExpr(E, Sub));
  EXPECT_FALSE(containsSubExpr(E, Other));
}

TEST(ExprUtils, CountNodes) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  const Expr *S = Ctx.getAdd(X, X); // shared leaf
  EXPECT_EQ(countDagNodes(S), 2u);
  EXPECT_EQ(countTreeNodes(S), 3u);
}

TEST(ExprUtils, SubstituteReplacesAllOccurrences) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "(x-y)|z");
  const Expr *T = Ctx.getVar("t");
  const Expr *XY = parseOrDie(Ctx, "x-y");
  std::unordered_map<const Expr *, const Expr *> Map = {{XY, T}};
  const Expr *R = substitute(Ctx, E, Map);
  EXPECT_EQ(R, parseOrDie(Ctx, "t|z"));
}

TEST(ExprUtils, SubstituteIsNonRecursive) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x");
  // x -> x+1 must not loop on the substituted x.
  std::unordered_map<const Expr *, const Expr *> Map = {
      {X, Ctx.getAdd(X, Ctx.getOne())}};
  const Expr *R = substitute(Ctx, Ctx.getMul(X, X), Map);
  EXPECT_EQ(R, parseOrDie(Ctx, "(x+1)*(x+1)"));
}

TEST(ExprUtils, RewriteBottomUpFoldsConstants) {
  Context Ctx(64);
  const Expr *E = parseOrDie(Ctx, "(2+3)*x");
  const Expr *R = rewriteBottomUp(Ctx, E, [&](const Expr *N) -> const Expr * {
    if (N->isBinary() && N->lhs()->isConst() && N->rhs()->isConst()) {
      uint64_t A = N->lhs()->constValue(), B = N->rhs()->constValue();
      if (N->kind() == ExprKind::Add)
        return Ctx.getConst(A + B);
    }
    return N;
  });
  EXPECT_EQ(R, parseOrDie(Ctx, "5*x"));
}

TEST(ExprUtils, RewriteBottomUpCallbackOrder) {
  // Each node after its operands, the rhs sub-DAG before the lhs one — the
  // order the recursive implementation had under GCC, which the
  // order-sensitive callers (encodeArithmetic draws random numbers per
  // node) rely on for reproducible output.
  Context Ctx(64);
  std::vector<std::string> Seen;
  rewriteBottomUp(Ctx, parseOrDie(Ctx, "(a+b)*(c&d)"),
                  [&](const Expr *N) -> const Expr * {
                    Seen.push_back(printExpr(Ctx, N));
                    return N;
                  });
  std::vector<std::string> Expected = {"d", "c",   "c&d",       "b",
                                       "a", "a+b", "(a+b)*(c&d)"};
  EXPECT_EQ(Seen, Expected);
}

TEST(ExprUtils, SubstituteCompletesOnDeepChain) {
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  const Expr *OverX = X, *OverY = Y;
  for (int I = 0; I < 200000; ++I) {
    OverX = Ctx.getAdd(OverX, Ctx.getOne());
    OverY = Ctx.getAdd(OverY, Ctx.getOne());
  }
  std::unordered_map<const Expr *, const Expr *> Map = {{X, Y}};
  EXPECT_EQ(substitute(Ctx, OverX, Map), OverY); // hash-consed: same node
}

TEST(ExprUtils, UnseenWalkIsLinearWhenDrivenBottomUp) {
  // One walk per node of a 5000-deep chain over one memo — the pattern of
  // a bottom-up rewrite that analyses every node it rebuilds. Each walk
  // must stop at the memo: the total work is linear, where re-walking
  // every sub-DAG would cost ~12.5M membership tests.
  Context Ctx(64);
  std::vector<const Expr *> Chain = {Ctx.getVar("x")};
  for (int I = 0; I < 5000; ++I)
    Chain.push_back(Ctx.getAdd(Chain.back(), Ctx.getOne()));
  struct CountingSeen {
    std::unordered_set<const Expr *> Set;
    mutable size_t Lookups = 0;
    bool contains(const Expr *N) const {
      ++Lookups;
      return Set.contains(N);
    }
  } Seen;
  size_t Visits = 0;
  for (const Expr *N : Chain)
    forEachUnseenPostOrder(N, Seen, [&](const Expr *V) {
      Seen.Set.insert(V);
      ++Visits;
    });
  EXPECT_EQ(Visits, countDagNodes(Chain.back()));
  EXPECT_LE(Seen.Lookups, 6 * Visits);
}

TEST(ExprUtils, DeepExpressionDoesNotOverflowStack) {
  Context Ctx(64);
  const Expr *E = Ctx.getVar("x");
  for (int I = 0; I < 200000; ++I)
    E = Ctx.getAdd(E, Ctx.getOne());
  EXPECT_EQ(countDagNodes(E), 200002u);
}

TEST(ExprUtils, CloneExprPreservesStructureAcrossContexts) {
  Context Src(32);
  const Expr *E = parseOrDie(Src, "2*(x|y) - (~x&y) + (x^y)*(x^y) - 7");
  Context Dst(32);
  // Different interning history in the destination: x/y get new indices.
  Dst.getVar("q");
  const Expr *C = cloneExpr(Dst, E);
  EXPECT_EQ(printExpr(Src, E), printExpr(Dst, C));
  for (uint64_t X : {0ull, 1ull, 0xFFFFFFFFull, 0x1234ull})
    for (uint64_t Y : {0ull, 7ull, 0x80000000ull}) {
      std::vector<uint64_t> SrcVals(Src.numVars(), 0);
      SrcVals[Src.getVar("x")->varIndex()] = X;
      SrcVals[Src.getVar("y")->varIndex()] = Y;
      std::vector<uint64_t> DstVals(Dst.numVars(), 0);
      DstVals[Dst.getVar("x")->varIndex()] = X;
      DstVals[Dst.getVar("y")->varIndex()] = Y;
      EXPECT_EQ(evaluate(Src, E, SrcVals), evaluate(Dst, C, DstVals));
    }
}

TEST(ExprUtils, CloneExprSharesClonedSubtrees) {
  Context Src(64);
  const Expr *X = Src.getVar("x");
  const Expr *Shared = Src.getMul(X, X);
  const Expr *E = Src.getAdd(Shared, Src.getNot(Shared));
  Context Dst(64);
  const Expr *C = cloneExpr(Dst, E);
  // Interning in the destination re-establishes the sharing.
  EXPECT_EQ(C->lhs(), C->rhs()->operand());
  EXPECT_EQ(countDagNodes(C), countDagNodes(E));
}

TEST(ExprUtils, CloneExprDeepTowerDoesNotOverflowStack) {
  Context Src(64);
  const Expr *E = Src.getVar("x");
  for (int I = 0; I < 200000; ++I)
    E = Src.getAdd(E, Src.getOne());
  Context Dst(64);
  EXPECT_EQ(countDagNodes(cloneExpr(Dst, E)), 200002u);
}

} // namespace
