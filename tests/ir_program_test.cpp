//===- tests/ir_program_test.cpp - SSA program IR tests -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "ast/Evaluator.h"
#include "ast/Printer.h"
#include "gen/Obfuscator.h"
#include "gen/ProgramGen.h"
#include "ir/Passes.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace mba;

namespace {

const char *DiamondText = R"(
# opaque diamond over two parameters
func @demo(x, y) {
entry:
  p = (x | 1) & 1
  br p, left, right
left:
  a = x + y
  jmp join
right:
  b = x - y
  jmp join
join:
  m = phi [left: a], [right: b]
  ret m
}
)";

Diag parseFail(Context &Ctx, const std::string &Text) {
  Diag D;
  auto P = Program::parse(Ctx, Text, &D);
  EXPECT_FALSE(P.has_value()) << "expected parse failure for:\n" << Text;
  return D;
}

TEST(IRParse, ParsesDiamond) {
  Context Ctx(64);
  Diag D;
  auto P = Program::parse(Ctx, DiamondText, &D);
  ASSERT_TRUE(P.has_value()) << D.str();
  ASSERT_EQ(P->Functions.size(), 1u);
  const Function &F = P->Functions.front();
  EXPECT_EQ(F.Name, "demo");
  ASSERT_EQ(F.Params.size(), 2u);
  EXPECT_STREQ(F.Params[0]->varName(), "x");
  ASSERT_EQ(F.numBlocks(), 4u);
  EXPECT_EQ(F.entry().Name, "entry");
  EXPECT_EQ(F.findBlock("join"), 3);
  EXPECT_EQ(F.findBlock("nope"), -1);
  const BasicBlock &Join = F.Blocks[3];
  ASSERT_EQ(Join.Phis.size(), 1u);
  EXPECT_STREQ(Join.Phis[0].Dest->varName(), "m");
  ASSERT_EQ(Join.Phis[0].Incoming.size(), 2u);
  EXPECT_EQ(Join.Phis[0].Incoming[0].first, 1u); // left
  EXPECT_EQ(Join.Phis[0].Incoming[1].first, 2u); // right
}

TEST(IRParse, ForwardLabelReferencesResolve) {
  // Regression: terminator/phi label slots must survive the block vector
  // growing while later blocks are parsed (an early version stored raw
  // pointers into F.Blocks and silently resolved every target to 0).
  Context Ctx(64);
  auto P = Program::parse(Ctx, DiamondText);
  ASSERT_TRUE(P.has_value());
  const Function &F = P->Functions.front();
  EXPECT_EQ(F.Blocks[0].Term.Succs[0], 1u); // entry -> left (taken)
  EXPECT_EQ(F.Blocks[0].Term.Succs[1], 2u); // entry -> right
  EXPECT_EQ(F.Blocks[1].Term.Succs[0], 3u); // left -> join
  EXPECT_EQ(F.Blocks[2].Term.Succs[0], 3u); // right -> join
}

TEST(IRParse, MultipleFunctionsAndLookup) {
  Context Ctx(64);
  auto P = Program::parse(Ctx,
                          "func @a(x) {\nentry:\n  ret x\n}\n"
                          "func @b(y) {\nentry:\n  ret y + 1\n}\n");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Functions.size(), 2u);
  EXPECT_NE(P->findFunction("a"), nullptr);
  EXPECT_NE(P->findFunction("b"), nullptr);
  EXPECT_EQ(P->findFunction("c"), nullptr);
}

TEST(IRParse, NegativePhiConstants) {
  Context Ctx(64);
  auto P = Program::parse(Ctx,
                          "func @f(x) {\nentry:\n  br x, a, b\n"
                          "a:\n  jmp join\nb:\n  jmp join\n"
                          "join:\n  m = phi [a: -1], [b: 3]\n  ret m\n}\n");
  ASSERT_TRUE(P.has_value());
  const PhiNode &Phi = P->Functions[0].Blocks[3].Phis[0];
  ASSERT_TRUE(Phi.Incoming[0].second->isConst());
  EXPECT_EQ(Phi.Incoming[0].second->constValue(), UINT64_MAX);
  EXPECT_EQ(Phi.Incoming[1].second->constValue(), 3u);
}

TEST(IRPrint, RoundTripIsCanonical) {
  Context Ctx(64);
  auto P = Program::parse(Ctx, DiamondText);
  ASSERT_TRUE(P.has_value());
  std::string Printed = P->print(Ctx);
  Diag D;
  auto P2 = Program::parse(Ctx, Printed, &D);
  ASSERT_TRUE(P2.has_value()) << D.str();
  EXPECT_EQ(P2->print(Ctx), Printed);
}

//===----------------------------------------------------------------------===//
// Diagnostics: every rejection carries line, column, and offending token.
//===----------------------------------------------------------------------===//

TEST(IRDiag, TopLevelMustBeFunc) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "garbage here\n");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Col, 1u);
  EXPECT_EQ(D.Token, "garbage");
  EXPECT_NE(D.Message.find("expected 'func'"), std::string::npos);
  EXPECT_NE(D.str().find("line 1, col 1"), std::string::npos);
  EXPECT_NE(D.str().find("near 'garbage'"), std::string::npos);
}

TEST(IRDiag, MissingAtBeforeName) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func f(x) {\n");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_NE(D.Message.find("'@'"), std::string::npos);
}

TEST(IRDiag, DuplicateParameter) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x, x) {\nentry:\n  ret x\n}\n");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Token, "x");
  EXPECT_EQ(D.Col, 12u);
  EXPECT_NE(D.Message.find("duplicate parameter"), std::string::npos);
}

TEST(IRDiag, BadExpressionPointsAtColumn) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  a = x +\n  ret a\n}\n");
  EXPECT_EQ(D.Line, 3u);
  EXPECT_GT(D.Col, 6u); // inside the expression, past 'a ='
}

TEST(IRDiag, MissingTerminatorBeforeLabel) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  a = x\nnext:\n  ret a\n}\n");
  EXPECT_EQ(D.Line, 4u);
  EXPECT_EQ(D.Token, "next");
  EXPECT_NE(D.Message.find("no terminator"), std::string::npos);
}

TEST(IRDiag, MissingTerminatorBeforeClose) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  a = x\n}\n");
  EXPECT_NE(D.Message.find("no terminator"), std::string::npos);
}

TEST(IRDiag, UnknownLabel) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  jmp nowhere\n}\n");
  EXPECT_EQ(D.Line, 3u);
  EXPECT_EQ(D.Col, 7u);
  EXPECT_EQ(D.Token, "nowhere");
  EXPECT_NE(D.Message.find("unknown block label"), std::string::npos);
}

TEST(IRDiag, DuplicateBlockLabel) {
  Context Ctx(64);
  Diag D = parseFail(
      Ctx, "func @f(x) {\nentry:\n  jmp entry\nentry:\n  ret x\n}\n");
  EXPECT_EQ(D.Line, 4u);
  EXPECT_EQ(D.Token, "entry");
  EXPECT_NE(D.Message.find("duplicate block label"), std::string::npos);
}

TEST(IRDiag, RedefinitionViolatesSSA) {
  Context Ctx(64);
  Diag D = parseFail(
      Ctx, "func @f(x) {\nentry:\n  a = x\n  a = x + 1\n  ret a\n}\n");
  EXPECT_EQ(D.Line, 4u);
  EXPECT_EQ(D.Token, "a");
  EXPECT_NE(D.Message.find("redefinition of 'a'"), std::string::npos);
  EXPECT_NE(D.Message.find("line 3"), std::string::npos);
}

TEST(IRDiag, ParameterRedefinition) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  x = 1\n  ret x\n}\n");
  EXPECT_EQ(D.Line, 3u);
  EXPECT_NE(D.Message.find("redefinition"), std::string::npos);
}

TEST(IRDiag, EntryBlockCannotHavePhis) {
  Context Ctx(64);
  Diag D = parseFail(
      Ctx, "func @f(x) {\nentry:\n  m = phi [entry: x]\n  ret m\n}\n");
  EXPECT_NE(D.Message.find("entry block cannot have phi"), std::string::npos);
}

TEST(IRDiag, PhiIncomingMustBePredecessor) {
  // 'lost' has no edge to 'next', so its incoming is a verify error.
  Context Ctx(64);
  Diag D = parseFail(Ctx,
                     "func @g(x) {\nentry:\n  jmp next\n"
                     "lost:\n  ret x\n"
                     "next:\n  m = phi [entry: x], [lost: x]\n  ret m\n}\n");
  EXPECT_NE(D.Message.find("not a predecessor"), std::string::npos);
}

TEST(IRDiag, PhiMissingIncoming) {
  Context Ctx(64);
  Diag D = parseFail(Ctx,
                     "func @f(x) {\nentry:\n  br x, a, b\n"
                     "a:\n  jmp join\nb:\n  jmp join\n"
                     "join:\n  m = phi [a: x]\n  ret m\n}\n");
  EXPECT_NE(D.Message.find("missing an incoming"), std::string::npos);
  EXPECT_NE(D.Message.find("'b'"), std::string::npos);
}

TEST(IRDiag, PhiDuplicateIncoming) {
  Context Ctx(64);
  Diag D = parseFail(Ctx,
                     "func @f(x) {\nentry:\n  br x, a, b\n"
                     "a:\n  jmp join\nb:\n  jmp join\n"
                     "join:\n  m = phi [a: x], [a: x]\n  ret m\n}\n");
  EXPECT_NE(D.Message.find("twice"), std::string::npos);
}

TEST(IRDiag, UseOfUndefinedValue) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  ret q\n}\n");
  EXPECT_EQ(D.Line, 3u);
  EXPECT_EQ(D.Token, "q");
  EXPECT_NE(D.Message.find("use of undefined value 'q'"), std::string::npos);
}

TEST(IRDiag, UseNotDominatedByDef) {
  // 'a' is defined only on the left path but used at the join.
  Context Ctx(64);
  Diag D = parseFail(Ctx,
                     "func @f(x) {\nentry:\n  br x, left, join\n"
                     "left:\n  a = x + 1\n  jmp join\n"
                     "join:\n  ret a\n}\n");
  EXPECT_NE(D.Message.find("not dominated"), std::string::npos);
}

TEST(IRDiag, UnexpectedEndOfInput) {
  Context Ctx(64);
  Diag D = parseFail(Ctx, "func @f(x) {\nentry:\n  ret x\n");
  EXPECT_NE(D.Message.find("unexpected end of input"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(IRInterp, StraightLine) {
  Context Ctx(64);
  auto P = Program::parse(
      Ctx, "func @f(x, y) {\nentry:\n  a = x + y\n  b = a * 2\n  ret b\n}\n");
  ASSERT_TRUE(P.has_value());
  uint64_t Args[] = {3, 4};
  auto R = interpretFunction(Ctx, P->Functions[0], Args);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, 14u);
}

TEST(IRInterp, LoopSumsViaPhis) {
  Context Ctx(64);
  auto P = Program::parse(Ctx,
                          "func @sum(n) {\nentry:\n  jmp head\n"
                          "head:\n"
                          "  i = phi [entry: 0], [body: i2]\n"
                          "  s = phi [entry: 0], [body: s2]\n"
                          "  c = i - n\n"
                          "  br c, body, done\n"
                          "body:\n  i2 = i + 1\n  s2 = s + i\n  jmp head\n"
                          "done:\n  ret s\n}\n");
  ASSERT_TRUE(P.has_value());
  for (uint64_t N : {0u, 1u, 5u, 10u}) {
    uint64_t Args[] = {N};
    auto R = interpretFunction(Ctx, P->Functions[0], Args);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(*R, N * (N - 1) / 2) << "n=" << N;
  }
}

TEST(IRInterp, PhisEvaluateInParallel) {
  // One trip through the back edge swaps a and b simultaneously. A
  // sequential (wrong) evaluation would read the already-updated 'a'.
  Context Ctx(64);
  auto P = Program::parse(Ctx,
                          "func @swap(x, y) {\nentry:\n  jmp head\n"
                          "head:\n"
                          "  a = phi [entry: x], [head: b]\n"
                          "  b = phi [entry: y], [head: a]\n"
                          "  t = phi [entry: 0], [head: t2]\n"
                          "  t2 = t + 1\n"
                          "  c = 2 - t2\n"
                          "  br c, head, done\n"
                          "done:\n  r = a + 3*b\n  ret r\n}\n");
  ASSERT_TRUE(P.has_value());
  uint64_t Args[] = {11, 7};
  auto R = interpretFunction(Ctx, P->Functions[0], Args);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, 7u + 3u * 11u); // parallel: a=y, b=x after one swap
}

TEST(IRInterp, FuelStopsRunawayLoops) {
  Context Ctx(64);
  auto P = Program::parse(Ctx, "func @spin(x) {\nentry:\n  jmp entry\n}\n");
  ASSERT_TRUE(P.has_value());
  uint64_t Args[] = {1};
  EXPECT_FALSE(interpretFunction(Ctx, P->Functions[0], Args, 64).has_value());
}

TEST(IRInterp, MissingArgsDefaultToZero) {
  Context Ctx(64);
  auto P = Program::parse(Ctx, "func @f(x, y) {\nentry:\n  ret x + y\n}\n");
  ASSERT_TRUE(P.has_value());
  uint64_t Args[] = {9};
  auto R = interpretFunction(Ctx, P->Functions[0], Args);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, 9u);
}

TEST(IRMetrics, CountsNodesAndInsts) {
  Context Ctx(64);
  auto P = Program::parse(Ctx, DiamondText);
  ASSERT_TRUE(P.has_value());
  const Function &F = P->Functions.front();
  // 4 = 3 instructions + 1 phi.
  EXPECT_EQ(countFunctionInsts(F), 4u);
  // Nodes: every inst rhs, branch cond, ret value, plus 1 + #incomings
  // per phi — just pin that it is stable and nontrivial.
  EXPECT_GT(countFunctionNodes(F), 10u);
}

//===----------------------------------------------------------------------===//
// Straight-line traces (parseTrace): one single-block function per root
//===----------------------------------------------------------------------===//

const char *SampleTrace = R"(
# an obfuscated basic block
t1 = (x | y) + (x & y)
t2 = t1 - y          # t2 == x
t3 = (t2 ^ y) + 2*(t2 & y)
out = t3 * 2 - t3    # out == x + y
dead = t1 * t1
)";

Function traceFunction(Context &Ctx, std::string_view Text,
                       const std::string &Root) {
  Diag D;
  auto P = parseTrace(Ctx, Text, {Root}, &D);
  EXPECT_TRUE(P.has_value()) << D.str();
  return P ? P->Functions.front() : Function();
}

Diag traceFail(Context &Ctx, std::string_view Text, const std::string &Root) {
  Diag D;
  EXPECT_FALSE(parseTrace(Ctx, Text, {Root}, &D).has_value())
      << "expected trace rejection for:\n" << Text;
  return D;
}

/// The trace function's value for inputs x and y.
uint64_t runXY(const Context &Ctx, const Function &F, uint64_t X,
               uint64_t Y) {
  const uint64_t Args[] = {X, Y}; // parameters are the inputs by name
  return *interpretFunction(Ctx, F, Args);
}

TEST(TraceParse, ParsesInstructionsAndComments) {
  Context Ctx(64);
  Function F = traceFunction(Ctx, SampleTrace, "out");
  EXPECT_EQ(F.Name, "out");
  ASSERT_EQ(F.numBlocks(), 1u);
  const BasicBlock &BB = F.entry();
  ASSERT_EQ(BB.Insts.size(), 5u);
  EXPECT_STREQ(BB.Insts[0].Dest->varName(), "t1");
  EXPECT_STREQ(BB.Insts[3].Dest->varName(), "out");
  // Positions are the trace's own lines (the comment line is line 2).
  EXPECT_EQ(BB.Insts[0].Loc.Line, 3u);
  EXPECT_EQ(BB.Term.Kind, TermKind::Ret);
  EXPECT_EQ(BB.Term.Value, Ctx.getVar("out"));
  ASSERT_EQ(F.Params.size(), 2u);
  EXPECT_STREQ(F.Params[0]->varName(), "x");
  EXPECT_STREQ(F.Params[1]->varName(), "y");
}

TEST(TraceParse, RejectsMalformedInput) {
  Context Ctx(64);
  EXPECT_EQ(traceFail(Ctx, "t1 = x +", "t1").Line, 1u);
  traceFail(Ctx, "just text", "just");
  traceFail(Ctx, "1bad = x", "a");
  traceFail(Ctx, " = x", "a");
  // Re-assignment violates single-assignment form.
  Diag D = traceFail(Ctx, "a = x\na = y", "a");
  EXPECT_NE(D.Message.find("redefinition of 'a'"), std::string::npos);
  // Self-reference is not allowed.
  traceFail(Ctx, "a = a + 1", "a");
}

TEST(TraceParse, DiagnosticsCarryColumnAndToken) {
  Context Ctx(64);
  // The '=' is missing: the diagnostic points at the token after the name.
  Diag D = traceFail(Ctx, "just text", "just");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Col, 6u);
  EXPECT_EQ(D.Token, "text");
  EXPECT_NE(D.Message.find("expected '='"), std::string::npos);
  // A bad expression points into the expression text.
  D = traceFail(Ctx, "a = x + + y", "a");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Col, 9u);
  EXPECT_EQ(D.Token, "+");
  EXPECT_NE(D.Message.find("bad expression"), std::string::npos);
  // A destination that is not an identifier points at its first character.
  D = traceFail(Ctx, "1bad = x", "a");
  EXPECT_EQ(D.Col, 1u);
  EXPECT_EQ(D.Token, "1bad");
  D = traceFail(Ctx, " = x", "a");
  EXPECT_EQ(D.Col, 2u);
  EXPECT_EQ(D.Token, "=");
  // A redefinition points at the second definition.
  D = traceFail(Ctx, "a = x\na = y", "a");
  EXPECT_EQ(D.Line, 2u);
  EXPECT_EQ(D.Col, 1u);
  EXPECT_EQ(D.Token, "a");
  // Self-use names the variable.
  D = traceFail(Ctx, "a = a + 1", "a");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Col, 1u);
  EXPECT_EQ(D.Token, "a");
  EXPECT_NE(D.Message.find("use before def"), std::string::npos);
}

TEST(TraceParse, RejectsUseBeforeDef) {
  // 'b' is assigned later in the trace: referencing it earlier would
  // silently read an unrelated input named 'b'.
  Context Ctx(64);
  Diag D = traceFail(Ctx, "a = b + 1\nb = 2", "a");
  EXPECT_EQ(D.Line, 1u);
  EXPECT_EQ(D.Col, 1u);
  EXPECT_EQ(D.Token, "b");
  EXPECT_NE(D.Message.find("use of 'b' is not dominated by its definition"),
            std::string::npos);
}

TEST(TraceParse, EmptyTextIsEmptyTrace) {
  Context Ctx(64);
  auto P = parseTrace(Ctx, "\n# only a comment\n\n", {});
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(P->Functions.empty());
  // A root the trace never assigns (nor reads) is undefined.
  Diag D = traceFail(Ctx, "\n# only a comment\n\n", "out");
  EXPECT_NE(D.Message.find("undefined value 'out'"), std::string::npos);
}

TEST(TraceRun, ExecutesSequentially) {
  Context Ctx(64);
  Diag D;
  auto P = parseTrace(Ctx, "a = x + 1\nb = a * 2\nc = b - x", {"a", "b", "c"},
                      &D);
  ASSERT_TRUE(P.has_value()) << D.str();
  ASSERT_EQ(P->Functions.size(), 3u);
  const uint64_t Args[] = {10};
  EXPECT_EQ(interpretFunction(Ctx, *P->findFunction("a"), Args), 11u);
  EXPECT_EQ(interpretFunction(Ctx, *P->findFunction("b"), Args), 22u);
  EXPECT_EQ(interpretFunction(Ctx, *P->findFunction("c"), Args), 12u);
}

TEST(TraceFlatten, MatchesExecution) {
  Context Ctx(64);
  Function F = traceFunction(Ctx, SampleTrace, "out");
  const Expr *Flat = flattenValue(Ctx, F, Ctx.getVar("out"));
  RNG Rng(3);
  for (int I = 0; I < 100; ++I) {
    uint64_t X = Rng.next(), Y = Rng.next();
    std::unordered_map<const Expr *, uint64_t> In = {{Ctx.getVar("x"), X},
                                                     {Ctx.getVar("y"), Y}};
    EXPECT_EQ(runXY(Ctx, F, X, Y), evaluate(Ctx, Flat, In));
  }
}

TEST(TraceFlatten, InputPassesThrough) {
  Context Ctx(64);
  Function F = traceFunction(Ctx, "a = x + 1", "a");
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  EXPECT_EQ(flattenValue(Ctx, F, X), X);
  EXPECT_EQ(flattenValue(Ctx, F, Y), Y);
}

TEST(TraceDce, RemovesUnreachableInstructions) {
  Context Ctx(64);
  Function F = traceFunction(Ctx, SampleTrace, "out");
  Function Live = F;
  EXPECT_EQ(eliminateDeadInstructions(Live), 1u); // 'dead' dropped
  ASSERT_EQ(Live.entry().Insts.size(), 4u);
  for (const IRInst &I : Live.entry().Insts)
    EXPECT_STRNE(I.Dest->varName(), "dead");
  // Semantics of the root are preserved.
  RNG Rng(4);
  for (int I = 0; I < 50; ++I) {
    uint64_t X = Rng.next(), Y = Rng.next();
    EXPECT_EQ(runXY(Ctx, F, X, Y), runXY(Ctx, Live, X, Y));
  }
}

/// Deobfuscates \p P and returns each function's recovered root text.
std::vector<std::string> recoveredRoots(Context &Ctx, Program &P) {
  ProgramReport Report = deobfuscateProgram(Ctx, P);
  EXPECT_EQ(Report.totalRegionsRewritten(), P.Functions.size())
      << Report.str();
  std::vector<std::string> Out;
  for (const Function &F : P.Functions) {
    EXPECT_EQ(F.entry().Insts.size(), 1u) << printFunction(Ctx, F);
    Out.push_back(printExpr(Ctx, flattenValue(Ctx, F, F.entry().Term.Value)));
  }
  return Out;
}

TEST(TraceDeobfuscate, RecoversSimpleSemantics) {
  Context Ctx(64);
  auto P = parseTrace(Ctx, SampleTrace, {"out"});
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(recoveredRoots(Ctx, *P), (std::vector<std::string>{"x+y"}));
  EXPECT_NE(P->print(Ctx).find("out = x+y"), std::string::npos);
}

TEST(TraceDeobfuscate, MultipleRoots) {
  Context Ctx(64);
  auto P = parseTrace(Ctx, SampleTrace, {"t2", "out"});
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(recoveredRoots(Ctx, *P),
            (std::vector<std::string>{"x", "x+y"}));
}

TEST(TraceDeobfuscate, GeneratedObfuscationRoundTrip) {
  // Write a multi-instruction obfuscated trace with the generator, then
  // deobfuscate and compare semantics on samples.
  Context Ctx(64);
  Obfuscator Obf(Ctx, 99);
  RNG Rng(17);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
  ObfuscationOptions Opts;
  std::string Text =
      "s1 = " + printExpr(Ctx, Obf.obfuscateLinear(Ctx.getAdd(X, Y), Opts)) +
      "\ns2 = " + printExpr(Ctx, Obf.obfuscateLinear(Ctx.getSub(X, Y), Opts)) +
      // result = s1 + s2 == 2x, expressed through the temps.
      "\nresult = s1 + s2\n";
  Diag D;
  auto P = parseTrace(Ctx, Text, {"result"}, &D);
  ASSERT_TRUE(P.has_value()) << D.str();
  const Function Obfuscated = P->Functions.front();
  EXPECT_EQ(recoveredRoots(Ctx, *P), (std::vector<std::string>{"2*x"}));
  const Function &Clean = P->Functions.front();
  for (int I = 0; I < 100; ++I) {
    uint64_t XV = Rng.next(), YV = Rng.next();
    EXPECT_EQ(runXY(Ctx, Obfuscated, XV, YV), runXY(Ctx, Clean, XV, YV));
    EXPECT_EQ(runXY(Ctx, Clean, XV, YV), (2 * XV) & Ctx.mask());
  }
}

TEST(TracePrint, RoundTripsThroughParse) {
  // A lowered trace prints as an ordinary program, which parses back to
  // the same canonical text and the same semantics.
  Context Ctx(64);
  auto P = parseTrace(Ctx, SampleTrace, {"t2", "out"});
  ASSERT_TRUE(P.has_value());
  std::string Text = P->print(Ctx);
  Diag D;
  auto P2 = Program::parse(Ctx, Text, &D);
  ASSERT_TRUE(P2.has_value()) << D.str() << "\n" << Text;
  EXPECT_EQ(P2->print(Ctx), Text);
  ASSERT_EQ(P2->Functions.size(), 2u);
  RNG Rng(5);
  for (int I = 0; I < 50; ++I) {
    uint64_t X = Rng.next(), Y = Rng.next();
    for (size_t F = 0; F != 2; ++F)
      EXPECT_EQ(runXY(Ctx, P->Functions[F], X, Y),
                runXY(Ctx, P2->Functions[F], X, Y));
  }
}

/// Checks one (possibly malformed) program text against the IR parser's
/// contract: a rejected text gets a diagnostic whose line and column lie
/// inside it (one past a line's last character counts, for "expected ..."
/// at its end), and an accepted text prints to a fixed point.
/// Returns whether the text was accepted.
bool expectIRParserContract(Context &Ctx, const std::string &Text) {
  std::string Shown = Text.size() > 80 ? Text.substr(0, 80) + "..." : Text;
  Diag D;
  auto P = Program::parse(Ctx, Text, &D);
  if (!P) {
    std::vector<size_t> LineLens = {0};
    for (char C : Text) {
      if (C == '\n')
        LineLens.push_back(0);
      else
        ++LineLens.back();
    }
    EXPECT_GE(D.Line, 1u) << D.str() << "\n" << Shown;
    EXPECT_LE(D.Line, LineLens.size()) << D.str() << "\n" << Shown;
    EXPECT_GE(D.Col, 1u) << D.str() << "\n" << Shown;
    if (D.Line >= 1 && D.Line <= LineLens.size()) {
      EXPECT_LE(D.Col, LineLens[D.Line - 1] + 1) << D.str() << "\n" << Shown;
    }
    EXPECT_FALSE(D.Message.empty()) << Shown;
    return false;
  }
  std::string Printed = P->print(Ctx);
  Diag D2;
  auto Q = Program::parse(Ctx, Printed, &D2);
  EXPECT_TRUE(Q.has_value()) << Shown << "\nprinted as\n"
                             << Printed << "\n" << D2.str();
  if (Q) {
    EXPECT_EQ(Q->print(Ctx), Printed) << Shown;
  }
  return true;
}

// Randomized mutations of printed generated programs, with fixed seeds:
// every truncation, byte flips and insertions, operand nesting around the
// expression parser's 2048-level cap, and 40-digit constants. The parser
// must never crash, and each result must keep expectIRParserContract.
TEST(IRParse, MutatedProgramsKeepTheContract) {
  Context Gen(64);
  ProgramGenOptions Opts;
  std::vector<std::string> Samples;
  for (const GeneratedProgram &G :
       generateProgramCorpus(Gen, 2, 1, Opts, /*MixBranchy=*/true)) {
    Diag D;
    auto P = Program::parse(Gen, G.Text, &D);
    ASSERT_TRUE(P.has_value()) << D.str();
    Samples.push_back(P->print(Gen));
  }

  Context Ctx(64);
  RNG Rng(1);
  const std::string Alphabet = "(){}[]@,:=+-*&|^~# x_09phjmbret\t\n$\xff";
  size_t Accepted = 0, Rejected = 0;
  auto Check = [&](const std::string &Text) {
    ++(expectIRParserContract(Ctx, Text) ? Accepted : Rejected);
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
  // Both outcomes occur, so neither half of the contract is vacuous.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);

  // Rewrites the operand of the first instruction and of the return.
  auto WithOperands = [](std::string S, auto Wrap) {
    size_t Eq = S.find(" = ");
    size_t Eol = S.find('\n', Eq);
    std::string Rhs = S.substr(Eq + 3, Eol - Eq - 3);
    S.replace(Eq + 3, Rhs.size(), Wrap(Rhs));
    size_t Ret = S.find("ret ");
    Eol = S.find('\n', Ret);
    Rhs = S.substr(Ret + 4, Eol - Ret - 4);
    S.replace(Ret + 4, Rhs.size(), Wrap(Rhs));
    return S;
  };
  for (const std::string &S : Samples) {
    for (size_t Depth : {2047, 2048, 2049}) {
      bool Ok = expectIRParserContract(
          Ctx, WithOperands(S, [&](const std::string &R) {
            return std::string(Depth, '(') + R + std::string(Depth, ')');
          }));
      EXPECT_EQ(Ok, Depth < 2048) << "nesting depth " << Depth;
      expectIRParserContract(Ctx, WithOperands(S, [&](const std::string &R) {
        return std::string(Depth, '~') + "(" + R + ")";
      }));
    }
    const std::string Huge[] = {"1234567890123456789012345678901234567890",
                                "0x" + std::string(40, 'f')};
    for (const std::string &C : Huge) {
      expectIRParserContract(Ctx, WithOperands(S, [&](const std::string &R) {
        return R + "+" + C;
      }));
      expectIRParserContract(Ctx, WithOperands(S, [&](const std::string &) {
        return "-" + C;
      }));
    }
  }
}

} // namespace
