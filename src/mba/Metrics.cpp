//===- mba/Metrics.cpp - MBA complexity metrics -----------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Metrics.h"

#include "ast/ExprUtils.h"
#include "ast/Printer.h"

using namespace mba;

namespace {

enum class OpClass { Arithmetic, Bitwise, Leaf };

OpClass opClassOf(const Expr *E) {
  if (E->isLeaf())
    return OpClass::Leaf;
  return isArithmeticKind(E->kind()) ? OpClass::Arithmetic : OpClass::Bitwise;
}

uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t S = A + B;
  return S < A ? UINT64_MAX : S;
}

} // namespace

uint64_t mba::mbaAlternation(const Expr *E, AlternationMemo &Memo) {
  // Tree-semantics count via DAG memoization: each node's count is the sum
  // over its children of (child count + 1 if the operator classes differ).
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    uint64_t Count = 0;
    OpClass MyClass = opClassOf(N);
    for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I) {
      const Expr *C = N->getOperand(I);
      Count = saturatingAdd(Count, Memo.at(C));
      OpClass ChildClass = opClassOf(C);
      if (ChildClass != OpClass::Leaf && ChildClass != MyClass)
        Count = saturatingAdd(Count, 1);
    }
    Memo.emplace(N, Count);
  });
  return Memo.at(E);
}

uint64_t mba::mbaAlternation(const Expr *E) {
  AlternationMemo Memo;
  return mbaAlternation(E, Memo);
}

uint64_t mba::countTerms(const Expr *E) {
  NodeMap<uint64_t> Memo;
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    uint64_t Count;
    switch (N->kind()) {
    case ExprKind::Add:
    case ExprKind::Sub:
      Count = saturatingAdd(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::Neg:
      Count = Memo.at(N->operand());
      break;
    default:
      Count = 1;
      break;
    }
    Memo.emplace(N, Count);
  });
  return Memo.at(E);
}

uint64_t mba::maxCoefficient(const Context &Ctx, const Expr *E) {
  uint64_t Max = 0;
  forEachNodePostOrder(E, [&](const Expr *N) {
    if (!N->isConst())
      return;
    uint64_t V = N->constValue();
    uint64_t Magnitude =
        Ctx.toSigned(V) < 0 ? (0 - V) & Ctx.mask() : V;
    Max = std::max(Max, Magnitude);
  });
  return Max;
}

ComplexityMetrics mba::measureComplexity(const Context &Ctx, const Expr *E) {
  ComplexityMetrics M;
  M.Kind = classifyMBA(Ctx, E);
  M.NumVariables = (unsigned)collectVariables(E).size();
  M.Alternation = mbaAlternation(E);
  M.Length = printExpr(Ctx, E).size();
  M.NumTerms = countTerms(E);
  M.MaxCoefficient = maxCoefficient(Ctx, E);
  return M;
}
