//===- ast/ExprUtils.cpp - Traversal and rewriting helpers -----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/ExprUtils.h"

#include <algorithm>
#include <cstring>

using namespace mba;

std::vector<const Expr *> mba::collectVariables(const Expr *E) {
  std::vector<const Expr *> Vars;
  forEachNodePostOrder(E, [&](const Expr *N) {
    if (N->isVar())
      Vars.push_back(N); // the walk visits each distinct node once
  });
  std::sort(Vars.begin(), Vars.end(), [](const Expr *A, const Expr *B) {
    return std::strcmp(A->varName(), B->varName()) < 0;
  });
  return Vars;
}

bool mba::containsSubExpr(const Expr *E, const Expr *Sub) {
  bool Found = false;
  forEachNodePostOrder(E, [&](const Expr *N) {
    if (N == Sub)
      Found = true;
  });
  return Found;
}

size_t mba::countDagNodes(const Expr *E) {
  size_t Count = 0;
  forEachNodePostOrder(E, [&](const Expr *) { ++Count; });
  return Count;
}

size_t mba::countTreeNodes(const Expr *E) {
  NodeMap<size_t> Memo;
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    size_t Count = 1;
    for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I)
      Count += Memo.at(N->getOperand(I));
    Memo.emplace(N, std::min(Count, SIZE_MAX / 2));
  });
  return Memo.at(E);
}

void mba::forEachNodePostOrder(const Expr *E,
                               const std::function<void(const Expr *)> &Fn) {
  NodeSet Visited;
  forEachUnseenPostOrder(E, Visited, [&](const Expr *N) {
    Visited.insert(N);
    Fn(N);
  });
}

const Expr *mba::substitute(
    Context &Ctx, const Expr *E,
    const std::unordered_map<const Expr *, const Expr *> &Map) {
  // Keys of Map are final: the walk treats them as seen and never descends
  // below them.
  NodeMap<const Expr *> Memo;
  struct {
    const std::unordered_map<const Expr *, const Expr *> &Keys;
    const NodeMap<const Expr *> &Done;
    bool contains(const Expr *N) const {
      return Keys.contains(N) || Done.contains(N);
    }
  } Seen{Map, Memo};
  auto Result = [&](const Expr *N) {
    auto It = Map.find(N);
    return It != Map.end() ? It->second : Memo.at(N);
  };
  forEachUnseenPostOrder(E, Seen, [&](const Expr *N) {
    const Expr *R = N;
    if (N->isUnary())
      R = Ctx.rebuild(N, Result(N->operand()), nullptr);
    else if (N->isBinary())
      R = Ctx.rebuild(N, Result(N->lhs()), Result(N->rhs()));
    Memo.emplace(N, R);
  });
  return Result(E);
}

const Expr *mba::rewriteBottomUp(
    Context &Ctx, const Expr *E,
    const std::function<const Expr *(const Expr *)> &Fn) {
  NodeMap<const Expr *> Memo;
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    const Expr *Rebuilt = N;
    if (N->isUnary())
      Rebuilt = Ctx.rebuild(N, Memo.at(N->operand()), nullptr);
    else if (N->isBinary())
      Rebuilt = Ctx.rebuild(N, Memo.at(N->lhs()), Memo.at(N->rhs()));
    const Expr *Result = Fn(Rebuilt);
    assert(Result && "rewrite callback must return a node");
    Memo.emplace(N, Result);
  });
  return Memo.at(E);
}

const Expr *mba::cloneExpr(Context &Dst, const Expr *E) {
  assert(E && "null expression");
  // Source-node -> clone; a nullptr value claims a node whose operands are
  // being cloned (acyclicity guarantees it is filled in before any parent
  // needs it). Iterative post-order; the low pointer bit tags "operands
  // already pushed" markers (Expr nodes are at least word-aligned).
  NodeMap<const Expr *> Memo;
  std::vector<uintptr_t> Stack;
  Stack.push_back((uintptr_t)E);
  while (!Stack.empty()) {
    uintptr_t Top = Stack.back();
    Stack.pop_back();
    const Expr *N = (const Expr *)(Top & ~(uintptr_t)1);
    if (!(Top & 1)) {
      if (!Memo.emplace(N, nullptr).second)
        continue; // shared subtree already cloned (or claimed below us)
      Stack.push_back(Top | 1);
      for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I)
        Stack.push_back((uintptr_t)N->getOperand(I));
      continue;
    }
    const Expr *C;
    switch (N->kind()) {
    case ExprKind::Var:
      C = Dst.getVar(N->varName());
      break;
    case ExprKind::Const:
      C = Dst.getConst(N->constValue());
      break;
    default:
      if (N->isUnary())
        C = Dst.getUnary(N->kind(), Memo.at(N->operand()));
      else
        C = Dst.getBinary(N->kind(), Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    }
    Memo.at(N) = C;
  }
  return Memo.at(E);
}
