//===- ast/ExprUtils.cpp - Traversal and rewriting helpers -----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/ExprUtils.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

using namespace mba;

namespace {

/// The canonical variable order: by name.
void sortByName(std::vector<const Expr *> &Vars) {
  std::sort(Vars.begin(), Vars.end(), [](const Expr *A, const Expr *B) {
    return std::strcmp(A->varName(), B->varName()) < 0;
  });
}

} // namespace

std::vector<const Expr *> mba::collectVariables(const Expr *E) {
  std::vector<const Expr *> Vars;
  forEachNodePostOrder(E, [&](const Expr *N) {
    if (N->isVar())
      Vars.push_back(N); // the walk visits each distinct node once
  });
  sortByName(Vars);
  return Vars;
}

VariableMemo::Set VariableMemo::walk(const Expr *E) {
  forEachUnseenPostOrder(E, Sets, [&](const Expr *N) {
    Set S;
    if (N->isVar()) {
      // The memo visits each node once, so a variable is new here.
      uint32_t I = (uint32_t)Vars.size();
      Vars.push_back(N);
      if (I < 64) {
        S.Low = 1ULL << I;
      } else {
        S.High = (uint32_t)HighLists.size();
        HighLists.push_back({I});
      }
    } else if (N->isUnary()) {
      S = Sets.at(N->operand());
    } else if (N->isBinary()) {
      S = unite(Sets.at(N->lhs()), Sets.at(N->rhs()));
    }
    Sets.emplace(N, S);
  });
  return Sets.at(E);
}

VariableMemo::Set VariableMemo::unite(Set A, Set B) {
  Set R{A.Low | B.Low, A.High};
  if (!A.High || A.High == B.High) {
    R.High = B.High;
    return R;
  }
  if (!B.High)
    return R;
  const std::vector<uint32_t> &LA = HighLists[A.High];
  const std::vector<uint32_t> &LB = HighLists[B.High];
  std::vector<uint32_t> Merged;
  std::set_union(LA.begin(), LA.end(), LB.begin(), LB.end(),
                 std::back_inserter(Merged));
  // A superset of both keeps its list instead of copying it.
  if (Merged.size() == LA.size())
    return R;
  if (Merged.size() == LB.size()) {
    R.High = B.High;
    return R;
  }
  R.High = (uint32_t)HighLists.size();
  HighLists.push_back(std::move(Merged));
  return R;
}

std::vector<const Expr *> VariableMemo::expand(Set S) const {
  const std::vector<uint32_t> &High = HighLists[S.High];
  std::vector<const Expr *> Result;
  Result.reserve((size_t)std::popcount(S.Low) + High.size());
  for (uint64_t Bits = S.Low; Bits; Bits &= Bits - 1)
    Result.push_back(Vars[std::countr_zero(Bits)]);
  for (uint32_t I : High)
    Result.push_back(Vars[I]);
  sortByName(Result);
  return Result;
}

std::vector<const Expr *> VariableMemo::variables(const Expr *E) {
  return expand(walk(E));
}

std::vector<const Expr *> VariableMemo::variables(const Expr *A,
                                                  const Expr *B) {
  Set SA = walk(A);
  return expand(unite(SA, walk(B)));
}

size_t VariableMemo::count(const Expr *E) {
  Set S = walk(E);
  return (size_t)std::popcount(S.Low) + HighLists[S.High].size();
}

void VariableMemo::clear() {
  Sets.clear();
  Vars.clear();
  HighLists.resize(1);
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
