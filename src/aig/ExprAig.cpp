//===- aig/ExprAig.cpp - MBA expressions to AIG words ---------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aig/ExprAig.h"

#include "ast/ExprUtils.h"

using namespace mba;
using namespace mba::aig;

const AigBlaster::Word &ExprAig::inputWord(const Expr *V) {
  assert(V->isVar() && "inputs are variables");
  auto It = Inputs.find(V);
  if (It == Inputs.end())
    It = Inputs.emplace(V, Blaster.freshWord()).first;
  return It->second;
}

AigBlaster::Word ExprAig::blast(const Expr *E) {
  // Iterative post-order so deep expressions cannot overflow the stack;
  // nodes blasted by earlier calls are neither rebuilt nor walked again.
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    AigBlaster::Word W;
    switch (N->kind()) {
    case ExprKind::Var:
      W = inputWord(N);
      break;
    case ExprKind::Const:
      W = Blaster.constWord(N->constValue());
      break;
    case ExprKind::Not:
      W = Blaster.bvNot(Memo.at(N->operand()));
      break;
    case ExprKind::Neg:
      W = Blaster.bvNeg(Memo.at(N->operand()));
      break;
    case ExprKind::Add:
      W = Blaster.bvAdd(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::Sub:
      W = Blaster.bvSub(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::Mul:
      W = Blaster.bvMul(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::And:
      W = Blaster.bvAnd(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::Or:
      W = Blaster.bvOr(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    case ExprKind::Xor:
      W = Blaster.bvXor(Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    }
    Memo.emplace(N, std::move(W));
  });
  return Memo.at(E);
}
