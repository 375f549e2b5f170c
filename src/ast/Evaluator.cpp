//===- ast/Evaluator.cpp - Concrete evaluation ------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"

using namespace mba;

namespace {

/// Shared evaluation core; \p Lookup maps a Var node to its value. An
/// explicit post-order walk, so deep expressions cannot overflow the stack.
template <class LookupFn>
uint64_t evalImpl(const Context &Ctx, const Expr *E, LookupFn &&Lookup) {
  NodeMap<uint64_t> Memo;
  uint64_t Mask = Ctx.mask();
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    uint64_t R = 0;
    switch (N->kind()) {
    case ExprKind::Var:
      R = Lookup(N) & Mask;
      break;
    case ExprKind::Const:
      R = N->constValue();
      break;
    case ExprKind::Not:
      R = ~Memo.at(N->operand()) & Mask;
      break;
    case ExprKind::Neg:
      R = (0 - Memo.at(N->operand())) & Mask;
      break;
    case ExprKind::Add:
      R = (Memo.at(N->lhs()) + Memo.at(N->rhs())) & Mask;
      break;
    case ExprKind::Sub:
      R = (Memo.at(N->lhs()) - Memo.at(N->rhs())) & Mask;
      break;
    case ExprKind::Mul:
      R = (Memo.at(N->lhs()) * Memo.at(N->rhs())) & Mask;
      break;
    case ExprKind::And:
      R = Memo.at(N->lhs()) & Memo.at(N->rhs());
      break;
    case ExprKind::Or:
      R = Memo.at(N->lhs()) | Memo.at(N->rhs());
      break;
    case ExprKind::Xor:
      R = Memo.at(N->lhs()) ^ Memo.at(N->rhs());
      break;
    }
    Memo.emplace(N, R);
  });
  return Memo.at(E);
}

} // namespace

uint64_t mba::evaluate(const Context &Ctx, const Expr *E,
                       std::span<const uint64_t> VarValues) {
  return evalImpl(Ctx, E, [&](const Expr *V) -> uint64_t {
    unsigned I = V->varIndex();
    return I < VarValues.size() ? VarValues[I] : 0;
  });
}

uint64_t mba::evaluate(
    const Context &Ctx, const Expr *E,
    const std::unordered_map<const Expr *, uint64_t> &VarValues) {
  return evalImpl(Ctx, E, [&](const Expr *V) -> uint64_t {
    auto It = VarValues.find(V);
    return It == VarValues.end() ? 0 : It->second;
  });
}
