//===- mba/Classify.cpp - Linear / poly / non-poly classification --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Classify.h"

#include "ast/ExprUtils.h"
#include "support/Telemetry.h"

using namespace mba;

const char *mba::mbaKindName(MBAKind K) {
  switch (K) {
  case MBAKind::Linear:
    return "linear";
  case MBAKind::Polynomial:
    return "poly";
  case MBAKind::NonPolynomial:
    return "non-poly";
  }
  return "?";
}

namespace {

MBAFacts computeFacts(const Context &Ctx, const Expr *E, MBAFactsMemo &Memo) {
  // Post-order guarantees children are classified before their parents, and
  // the iterative walk keeps recursion depth independent of the expression.
  uint64_t Mask = Ctx.mask();
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    MBAFacts F{false, false, false, false, 0};
    switch (N->kind()) {
    case ExprKind::Var:
      F = {true, true, true, false, 0};
      break;
    case ExprKind::Const:
      F.IsConstant = true;
      F.Value = N->constValue();
      break;
    case ExprKind::Not: {
      const MBAFacts &A = Memo.at(N->operand());
      F.PureBitwise = A.PureBitwise;
      F.Linear = F.Poly = A.PureBitwise;
      if (A.IsConstant) {
        F.IsConstant = true;
        F.Value = ~A.Value & Mask;
      }
      break;
    }
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Xor: {
      const MBAFacts &A = Memo.at(N->lhs());
      const MBAFacts &B = Memo.at(N->rhs());
      F.PureBitwise = A.PureBitwise && B.PureBitwise;
      F.Linear = F.Poly = F.PureBitwise;
      if (A.IsConstant && B.IsConstant) {
        F.IsConstant = true;
        F.Value = N->kind() == ExprKind::And  ? (A.Value & B.Value)
                  : N->kind() == ExprKind::Or ? (A.Value | B.Value)
                                              : (A.Value ^ B.Value);
      }
      break;
    }
    case ExprKind::Neg: {
      const MBAFacts &A = Memo.at(N->operand());
      F.Linear = A.Linear;
      F.Poly = A.Poly;
      if (A.IsConstant) {
        F.IsConstant = true;
        F.Value = (0 - A.Value) & Mask;
      }
      break;
    }
    case ExprKind::Add:
    case ExprKind::Sub: {
      const MBAFacts &A = Memo.at(N->lhs());
      const MBAFacts &B = Memo.at(N->rhs());
      F.Linear = A.Linear && B.Linear;
      F.Poly = A.Poly && B.Poly;
      if (A.IsConstant && B.IsConstant) {
        F.IsConstant = true;
        F.Value = (N->kind() == ExprKind::Add ? A.Value + B.Value
                                              : A.Value - B.Value) &
                  Mask;
      }
      break;
    }
    case ExprKind::Mul: {
      const MBAFacts &A = Memo.at(N->lhs());
      const MBAFacts &B = Memo.at(N->rhs());
      // Multiplying by a constant-valued side keeps linearity; any
      // product of polynomial shapes is polynomial (it expands to
      // Definition 2 form).
      F.Linear = (A.IsConstant && B.Linear) || (B.IsConstant && A.Linear);
      F.Poly = A.Poly && B.Poly;
      if (A.IsConstant && B.IsConstant) {
        F.IsConstant = true;
        F.Value = (A.Value * B.Value) & Mask;
      }
      break;
    }
    }
    if (F.IsConstant) {
      // A variable-free subtree behaves exactly like the constant it
      // evaluates to: 0 and -1 have uniform truth columns (legitimate
      // "bitwise" atoms — the paper's all-"1" column is encoded -1), and
      // any constant is a valid linear/poly term on its own.
      F.PureBitwise = F.Value == 0 || F.Value == Mask;
      F.Linear = true;
      F.Poly = true;
    }
    // The references taken above point into Memo and are dead here: the
    // emplace may grow the table and move every entry.
    Memo.emplace(N, F);
  });
  return Memo.at(E);
}

} // namespace

bool mba::isPureBitwise(const Context &Ctx, const Expr *E,
                        MBAFactsMemo &Memo) {
  return computeFacts(Ctx, E, Memo).PureBitwise;
}

bool mba::isPureBitwise(const Context &Ctx, const Expr *E) {
  MBAFactsMemo Memo;
  return isPureBitwise(Ctx, E, Memo);
}

MBAKind mba::classifyMBA(const Context &Ctx, const Expr *E,
                         MBAFactsMemo &Memo) {
  MBA_TRACE_SPAN("mba.classify");
  MBAFacts F = computeFacts(Ctx, E, Memo);
  if (F.Linear)
    return MBAKind::Linear;
  if (F.Poly)
    return MBAKind::Polynomial;
  return MBAKind::NonPolynomial;
}

MBAKind mba::classifyMBA(const Context &Ctx, const Expr *E) {
  MBAFactsMemo Memo;
  return classifyMBA(Ctx, E, Memo);
}
