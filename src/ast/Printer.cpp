//===- ast/Printer.cpp - Expression pretty printer --------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"

#include <vector>

using namespace mba;

namespace {

// Precedence levels, higher binds tighter (Python/C ordering for this
// operator subset).
enum Precedence {
  PrecOr = 1,
  PrecXor = 2,
  PrecAnd = 3,
  PrecSum = 4,
  PrecMul = 5,
  PrecUnary = 6,
  PrecAtom = 7
};

int precedenceOf(ExprKind K) {
  switch (K) {
  case ExprKind::Or:
    return PrecOr;
  case ExprKind::Xor:
    return PrecXor;
  case ExprKind::And:
    return PrecAnd;
  case ExprKind::Add:
  case ExprKind::Sub:
    return PrecSum;
  case ExprKind::Mul:
    return PrecMul;
  case ExprKind::Not:
  case ExprKind::Neg:
    return PrecUnary;
  case ExprKind::Var:
  case ExprKind::Const:
    return PrecAtom;
  }
  return PrecAtom;
}

const char *binaryOpText(ExprKind K) {
  switch (K) {
  case ExprKind::Add:
    return "+";
  case ExprKind::Sub:
    return "-";
  case ExprKind::Mul:
    return "*";
  case ExprKind::And:
    return "&";
  case ExprKind::Or:
    return "|";
  case ExprKind::Xor:
    return "^";
  default:
    assert(false && "not a binary operator");
    return "?";
  }
}

} // namespace

std::string mba::printExpr(const Context &Ctx, const Expr *E) {
  std::string Out;
  // A child is printed parenthesized when its precedence is lower than the
  // parent's, or equal on the right of the non-commutative '-' (and of '-'
  // only: all bitwise operators and +,* are associative so equal precedence
  // on either side needs no parens except the Sub/Add mix on the right).
  //
  // An explicit stack instead of recursion, so deep expressions cannot
  // overflow the call stack. Each entry is either a node to print, with its
  // parent's precedence and whether it is the right operand of '-', or
  // (Node == nullptr) text to emit once the entries above it are done.
  struct Item {
    const Expr *Node;
    const char *Text;
    int ParentPrec;
    bool RightOfNonAssoc;
  };
  std::vector<Item> Stack{{E, nullptr, 0, false}};
  while (!Stack.empty()) {
    Item I = Stack.back();
    Stack.pop_back();
    if (!I.Node) {
      Out += I.Text;
      continue;
    }
    const Expr *N = I.Node;
    int Prec = precedenceOf(N->kind());
    bool NeedParens =
        Prec < I.ParentPrec || (Prec == I.ParentPrec && I.RightOfNonAssoc);
    if (NeedParens) {
      Out += '(';
      Stack.push_back({nullptr, ")", 0, false});
    }
    switch (N->kind()) {
    case ExprKind::Var:
      Out += N->varName();
      break;
    case ExprKind::Const:
      Out += std::to_string(Ctx.toSigned(N->constValue()));
      break;
    case ExprKind::Not:
    case ExprKind::Neg:
      Out += N->kind() == ExprKind::Not ? '~' : '-';
      Stack.push_back({N->operand(), nullptr, PrecUnary, false});
      break;
    default:
      // '+' and '-' share a precedence level and '-' is left-associative;
      // the right child of '-' must parenthesize equal-precedence children.
      // '-' or '+' under the *right* of '-' both change meaning without
      // parens. Pushed in reverse: lhs, operator, rhs.
      Stack.push_back({N->rhs(), nullptr, Prec, N->kind() == ExprKind::Sub});
      Stack.push_back({nullptr, binaryOpText(N->kind()), 0, false});
      Stack.push_back({N->lhs(), nullptr, Prec, false});
      break;
    }
  }
  // A negative constant printed as right operand of '-' or '*'/'~' etc. is
  // handled by NeedParens only for precedence; "a - -1" would print as
  // "a--1" which re-parses as a - (-1) correctly (two '-' tokens), but is
  // ugly; precedence of Const is PrecAtom so no parens are added. The
  // parser handles consecutive '-' signs, so round-tripping is safe.
  return Out;
}
