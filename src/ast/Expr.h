//===- ast/Expr.h - MBA expression nodes ------------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, hash-consed expression nodes for mixed bitwise-arithmetic
/// (MBA) expressions. The operator set is exactly the one the paper studies:
/// the arithmetic operators +, -, *, unary - and the bitwise operators
/// &, |, ^, ~ over fixed-width two's-complement words (Z/2^w).
///
/// Nodes are created only through a Context (see Context.h), which interns
/// them: structurally identical nodes are represented by the same pointer,
/// so pointer equality is structural equality and expressions form DAGs.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_EXPR_H
#define MBA_AST_EXPR_H

#include <cassert>
#include <cstdint>

namespace mba {

class Context;

/// The node kinds of the MBA expression language.
enum class ExprKind : uint8_t {
  Var,   ///< A named bit-vector variable.
  Const, ///< A constant word (stored masked to the context width).
  Not,   ///< Bitwise complement ~a.
  Neg,   ///< Arithmetic negation -a (two's complement).
  Add,   ///< a + b (mod 2^w).
  Sub,   ///< a - b (mod 2^w).
  Mul,   ///< a * b (mod 2^w).
  And,   ///< a & b.
  Or,    ///< a | b.
  Xor    ///< a ^ b.
};

/// Returns true for the binary arithmetic/bitwise operator kinds.
inline bool isBinaryKind(ExprKind K) {
  return K >= ExprKind::Add && K <= ExprKind::Xor;
}

/// Returns true for the unary operator kinds (~, unary -).
inline bool isUnaryKind(ExprKind K) {
  return K == ExprKind::Not || K == ExprKind::Neg;
}

/// Returns true for operators that compute arithmetically (+, -, *, unary -).
inline bool isArithmeticKind(ExprKind K) {
  return K == ExprKind::Neg || K == ExprKind::Add || K == ExprKind::Sub ||
         K == ExprKind::Mul;
}

/// Returns true for the bitwise operators (&, |, ^, ~).
inline bool isBitwiseKind(ExprKind K) {
  return K == ExprKind::Not || K == ExprKind::And || K == ExprKind::Or ||
         K == ExprKind::Xor;
}

/// Returns true for commutative binary operators.
inline bool isCommutativeKind(ExprKind K) {
  return K == ExprKind::Add || K == ExprKind::Mul || K == ExprKind::And ||
         K == ExprKind::Or || K == ExprKind::Xor;
}

/// An immutable expression node. Instances are interned by a Context and
/// referenced by const pointer; two nodes from the same context are
/// structurally equal iff their pointers are equal.
class Expr {
public:
  ExprKind kind() const { return Kind; }

  bool is(ExprKind K) const { return Kind == K; }
  bool isVar() const { return Kind == ExprKind::Var; }
  bool isConst() const { return Kind == ExprKind::Const; }
  bool isLeaf() const { return isVar() || isConst(); }
  bool isBinary() const { return isBinaryKind(Kind); }
  bool isUnary() const { return isUnaryKind(Kind); }

  /// Variable name. Only valid for Var nodes. The string is interned in the
  /// owning context's arena and outlives the node.
  const char *varName() const {
    assert(isVar() && "not a variable");
    return Name;
  }

  /// Dense per-context variable number, assigned in order of first creation.
  unsigned varIndex() const {
    assert(isVar() && "not a variable");
    return Index;
  }

  /// Constant value, masked to the context width. Only valid for Const.
  uint64_t constValue() const {
    assert(isConst() && "not a constant");
    return Value;
  }

  /// Left operand of a binary node, or the sole operand of a unary node.
  const Expr *lhs() const {
    assert(!isLeaf() && "leaf has no operands");
    return LHS;
  }

  /// Right operand. Only valid for binary nodes.
  const Expr *rhs() const {
    assert(isBinary() && "not a binary node");
    return RHS;
  }

  /// Operand of a unary node (~a or -a).
  const Expr *operand() const {
    assert(isUnary() && "not a unary node");
    return LHS;
  }

  /// Number of operands (0 for leaves, 1 for unary, 2 for binary).
  unsigned numOperands() const { return isLeaf() ? 0 : (isUnary() ? 1 : 2); }

  /// Returns the I-th operand.
  const Expr *getOperand(unsigned I) const {
    assert(I < numOperands() && "operand index out of range");
    return I == 0 ? LHS : RHS;
  }

  /// Unchecked operand-slot access for the IR verifier
  /// (analysis/Verifier.h): returns the raw pointer stored in slot \p I
  /// without arity assertions, so malformed nodes can be diagnosed instead
  /// of tripping an assert. Not for general use — prefer lhs()/rhs().
  const Expr *rawOperand(unsigned I) const { return I == 0 ? LHS : RHS; }

private:
  friend class Context;
  friend uint64_t exprFingerprint(const Expr *E);

  // Leaf constructor (Var / Const).
  Expr(ExprKind K, const char *Name, unsigned Index, uint64_t Value)
      : Kind(K), Index(Index), Value(Value), Name(Name), LHS(nullptr),
        RHS(nullptr) {}

  // Operator constructor.
  Expr(ExprKind K, uint64_t Fingerprint, const Expr *L, const Expr *R)
      : Kind(K), Index(0), Value(Fingerprint), Name(nullptr), LHS(L),
        RHS(R) {}

  ExprKind Kind;
  unsigned Index;
  /// A Const node's value; every other node's structural fingerprint
  /// (exprFingerprint), computed by the Context when it interns the node.
  uint64_t Value;
  const char *Name;
  const Expr *LHS;
  const Expr *RHS;
};

} // namespace mba

#endif // MBA_AST_EXPR_H
