//===- analysis/AbstractInterp.h - Abstract interpretation ------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic forward dataflow engine over expression DAGs with pluggable
/// abstract domains. Each domain assigns every node an input-independent
/// over-approximation of its value set over Z/2^w; the engine walks the DAG
/// once in post-order and applies the domain's transfer functions.
///
/// Three domains are provided:
///  * **Known bits** (analysis/KnownBits.h) — per-bit 0/1 facts with
///    carry-aware arithmetic transfer from the least-significant end.
///  * **Parity / congruence** — value mod 2^k facts. Exploits the DAG's
///    operand sharing (hash-consing makes `x + x` a node whose operands are
///    pointer-equal), so e.g. `e + e ≡ 0 (mod 2)` holds even when nothing
///    is known about `e`.
///  * **Unsigned interval** — [Lo, Hi] magnitude bounds, propagated from
///    the most-significant end (the exact complement of known-bits' trailing
///    windows): `(x & 3) + 252` at width 8 lies in [252, 255], which fixes
///    the high six bits even though no trailing bit is known.
///
/// Uses:
///  * foldAbstract() — a constant-folding pre-pass strictly stronger than
///    foldKnownBits(): a sub-expression folds when *any* domain decides it.
///  * refuteEquivalence() — a static soundness check for rewrites: when the
///    abstract values of `e` and `e'` are disjoint in some domain, the
///    rewrite `e -> e'` provably changes semantics (on every input), without
///    ever calling an SMT solver. Stage 0 (analysis/Prover.h) uses it.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_ANALYSIS_ABSTRACTINTERP_H
#define MBA_ANALYSIS_ABSTRACTINTERP_H

#include "analysis/KnownBits.h"
#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/ExprUtils.h"
#include "ast/NodeMap.h"

#include <cstdint>
#include <optional>
#include <string>

namespace mba {

/// Mask of the low \p N bits (N <= 64).
inline constexpr uint64_t lowBitsMask(unsigned N) {
  return N >= 64 ? ~0ULL : ((1ULL << N) - 1);
}

//===----------------------------------------------------------------------===//
// Abstract values
//===----------------------------------------------------------------------===//

/// Congruence fact: the value is ≡ Residue (mod 2^KnownLow), i.e. the low
/// KnownLow bits are exactly Residue's. KnownLow == 0 is top (nothing
/// known); KnownLow == width means the value is the constant Residue.
struct Parity {
  unsigned KnownLow = 0;
  uint64_t Residue = 0; ///< reduced mod 2^KnownLow

  bool isTop() const { return KnownLow == 0; }
};

/// Unsigned range fact: Lo <= value <= Hi, both within the context mask.
/// [0, mask] is top.
struct Interval {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool contains(uint64_t V) const { return Lo <= V && V <= Hi; }
};

//===----------------------------------------------------------------------===//
// Domains
//===----------------------------------------------------------------------===//
//
// A domain models the engine's Domain concept:
//   using Value = ...;
//   Value top() const;
//   Value constant(uint64_t C) const;
//   Value unary(ExprKind K, const Value &A) const;
//   Value binary(ExprKind K, const Value &A, const Value &B,
//                bool SameOperand) const;     // SameOperand: lhs == rhs node
//   std::optional<uint64_t> asConstant(const Value &V) const;
//   bool disjoint(const Value &A, const Value &B) const;
//
// disjoint(A, B) must only return true when the concretizations are
// provably non-intersecting — then two expressions with those abstract
// values differ on *every* input.

/// The historical known-bits analysis as an engine domain. Transfer
/// functions are exactly the pre-framework ones (SameOperand is ignored),
/// so this domain doubles as the regression baseline the newer domains are
/// measured against.
class KnownBitsDomain {
public:
  using Value = KnownBits;

  explicit KnownBitsDomain(uint64_t Mask) : Mask(Mask) {}

  Value top() const { return KnownBits(); }
  Value constant(uint64_t C) const;
  Value unary(ExprKind K, const Value &A) const;
  Value binary(ExprKind K, const Value &A, const Value &B,
               bool SameOperand) const;
  std::optional<uint64_t> asConstant(const Value &V) const {
    if (V.isConstant(Mask))
      return V.One;
    return std::nullopt;
  }
  bool disjoint(const Value &A, const Value &B) const {
    return ((A.One & B.Zero) | (A.Zero & B.One)) != 0;
  }

private:
  uint64_t Mask;
};

/// Congruences modulo powers of two.
class ParityDomain {
public:
  using Value = Parity;

  explicit ParityDomain(unsigned Width) : Width(Width) {}

  Value top() const { return Parity(); }
  Value constant(uint64_t C) const { return make(Width, C); }
  Value unary(ExprKind K, const Value &A) const;
  Value binary(ExprKind K, const Value &A, const Value &B,
               bool SameOperand) const;
  std::optional<uint64_t> asConstant(const Value &V) const {
    if (V.KnownLow >= Width)
      return V.Residue;
    return std::nullopt;
  }
  bool disjoint(const Value &A, const Value &B) const {
    unsigned M = std::min(A.KnownLow, B.KnownLow);
    return M > 0 &&
           (A.Residue & lowBitsMask(M)) != (B.Residue & lowBitsMask(M));
  }

private:
  Value make(unsigned KnownLow, uint64_t Residue) const {
    KnownLow = std::min(KnownLow, Width);
    return Parity{KnownLow, Residue & lowBitsMask(KnownLow)};
  }

  unsigned Width;
};

/// Unsigned intervals within [0, mask].
class IntervalDomain {
public:
  using Value = Interval;

  explicit IntervalDomain(uint64_t Mask) : Mask(Mask) {}

  Value top() const { return Interval{0, Mask}; }
  Value constant(uint64_t C) const { return Interval{C & Mask, C & Mask}; }
  Value unary(ExprKind K, const Value &A) const;
  Value binary(ExprKind K, const Value &A, const Value &B,
               bool SameOperand) const;
  std::optional<uint64_t> asConstant(const Value &V) const {
    if (V.Lo == V.Hi)
      return V.Lo;
    return std::nullopt;
  }
  bool disjoint(const Value &A, const Value &B) const {
    return A.Hi < B.Lo || B.Hi < A.Lo;
  }

private:
  uint64_t Mask;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

/// Computes the abstract value of \p E in domain \p D, memoizing every
/// sub-node into \p Memo. Nodes already present are trusted and never
/// walked again, so a sequence of calls over one memo — e.g. one per node
/// of a bottom-up rewrite — applies a transfer function once per distinct
/// node in total, not once per node per call.
template <class Domain>
typename Domain::Value
computeAbstract(const Domain &D, const Expr *E,
                NodeMap<typename Domain::Value> &Memo) {
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    typename Domain::Value V;
    switch (N->kind()) {
    case ExprKind::Var:
      V = D.top();
      break;
    case ExprKind::Const:
      V = D.constant(N->constValue());
      break;
    case ExprKind::Not:
    case ExprKind::Neg:
      V = D.unary(N->kind(), Memo.at(N->operand()));
      break;
    default:
      V = D.binary(N->kind(), Memo.at(N->lhs()), Memo.at(N->rhs()),
                   N->lhs() == N->rhs());
      break;
    }
    Memo.emplace(N, V);
  });
  return Memo.at(E);
}

/// Convenience single-shot entry points.
Parity computeParity(const Context &Ctx, const Expr *E);
Interval computeInterval(const Context &Ctx, const Expr *E);

/// Multi-domain constant folding: folds every sub-expression that any of
/// the three domains proves constant (asked in the order known bits,
/// parity, interval). Strictly subsumes foldKnownBits(). One post-order
/// walk over one memo that holds each node's folded form together with
/// that form's value in all three domains: linear in the DAG size.
const Expr *foldAbstract(Context &Ctx, const Expr *E);

/// A static disproof of `A == B`, produced without solving.
struct Refutation {
  std::string Domain; ///< "known-bits", "parity", or "interval"
  std::string Detail; ///< human-readable description of the conflict
};

/// Tries to refute `A == B` by comparing abstract values in each domain.
/// A result means the two expressions provably differ on every input; no
/// result means the domains cannot distinguish them (NOT a proof of
/// equivalence).
std::optional<Refutation> refuteEquivalence(const Context &Ctx,
                                            const Expr *A, const Expr *B);

} // namespace mba

#endif // MBA_ANALYSIS_ABSTRACTINTERP_H
