//===- analysis/AbstractInterp.cpp - Abstract interpretation --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"

#include <algorithm>
#include <bit>

using namespace mba;

//===----------------------------------------------------------------------===//
// KnownBitsDomain — the pre-framework transfer functions, verbatim.
//===----------------------------------------------------------------------===//

namespace {

/// Known bits of A + B + CarryIn (carry-in fully known). Bits of the sum
/// are determined from the least-significant end as long as both operands
/// are determined: a carry out of a fully known prefix is itself known.
KnownBits addKnown(KnownBits A, KnownBits B, uint64_t CarryIn,
                   uint64_t Mask) {
  unsigned TrailA = (unsigned)std::countr_one(A.knownMask());
  unsigned TrailB = (unsigned)std::countr_one(B.knownMask());
  unsigned Known = std::min(TrailA, TrailB);
  if (Known == 0)
    return KnownBits();
  uint64_t Window = lowBitsMask(Known);
  uint64_t Sum = (A.One & Window) + (B.One & Window) + CarryIn;
  KnownBits R;
  R.One = Sum & Window & Mask;
  R.Zero = ~Sum & Window & Mask;
  return R;
}

} // namespace

KnownBits KnownBitsDomain::constant(uint64_t C) const {
  KnownBits K;
  K.One = C & Mask;
  K.Zero = ~C & Mask;
  return K;
}

KnownBits KnownBitsDomain::unary(ExprKind K, const KnownBits &A) const {
  KnownBits R;
  switch (K) {
  case ExprKind::Not:
    R.Zero = A.One;
    R.One = A.Zero;
    break;
  case ExprKind::Neg: {
    // -a == ~a + 1.
    KnownBits NotA{A.One, A.Zero};
    KnownBits Zero;
    Zero.Zero = Mask; // the constant 0
    R = addKnown(Zero, NotA, 1, Mask);
    break;
  }
  default:
    assert(false && "not a unary kind");
  }
  assert((R.Zero & R.One) == 0 && "contradictory known bits");
  return R;
}

KnownBits KnownBitsDomain::binary(ExprKind K, const KnownBits &A,
                                  const KnownBits &B,
                                  bool /*SameOperand*/) const {
  // SameOperand is deliberately unused: this domain is the historical
  // known-bits analysis, preserved bit-for-bit as the regression baseline.
  // The parity and interval domains are the ones that exploit sharing.
  KnownBits R;
  switch (K) {
  case ExprKind::And:
    R.One = A.One & B.One;
    R.Zero = (A.Zero | B.Zero) & Mask;
    break;
  case ExprKind::Or:
    R.One = A.One | B.One;
    R.Zero = A.Zero & B.Zero;
    break;
  case ExprKind::Xor:
    R.One = (A.One & B.Zero) | (A.Zero & B.One);
    R.Zero = (A.Zero & B.Zero) | (A.One & B.One);
    break;
  case ExprKind::Add:
    R = addKnown(A, B, 0, Mask);
    break;
  case ExprKind::Sub: {
    // a - b == a + ~b + 1.
    KnownBits NotB{B.One, B.Zero};
    R = addKnown(A, NotB, 1, Mask);
    break;
  }
  case ExprKind::Mul: {
    // The low k bits of a product depend only on the low k bits of the
    // factors; when both are known on a low window, so is the product on
    // that window. Trailing zeros additionally accumulate.
    unsigned TrailA = (unsigned)std::countr_one(A.knownMask());
    unsigned TrailB = (unsigned)std::countr_one(B.knownMask());
    unsigned Known = std::min(TrailA, TrailB);
    if (Known) {
      uint64_t Window = lowBitsMask(Known);
      uint64_t Prod = (A.One & Window) * (B.One & Window);
      R.One = Prod & Window & Mask;
      R.Zero = ~Prod & Window & Mask;
    }
    // Factor trailing zeros: tz(a*b) >= tz(a) + tz(b).
    unsigned TzA = (unsigned)std::countr_one(A.Zero);
    unsigned TzB = (unsigned)std::countr_one(B.Zero);
    unsigned Tz = std::min(64u, TzA + TzB);
    R.Zero |= lowBitsMask(Tz) & Mask & ~R.One;
    break;
  }
  default:
    assert(false && "not a binary kind");
  }
  assert((R.Zero & R.One) == 0 && "contradictory known bits");
  return R;
}

//===----------------------------------------------------------------------===//
// ParityDomain
//===----------------------------------------------------------------------===//

namespace {

/// Provable trailing-zero count of a value known modulo 2^KnownLow.
unsigned parityTrailingZeros(const Parity &P) {
  if (P.KnownLow == 0)
    return 0;
  if (P.Residue == 0)
    return P.KnownLow;
  return (unsigned)std::countr_zero(P.Residue);
}

} // namespace

Parity ParityDomain::unary(ExprKind K, const Parity &A) const {
  switch (K) {
  case ExprKind::Not:
    return make(A.KnownLow, ~A.Residue);
  case ExprKind::Neg:
    return make(A.KnownLow, 0 - A.Residue);
  default:
    assert(false && "not a unary kind");
    return top();
  }
}

Parity ParityDomain::binary(ExprKind K, const Parity &A, const Parity &B,
                            bool SameOperand) const {
  unsigned M = std::min(A.KnownLow, B.KnownLow);
  switch (K) {
  case ExprKind::Add:
    if (SameOperand)
      // e + e == 2e: known mod 2^(k+1) — in particular even when e is top.
      return make(A.KnownLow + 1, A.Residue << 1);
    return make(M, A.Residue + B.Residue);
  case ExprKind::Sub:
    if (SameOperand)
      return make(Width, 0); // e - e == 0 exactly
    return make(M, A.Residue - B.Residue);
  case ExprKind::Mul: {
    // Best of several sound facts; keep the one with the widest window.
    Parity R = make(M, A.Residue * B.Residue);
    // tz(a*b) >= tz(a) + tz(b).
    unsigned Tz = std::min((unsigned)64,
                           parityTrailingZeros(A) + parityTrailingZeros(B));
    if (Tz > R.KnownLow)
      R = make(Tz, 0);
    // Multiplication by a full constant c: c*v ≡ c*r (mod 2^(k + tz(c))).
    auto ByConst = [&](const Parity &C, const Parity &V) {
      if (C.KnownLow < Width || V.KnownLow == 0 || C.Residue == 0)
        return;
      unsigned W = V.KnownLow + (unsigned)std::countr_zero(C.Residue);
      if (W > R.KnownLow)
        R = make(W, C.Residue * V.Residue);
    };
    ByConst(A, B);
    ByConst(B, A);
    if (SameOperand && A.KnownLow >= 1) {
      // e ≡ r (mod 2^k), k >= 1  ==>  e*e ≡ r*r (mod 2^(k+1)).
      unsigned W = A.KnownLow + 1;
      if (W > R.KnownLow)
        R = make(W, A.Residue * A.Residue);
    }
    return R;
  }
  case ExprKind::And: {
    if (SameOperand)
      return A;
    Parity R = make(M, A.Residue & B.Residue);
    // A full constant whose set bits all sit inside the other operand's
    // known window masks everything unknown to zero: the result is the
    // full constant c & r.
    auto Absorb = [&](const Parity &C, const Parity &V) {
      if (C.KnownLow < Width || V.KnownLow >= Width)
        return;
      if ((C.Residue & ~lowBitsMask(V.KnownLow)) == 0)
        R = make(Width, C.Residue & V.Residue);
    };
    Absorb(A, B);
    Absorb(B, A);
    return R;
  }
  case ExprKind::Or: {
    if (SameOperand)
      return A;
    Parity R = make(M, A.Residue | B.Residue);
    // Dual absorption: a full constant with every bit above the other
    // operand's window set forces those bits to one.
    uint64_t WidthMask = lowBitsMask(Width);
    auto Absorb = [&](const Parity &C, const Parity &V) {
      if (C.KnownLow < Width || V.KnownLow >= Width)
        return;
      if ((C.Residue & ~lowBitsMask(V.KnownLow)) ==
          (WidthMask & ~lowBitsMask(V.KnownLow)))
        R = make(Width, C.Residue | V.Residue);
    };
    Absorb(A, B);
    Absorb(B, A);
    return R;
  }
  case ExprKind::Xor:
    if (SameOperand)
      return make(Width, 0); // e ^ e == 0 exactly
    return make(M, A.Residue ^ B.Residue);
  default:
    assert(false && "not a binary kind");
    return top();
  }
}

//===----------------------------------------------------------------------===//
// IntervalDomain
//===----------------------------------------------------------------------===//

namespace {

/// The common high-order prefix of [Lo, Hi] is fixed on the whole range:
/// every value in the interval agrees with Lo on the bits above the highest
/// bit where Lo and Hi differ. Converts that prefix into known-bits form.
KnownBits intervalPrefixBits(const Interval &I, uint64_t Mask) {
  uint64_t Diff = I.Lo ^ I.Hi;
  uint64_t KnownMask =
      Diff == 0 ? Mask : Mask & ~lowBitsMask((unsigned)std::bit_width(Diff));
  KnownBits K;
  K.One = I.Lo & KnownMask;
  K.Zero = ~I.Lo & KnownMask & Mask;
  return K;
}

/// Tightest interval containing every value consistent with known bits.
Interval intervalFromBits(const KnownBits &K, uint64_t Mask) {
  return Interval{K.One, Mask & ~K.Zero};
}

} // namespace

Interval IntervalDomain::unary(ExprKind K, const Interval &A) const {
  switch (K) {
  case ExprKind::Not:
    // ~v == mask - v: order-reversing and exact.
    return Interval{Mask - A.Hi, Mask - A.Lo};
  case ExprKind::Neg:
    if (A.Hi == 0)
      return Interval{0, 0};
    if (A.Lo > 0)
      // All values positive: -v == 2^w - v, monotone decreasing, no wrap.
      return Interval{(0 - A.Hi) & Mask, (0 - A.Lo) & Mask};
    return top(); // range straddles 0: image wraps around
  default:
    assert(false && "not a unary kind");
    return top();
  }
}

Interval IntervalDomain::binary(ExprKind K, const Interval &A,
                                const Interval &B, bool SameOperand) const {
  using U128 = unsigned __int128;
  switch (K) {
  case ExprKind::Add:
    if (SameOperand) {
      if ((U128)A.Hi + A.Hi <= Mask)
        return Interval{A.Lo * 2, A.Hi * 2};
      return top();
    }
    if ((U128)A.Hi + B.Hi <= Mask)
      return Interval{A.Lo + B.Lo, A.Hi + B.Hi};
    return top(); // possible wraparound
  case ExprKind::Sub:
    if (SameOperand)
      return Interval{0, 0}; // e - e == 0 exactly
    if (A.Lo >= B.Hi)
      return Interval{A.Lo - B.Hi, A.Hi - B.Lo};
    return top(); // possible borrow below zero
  case ExprKind::Mul: {
    if ((U128)A.Hi * B.Hi <= Mask)
      return Interval{A.Lo * B.Lo, A.Hi * B.Hi};
    // Constant multiplier c = m·2^t: v*c ≡ (v·m mod 2^(w-t))·2^t, so the
    // product stays a multiple of 2^t even after wraparound — the top of
    // the range drops by the t trailing-zero bits (e.g. x*4 at width 8
    // lies in [0, 252] although the product itself may wrap).
    unsigned TrailingZeros = 0;
    if (A.Lo == A.Hi && A.Lo != 0)
      TrailingZeros = (unsigned)std::countr_zero(A.Lo);
    else if (B.Lo == B.Hi && B.Lo != 0)
      TrailingZeros = (unsigned)std::countr_zero(B.Lo);
    if (TrailingZeros > 0)
      return Interval{0, Mask & ~lowBitsMask(TrailingZeros)};
    return top();
  }
  case ExprKind::And: {
    if (SameOperand)
      return A;
    KnownBits KB = KnownBitsDomain(Mask).binary(
        ExprKind::And, intervalPrefixBits(A, Mask),
        intervalPrefixBits(B, Mask), false);
    Interval R = intervalFromBits(KB, Mask);
    R.Hi = std::min(R.Hi, std::min(A.Hi, B.Hi)); // v & w <= min(v, w)
    return R;
  }
  case ExprKind::Or: {
    if (SameOperand)
      return A;
    KnownBits KB = KnownBitsDomain(Mask).binary(
        ExprKind::Or, intervalPrefixBits(A, Mask),
        intervalPrefixBits(B, Mask), false);
    Interval R = intervalFromBits(KB, Mask);
    R.Lo = std::max(R.Lo, std::max(A.Lo, B.Lo)); // v | w >= max(v, w)
    // v | w < 2^k when both operands are < 2^k.
    R.Hi = std::min(R.Hi, lowBitsMask((unsigned)std::bit_width(A.Hi | B.Hi)));
    return R;
  }
  case ExprKind::Xor: {
    if (SameOperand)
      return Interval{0, 0}; // e ^ e == 0 exactly
    KnownBits KB = KnownBitsDomain(Mask).binary(
        ExprKind::Xor, intervalPrefixBits(A, Mask),
        intervalPrefixBits(B, Mask), false);
    Interval R = intervalFromBits(KB, Mask);
    R.Hi = std::min(R.Hi, lowBitsMask((unsigned)std::bit_width(A.Hi | B.Hi)));
    return R;
  }
  default:
    assert(false && "not a binary kind");
    return top();
  }
}

//===----------------------------------------------------------------------===//
// Convenience entry points
//===----------------------------------------------------------------------===//

Parity mba::computeParity(const Context &Ctx, const Expr *E) {
  ParityDomain D(Ctx.width());
  NodeMap<Parity> Memo;
  return computeAbstract(D, E, Memo);
}

Interval mba::computeInterval(const Context &Ctx, const Expr *E) {
  IntervalDomain D(Ctx.mask());
  NodeMap<Interval> Memo;
  return computeAbstract(D, E, Memo);
}

namespace {

/// The three domains side by side: one walk and one memo compute all of
/// them. asConstant asks known bits, then parity, then intervals.
class ProductDomain {
public:
  struct Value {
    KnownBits KB;
    Parity P;
    Interval I;
  };

  explicit ProductDomain(const Context &Ctx)
      : KBD(Ctx.mask()), PD(Ctx.width()), ID(Ctx.mask()) {}

  Value top() const { return {KBD.top(), PD.top(), ID.top()}; }
  Value constant(uint64_t C) const {
    return {KBD.constant(C), PD.constant(C), ID.constant(C)};
  }
  Value unary(ExprKind K, const Value &A) const {
    return {KBD.unary(K, A.KB), PD.unary(K, A.P), ID.unary(K, A.I)};
  }
  Value binary(ExprKind K, const Value &A, const Value &B,
               bool SameOperand) const {
    return {KBD.binary(K, A.KB, B.KB, SameOperand),
            PD.binary(K, A.P, B.P, SameOperand),
            ID.binary(K, A.I, B.I, SameOperand)};
  }
  std::optional<uint64_t> asConstant(const Value &V) const {
    if (auto C = KBD.asConstant(V.KB))
      return C;
    if (auto C = PD.asConstant(V.P))
      return C;
    return ID.asConstant(V.I);
  }

private:
  KnownBitsDomain KBD;
  ParityDomain PD;
  IntervalDomain ID;
};

} // namespace

const Expr *mba::foldAbstract(Context &Ctx, const Expr *E) {
  ProductDomain D(Ctx);
  // Original node -> its folded form and the product value of that form.
  // A node's value depends only on the node, so the value of a rebuilt
  // node follows from its rebuilt operands' entries, and a node folded to
  // c carries the value of the constant node c.
  struct Folded {
    const Expr *N;
    ProductDomain::Value V;
  };
  NodeMap<Folded> Memo;
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    Folded F;
    switch (N->kind()) {
    case ExprKind::Var:
      F = {N, D.top()};
      break;
    case ExprKind::Const:
      F = {N, D.constant(N->constValue())};
      break;
    case ExprKind::Not:
    case ExprKind::Neg: {
      const Folded &A = Memo.at(N->operand());
      F = {Ctx.rebuild(N, A.N, nullptr), D.unary(N->kind(), A.V)};
      break;
    }
    default: {
      const Folded &L = Memo.at(N->lhs());
      const Folded &R = Memo.at(N->rhs());
      F = {Ctx.rebuild(N, L.N, R.N),
           D.binary(N->kind(), L.V, R.V, L.N == R.N)};
      break;
    }
    }
    if (!F.N->isLeaf())
      if (auto C = D.asConstant(F.V))
        F = {Ctx.getConst(*C), D.constant(*C)};
    Memo.emplace(N, F);
  });
  return Memo.at(E).N;
}

std::optional<Refutation>
mba::refuteEquivalence(const Context &Ctx, const Expr *A, const Expr *B) {
  {
    KnownBitsDomain D(Ctx.mask());
    NodeMap<KnownBits> Memo;
    KnownBits VA = computeAbstract(D, A, Memo);
    KnownBits VB = computeAbstract(D, B, Memo);
    if (D.disjoint(VA, VB)) {
      uint64_t Conflict = (VA.One & VB.Zero) | (VA.Zero & VB.One);
      return Refutation{"known-bits",
                        "bit " +
                            std::to_string(std::countr_zero(Conflict)) +
                            " is provably 1 on one side and 0 on the other"};
    }
  }
  {
    ParityDomain D(Ctx.width());
    NodeMap<Parity> Memo;
    Parity VA = computeAbstract(D, A, Memo);
    Parity VB = computeAbstract(D, B, Memo);
    if (D.disjoint(VA, VB)) {
      unsigned M = std::min(VA.KnownLow, VB.KnownLow);
      return Refutation{
          "parity", "lhs ≡ " + std::to_string(VA.Residue & lowBitsMask(M)) +
                        ", rhs ≡ " +
                        std::to_string(VB.Residue & lowBitsMask(M)) +
                        " (mod 2^" + std::to_string(M) + ")"};
    }
  }
  {
    IntervalDomain D(Ctx.mask());
    NodeMap<Interval> Memo;
    Interval VA = computeAbstract(D, A, Memo);
    Interval VB = computeAbstract(D, B, Memo);
    if (D.disjoint(VA, VB))
      return Refutation{"interval",
                        "lhs in [" + std::to_string(VA.Lo) + ", " +
                            std::to_string(VA.Hi) + "], rhs in [" +
                            std::to_string(VB.Lo) + ", " +
                            std::to_string(VB.Hi) + "]"};
  }
  return std::nullopt;
}
