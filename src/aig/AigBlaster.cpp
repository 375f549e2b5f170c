//===- aig/AigBlaster.cpp - Word-level encodings over the AIG -------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aig/AigBlaster.h"

using namespace mba;
using namespace mba::aig;

AigBlaster::Word AigBlaster::freshWord() {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = G.mkInput();
  return W;
}

AigBlaster::Word AigBlaster::constWord(uint64_t Value) const {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = (Value >> I) & 1 ? Aig::trueLit() : Aig::falseLit();
  return W;
}

AigBlaster::Word AigBlaster::bvNot(const Word &A) const {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = ~A[I];
  return W;
}

AigBlaster::Word AigBlaster::bvAnd(const Word &A, const Word &B) {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = G.mkAnd(A[I], B[I]);
  return W;
}

AigBlaster::Word AigBlaster::bvOr(const Word &A, const Word &B) {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = G.mkOr(A[I], B[I]);
  return W;
}

AigBlaster::Word AigBlaster::bvXor(const Word &A, const Word &B) {
  Word W(Width);
  for (unsigned I = 0; I != Width; ++I)
    W[I] = G.mkXor(A[I], B[I]);
  return W;
}

void AigBlaster::prefixScan(std::vector<AigLit> &Gen,
                            std::vector<AigLit> &Prop) {
  // Brent-Kung: pair adjacent (G,P) cells, recurse on the halved problem,
  // then fix up — odd indices take the recursive prefix directly, even
  // indices >= 2 combine their local cell with the prefix one pair back.
  // ~2N combine steps, depth 2*log2(N).
  size_t N = Gen.size();
  if (N <= 1)
    return;
  auto CombineG = [&](AigLit GHi, AigLit PHi, AigLit GLo) {
    return G.mkOr(GHi, G.mkAnd(PHi, GLo));
  };
  size_t Half = N / 2;
  std::vector<AigLit> HG(Half), HP(Half);
  for (size_t K = 0; K != Half; ++K) {
    HG[K] = CombineG(Gen[2 * K + 1], Prop[2 * K + 1], Gen[2 * K]);
    HP[K] = G.mkAnd(Prop[2 * K + 1], Prop[2 * K]);
  }
  prefixScan(HG, HP); // HG[K]/HP[K] now cover bits [0 .. 2K+1]
  for (size_t K = 0; K != Half; ++K) {
    Gen[2 * K + 1] = HG[K];
    Prop[2 * K + 1] = HP[K];
  }
  for (size_t I = 2; I < N; I += 2) {
    size_t K = I / 2 - 1; // prefix [0 .. I-1]
    Gen[I] = CombineG(Gen[I], Prop[I], HG[K]);
    Prop[I] = G.mkAnd(Prop[I], HP[K]);
  }
}

AigBlaster::Word AigBlaster::rippleAdd(const Word &A, const Word &B,
                                       AigLit CarryIn) {
  Word Sum(Width);
  AigLit Carry = CarryIn;
  for (unsigned I = 0; I != Width; ++I) {
    AigLit AxB = G.mkXor(A[I], B[I]);
    Sum[I] = G.mkXor(AxB, Carry);
    if (I + 1 != Width) // the carry out of the top bit drops mod 2^Width
      Carry = G.mkOr(G.mkAnd(A[I], B[I]), G.mkAnd(Carry, AxB));
  }
  return Sum;
}

AigBlaster::Word AigBlaster::addWithCarry(const Word &A, const Word &B,
                                          AigLit CarryIn) {
  assert(A.size() == Width && B.size() == Width);
  if (Enc == Encoding::Ripple)
    return rippleAdd(A, B, CarryIn);
  std::vector<AigLit> Gen(Width), Prop(Width);
  for (unsigned I = 0; I != Width; ++I) {
    Gen[I] = G.mkAnd(A[I], B[I]);
    Prop[I] = G.mkXor(A[I], B[I]);
  }
  Word Sum(Width);
  Sum[0] = G.mkXor(Prop[0], CarryIn);
  if (Width == 1)
    return Sum;
  // Per-bit XOR consumes the local propagate, so keep a copy before the
  // scan overwrites it with range propagates.
  std::vector<AigLit> LocalProp = Prop;
  prefixScan(Gen, Prop);
  for (unsigned I = 1; I != Width; ++I) {
    // Carry into bit I: generated within [0..I-1], or propagated across it.
    AigLit Carry = G.mkOr(Gen[I - 1], G.mkAnd(Prop[I - 1], CarryIn));
    Sum[I] = G.mkXor(LocalProp[I], Carry);
  }
  return Sum;
}

AigBlaster::Word AigBlaster::shiftAddMul(const Word &A, const Word &B) {
  // Sum over i of (A << i) masked by B[i], truncated to the width.
  Word Acc = constWord(0);
  for (unsigned I = 0; I != Width; ++I) {
    Word Partial(Width, Aig::falseLit());
    for (unsigned J = I; J != Width; ++J)
      Partial[J] = G.mkAnd(A[J - I], B[I]);
    Acc = bvAdd(Acc, Partial);
  }
  return Acc;
}

AigBlaster::Word AigBlaster::bvMul(const Word &A, const Word &B) {
  assert(A.size() == Width && B.size() == Width);
  if (Enc == Encoding::Ripple)
    return shiftAddMul(A, B);
  // Partial products, already truncated mod 2^Width.
  std::vector<Word> Rows;
  Rows.reserve(Width);
  for (unsigned I = 0; I != Width; ++I) {
    Word Row(Width, Aig::falseLit());
    for (unsigned J = I; J != Width; ++J)
      Row[J] = G.mkAnd(A[J - I], B[I]);
    Rows.push_back(std::move(Row));
  }
  if (Rows.empty())
    return constWord(0);
  // 3:2 compression: three rows become a sum row and a shifted carry row,
  // with no carry propagation until the single final adder.
  while (Rows.size() > 2) {
    std::vector<Word> Next;
    size_t I = 0;
    for (; I + 3 <= Rows.size(); I += 3) {
      const Word &X = Rows[I], &Y = Rows[I + 1], &Z = Rows[I + 2];
      Word Sum(Width), Carry(Width, Aig::falseLit());
      for (unsigned J = 0; J != Width; ++J) {
        AigLit XY = G.mkXor(X[J], Y[J]);
        Sum[J] = G.mkXor(XY, Z[J]);
        if (J + 1 != Width) // carry out of the top bit drops mod 2^Width
          Carry[J + 1] = G.mkOr(G.mkAnd(X[J], Y[J]), G.mkAnd(Z[J], XY));
      }
      Next.push_back(std::move(Sum));
      Next.push_back(std::move(Carry));
    }
    for (; I < Rows.size(); ++I)
      Next.push_back(std::move(Rows[I]));
    Rows = std::move(Next);
  }
  if (Rows.size() == 1)
    return Rows[0];
  return bvAdd(Rows[0], Rows[1]);
}

AigLit AigBlaster::equalLit(const Word &A, const Word &B) {
  assert(A.size() == B.size());
  if (Enc == Encoding::Ripple) {
    // A chain like the ripple carries: OR in each bit's difference in turn.
    AigLit Differ = Aig::falseLit();
    for (size_t I = 0; I != A.size(); ++I)
      Differ = G.mkOr(Differ, G.mkXor(A[I], B[I]));
    return ~Differ;
  }
  // Balanced AND-tree over the per-bit XNORs keeps the depth logarithmic.
  std::vector<AigLit> Eq(A.size());
  for (size_t I = 0; I != A.size(); ++I)
    Eq[I] = ~G.mkXor(A[I], B[I]);
  if (Eq.empty())
    return Aig::trueLit();
  while (Eq.size() > 1) {
    std::vector<AigLit> Next;
    size_t I = 0;
    for (; I + 2 <= Eq.size(); I += 2)
      Next.push_back(G.mkAnd(Eq[I], Eq[I + 1]));
    if (I < Eq.size())
      Next.push_back(Eq[I]);
    Eq = std::move(Next);
  }
  return Eq[0];
}
