//===- ast/BitslicedEval.cpp - Bitsliced batch DAG evaluation -------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/BitslicedEval.h"

#include "ast/NodeMap.h"
#include "support/Bitslice.h"

#include <cassert>
#include <cstring>

using namespace mba;

BitslicedExpr::BitslicedExpr(const Context &Ctx, const Expr *E)
    : Ctx(&Ctx), Width(Ctx.width()), Mask(Ctx.mask()) {
  assert(E && "null expression");
  // Node -> register. The evaluator is compiled once per computeSignature
  // call on the hot simplifier path, so compilation stays allocation-lean:
  // typical DAGs fit the initial reservations without growing.
  NodeMap<uint32_t> Regs;
  Regs.reserve(64);
  constexpr uint32_t Pending = 0xFFFFFFFEu;
  Program.reserve(64);
  // Iterative post-order; the low pointer bit tags "operands already
  // pushed" markers (Expr nodes are at least word-aligned).
  std::vector<uintptr_t> Stack;
  Stack.reserve(64);
  Stack.push_back((uintptr_t)E);
  while (!Stack.empty()) {
    uintptr_t Top = Stack.back();
    Stack.pop_back();
    const Expr *N = (const Expr *)(Top & ~(uintptr_t)1);
    if (!(Top & 1)) {
      if (!Regs.emplace(N, Pending).second)
        continue; // shared subtree already emitted (or queued below us)
      Stack.push_back(Top | 1);
      for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I)
        Stack.push_back((uintptr_t)N->getOperand(I));
      continue;
    }
    Inst I;
    switch (N->kind()) {
    case ExprKind::Var:
      I.Opcode = Op::LoadVar;
      I.A = N->varIndex();
      break;
    case ExprKind::Const:
      I.Opcode = Op::LoadConst;
      I.Imm = N->constValue();
      break;
    case ExprKind::Not:
    case ExprKind::Neg:
      I.Opcode = N->kind() == ExprKind::Not ? Op::Not : Op::Neg;
      I.A = Regs.at(N->operand());
      break;
    default:
      switch (N->kind()) {
      case ExprKind::Add: I.Opcode = Op::Add; break;
      case ExprKind::Sub: I.Opcode = Op::Sub; break;
      case ExprKind::Mul: I.Opcode = Op::Mul; break;
      case ExprKind::And: I.Opcode = Op::And; break;
      case ExprKind::Or: I.Opcode = Op::Or; break;
      default: I.Opcode = Op::Xor; break;
      }
      I.A = Regs.at(N->lhs());
      I.B = Regs.at(N->rhs());
      break;
    }
    Regs.at(N) = (uint32_t)Program.size();
    Program.push_back(I);
  }

  // Liveness-based slot assignment (see the header): a register's slot is
  // recycled after its last reader, but a destination never takes a slot
  // freed by its own sources, so no kernel ever runs in place.
  const uint32_t P = (uint32_t)Program.size();
  std::vector<uint32_t> LastUse(P);
  for (uint32_t I = 0; I != P; ++I) {
    LastUse[I] = I;
    const Inst &Ins = Program[I];
    switch (Ins.Opcode) {
    case Op::LoadVar: // Ins.A is a variable index, not a register
    case Op::LoadConst:
      break;
    case Op::Not:
    case Op::Neg:
      LastUse[Ins.A] = I;
      break;
    default:
      LastUse[Ins.A] = I;
      LastUse[Ins.B] = I;
      break;
    }
  }
  if (P)
    LastUse[P - 1] = P; // the root is read by the epilogue
  std::vector<uint32_t> Free;
  for (uint32_t I = 0; I != P; ++I) {
    if (Free.empty()) {
      Program[I].Slot = NumSlots++;
    } else {
      Program[I].Slot = Free.back();
      Free.pop_back();
    }
    const Inst &Ins = Program[I];
    switch (Ins.Opcode) {
    case Op::LoadVar:
    case Op::LoadConst:
      break;
    case Op::Not:
    case Op::Neg:
      if (LastUse[Ins.A] == I)
        Free.push_back(Program[Ins.A].Slot);
      break;
    default:
      if (LastUse[Ins.A] == I)
        Free.push_back(Program[Ins.A].Slot);
      if (Ins.B != Ins.A && LastUse[Ins.B] == I)
        Free.push_back(Program[Ins.B].Slot);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// The interpreter: one representation lattice, every per-lane loop a
// WideKernels call compiled with the chosen back end's ISA flags. Blocks
// hold up to 64 x Words lanes. A Uniform register's mask occupies the first
// BlockWords words of its (64 * BlockWords)-word slot; Word[] carries Splat
// values only.
//===----------------------------------------------------------------------===//

uint64_t *BitslicedExpr::wideSlot(uint32_t Reg) const {
  return Slots + (size_t)Program[Reg].Slot * BlockWords * 64;
}

const uint64_t *BitslicedExpr::wideSlicesOf(const bitslice::WideKernels &WK,
                                            uint32_t Reg,
                                            uint64_t *Tmp) const {
  switch (RepOf[Reg]) {
  case Rep::Sliced:
    return wideSlot(Reg);
  default: // Splat (Uniform/Lanes never occur in sliced mode)
    WK.SliceBroadcast(Width, Word[Reg], Tmp);
    return Tmp;
  }
}

const uint64_t *BitslicedExpr::wideLanesOf(const bitslice::WideKernels &WK,
                                           uint32_t Reg, uint64_t *Tmp,
                                           unsigned NumLanes) const {
  switch (RepOf[Reg]) {
  case Rep::Lanes:
    return LanePtr[Reg];
  case Rep::Uniform:
    WK.LaneSelect(wideSlot(Reg), Mask, Tmp, NumLanes);
    return Tmp;
  default: // Splat (Sliced never occurs in lane mode)
    WK.LaneFill(Word[Reg], Tmp, NumLanes);
    return Tmp;
  }
}

void BitslicedExpr::runWideLanes(const bitslice::WideKernels &WK,
                                 unsigned NumLanes,
                                 uint64_t *RootOut) const {
  const unsigned N = NumLanes;
  const unsigned W = WK.Words;
  const size_t P = Program.size();
  uint64_t TmpA[bitslice::MaxWideLanes], TmpB[bitslice::MaxWideLanes];
  // Lanes-representation destination for instruction I: the root writes
  // straight into the caller's output buffer, everything else into its
  // slot. Every branch producing Rep::Lanes records the destination in
  // LanePtr[I].
  auto Dst = [&](size_t I) {
    return I + 1 == P && RootOut ? RootOut : wideSlot((uint32_t)I);
  };
  for (size_t I = 0; I != P; ++I) {
    const Inst &Ins = Program[I];
    const uint32_t A = Ins.A, B = Ins.B;
    switch (Ins.Opcode) {
    case Op::LoadVar:
      if (CornerMode) {
        RepOf[I] = Rep::Uniform;
        uint64_t *M = wideSlot((uint32_t)I);
        size_t Base = (size_t)A * CornerMaskWords;
        for (unsigned K = 0; K != W; ++K)
          M[K] = K < CornerMaskWords && Base + K < CornerMasks.size()
                     ? CornerMasks[Base + K]
                     : 0;
      } else {
        const uint64_t *Lanes =
            A < LaneInputs.size() ? LaneInputs[A] : nullptr;
        if (!Lanes) {
          RepOf[I] = Rep::Splat;
          Word[I] = 0;
        } else if (Mask == ~0ULL) {
          // Full width: masking is the identity, so alias the caller's
          // input array instead of copying a block (zero-copy load).
          RepOf[I] = Rep::Lanes;
          LanePtr[I] = Lanes;
        } else {
          RepOf[I] = Rep::Lanes;
          uint64_t *D = Dst(I);
          WK.LaneCopyM(Lanes, D, N, Mask);
          LanePtr[I] = D;
        }
      }
      break;
    case Op::LoadConst:
      RepOf[I] = Rep::Splat;
      Word[I] = Ins.Imm & Mask;
      break;
    case Op::Not:
      RepOf[I] = RepOf[A];
      if (RepOf[A] == Rep::Splat)
        Word[I] = ~Word[A] & Mask;
      else if (RepOf[A] == Rep::Uniform) {
        const uint64_t *MA = wideSlot(A);
        uint64_t *M = wideSlot((uint32_t)I);
        for (unsigned K = 0; K != W; ++K)
          M[K] = ~MA[K];
      } else {
        uint64_t *D = Dst(I);
        WK.LaneNotM(LanePtr[A], D, N, Mask);
        LanePtr[I] = D;
      }
      break;
    case Op::Neg:
      if (RepOf[A] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (0 - Word[A]) & Mask;
      } else if (RepOf[A] == Rep::Uniform) {
        // Per-lane value 0 or -1; negation gives 0 or 1.
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        WK.LaneSelect(wideSlot(A), 1, D, N);
        LanePtr[I] = D;
      } else {
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        WK.LaneNegM(LanePtr[A], D, N, Mask);
        LanePtr[I] = D;
      }
      break;
    case Op::And:
    case Op::Or:
    case Op::Xor: {
      Rep RA = RepOf[A], RB = RepOf[B];
      if (RA == Rep::Splat && RB == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = Ins.Opcode == Op::And   ? Word[A] & Word[B]
                  : Ins.Opcode == Op::Or ? Word[A] | Word[B]
                                          : Word[A] ^ Word[B];
      } else if (RA == Rep::Uniform && RB == Rep::Uniform) {
        // The corner-evaluation fast path: W word ops for the whole
        // wide block.
        RepOf[I] = Rep::Uniform;
        const uint64_t *MA = wideSlot(A), *MB = wideSlot(B);
        uint64_t *M = wideSlot((uint32_t)I);
        if (Ins.Opcode == Op::And)
          for (unsigned K = 0; K != W; ++K)
            M[K] = MA[K] & MB[K];
        else if (Ins.Opcode == Op::Or)
          for (unsigned K = 0; K != W; ++K)
            M[K] = MA[K] | MB[K];
        else
          for (unsigned K = 0; K != W; ++K)
            M[K] = MA[K] ^ MB[K];
      } else if (RA == Rep::Splat || RB == Rep::Splat) {
        // One splat operand folds into the kernel: a single fused pass
        // over the other side (Lanes), or a two-constant select over its
        // mask (Uniform, per-lane value Mask or 0).
        uint64_t C = Word[RA == Rep::Splat ? A : B];
        uint32_t O = RA == Rep::Splat ? B : A;
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        if (RepOf[O] == Rep::Lanes) {
          if (Ins.Opcode == Op::And)
            WK.LaneAndS(LanePtr[O], C, D, N);
          else if (Ins.Opcode == Op::Or)
            WK.LaneOrS(LanePtr[O], C, D, N);
          else
            WK.LaneXorS(LanePtr[O], C, D, N);
        } else {
          uint64_t V1 = Ins.Opcode == Op::And   ? C
                        : Ins.Opcode == Op::Or ? Mask
                                                : (Mask ^ C);
          uint64_t V0 = Ins.Opcode == Op::And ? 0 : C;
          WK.LaneSelect2(wideSlot(O), V1, V0, D, N);
        }
        LanePtr[I] = D;
      } else {
        RepOf[I] = Rep::Lanes;
        const uint64_t *SA = wideLanesOf(WK, A, TmpA, N);
        const uint64_t *SB = wideLanesOf(WK, B, TmpB, N);
        uint64_t *D = Dst(I);
        if (Ins.Opcode == Op::And)
          WK.LaneAnd(SA, SB, D, N);
        else if (Ins.Opcode == Op::Or)
          WK.LaneOr(SA, SB, D, N);
        else
          WK.LaneXor(SA, SB, D, N);
        LanePtr[I] = D;
      }
      break;
    }
    case Op::Add:
    case Op::Sub: {
      Rep RA = RepOf[A], RB = RepOf[B];
      bool IsAdd = Ins.Opcode == Op::Add;
      if (RA == Rep::Splat && RB == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (IsAdd ? Word[A] + Word[B] : Word[A] - Word[B]) & Mask;
      } else if (RA == Rep::Splat || RB == Rep::Splat) {
        // Constant term: fused add/sub against the other side.
        uint64_t C = Word[RA == Rep::Splat ? A : B];
        uint32_t O = RA == Rep::Splat ? B : A;
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        if (RepOf[O] == Rep::Lanes) {
          if (IsAdd)
            WK.LaneAddSM(LanePtr[O], C, D, N, Mask);
          else if (RB == Rep::Splat)
            WK.LaneSubSM(LanePtr[O], C, D, N, Mask); // A - C
          else
            WK.LaneRSubSM(LanePtr[O], C, D, N, Mask); // C - B
        } else {
          // Uniform other side: per-lane value Mask or 0.
          uint64_t V1, V0;
          if (IsAdd) {
            V1 = (Mask + C) & Mask;
            V0 = C;
          } else if (RB == Rep::Splat) { // A(Uniform) - C
            V1 = (Mask - C) & Mask;
            V0 = (0 - C) & Mask;
          } else { // C - B(Uniform)
            V1 = (C - Mask) & Mask;
            V0 = C;
          }
          WK.LaneSelect2(wideSlot(O), V1, V0, D, N);
        }
        LanePtr[I] = D;
      } else {
        RepOf[I] = Rep::Lanes;
        const uint64_t *SA = wideLanesOf(WK, A, TmpA, N);
        const uint64_t *SB = wideLanesOf(WK, B, TmpB, N);
        uint64_t *D = Dst(I);
        if (IsAdd)
          WK.LaneAddM(SA, SB, D, N, Mask);
        else
          WK.LaneSubM(SA, SB, D, N, Mask);
        LanePtr[I] = D;
      }
      break;
    }
    case Op::Mul: {
      Rep RA = RepOf[A], RB = RepOf[B];
      if (RA == Rep::Splat && RB == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (Word[A] * Word[B]) & Mask;
      } else if ((RA == Rep::Splat && RB == Rep::Uniform) ||
                 (RA == Rep::Uniform && RB == Rep::Splat)) {
        // Coefficient times bitwise term: one select per lane.
        uint64_t C = RA == Rep::Splat ? Word[A] : Word[B];
        const uint64_t *M = wideSlot(RA == Rep::Splat ? B : A);
        uint64_t NC = (0 - C) & Mask;
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        WK.LaneSelect(M, NC, D, N);
        LanePtr[I] = D;
      } else if (RA == Rep::Splat || RB == Rep::Splat) {
        // Coefficient times a Lanes value: one fused multiply pass.
        uint64_t C = Word[RA == Rep::Splat ? A : B];
        uint32_t O = RA == Rep::Splat ? B : A;
        RepOf[I] = Rep::Lanes;
        uint64_t *D = Dst(I);
        WK.LaneMulSM(LanePtr[O], C, D, N, Mask);
        LanePtr[I] = D;
      } else if (RA == Rep::Uniform && RB == Rep::Uniform) {
        // (-1) * (-1) = 1, anything else 0.
        RepOf[I] = Rep::Lanes;
        const uint64_t *MA = wideSlot(A), *MB = wideSlot(B);
        uint64_t MW[bitslice::MaxWideWords];
        for (unsigned K = 0; K != W; ++K)
          MW[K] = MA[K] & MB[K];
        uint64_t *D = Dst(I);
        WK.LaneSelect(MW, 1, D, N);
        LanePtr[I] = D;
      } else {
        RepOf[I] = Rep::Lanes;
        const uint64_t *SA = wideLanesOf(WK, A, TmpA, N);
        const uint64_t *SB = wideLanesOf(WK, B, TmpB, N);
        uint64_t *D = Dst(I);
        WK.LaneMulM(SA, SB, D, N, Mask);
        LanePtr[I] = D;
      }
      break;
    }
    }
  }
}

void BitslicedExpr::runWideSliced(const bitslice::WideKernels &WK,
                                  unsigned NumLanes) const {
  const unsigned W = Width;
  uint64_t TmpA[bitslice::MaxWideLanes], TmpB[bitslice::MaxWideLanes];
  for (size_t I = 0, P = Program.size(); I != P; ++I) {
    const Inst &Ins = Program[I];
    const uint32_t A = Ins.A, B = Ins.B;
    switch (Ins.Opcode) {
    case Op::LoadVar: {
      const uint64_t *Lanes =
          A < LaneInputs.size() ? LaneInputs[A] : nullptr;
      if (!Lanes) {
        RepOf[I] = Rep::Splat;
        Word[I] = 0;
      } else {
        RepOf[I] = Rep::Sliced;
        WK.LanesToSlices(Lanes, NumLanes, W, wideSlot((uint32_t)I));
      }
      break;
    }
    case Op::LoadConst:
      RepOf[I] = Rep::Splat;
      Word[I] = Ins.Imm & Mask;
      break;
    case Op::Not:
      if (RepOf[A] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = ~Word[A] & Mask;
      } else {
        RepOf[I] = Rep::Sliced;
        WK.SliceNot(W, wideSlot(A), wideSlot((uint32_t)I));
      }
      break;
    case Op::Neg:
      if (RepOf[A] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (0 - Word[A]) & Mask;
      } else {
        RepOf[I] = Rep::Sliced;
        WK.SliceNeg(W, wideSlot(A), wideSlot((uint32_t)I));
      }
      break;
    case Op::And:
    case Op::Or:
    case Op::Xor: {
      if (RepOf[A] == Rep::Splat && RepOf[B] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = Ins.Opcode == Op::And   ? Word[A] & Word[B]
                  : Ins.Opcode == Op::Or ? Word[A] | Word[B]
                                          : Word[A] ^ Word[B];
      } else {
        RepOf[I] = Rep::Sliced;
        const uint64_t *SA = wideSlicesOf(WK, A, TmpA);
        const uint64_t *SB = wideSlicesOf(WK, B, TmpB);
        uint64_t *S = wideSlot((uint32_t)I);
        if (Ins.Opcode == Op::And)
          WK.SliceAnd(W, SA, SB, S);
        else if (Ins.Opcode == Op::Or)
          WK.SliceOr(W, SA, SB, S);
        else
          WK.SliceXor(W, SA, SB, S);
      }
      break;
    }
    case Op::Add:
    case Op::Sub: {
      bool IsAdd = Ins.Opcode == Op::Add;
      if (RepOf[A] == Rep::Splat && RepOf[B] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (IsAdd ? Word[A] + Word[B] : Word[A] - Word[B]) & Mask;
      } else {
        RepOf[I] = Rep::Sliced;
        const uint64_t *SA = wideSlicesOf(WK, A, TmpA);
        const uint64_t *SB = wideSlicesOf(WK, B, TmpB);
        uint64_t *S = wideSlot((uint32_t)I);
        if (IsAdd)
          WK.SliceAdd(W, SA, SB, S);
        else
          WK.SliceSub(W, SA, SB, S);
      }
      break;
    }
    case Op::Mul: {
      if (RepOf[A] == Rep::Splat && RepOf[B] == Rep::Splat) {
        RepOf[I] = Rep::Splat;
        Word[I] = (Word[A] * Word[B]) & Mask;
      } else {
        RepOf[I] = Rep::Sliced;
        const uint64_t *SA = wideSlicesOf(WK, A, TmpA);
        const uint64_t *SB = wideSlicesOf(WK, B, TmpB);
        WK.SliceMul(W, SA, SB, wideSlot((uint32_t)I));
      }
      break;
    }
    }
  }
}

void BitslicedExpr::runWide(const bitslice::WideKernels &WK,
                            unsigned NumLanes, uint64_t *Out) const {
  assert(NumLanes <= WK.Words * 64 && "block too large for back end");
  // Carve this run's register file out of the context's shared scratch:
  // NumSlots (64 * Words)-word slots (liveness reuse), then per register a
  // Splat word, a lane-data pointer and a representation tag.
  size_t P = Program.size();
  size_t BW = (size_t)WK.Words * 64;
  uint64_t *S = Ctx->evalScratch((size_t)NumSlots * BW + 2 * P + (P + 7) / 8);
  Slots = S;
  Word = S + (size_t)NumSlots * BW;
  LanePtr = reinterpret_cast<const uint64_t **>(Word + P);
  RepOf = reinterpret_cast<Rep *>(Word + 2 * P);
  BlockWords = WK.Words;
  // Corner inputs are uniform (the whole point); point inputs use slices
  // only up to the width where w slice ops beat one op per lane.
  if (CornerMode || Width > bitslice::kSchoolbookMulMaxWidth)
    runWideLanes(WK, NumLanes, Out);
  else
    runWideSliced(WK, NumLanes);

  uint32_t Root = (uint32_t)Program.size() - 1;
  switch (RepOf[Root]) {
  case Rep::Uniform:
    WK.LaneSelect(wideSlot(Root), Mask, Out, NumLanes);
    break;
  case Rep::Splat:
    WK.LaneFill(Word[Root], Out, NumLanes);
    break;
  case Rep::Lanes:
    // Usually written to Out directly by runWideLanes; the copy only
    // remains for a zero-copy variable root aliasing the caller's input.
    if (LanePtr[Root] != Out)
      std::memcpy(Out, LanePtr[Root], NumLanes * sizeof(uint64_t));
    break;
  case Rep::Sliced:
    WK.SlicesToLanes(wideSlot(Root), Width, NumLanes, Out);
    break;
  }
}

void BitslicedExpr::evaluateCorners(std::span<const uint64_t> VarMaskWords,
                                    unsigned NumLanes, uint64_t *Out) const {
  // Corner blocks of at most 64 lanes run on the scalar table: over every
  // 1-6-variable node of the seed-1 paper corpus it beat both vector
  // tables (BM_SignatureCorpusNodes, docs/PERF.md §1), which only add
  // masked-off lanes below one 64-lane word.
  const bitslice::WideKernels &WK =
      NumLanes <= bitslice::LanesPerBlock
          ? bitslice::kernelsFor(bitslice::Isa::Scalar)
          : bitslice::activeKernels();
  CornerMode = true;
  CornerMasks = VarMaskWords;
  CornerMaskWords = (NumLanes + 63) / 64;
  LaneInputs = {};
  runWide(WK, NumLanes, Out);
}

void BitslicedExpr::evaluateBlock(std::span<const uint64_t *const> VarLanes,
                                  unsigned NumLanes, uint64_t *Out) const {
  CornerMode = false;
  CornerMasks = {};
  LaneInputs = VarLanes;
  // Every point block runs on the active back end: lane counts below a
  // full wide block still vectorize (a 64-lane pass is 16 ymm / 8 zmm
  // iterations), and the per-register working set stays L1-resident.
  runWide(bitslice::activeKernels(), NumLanes, Out);
}

std::vector<uint64_t>
BitslicedExpr::evaluatePoints(std::span<const uint64_t *const> VarLanes,
                              size_t NumPoints) const {
  std::vector<uint64_t> Out(NumPoints);
  std::vector<const uint64_t *> Block(VarLanes.size());
  size_t BlockLanes = wideLanes();
  for (size_t Base = 0; Base < NumPoints; Base += BlockLanes) {
    unsigned N = (unsigned)std::min<size_t>(BlockLanes, NumPoints - Base);
    for (size_t V = 0; V != VarLanes.size(); ++V)
      Block[V] = VarLanes[V] ? VarLanes[V] + Base : nullptr;
    evaluateBlock(Block, N, Out.data() + Base);
  }
  return Out;
}
