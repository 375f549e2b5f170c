//===- support/BitsliceKernels.h - Lane-templated wide kernels --*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane-templated kernel bodies behind the WideKernels dispatch table
/// (Bitslice.h). Every kernel is parameterized on WordsV — the number of
/// 64-bit words per slice, i.e. lanes-per-block / 64 — and compiled once
/// per ISA translation unit:
///
///   Bitslice.cpp        WordsV = 1   baseline flags      (64 lanes)
///   BitsliceAvx2.cpp    WordsV = 4   -mavx2 -O3          (256 lanes)
///   BitsliceAvx512.cpp  WordsV = 8   -mavx512{f,bw,dq,vl} (512 lanes)
///
/// The bodies are plain word arithmetic written so the inner trip counts
/// are the compile-time WordsV (ripple carries) or a flat Width*WordsV run
/// (bitwise ops): exactly the shapes the auto-vectorizer turns into full
/// 256/512-bit vector ops under the per-file ISA flags. Keeping one source
/// of truth here is what guarantees the ISA back ends are bit-identical —
/// the SIMD determinism tests pin that.
///
/// Everything lives in an anonymous namespace ON PURPOSE: each ISA TU must
/// get its own private copy compiled with its own flags. Named inline
/// functions or ordinary template instantiations would be ODR-merged
/// across TUs and the linker could pick the scalar copy for the AVX table
/// (the classic function-multiversioning pitfall). Include this header
/// from the three Bitslice*.cpp files only.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_BITSLICEKERNELS_H
#define MBA_SUPPORT_BITSLICEKERNELS_H

#include "support/Bitslice.h"

#include <cassert>
#include <cstring>

namespace {
namespace wide {

/// In-place 64x64 bit-matrix transpose, restructured from the classic
/// Hacker's Delight 7-3 iteration (Bitslice.cpp keeps that form) so the
/// inner loop runs over a *contiguous* row range — for J >= the vector
/// width the compiler turns it into full-width vector shifts and xors.
inline void transposeOne(uint64_t *M) {
  unsigned J = 32;
  uint64_t Mask = 0x00000000FFFFFFFFULL;
  for (; J; J >>= 1, Mask ^= Mask << J) {
    for (unsigned K = 0; K < 64; K += 2 * J) {
      for (unsigned L = K; L < K + J; ++L) {
        uint64_t T = (M[L] ^ (M[L + J] << J)) & ~Mask;
        M[L] ^= T;
        M[L + J] ^= T >> J;
      }
    }
  }
}

/// The kernel set at WordsV words per slice (WordsV * 64 lanes per block).
/// Slice arrays are slice-major: slice b occupies words
/// [b*WordsV, (b+1)*WordsV). Lane arrays are one word per point.
template <unsigned WordsV> struct Impl {
  //===--------------------------------------------------------------------===//
  // Slice space
  //===--------------------------------------------------------------------===//

  static void sliceNot(unsigned Width, const uint64_t *A, uint64_t *Out) {
    for (unsigned I = 0, N = Width * WordsV; I != N; ++I)
      Out[I] = ~A[I];
  }

  static void sliceAnd(unsigned Width, const uint64_t *A, const uint64_t *B,
                       uint64_t *Out) {
    for (unsigned I = 0, N = Width * WordsV; I != N; ++I)
      Out[I] = A[I] & B[I];
  }

  static void sliceOr(unsigned Width, const uint64_t *A, const uint64_t *B,
                      uint64_t *Out) {
    for (unsigned I = 0, N = Width * WordsV; I != N; ++I)
      Out[I] = A[I] | B[I];
  }

  static void sliceXor(unsigned Width, const uint64_t *A, const uint64_t *B,
                       uint64_t *Out) {
    for (unsigned I = 0, N = Width * WordsV; I != N; ++I)
      Out[I] = A[I] ^ B[I];
  }

  // The ripple carry is the only loop-carried dependency, and it is
  // per-word independent: Carry[] is one full-adder chain per 64-lane
  // word, so the WordsV-wide inner loop is one vector op end to end.

  static void sliceAdd(unsigned Width, const uint64_t *A, const uint64_t *B,
                       uint64_t *Out) {
    uint64_t Carry[WordsV] = {};
    for (unsigned I = 0; I != Width; ++I) {
      const uint64_t *X = A + (size_t)I * WordsV;
      const uint64_t *Y = B + (size_t)I * WordsV;
      uint64_t *O = Out + (size_t)I * WordsV;
      for (unsigned K = 0; K != WordsV; ++K) {
        uint64_t S = X[K] ^ Y[K] ^ Carry[K];
        Carry[K] = (X[K] & Y[K]) | (Carry[K] & (X[K] ^ Y[K]));
        O[K] = S;
      }
    }
  }

  static void sliceSub(unsigned Width, const uint64_t *A, const uint64_t *B,
                       uint64_t *Out) {
    // A - B == A + ~B + 1: seed the ripple with a carry-in of 1.
    uint64_t Carry[WordsV];
    for (unsigned K = 0; K != WordsV; ++K)
      Carry[K] = ~0ULL;
    for (unsigned I = 0; I != Width; ++I) {
      const uint64_t *X = A + (size_t)I * WordsV;
      const uint64_t *B0 = B + (size_t)I * WordsV;
      uint64_t *O = Out + (size_t)I * WordsV;
      for (unsigned K = 0; K != WordsV; ++K) {
        uint64_t Y = ~B0[K];
        uint64_t S = X[K] ^ Y ^ Carry[K];
        Carry[K] = (X[K] & Y) | (Carry[K] & (X[K] ^ Y));
        O[K] = S;
      }
    }
  }

  static void sliceNeg(unsigned Width, const uint64_t *A, uint64_t *Out) {
    // -A == ~A + 1.
    uint64_t Carry[WordsV];
    for (unsigned K = 0; K != WordsV; ++K)
      Carry[K] = ~0ULL;
    for (unsigned I = 0; I != Width; ++I) {
      const uint64_t *A0 = A + (size_t)I * WordsV;
      uint64_t *O = Out + (size_t)I * WordsV;
      for (unsigned K = 0; K != WordsV; ++K) {
        uint64_t X = ~A0[K];
        O[K] = X ^ Carry[K];
        Carry[K] = X & Carry[K];
      }
    }
  }

  static void sliceMul(unsigned Width, const uint64_t *A, const uint64_t *B,
                       uint64_t *Out) {
    // Schoolbook shift-and-add, WordsV carry chains side by side. The
    // interpreter keeps wider values in lane space, so none reach here.
    assert(Width <= mba::bitslice::kSchoolbookMulMaxWidth &&
           "slice-space multiply of a wide value");
    for (unsigned I = 0, N = Width * WordsV; I != N; ++I)
      Out[I] = 0;
    for (unsigned K = 0; K != Width; ++K) {
      const uint64_t *Sel = B + (size_t)K * WordsV;
      uint64_t Any = 0;
      for (unsigned W = 0; W != WordsV; ++W)
        Any |= Sel[W];
      if (!Any)
        continue;
      uint64_t Carry[WordsV] = {};
      for (unsigned I = K; I != Width; ++I) {
        uint64_t *O = Out + (size_t)I * WordsV;
        const uint64_t *X = A + (size_t)(I - K) * WordsV;
        for (unsigned W = 0; W != WordsV; ++W) {
          uint64_t Xv = O[W], Yv = X[W] & Sel[W];
          O[W] = Xv ^ Yv ^ Carry[W];
          Carry[W] = (Xv & Yv) | (Carry[W] & (Xv ^ Yv));
        }
      }
    }
  }

  static void sliceBroadcast(unsigned Width, uint64_t Value, uint64_t *Out) {
    for (unsigned B = 0; B != Width; ++B) {
      uint64_t V = (Value >> B & 1) ? ~0ULL : 0;
      for (unsigned W = 0; W != WordsV; ++W)
        Out[(size_t)B * WordsV + W] = V;
    }
  }

  //===--------------------------------------------------------------------===//
  // Lane <-> slice conversion
  //===--------------------------------------------------------------------===//

  static void transposeBlocks(uint64_t *M, unsigned Blocks) {
    for (unsigned B = 0; B != Blocks; ++B)
      transposeOne(M + (size_t)B * 64);
  }

  static void lanesToSlices(const uint64_t *LanesIn, unsigned NumLanes,
                            unsigned Width, uint64_t *Slices) {
    uint64_t M[64];
    for (unsigned W = 0; W != WordsV; ++W) {
      unsigned Lo = W * 64;
      unsigned N = NumLanes > Lo ? (NumLanes - Lo < 64 ? NumLanes - Lo : 64)
                                 : 0;
      if (N)
        std::memcpy(M, LanesIn + Lo, N * sizeof(uint64_t));
      if (N < 64)
        std::memset(M + N, 0, (64 - N) * sizeof(uint64_t));
      transposeOne(M);
      for (unsigned B = 0; B != Width; ++B)
        Slices[(size_t)B * WordsV + W] = M[B];
    }
  }

  static void slicesToLanes(const uint64_t *Slices, unsigned Width,
                            unsigned NumLanes, uint64_t *LanesOut) {
    uint64_t M[64];
    for (unsigned W = 0; W != WordsV; ++W) {
      unsigned Lo = W * 64;
      if (Lo >= NumLanes)
        break;
      for (unsigned B = 0; B != Width; ++B)
        M[B] = Slices[(size_t)B * WordsV + W];
      if (Width < 64)
        std::memset(M + Width, 0, (64 - Width) * sizeof(uint64_t));
      transposeOne(M);
      unsigned N = NumLanes - Lo < 64 ? NumLanes - Lo : 64;
      std::memcpy(LanesOut + Lo, M, N * sizeof(uint64_t));
    }
  }

  //===--------------------------------------------------------------------===//
  // Lane space (one word per point; N <= WordsV * 64)
  //===--------------------------------------------------------------------===//

  static void laneCopyM(const uint64_t *A, uint64_t *Out, unsigned N,
                        uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] & Mask;
  }

  static void laneNotM(const uint64_t *A, uint64_t *Out, unsigned N,
                       uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = ~A[J] & Mask;
  }

  static void laneNegM(const uint64_t *A, uint64_t *Out, unsigned N,
                       uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (0 - A[J]) & Mask;
  }

  static void laneAnd(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                      unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] & B[J];
  }

  static void laneOr(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                     unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] | B[J];
  }

  static void laneXor(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                      unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] ^ B[J];
  }

  static void laneAddM(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                       unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] + B[J]) & Mask;
  }

  static void laneSubM(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                       unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] - B[J]) & Mask;
  }

  static void laneMulM(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                       unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] * B[J]) & Mask;
  }

  static void laneAndS(const uint64_t *A, uint64_t C, uint64_t *Out,
                       unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] & C;
  }

  static void laneOrS(const uint64_t *A, uint64_t C, uint64_t *Out,
                      unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] | C;
  }

  static void laneXorS(const uint64_t *A, uint64_t C, uint64_t *Out,
                       unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = A[J] ^ C;
  }

  static void laneAddSM(const uint64_t *A, uint64_t C, uint64_t *Out,
                        unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] + C) & Mask;
  }

  static void laneSubSM(const uint64_t *A, uint64_t C, uint64_t *Out,
                        unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] - C) & Mask;
  }

  static void laneRSubSM(const uint64_t *A, uint64_t C, uint64_t *Out,
                         unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (C - A[J]) & Mask;
  }

  static void laneMulSM(const uint64_t *A, uint64_t C, uint64_t *Out,
                        unsigned N, uint64_t Mask) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = (A[J] * C) & Mask;
  }

  static void laneFill(uint64_t V, uint64_t *Out, unsigned N) {
    for (unsigned J = 0; J != N; ++J)
      Out[J] = V;
  }

  static void laneSelect(const uint64_t *Bits, uint64_t C, uint64_t *Out,
                         unsigned N) {
    // Out[j] = bit j of Bits ? C : 0. The shift amount varies per lane
    // within a fixed source word, which vectorizes to variable-shift ops.
    for (unsigned Base = 0; Base < N; Base += 64) {
      uint64_t Bw = Bits[Base >> 6];
      unsigned End = N - Base < 64 ? N : Base + 64;
      for (unsigned J = Base; J != End; ++J)
        Out[J] = (Bw >> (J - Base)) & 1 ? C : 0;
    }
  }

  static void laneSelect2(const uint64_t *Bits, uint64_t C1, uint64_t C0,
                          uint64_t *Out, unsigned N) {
    for (unsigned Base = 0; Base < N; Base += 64) {
      uint64_t Bw = Bits[Base >> 6];
      unsigned End = N - Base < 64 ? N : Base + 64;
      for (unsigned J = Base; J != End; ++J)
        Out[J] = (Bw >> (J - Base)) & 1 ? C1 : C0;
    }
  }
};

/// Builds the dispatch table for Impl<WordsV> tagged as \p Tag.
template <unsigned WordsV>
mba::bitslice::WideKernels makeKernels(mba::bitslice::Isa Tag) {
  using K = Impl<WordsV>;
  mba::bitslice::WideKernels T;
  T.IsaTag = Tag;
  T.Words = WordsV;
  T.SliceNot = &K::sliceNot;
  T.SliceAnd = &K::sliceAnd;
  T.SliceOr = &K::sliceOr;
  T.SliceXor = &K::sliceXor;
  T.SliceAdd = &K::sliceAdd;
  T.SliceSub = &K::sliceSub;
  T.SliceNeg = &K::sliceNeg;
  T.SliceMul = &K::sliceMul;
  T.SliceBroadcast = &K::sliceBroadcast;
  T.TransposeBlocks = &K::transposeBlocks;
  T.LanesToSlices = &K::lanesToSlices;
  T.SlicesToLanes = &K::slicesToLanes;
  T.LaneCopyM = &K::laneCopyM;
  T.LaneNotM = &K::laneNotM;
  T.LaneNegM = &K::laneNegM;
  T.LaneAnd = &K::laneAnd;
  T.LaneOr = &K::laneOr;
  T.LaneXor = &K::laneXor;
  T.LaneAddM = &K::laneAddM;
  T.LaneSubM = &K::laneSubM;
  T.LaneMulM = &K::laneMulM;
  T.LaneAndS = &K::laneAndS;
  T.LaneOrS = &K::laneOrS;
  T.LaneXorS = &K::laneXorS;
  T.LaneAddSM = &K::laneAddSM;
  T.LaneSubSM = &K::laneSubSM;
  T.LaneRSubSM = &K::laneRSubSM;
  T.LaneMulSM = &K::laneMulSM;
  T.LaneFill = &K::laneFill;
  T.LaneSelect = &K::laneSelect;
  T.LaneSelect2 = &K::laneSelect2;
  return T;
}

} // namespace wide
} // namespace

#endif // MBA_SUPPORT_BITSLICEKERNELS_H
