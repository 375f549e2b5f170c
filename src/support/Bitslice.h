//===- support/Bitslice.h - Bitsliced kernels and ISA dispatch --*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bitsliced (transposed) evaluation kernels: evaluation points are packed
/// one-per-bit into uint64_t "slice" words, so one word operation advances
/// 64 points at once. A w-bit value batch is stored as w slices, where bit
/// j of slice b is bit b of point j's value.
///
/// The kernels are pure word arithmetic with no AST dependencies (this is
/// the bottom of the library layering); the DAG compiler/evaluator that
/// drives them lives in ast/BitslicedEval.h. Motivation and layout details
/// are documented in docs/PERF.md.
///
/// This header is the single ISA seam of the repository: the wide engine
/// (WideKernels) processes blocks of Words x 64 lanes per call, with back
/// ends compiled per ISA from one kernel source (BitsliceKernels.h) —
/// scalar (1 word / 64 lanes, always available), AVX2 (4 words / 256
/// lanes) and AVX-512 (8 words / 512 lanes) — selected by runtime
/// CPU-feature dispatch. `MBA_FORCE_ISA=scalar|avx2|avx512` (or
/// forceIsa()) overrides the selection for testing; forcing an ISA the CPU
/// or build lacks clamps to the best supported one. Every back end computes
/// bit-identical results — the determinism tests compare them lane for
/// lane. All intrinsics and `__AVX*__` conditionals in the tree live behind
/// this seam (src/support/Bitslice*); mba-tidy flags them anywhere else.
///
/// Operation costs per 64 points at width w:
///  * bitwise (&, |, ^, ~): w word ops — 1 op per point at w = 64, and
///    w/64 ops per point below that (an 8x op-count win at w = 8);
///  * add/sub/neg: a ripple-carry over the w slices, ~5w word ops (the
///    carry chain is the only loop-carried dependency);
///  * mul: schoolbook shift-and-add in slice space, for widths up to
///    kSchoolbookMulMaxWidth only; wider values stay in lane space, where
///    the hardware multiplier is cheaper.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_BITSLICE_H
#define MBA_SUPPORT_BITSLICE_H

#include <cstdint>
#include <string_view>

namespace mba::bitslice {

/// Points per slice word: one evaluation point per bit of a uint64_t.
inline constexpr unsigned LanesPerBlock = 64;

/// The widest values kept in slice space: the schoolbook slice-space
/// multiplier (SliceMul) only accepts widths up to this, and point blocks
/// of wider values are evaluated in lane space instead.
inline constexpr unsigned kSchoolbookMulMaxWidth = 16;

/// Truth-table corner mask for a block of 64 consecutive corner indices
/// starting at the 64-aligned \p Base: bit j of the result is bit \p Bit of
/// corner index Base + j. Because j only varies the low 6 bits, this is a
/// fixed periodic pattern for Bit < 6 and a constant otherwise — O(1) per
/// variable per block, instead of assembling 64 lane bits one by one.
inline uint64_t cornerMask(unsigned Bit, uint64_t Base) {
  constexpr uint64_t Pattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  return Bit < 6 ? Pattern[Bit] : ((Base >> Bit) & 1 ? ~0ull : 0);
}

/// In-place transpose of the 64x64 bit matrix \p M (row i, bit j) -> (row j,
/// bit i), in the classic Hacker's Delight 7-3 form: the reference the
/// wide engine's TransposeBlocks is tested against.
void transpose64(uint64_t M[64]);

//===----------------------------------------------------------------------===//
// Wide engine: lane-templated kernels behind runtime ISA dispatch
//===----------------------------------------------------------------------===//

/// The instruction sets the wide engine can target. Ordered by capability:
/// clamping a forced ISA to the best supported one is a simple <=.
enum class Isa : uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Display name ("scalar", "avx2", "avx512").
const char *isaName(Isa I);

/// Parses an isaName()/MBA_FORCE_ISA spelling; returns false (and leaves
/// \p Out alone) for anything else.
bool parseIsaName(std::string_view Name, Isa &Out);

/// Largest block any ISA back end processes, for sizing caller stack
/// buffers: AVX-512 runs 8 words (512 lanes) per slice.
inline constexpr unsigned MaxWideWords = 8;
inline constexpr unsigned MaxWideLanes = MaxWideWords * 64;

/// One ISA back end's kernel set. Slice arrays are slice-major with Words
/// words per slice (slice b at [b*Words, (b+1)*Words)); lane arrays hold
/// one word per point, N <= Words*64 per call. All back ends compute
/// bit-identical results; only throughput differs.
struct WideKernels {
  Isa IsaTag = Isa::Scalar;
  unsigned Words = 1; ///< 64-bit words per slice; lanes per block = 64*Words

  // Slice space (Width slices x Words words). Aliasing Out with an input
  // is allowed everywhere except SliceMul, which also requires
  // Width <= kSchoolbookMulMaxWidth.
  void (*SliceNot)(unsigned Width, const uint64_t *A, uint64_t *Out);
  void (*SliceAnd)(unsigned Width, const uint64_t *A, const uint64_t *B,
                   uint64_t *Out);
  void (*SliceOr)(unsigned Width, const uint64_t *A, const uint64_t *B,
                  uint64_t *Out);
  void (*SliceXor)(unsigned Width, const uint64_t *A, const uint64_t *B,
                   uint64_t *Out);
  void (*SliceAdd)(unsigned Width, const uint64_t *A, const uint64_t *B,
                   uint64_t *Out);
  void (*SliceSub)(unsigned Width, const uint64_t *A, const uint64_t *B,
                   uint64_t *Out);
  void (*SliceNeg)(unsigned Width, const uint64_t *A, uint64_t *Out);
  void (*SliceMul)(unsigned Width, const uint64_t *A, const uint64_t *B,
                   uint64_t *Out);
  void (*SliceBroadcast)(unsigned Width, uint64_t Value, uint64_t *Out);

  /// \p Blocks consecutive in-place 64x64 bit-matrix transposes.
  void (*TransposeBlocks)(uint64_t *M, unsigned Blocks);
  /// Lane <-> slice conversion (NumLanes <= Words*64): LanesToSlices
  /// transposes NumLanes Width-bit lane values into Width slices, reading
  /// lanes beyond NumLanes as 0; SlicesToLanes is its inverse and writes
  /// only the first NumLanes lanes.
  void (*LanesToSlices)(const uint64_t *Lanes, unsigned NumLanes,
                        unsigned Width, uint64_t *Slices);
  void (*SlicesToLanes)(const uint64_t *Slices, unsigned Width,
                        unsigned NumLanes, uint64_t *Lanes);

  // Lane space. The *M variants mask every output to the word width.
  void (*LaneCopyM)(const uint64_t *A, uint64_t *Out, unsigned N,
                    uint64_t Mask);
  void (*LaneNotM)(const uint64_t *A, uint64_t *Out, unsigned N,
                   uint64_t Mask);
  void (*LaneNegM)(const uint64_t *A, uint64_t *Out, unsigned N,
                   uint64_t Mask);
  void (*LaneAnd)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                  unsigned N);
  void (*LaneOr)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                 unsigned N);
  void (*LaneXor)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                  unsigned N);
  void (*LaneAddM)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                   unsigned N, uint64_t Mask);
  void (*LaneSubM)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                   unsigned N, uint64_t Mask);
  void (*LaneMulM)(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                   unsigned N, uint64_t Mask);
  // Fused scalar-operand forms: one pass where LaneFill plus the
  // two-source kernel would cost three (constants and coefficients are
  // the backbone of linear MBA, so these carry real traffic).
  void (*LaneAndS)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N);
  void (*LaneOrS)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N);
  void (*LaneXorS)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N);
  /// Out[j] = (A[j] + C) & Mask.
  void (*LaneAddSM)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N,
                    uint64_t Mask);
  /// Out[j] = (A[j] - C) & Mask.
  void (*LaneSubSM)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N,
                    uint64_t Mask);
  /// Out[j] = (C - A[j]) & Mask.
  void (*LaneRSubSM)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N,
                     uint64_t Mask);
  /// Out[j] = (A[j] * C) & Mask.
  void (*LaneMulSM)(const uint64_t *A, uint64_t C, uint64_t *Out, unsigned N,
                    uint64_t Mask);
  void (*LaneFill)(uint64_t V, uint64_t *Out, unsigned N);
  /// Out[j] = bit j of Bits ? C : 0 (Bits holds ceil(N/64) words).
  void (*LaneSelect)(const uint64_t *Bits, uint64_t C, uint64_t *Out,
                     unsigned N);
  /// Out[j] = bit j of Bits ? C1 : C0 — any op of a Uniform and a Splat
  /// value collapses to this single pass.
  void (*LaneSelect2)(const uint64_t *Bits, uint64_t C1, uint64_t C0,
                      uint64_t *Out, unsigned N);
};

/// The best ISA this build AND this CPU support. Computed once.
Isa bestSupportedIsa();

/// True when \p I is available (compiled in and supported by the CPU).
bool isaSupported(Isa I);

/// The ISA the wide engine currently dispatches to: the forced one
/// (forceIsa / MBA_FORCE_ISA, clamped to supported) or bestSupportedIsa().
Isa activeIsa();

/// Overrides dispatch for this process (benches and the agreement tests
/// iterate the back ends this way). Clamped to supported at use.
void forceIsa(Isa I);

/// Clears forceIsa and re-reads MBA_FORCE_ISA on next use.
void clearForcedIsa();

/// The kernel table for \p I, clamped to the best supported ISA at or
/// below it. kernelsFor(Isa::Scalar) always works.
const WideKernels &kernelsFor(Isa I);

/// kernelsFor(activeIsa()).
inline const WideKernels &activeKernels() { return kernelsFor(activeIsa()); }

namespace detail {
/// Per-TU back-end tables; null when the back end is not compiled in
/// (non-x86-64 builds). Implemented in Bitslice.cpp / BitsliceAvx2.cpp /
/// BitsliceAvx512.cpp, each with its own ISA code-gen flags.
const WideKernels *scalarWideKernels();
const WideKernels *avx2WideKernels();
const WideKernels *avx512WideKernels();
} // namespace detail

} // namespace mba::bitslice

#endif // MBA_SUPPORT_BITSLICE_H
