//===- ast/BitslicedEval.h - Bitsliced batch DAG evaluation -----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transposed (bitsliced) evaluator: a block of evaluation points is
/// packed one per bit of 64-bit words and the expression DAG is executed
/// once over the whole block with the WideKernels of support/Bitslice.h.
/// This replaces point-at-a-time loops in signature construction (2^t
/// corner evaluations per Definition 3), sampling refutation, and the
/// fuzz/property agreement sweeps, where the same DAG is evaluated on
/// thousands of inputs.
///
/// Each compiled instruction's block value carries one of four
/// representations, which is what makes corner evaluation fast:
///  * Uniform — every bit slice is the same mask (each point's value is 0
///    or all-ones). Truth-table corners start Uniform, and bitwise operators
///    keep them Uniform, so the bitwise bulk of an MBA costs one word op
///    per 64 points per DAG node.
///  * Splat — every point has the same constant value (folded scalars).
///  * Lanes — direct per-point values. Used once a corner-mode value stops
///    being uniform (a coefficient multiply, an addition), and for wide
///    widths in point mode: arithmetic is then NumLanes independent word
///    ops per node (vectorizable, no carry ripple), and only the *live*
///    lanes are computed — a 3-variable signature touches 8 lanes, not 64.
///  * Sliced — the transposed form, width-w slice words. Wins for narrow
///    widths in point mode, where w slice ops cover 64 points per word.
///
/// Arithmetic on mixed representations lowers to the cheapest available
/// kernel (e.g. coefficient * bitwise-term — the backbone of linear MBA —
/// is one select per live lane, no ripple or multiply).
///
/// There is one interpreter, and every block runs through it on one
/// WideKernels table: scalar (64 lanes per block), AVX2 (256) or AVX-512
/// (512), all bit-identical per lane. Point blocks use the active back end
/// (runtime dispatch, MBA_FORCE_ISA); corner blocks of at most 64 lanes use
/// the scalar table, which measured cheaper there, and larger corner
/// blocks the active one. evaluatePoints sizes its blocks to the active
/// back end, so signature computation over many corners, SignatureChecker
/// sampling and the fuzz agreement sweeps widen for free.
///
/// Instances are not thread-safe (evaluation borrows the owning Context's
/// shared scratch) and follow the one-context-per-thread rule. Prefer
/// Context::getBitsliced(E) over constructing directly: interning makes the
/// Expr pointer the structural identity, so compiled programs are cached
/// per context and repeated signature construction pays the compile cost
/// only once per distinct DAG.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_BITSLICEDEVAL_H
#define MBA_AST_BITSLICEDEVAL_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "support/Bitslice.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mba {

/// A bitsliced batch evaluator for one expression DAG.
class BitslicedExpr {
public:
  /// Compiles \p E. Valid as long as the context lives.
  BitslicedExpr(const Context &Ctx, const Expr *E);

  /// Lanes one block advances under the currently active SIMD back end:
  /// 64 (scalar), 256 (AVX2) or 512 (AVX-512). The most lanes a point
  /// block, or a corner block of more than 64 lanes, may hold.
  static unsigned wideLanes() {
    return bitslice::activeKernels().Words * 64;
  }

  /// Evaluates one block of truth-table corners. \p VarMaskWords is
  /// var-major with ceil(NumLanes/64) words per variable: lane 64*w + j of
  /// the variable with dense index i reads all-ones when bit j of
  /// VarMaskWords[i * ceil(NumLanes/64) + w] is set, else 0 (indices beyond
  /// the span read 0). Writes \p NumLanes values, masked to the width, into
  /// \p Out. NumLanes <= max(64, wideLanes()).
  void evaluateCorners(std::span<const uint64_t> VarMaskWords,
                       unsigned NumLanes, uint64_t *Out) const;

  /// Evaluates one block of arbitrary points: VarLanes[i] points to
  /// \p NumLanes input words for the variable with dense index i (null or
  /// out-of-range entries read 0). NumLanes <= wideLanes().
  void evaluateBlock(std::span<const uint64_t *const> VarLanes,
                     unsigned NumLanes, uint64_t *Out) const;

  /// Convenience batch driver over any number of points: VarLanes[i] holds
  /// \p NumPoints values for dense variable index i; processes
  /// ceil(NumPoints/wideLanes()) blocks and returns the NumPoints outputs.
  std::vector<uint64_t>
  evaluatePoints(std::span<const uint64_t *const> VarLanes,
                 size_t NumPoints) const;

  /// Number of compiled instructions (= distinct DAG nodes).
  size_t size() const { return Program.size(); }

private:
  enum class Op : uint8_t {
    LoadVar,
    LoadConst,
    Not,
    Neg,
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor
  };

  /// Block-value representation tag (see file comment).
  enum class Rep : uint8_t { Uniform, Splat, Lanes, Sliced };

  struct Inst {
    Op Opcode;
    uint32_t A = 0; // source register / dense variable index
    uint32_t B = 0; // second source register
    uint32_t Slot = 0; // value slot of this register (see below)
    uint64_t Imm = 0; // constant payload
  };

  // The interpreter: runs one block on \p WK. RootOut, when non-null, is
  // where a Lanes-representation root is written directly (skipping the
  // slot + epilogue copy).
  void runWide(const bitslice::WideKernels &WK, unsigned NumLanes,
               uint64_t *Out) const;
  void runWideLanes(const bitslice::WideKernels &WK, unsigned NumLanes,
                    uint64_t *RootOut) const;
  void runWideSliced(const bitslice::WideKernels &WK,
                     unsigned NumLanes) const;
  const uint64_t *wideLanesOf(const bitslice::WideKernels &WK, uint32_t Reg,
                              uint64_t *Tmp, unsigned NumLanes) const;
  const uint64_t *wideSlicesOf(const bitslice::WideKernels &WK, uint32_t Reg,
                               uint64_t *Tmp) const;
  uint64_t *wideSlot(uint32_t Reg) const;

  const Context *Ctx; // owning context; outlives this (nodes are interned)
  unsigned Width;
  uint64_t Mask;
  std::vector<Inst> Program; // instruction i writes register i
  // Liveness-based slot assignment: register i's block value lives in slot
  // Program[i].Slot (in the instruction's padding, so evaluation reads no
  // second array), and slots are reused once their last reader has run, so
  // the per-block working set tracks the DAG's live width (a handful of
  // slots) instead of its node count — the difference between spilling to
  // L2 and staying L1-resident at 256/512 lanes. A destination slot never
  // aliases one of its source slots (sources are freed only after the
  // destination is assigned), so kernels need not be in-place safe.
  unsigned NumSlots = 0;

  // Evaluation scratch, carved per runWide() out of the owning Context's
  // shared buffer (Context::evalScratch) so cached programs stay small
  // (register i of the current block): the representation tags, the
  // Splat-value words, and the value slots. Uninitialized; only registers
  // tagged Uniform/Lanes/Sliced ever touch their slot.
  mutable Rep *RepOf = nullptr;
  mutable uint64_t *Word = nullptr;  // Splat value
  mutable uint64_t *Slots = nullptr; // NumSlots slots of 64 * BlockWords words
  // Variable load plan for the current call (set by the public entries).
  mutable std::span<const uint64_t> CornerMasks;
  mutable std::span<const uint64_t *const> LaneInputs;
  mutable bool CornerMode = false;
  // Run state: words per slice of the running back end (slots are
  // 64 * BlockWords words; a Uniform register's mask occupies the first
  // BlockWords words of its slot) and the per-var word count of
  // CornerMasks.
  mutable unsigned BlockWords = 1;
  mutable unsigned CornerMaskWords = 1;
  // Where a Lanes-representation register's data actually lives: its slot,
  // the caller's output buffer (root direct-write), or — for a full-width
  // variable load in point mode — the caller's input array itself
  // (zero-copy; the inputs are already width-masked when Mask is all
  // ones). Valid only while RepOf[i] == Rep::Lanes during a run.
  mutable const uint64_t **LanePtr = nullptr;
};

} // namespace mba

#endif // MBA_AST_BITSLICEDEVAL_H
