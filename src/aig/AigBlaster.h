//===- aig/AigBlaster.h - Word-level encodings over the AIG -----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-vector operations lowered onto the AIG, in one of two circuit
/// families (an Encoding):
///
///  * **Prefix** — the shapes competition solvers use. Addition and
///    subtraction are a Brent-Kung parallel-prefix carry-lookahead adder:
///    per-bit generate/propagate, a prefix tree over (G, P) pairs, depth
///    2*log2(W) instead of the ripple chain's W (see SNIPPETS.md's
///    carry-lookahead exemplar; the prefix form scales it). Multiplication
///    is a carry-save array: partial products feed a 3:2-compressor tree
///    that keeps sums and carries separate, with one final carry-lookahead
///    addition.
///  * **Ripple** — the textbook shapes: a ripple-carry chain of full adders,
///    a shift-and-add multiplier that ripples each partial product in, and
///    a miter that ORs the per-bit differences in one chain.
///
/// All gates route through Aig::mkAnd, so the graph's level decides how
/// much of a word is folded or shared — at the Full level an equivalence
/// miter whose sides share subterms shares their circuits.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AIG_AIGBLASTER_H
#define MBA_AIG_AIGBLASTER_H

#include "aig/Aig.h"

#include <cstdint>
#include <vector>

namespace mba::aig {

/// The adder and multiplier circuit family of an AigBlaster.
enum class Encoding : uint8_t {
  Ripple, ///< ripple-carry add/sub/neg, shift-and-add multiply
  Prefix, ///< Brent-Kung add/sub/neg, carry-save-array multiply
};

/// Word-level operations over an AIG. A word is LSB-first.
class AigBlaster {
public:
  using Word = std::vector<AigLit>;

  AigBlaster(Aig &G, unsigned Width, Encoding Enc = Encoding::Prefix)
      : G(G), Width(Width), Enc(Enc) {}

  unsigned width() const { return Width; }

  /// A word of fresh primary inputs.
  Word freshWord();

  /// The constant \p Value truncated to the width.
  Word constWord(uint64_t Value) const;

  Word bvNot(const Word &A) const;
  Word bvAnd(const Word &A, const Word &B);
  Word bvOr(const Word &A, const Word &B);
  Word bvXor(const Word &A, const Word &B);

  /// Addition mod 2^Width.
  Word bvAdd(const Word &A, const Word &B) {
    return addWithCarry(A, B, Aig::falseLit());
  }
  /// A - B as A + ~B + 1 through the same adder.
  Word bvSub(const Word &A, const Word &B) {
    return addWithCarry(A, bvNot(B), Aig::trueLit());
  }
  /// Two's-complement negation (~A + 1).
  Word bvNeg(const Word &A) {
    return addWithCarry(constWord(0), bvNot(A), Aig::trueLit());
  }

  /// Multiplication mod 2^Width.
  Word bvMul(const Word &A, const Word &B);

  /// Single literal: true iff A == B bitwise (a balanced AND tree under
  /// Prefix, a chain under Ripple).
  AigLit equalLit(const Word &A, const Word &B);
  /// Single literal: true iff A != B — the miter root of an equivalence
  /// query (UNSAT means equivalent).
  AigLit disequalLit(const Word &A, const Word &B) {
    return ~equalLit(A, B);
  }

private:
  Word addWithCarry(const Word &A, const Word &B, AigLit CarryIn);
  Word rippleAdd(const Word &A, const Word &B, AigLit CarryIn);
  Word shiftAddMul(const Word &A, const Word &B);
  /// In-place Brent-Kung prefix scan over (generate, propagate) pairs:
  /// on return Gen[i]/Prop[i] cover bit range [0..i].
  void prefixScan(std::vector<AigLit> &Gen, std::vector<AigLit> &Prop);

  Aig &G;
  unsigned Width;
  Encoding Enc;
};

} // namespace mba::aig

#endif // MBA_AIG_AIGBLASTER_H
