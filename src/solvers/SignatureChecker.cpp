//===- solvers/SignatureChecker.cpp - MBA-theory decision procedure -------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// An equivalence backend built from the paper's own theory instead of SAT:
///
///  * sampling refutation — random + corner inputs through the compiled
///    evaluator catch almost every non-identity in microseconds;
///  * Theorem 1 — two *linear* MBAs are equivalent iff their signature
///    vectors match: a sound and complete decision procedure for the
///    linear fragment, no search involved;
///  * canonicalization — for non-linear inputs, both sides go through
///    MBASolver; identical canonical forms prove equivalence (sound), and
///    linear canonical forms fall back to Theorem 1.
///
/// When none of the three fire, the checker answers Timeout (unknown) — it
/// never guesses. This backend is the library's "what the paper's insight
/// buys you if you build the solver around it" extension; it is not part
/// of makeAllCheckers() so the paper's three-solver matrix stays intact.
///
//===----------------------------------------------------------------------===//

#include "solvers/EquivalenceChecker.h"

#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"
#include "mba/Classify.h"
#include "mba/Signature.h"
#include "mba/Simplifier.h"
#include "support/Bitslice.h"
#include "support/RNG.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cstring>

using namespace mba;

namespace {

class SignatureChecker : public EquivalenceChecker {
public:
  std::string name() const override { return "SigCheck"; }

  CheckResult check(const Context &Ctx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) override {
    Stopwatch Timer;
    CheckResult Result;
    Result.Outcome = checkImpl(Ctx, A, B, TimeoutSeconds);
    Result.Seconds = Timer.seconds();
    return Result;
  }

private:
  static std::vector<const Expr *> unionVars(const Expr *A, const Expr *B) {
    std::vector<const Expr *> Vars = collectVariables(A);
    for (const Expr *V : collectVariables(B))
      if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
        Vars.push_back(V);
    std::sort(Vars.begin(), Vars.end(), [](const Expr *X, const Expr *Y) {
      return std::strcmp(X->varName(), Y->varName()) < 0;
    });
    return Vars;
  }

  Verdict checkImpl(const Context &Ctx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) {
    (void)TimeoutSeconds; // every stage is fast and bounded

    std::vector<const Expr *> Vars = unionVars(A, B);
    unsigned MaxIndex = 0;
    for (const Expr *V : Vars)
      MaxIndex = std::max(MaxIndex, V->varIndex());

    // Stage 1: sampling refutation (random + all corners for <= 12 vars),
    // batched one block at a time through the bitsliced evaluator. The
    // compiled programs are cached on the context, so re-checking either
    // side against a new partner recompiles nothing.
    const BitslicedExpr &CA = Ctx.getBitsliced(A);
    const BitslicedExpr &CB = Ctx.getBitsliced(B);
    RNG Rng(0x516CAFE); // deterministic sampling
    constexpr unsigned NumSamples = 128;
    std::vector<uint64_t> Lanes((size_t)(MaxIndex + 1) * NumSamples);
    std::vector<const uint64_t *> LanePtrs(MaxIndex + 1, nullptr);
    for (const Expr *V : Vars)
      LanePtrs[V->varIndex()] =
          Lanes.data() + (size_t)V->varIndex() * NumSamples;
    // Draw point-major, preserving the historical RNG stream order (each
    // point consumes |Vars| draws in name-sorted variable order).
    for (unsigned I = 0; I != NumSamples; ++I)
      for (const Expr *V : Vars)
        Lanes[(size_t)V->varIndex() * NumSamples + I] = Rng.next();
    if (CA.evaluatePoints(LanePtrs, NumSamples) !=
        CB.evaluatePoints(LanePtrs, NumSamples))
      return Verdict::NotEquivalent;
    unsigned T = (unsigned)Vars.size();
    if (T <= 12) {
      // Corner k sets variable I to all-ones iff bit I of k is set (note:
      // the opposite bit order from computeSignature's truthBit). The
      // sweep runs one block at a time — up to 512 corners per evaluation
      // on AVX-512 — with ceil(block/64) mask words per variable.
      const size_t Corners = (size_t)1 << T;
      const size_t BlockLanes =
          std::min<size_t>(Corners, BitslicedExpr::wideLanes());
      const size_t Words = (BlockLanes + 63) / 64;
      std::vector<uint64_t> Masks(((size_t)MaxIndex + 1) * Words, 0);
      uint64_t CornA[bitslice::MaxWideLanes], CornB[bitslice::MaxWideLanes];
      for (size_t Base = 0; Base < Corners; Base += BlockLanes) {
        for (unsigned I = 0; I != T; ++I) {
          uint64_t *M = Masks.data() + (size_t)Vars[I]->varIndex() * Words;
          for (size_t W = 0; W != Words; ++W)
            M[W] = bitslice::cornerMask(I, Base + 64 * W);
        }
        const unsigned N = (unsigned)BlockLanes;
        CA.evaluateCorners(Masks, N, CornA);
        CB.evaluateCorners(Masks, N, CornB);
        if (!std::equal(CornA, CornA + N, CornB))
          return Verdict::NotEquivalent;
      }
    }

    // Stage 2: Theorem 1 on the linear fragment (complete there).
    // The simplifier interns new nodes in the context; interning is not an
    // observable mutation of existing expressions, so the cast is benign.
    Context &MutableCtx = const_cast<Context &>(Ctx);
    if (classifyMBA(Ctx, A) == MBAKind::Linear &&
        classifyMBA(Ctx, B) == MBAKind::Linear && T <= 12)
      return linearMBAEquivalent(Ctx, A, B) ? Verdict::Equivalent
                                            : Verdict::NotEquivalent;

    // Stage 3: canonicalize both sides.
    MBASolver Solver(MutableCtx);
    const Expr *SA = Solver.simplify(A);
    const Expr *SB = Solver.simplify(B);
    if (SA == SB)
      return Verdict::Equivalent;
    if (classifyMBA(Ctx, SA) == MBAKind::Linear &&
        classifyMBA(Ctx, SB) == MBAKind::Linear &&
        unionVars(SA, SB).size() <= 12)
      return linearMBAEquivalent(Ctx, SA, SB) ? Verdict::Equivalent
                                              : Verdict::NotEquivalent;
    return Verdict::Timeout; // unknown: never guess
  }
};

} // namespace

std::unique_ptr<EquivalenceChecker> mba::makeSignatureChecker() {
  return std::make_unique<SignatureChecker>();
}
