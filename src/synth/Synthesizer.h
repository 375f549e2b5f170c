//===- synth/Synthesizer.h - Enumerative MBA synthesizer -------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An enumerative fallback for the non-polynomial residue the signature
/// pipeline cannot reduce (the simplifier's NonPolynomial path can only
/// abstract; it never discovers that an opaque mess *is* `a*(x|~z) + c`).
/// The synthesizer samples the target — its 2^t truth-table corners plus a
/// deterministic batch of random points through the SIMD bitsliced
/// evaluator — then scans the complexity-ranked term bank (synth/TermBank.h)
/// for linear shapes over one or two bitwise terms whose values agree
/// everywhere:
///
///   c        |  a*f(x..) + c  |  a1*f1(x..) + a2*f2(x..) + c
///
/// Coefficients are not searched: at the corners a bitwise term is 0 or
/// all-ones, so a and c fall out of two corner reads and the remaining
/// corners + samples act as a filter with early-exit on first mismatch.
/// Agreement on samples is necessary but not sufficient, so a candidate is
/// only ever *installed* after the staged equivalence checker (static
/// prover + AIG + SAT) proves it, or, when the checker times out
/// on an input space of at most 2^24 assignments, exhaustive evaluation
/// does. Any other Timeout is rejection, never trust. The result is sound by construction: the synthesizer can fail to
/// improve, but cannot miscompile.
///
/// Query results (including "no match") are memoized process-wide in a
/// ShardedCache keyed on the sampled semantics (width, arity, corner and
/// sample values); hits replay the recipe but still re-run the agreement
/// check and proof, so a hash collision can cost time, never soundness.
///
/// MBASolver integration: SimplifyOptions::SynthFallback (fallbackHook())
/// runs the synthesizer on each simplified non-poly residue, installing the
/// result only when pickBetter judges it an improvement.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SYNTH_SYNTHESIZER_H
#define MBA_SYNTH_SYNTHESIZER_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "solvers/EquivalenceChecker.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace mba::synth {

/// Tuning knobs of one synthesizer instance.
struct SynthOptions {
  /// Maximum target arity (clamped to MaxBasisVars; the bank is
  /// exponential in 2^t).
  unsigned MaxVars = 3;

  /// Random sample points drawn per query (on top of the 2^t corners).
  unsigned NumSamples = 128;

  /// Cap on two-term candidate pairs scanned per query (the pair space is
  /// ~2^15 at three variables; the cap bounds worst-case latency).
  size_t MaxPairCandidates = 32768;

  /// Prove every candidate with the staged checker before returning it.
  /// Disabling is for measurement only (bench/table_synth's ablation
  /// column) — never for installation into the simplifier.
  bool Verify = true;

  /// Budget for one verification query. A timeout over at most 2^24 input
  /// assignments is not final: exhaustive evaluation then decides.
  double VerifyTimeoutSeconds = 5.0;
};

/// Cumulative statistics across synthesize() calls.
struct SynthStats {
  uint64_t Queries = 0;        ///< synthesize() calls
  uint64_t Unsupported = 0;    ///< arity 0 or above MaxVars
  uint64_t CacheHits = 0;      ///< semantic-memo hits (either polarity)
  uint64_t Matched = 0;        ///< candidate agreed on corners + samples
  uint64_t VerifyRejected = 0; ///< matched but not proved (incl. Timeout)
  uint64_t Enumerated = 0;     ///< checker timeouts decided by enumeration
  uint64_t Installed = 0;      ///< proved and returned
  double VerifySeconds = 0;    ///< wall-clock inside the staged checker
};

/// The enumerative term-bank synthesizer. Holds the context reference, the
/// lazily-built staged checker, and statistics; one instance per context
/// (evaluation borrows the context's scratch — the usual one-context-per-
/// thread rule applies).
class Synthesizer {
public:
  explicit Synthesizer(Context &Ctx, SynthOptions Opts = SynthOptions());
  ~Synthesizer();

  /// Attempts to express \p E as one of the bank shapes. Returns the
  /// proved replacement, or null when no candidate matched (or survived
  /// verification). Never returns an unproved expression while
  /// Opts.Verify is set.
  const Expr *synthesize(const Expr *E);

  const SynthStats &stats() const { return Stats; }

  /// Adapter for SimplifyOptions::SynthFallback. The returned hook is
  /// bound to this instance and its context: called with any other
  /// context it declines (returns null) rather than evaluating against
  /// the wrong width/scratch.
  std::function<const Expr *(Context &, const Expr *)> fallbackHook();

private:
  /// A reconstructible match: enough to rebuild the candidate expression
  /// over any variable vector of the right arity. Kind::None memoizes
  /// exhausted searches.
  struct Recipe {
    enum Kind : uint8_t { None, Const, Single, Pair } K = None;
    uint32_t T1 = 0, T2 = 0; ///< bank truth columns
    uint64_t A1 = 0, A2 = 0; ///< coefficients
    uint64_t C = 0;          ///< constant term
  };

  const Expr *build(const Recipe &R,
                    std::span<const Expr *const> Vars) const;
  bool agrees(const Recipe &R, std::span<const uint64_t> Corners,
              std::span<const uint64_t> Samples,
              const uint64_t *Minterms) const;
  bool verify(const Expr *E, const Expr *Candidate);

  Context &Ctx;
  SynthOptions Opts;
  SynthStats Stats;
  std::unique_ptr<EquivalenceChecker> Checker; // lazily constructed
};

} // namespace mba::synth

#endif // MBA_SYNTH_SYNTHESIZER_H
