//===- mba/Simplifier.h - The MBA-Solver simplification engine -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (Algorithm 1): a semantics-preserving
/// transformation that reduces the MBA alternation of mixed
/// bitwise-arithmetic expressions so that SMT solvers can process them.
///
/// Pipeline per expression:
///  * **Linear MBA** — compute the signature vector, express it in the
///    normalized basis (lookup table first, ring solve on miss), rebuild.
///  * **Polynomial MBA** — substitute every bitwise sub-expression by its
///    normalized linear form over conjunction terms (Section 4.4), expand
///    in the polynomial ring, and collect/cancel.
///  * **Non-polynomial MBA** — recursively simplify the arithmetic
///    sub-expressions under bitwise operators, abstract them as fresh
///    temporary variables (the common-sub-expression optimization of
///    Section 4.5 falls out: equal sub-expressions share one temporary),
///    simplify the now linear/polynomial abstraction, substitute back, and
///    arithmetically reduce.
///  * **Final-step optimization** — try to replace the result by
///    `a * f(x..) + c` for a single bitwise function f of up to three
///    variables, e.g. x + y - 2*(x&y) ==> x ^ y.
///
/// Every step is an exact identity on Z/2^w: the simplifier cannot produce
/// false positives or negatives (unlike pattern matching or synthesis; see
/// the peer-tool comparison in Table 7).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_SIMPLIFIER_H
#define MBA_MBA_SIMPLIFIER_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/ExprUtils.h"
#include "ast/NodeMap.h"
#include "mba/Basis.h"
#include "mba/Metrics.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace mba {

class SimplifyCache;

/// Tuning knobs of the simplifier.
struct SimplifyOptions {
  /// Normalized basis to express signatures in (Section 7 ablation).
  BasisKind Basis = BasisKind::Conjunction;

  /// Section 7 "future work": pick the basis per signature — solve in both
  /// the conjunction and disjunction bases and keep the more compact
  /// combination. Overrides Basis when enabled.
  bool AutoBasis = false;

  /// Maximum variable count for whole-expression signature computation
  /// (the signature has 2^t entries). Beyond this, linear expressions take
  /// the polynomial path, which normalizes atoms over their own variables.
  unsigned MaxSignatureVars = 10;

  /// Abstract arithmetic sub-expressions under bitwise operators as
  /// temporary variables (Section 4.5 common-sub-expression optimization).
  /// Disabling reproduces the paper's weaker behaviour on non-poly inputs.
  bool EnableCSE = true;

  /// Apply the final-step single-bitwise-function optimization.
  bool EnableFinalOpt = true;

  /// Run the abstract-domain folding pre-pass (known bits + parity +
  /// unsigned intervals; see analysis/AbstractInterp.h). Covers
  /// masked-constant cases the signature machinery cannot see, e.g.
  /// (x*2) & 1 == 0 or (x+x) & 1 == 0.
  bool EnableKnownBits = true;

  /// Fallback for non-polynomial residue the abstraction path cannot
  /// reduce: called with each simplified non-poly sub-result that still
  /// has MBA alternation, it may return a replacement (or null to
  /// decline). Installed only when pickBetter judges it an improvement;
  /// recorded in the query log as rule "synth-fallback". The simplifier
  /// trusts the replacement: wire synth::Synthesizer::fallbackHook() here,
  /// whose results are proved by the staged equivalence checker first.
  std::function<const Expr *(Context &, const Expr *)> SynthFallback;

  /// Memoize signature -> normalized combination (the look-up table of
  /// Section 4.5).
  bool EnableCache = true;

  /// Cross-call, cross-thread simplification cache (mba/SimplifyCache.h):
  /// a semantic layer at the linear rebuild plus a structural whole-result
  /// layer. Shared between solver instances; null keeps the solver
  /// self-contained. Cached and uncached runs produce bit-identical
  /// output. The result layer is suspended while SynthFallback is set:
  /// two distinct hooks would alias one fingerprint.
  SimplifyCache *SharedCache = nullptr;

  /// Cross-call, cross-thread basis-solve cache (mba/Basis.h). When null,
  /// the solver uses a private BasisCache, preserving the per-instance
  /// lookup-table behaviour. Only consulted when EnableCache is set.
  BasisCache *SharedBasisCache = nullptr;
};

/// Cumulative statistics across simplify() calls.
struct SimplifyStats {
  double Seconds = 0; ///< read from the top-level simplify Stage
  /// Estimated transient working-set bytes (signature vectors, polynomial
  /// term maps, lookup-table entries). The arena only holds expression
  /// nodes, so this is the dominant memory term for Table 8.
  size_t TransientBytes = 0;
  size_t CacheHits = 0;
  size_t CacheMisses = 0;
  unsigned LinearRuns = 0;  ///< linear-path simplifications
  unsigned PolyRuns = 0;    ///< polynomial-path simplifications
  unsigned NonPolyRuns = 0; ///< non-polynomial-path simplifications
};

/// The MBA-Solver simplification engine. Stateful only through the lookup
/// cache and statistics; simplify() may be called any number of times.
class MBASolver {
public:
  explicit MBASolver(Context &Ctx, SimplifyOptions Opts = SimplifyOptions());

  /// Simplifies \p E to an equivalent expression with lower (usually zero
  /// or near-zero) MBA alternation. Always returns a valid expression; when
  /// no reduction is found the input is returned unchanged.
  const Expr *simplify(const Expr *E);

  const SimplifyStats &stats() const { return Stats; }
  void resetStats() { Stats = SimplifyStats(); }

  const SimplifyOptions &options() const { return Opts; }

private:
  const Expr *simplifyRec(const Expr *E, unsigned Depth);
  const Expr *simplifyLinear(const Expr *E,
                             const std::vector<const Expr *> &Vars);
  const Expr *simplifyPoly(const Expr *E, unsigned Depth);
  const Expr *simplifyNonPoly(const Expr *E, unsigned Depth);
  const Expr *rebuildWithSimplifiedChildren(const Expr *E, unsigned Depth);

  /// If \p E is a linear expression whose signature is 0/1-valued — i.e.
  /// semantically a pure bitwise function (e.g. -x-1 == ~x) — returns that
  /// bitwise form; otherwise nullptr.
  const Expr *recognizeBitwise(const Expr *E);

  /// Theorem 1 test of S == ~P for linear \p S and \p P.
  bool isComplementOf(const Expr *S, const Expr *P);
  const Expr *arithReduceOpaque(const Expr *E);
  const Expr *finalOptimize(const Expr *E);

  /// Looks up / computes the normalized combination of a signature.
  /// \p AllowAuto permits per-input basis selection (AutoBasis option);
  /// the polynomial path passes false — its atoms must all normalize in
  /// one coherent basis or cross-atom cancellation breaks.
  LinearCombo normalizedCombo(const std::vector<uint64_t> &Sig,
                              const std::vector<const Expr *> &Vars,
                              bool AllowAuto);

  /// Returns the preferred of two equivalent forms (lower alternation,
  /// then shorter, then fewer DAG nodes).
  const Expr *pickBetter(const Expr *A, const Expr *B);

  /// The next temporary variable whose name is not one of the input's.
  const Expr *freshTempVar();

  /// Records a rewrite step, when metrics or the query log are on, into
  /// the rule-attribution registry and the active flight-recorder record
  /// (fires / ns / node delta). \p Ns is the duration of the step's Stage.
  void note(const char *Rule, const Expr *Before, const Expr *After,
            uint64_t Ns = 0);

  /// Semantic key of a basis solve: hash(width, basis mode, signature) —
  /// plus the variable names in AutoBasis mode, whose print-length
  /// tie-break depends on them. \p Auto selects the mode tag.
  uint64_t basisCacheKey(const std::vector<uint64_t> &Sig,
                         const std::vector<const Expr *> &Vars,
                         bool Auto) const;

  /// Semantic key of a full linear rebuild: the basis key extended with
  /// the variable names (the rebuilt expression references them).
  uint64_t linearCacheKey(const std::vector<uint64_t> &Sig,
                          const std::vector<const Expr *> &Vars) const;

  BasisCache &basisCache() {
    return Opts.SharedBasisCache ? *Opts.SharedBasisCache : OwnBasisCache;
  }

  Context &Ctx;
  SimplifyOptions Opts;
  SimplifyStats Stats;

  /// Fingerprint of every option that affects output, folded into the
  /// structural result-layer key so solvers with different configurations
  /// can share one SimplifyCache.
  uint64_t OptionsFp = 0;

  /// Private basis-solve memo (Section 4.5 lookup table) used when no
  /// shared BasisCache is configured.
  BasisCache OwnBasisCache;

  /// Memo of completed top-level rewrites, keyed on input node.
  NodeMap<const Expr *> ResultMemo;

  /// Classification facts, alternation counts and variable sets of the
  /// nodes analysed so far in this call. simplifyRec and its helpers ask
  /// for them at every node they visit; through these memos each distinct
  /// node is walked once per call instead of once per question. Cleared
  /// with ResultMemo on the next result-cache miss, so they hold at most
  /// one call's nodes.
  MBAFactsMemo FactsMemo;
  AlternationMemo AltMemo;
  VariableMemo VarMemo;

  /// Temp-name state, reset on each result-cache miss so temporary
  /// numbering depends only on the input expression — never on what else
  /// the context or other corpus entries have allocated. That makes
  /// simplified *expressions* (not just verdicts) identical across job
  /// counts and cache configurations.
  std::vector<const Expr *> InputVars; ///< from VarMemo; temps skip these
  unsigned NextTempId = 0;

  /// Duration of the last Algorithm 1 path Stage to end (0 with every view
  /// off): simplifyRec's rule attribution reads it instead of a 2nd clock.
  uint64_t StageNs = 0;
};

} // namespace mba

#endif // MBA_MBA_SIMPLIFIER_H
