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

#include "analysis/Audit.h"
#include "analysis/Prover.h"
#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/ExprUtils.h"
#include "ast/NodeMap.h"
#include "mba/Basis.h"
#include "mba/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
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

  /// Run the e-graph equality-saturation pre-pass (analysis/Prover.h):
  /// saturate with the certified rewrite-rule table and extract the
  /// smallest equivalent form before the signature pipeline. Off by
  /// default — the signature machinery subsumes it on the paper corpus —
  /// but it pays off on rule-shaped inputs (Table 5 compositions) and
  /// every extracted form is certified-sound, so enabling it can never
  /// change semantics.
  bool EnableSaturation = false;

  /// Budget for the saturation pre-pass when EnableSaturation is set.
  ProveBudget SaturationBudget;

  /// Opt-in rewrite audit trail: when set, every top-level rewrite step
  /// (rule id, before/after nodes) is recorded here; replay it with
  /// auditTrail() (analysis/Audit.h) to cross-check the run. The trail is
  /// never cleared by the simplifier and must outlive it.
  RewriteTrail *Trail = nullptr;

  /// Extension point for custom rewrite rules, applied to the whole
  /// expression after the folding pre-pass. Recorded in the audit trail as
  /// rule "experimental-rule", so unsound candidate rules are caught by the
  /// auditor before they can corrupt results. Must return a valid
  /// expression in the same context (possibly its argument).
  std::function<const Expr *(Context &, const Expr *)> ExperimentalRule;

  /// Fallback for non-polynomial residue the abstraction path cannot
  /// reduce: called with each simplified non-poly sub-result that still
  /// has MBA alternation, it may return a proved-equivalent replacement
  /// (or null to decline). Installed only when pickBetter judges it an
  /// improvement; recorded in the audit trail as rule "synth-fallback".
  /// Wire synth::Synthesizer::fallbackHook() here — its results are gated
  /// by the staged equivalence checker, so the hook cannot change
  /// semantics, unlike ExperimentalRule.
  std::function<const Expr *(Context &, const Expr *)> SynthFallback;

  /// Memoize signature -> normalized combination (the look-up table of
  /// Section 4.5).
  bool EnableCache = true;

  /// Cross-call, cross-thread simplification cache (mba/SimplifyCache.h):
  /// a semantic layer at the linear rebuild plus a structural whole-result
  /// layer. Shared between solver instances; null keeps the solver
  /// self-contained. Cached and uncached runs produce bit-identical
  /// output. The result layer is suspended while Trail, ExperimentalRule
  /// or SynthFallback is set (a cache hit would skip the recorded/extended
  /// pipeline, and two distinct hooks would alias one fingerprint).
  SimplifyCache *SharedCache = nullptr;

  /// Cross-call, cross-thread basis-solve cache (mba/Basis.h). When null,
  /// the solver uses a private BasisCache, preserving the per-instance
  /// lookup-table behaviour. Only consulted when EnableCache is set.
  BasisCache *SharedBasisCache = nullptr;

  /// Maximum variable count for the final-step optimization (function
  /// enumeration is exponential in 2^t).
  unsigned MaxFinalOptVars = 3;

  /// Recursion budget for re-simplification of substituted results.
  unsigned MaxDepth = 16;
};

/// Cumulative statistics across simplify() calls.
struct SimplifyStats {
  double Seconds = 0;
  size_t ArenaBytesDelta = 0; ///< context arena growth during simplify()
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

  /// A fresh variable not used anywhere in the context yet.
  const Expr *freshTempVar();

  /// True when any observer wants per-rule records — the audit trail, the
  /// metrics registry (rule attribution), or an active query-log record.
  /// Callers use it to gate the timing/node-counting work around a step.
  bool noting() const;

  /// Records a rewrite step into the opt-in audit trail and, when metrics
  /// or the query log are on, into the rule-attribution registry and the
  /// active flight-recorder record (fires / ns / node delta). \p Ns is the
  /// step's wall time when the caller measured one (gated on noting()).
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

  /// Temp-name state, reset at each public simplify() entry so temporary
  /// numbering depends only on the input expression — never on what else
  /// the context or other corpus entries have allocated. That makes
  /// simplified *expressions* (not just verdicts) identical across job
  /// counts and cache configurations.
  std::unordered_set<std::string> ReservedNames; ///< input variable names
  unsigned NextTempId = 0;
};

} // namespace mba

#endif // MBA_MBA_SIMPLIFIER_H
