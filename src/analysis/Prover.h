//===- analysis/Prover.h - Static equivalence prover ------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static equivalence prover over MBA expressions: congruence closure on
/// an e-graph (analysis/EGraph.h) plus bounded equality saturation with the
/// certified rewrite-rule table (analysis/Rules.h), with disproof delegated
/// to the abstract domains (analysis/AbstractInterp.h).
///
/// `proveEquivalence(Ctx, A, B, budget)` returns one of three verdicts:
///
///  * **Proved** — `A == B` on every input of every width the rules hold
///    at (the rules are all-width certified, so on all of Z/2^w). Found by
///    congruence closure alone, or by saturation within the budget.
///  * **Refuted** — `A != B` on *every* input (abstract values disjoint in
///    some domain).
///  * **Unknown** — the budget ran out or the rules don't bridge the gap;
///    the caller falls back to a real solver.
///
/// Proved/Refuted are sound, never heuristic: the prover is safe to
/// short-circuit an SMT query (stage 0 of solvers/EquivalenceChecker).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_ANALYSIS_PROVER_H
#define MBA_ANALYSIS_PROVER_H

#include "analysis/Rules.h"
#include "ast/Context.h"
#include "ast/Expr.h"

#include <cstdint>
#include <string>

namespace mba {

/// Saturation budget. Saturation stops at whichever limit hits first; the
/// e-graph may slightly overshoot MaxENodes (the pass that crosses the
/// limit completes, so the final sameClass check sees its merges).
struct ProveBudget {
  unsigned MaxIterations = 8; ///< rule-application rounds
  size_t MaxENodes = 4096;    ///< e-graph size cap
  size_t MaxMatchesPerRule = 256; ///< per-rule, per-round match cap
};

/// The three-valued verdict of the static prover.
enum class ProveOutcome : uint8_t {
  Proved,  ///< equal on every input (sound)
  Refuted, ///< different on every input (sound)
  Unknown  ///< undecided within budget — ask a solver
};

const char *proveOutcomeName(ProveOutcome O);

/// Saturation counters, reported through the bench harness.
struct ProveStats {
  unsigned Iterations = 0; ///< completed saturation rounds
  size_t ENodes = 0;       ///< final e-graph size
  size_t EClasses = 0;
  size_t Merges = 0;  ///< union operations performed
  size_t Matches = 0; ///< rule matches applied

  ProveStats &operator+=(const ProveStats &O) {
    Iterations += O.Iterations;
    ENodes += O.ENodes;
    EClasses += O.EClasses;
    Merges += O.Merges;
    Matches += O.Matches;
    return *this;
  }
};

/// Outcome of one proveEquivalence query.
struct ProveResult {
  ProveOutcome Outcome = ProveOutcome::Unknown;
  std::string Detail; ///< "syntactic", "congruence", rule stats, or the
                      ///< refuting domain
  ProveStats Stats;
};

/// The equality-saturation prover. Stateless between prove() calls except
/// for the borrowed rule set; cheap to construct.
class Prover {
public:
  /// Uses \p Rules, or the shipped certified table when null. Uncertified
  /// rules in a custom set are skipped — certification gates participation.
  explicit Prover(Context &Ctx, const RuleSet *Rules = nullptr);

  /// Decides A == B within \p Budget.
  ProveResult prove(const Expr *A, const Expr *B,
                    const ProveBudget &Budget = ProveBudget());

private:
  Context &Ctx;
  const RuleSet *Rules;
};

/// One-shot convenience wrapper around Prover::prove.
ProveResult proveEquivalence(Context &Ctx, const Expr *A, const Expr *B,
                             const ProveBudget &Budget = ProveBudget());

} // namespace mba

#endif // MBA_ANALYSIS_PROVER_H
