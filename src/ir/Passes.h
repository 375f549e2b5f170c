//===- ir/Passes.h - MBA deobfuscation passes over the program IR -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static deobfuscation pipeline over ir/Program.h — the pass-pipeline
/// idiom the paper assumes sits behind a lifter:
///
///  1. **Opaque-predicate elimination** (foldOpaqueBranches): flatten every
///     branch condition to a pure expression, decide it with the abstract
///     domains / the stage-0 prover / the flow-sensitive analysis, verify
///     the decision with the staged equivalence checker, and fold the
///     branch to an unconditional jump.
///  2. **Unreachable-block removal** after folding.
///  3. **Trivial-phi simplification** (single predecessor or all-equal
///     incomings) by use substitution.
///  4. **MBA-region detection & rewrite**: slice maximal single-exit
///     regions out of the def-use graph (an instruction whose value
///     escapes to a phi/terminator, plus everything it transitively
///     computes from), flatten each region to a pure expression over its
///     inputs, score it with mba/Metrics, simplify with MBASolver, verify
///     the rewrite with the staged equivalence checker, and replace the
///     root instruction in place.
///  5. **Dead-instruction elimination** sweeps the consumed interior.
///
/// The pipeline iterates (folding a branch can expose new regions and vice
/// versa) up to PassOptions::MaxIterations. Every rewrite that changes
/// semantics-relevant structure is re-verified; a NotEquivalent verdict
/// blocks the rewrite and is counted as an unsound candidate — the pass
/// never applies one.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_IR_PASSES_H
#define MBA_IR_PASSES_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ir/Program.h"
#include "mba/Simplifier.h"
#include "solvers/Pipeline.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace mba {

/// Tuning knobs of the deobfuscation pipeline.
struct PassOptions {
  /// Options of the MBASolver used on flattened regions.
  SimplifyOptions Simplify;

  /// Re-verify every region rewrite and branch fold with the equivalence
  /// pipeline (regionVerifierConfig). Disabling trusts the (already sound)
  /// simplifier/prover and skips the cross-check.
  bool Verify = true;

  /// Per-query timeout of verification checks, seconds.
  double VerifyTimeout = 5.0;

  /// Regions whose flattened expression exceeds this many DAG nodes are
  /// skipped (reported, not rewritten).
  size_t MaxRegionNodes = 4096;

  /// Minimum MBA alternation of a flattened region to count as an MBA
  /// region worth simplifying.
  uint64_t MinAlternation = 1;

  /// Maximum pipeline iterations per function.
  unsigned MaxIterations = 4;
};

/// One detected region, rooted at the instruction whose value escapes.
struct RegionInfo {
  std::string Root;              ///< root destination name
  std::string Block;             ///< block of the root instruction
  size_t NumInsts = 0;           ///< instructions folded into the region
  size_t NodesBefore = 0;        ///< DAG nodes of the flattened expression
  size_t NodesAfter = 0;         ///< DAG nodes after simplification
  uint64_t AlternationBefore = 0;
  uint64_t AlternationAfter = 0;
  bool Rewritten = false;        ///< simplified form installed
  bool Verified = false;         ///< checker confirmed Equivalent
  bool VerifyTimedOut = false;   ///< checker could not decide in budget
};

/// Per-function pipeline outcome.
struct FunctionReport {
  std::string Name;
  size_t BlocksBefore = 0;
  size_t BlocksAfter = 0;
  size_t InstsBefore = 0; ///< phis + instructions
  size_t InstsAfter = 0;
  size_t NodesBefore = 0; ///< countFunctionNodes
  size_t NodesAfter = 0;
  size_t RegionsFound = 0;
  size_t RegionsRewritten = 0;
  size_t BranchesFolded = 0;
  size_t BlocksRemoved = 0;
  size_t PhisSimplified = 0;
  size_t InstsRemoved = 0;
  /// Rewrite candidates the checker proved NotEquivalent — blocked, never
  /// applied. Nonzero only when a custom SynthFallback is unsound.
  size_t UnsoundBlocked = 0;
  std::vector<RegionInfo> Regions;

  /// Multi-line human-readable report.
  std::string str() const;
};

/// Whole-program outcome: per-function reports plus totals.
struct ProgramReport {
  std::vector<FunctionReport> Functions;

  size_t totalRegionsFound() const;
  size_t totalRegionsRewritten() const;
  size_t totalBranchesFolded() const;
  size_t totalUnsoundBlocked() const;

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Individual passes (exposed for tests; deobfuscateFunction composes them)
//===----------------------------------------------------------------------===//

/// Fingerprints of flattened expressions whose verification already timed
/// out (or was refuted): the pipeline iterates, and re-posing an
/// undecidable query every round costs a full timeout each time. Owned by
/// deobfuscateFunction, threaded through the passes.
using FailedVerifySet = std::unordered_set<uint64_t>;

/// The configuration rewrites are verified with: the signature-theory
/// decision procedure (sound, complete on the linear fragment,
/// microseconds) in front of the stage-0 prover + BlastBV+RW backend, at
/// Opts.VerifyTimeout. Never guesses: an undecided query keeps the
/// original code.
PipelineConfig regionVerifierConfig(const PassOptions &Opts);

/// The pure expression computing SSA value \p V in \p F: forward
/// substitution through instruction definitions, stopping at parameters and
/// phi destinations (which remain free variables). \p V may also be a
/// constant or an expression; every variable of it is flattened.
const Expr *flattenValue(Context &Ctx, const Function &F, const Expr *V);

/// Folds branches whose condition is proved constant. Decision procedures,
/// in order: multi-domain constant folding of the flattened condition, the
/// stage-0 prover (prove == 0 / refute == 0 on every input), and the
/// flow-sensitive abstract analysis with a bounded one-level phi case
/// split. When \p Verifier is non-null every fold is re-verified (the
/// taken-direction encoding uses (c | -c) & signbit == signbit, "c is
/// nonzero everywhere"); an undecided verification blocks the fold.
/// Returns the number of branches folded.
unsigned foldOpaqueBranches(Context &Ctx, Function &F, Pipeline *Verifier,
                            FunctionReport *Report = nullptr,
                            FailedVerifySet *FailedVerify = nullptr);

/// Deletes blocks unreachable from the entry, remapping successor ids and
/// dropping phi incomings from deleted predecessors. Returns the number of
/// blocks removed.
unsigned removeUnreachableBlocks(Function &F,
                                 FunctionReport *Report = nullptr);

/// Replaces phis with a single incoming — or all incomings equal — by their
/// value, substituting through every use. Iterates until no trivial phi
/// remains. Returns the number of phis removed.
unsigned simplifyTrivialPhis(Context &Ctx, Function &F,
                             FunctionReport *Report = nullptr);

/// Mark-and-sweep dead-code elimination: keeps the instructions and phis
/// transitively needed by terminators. Returns the number deleted.
unsigned eliminateDeadInstructions(Function &F,
                                   FunctionReport *Report = nullptr);

/// The MBA-region detection & rewrite pass (step 4 above). \p Solver
/// simplifies flattened regions; \p Verifier (when non-null) re-verifies
/// every rewrite. Returns the number of regions rewritten.
unsigned rewriteMBARegions(Context &Ctx, Function &F, MBASolver &Solver,
                           Pipeline *Verifier,
                           const PassOptions &Opts,
                           FunctionReport *Report = nullptr,
                           FailedVerifySet *FailedVerify = nullptr);

//===----------------------------------------------------------------------===//
// The composed pipeline
//===----------------------------------------------------------------------===//

/// Runs the full pipeline on one function with caller-provided solver and
/// verifier (pass a null verifier to skip verification).
FunctionReport deobfuscateFunction(Context &Ctx, Function &F,
                                   MBASolver &Solver,
                                   Pipeline *Verifier,
                                   const PassOptions &Opts = PassOptions());

/// Runs the full pipeline on every function of \p P, constructing an
/// MBASolver and (when Opts.Verify) a regionVerifierConfig pipeline
/// internally.
ProgramReport deobfuscateProgram(Context &Ctx, Program &P,
                                 const PassOptions &Opts = PassOptions());

} // namespace mba

#endif // MBA_IR_PASSES_H
