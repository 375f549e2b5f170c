//===- solvers/Pipeline.h - The one configurable query pipeline -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's question — `solve(lhs != rhs)`, with or without MBA-Solver
/// preprocessing — asked through one stack whose engines are options, as in
/// Bitwuzla. Every driver, the IR region verifier and the synthesizer's
/// verifier build a Pipeline from a PipelineConfig; the paper's solver
/// matrix is a list of configs (paperSolverMatrix). docs/SOLVER.md §8.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SOLVERS_PIPELINE_H
#define MBA_SOLVERS_PIPELINE_H

#include "mba/Simplifier.h"
#include "mba/SimplifyCache.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Telemetry.h"

#include <memory>
#include <string>
#include <vector>

namespace mba {

/// The backends of the paper's solver matrix; Z3 needs a build with Z3.
enum class BackendProfile : uint8_t { Z3, BlastBV, BlastBVRW, BlastBVAIG };

/// The three shared caches of one run, built at a fixed word width. All
/// members are internally synchronized; one PipelineCaches can feed every
/// worker of a parallel study and persist across runs via the snapshot
/// format (support/Cache.h).
struct PipelineCaches {
  explicit PipelineCaches(unsigned Width);

  unsigned Width;
  SimplifyCache Simplify;
  BasisCache Basis;
  VerdictCache Verdicts;
  /// Publishes every cache's hit/miss/entry counters into the telemetry
  /// registry (cache.<layer>.<counter>) for the lifetime of this object.
  telemetry::SourceHandle Telemetry;

  /// Loads a snapshot written by saveTo(). Unknown sections are skipped;
  /// a missing file, bad magic, version or width mismatch fails with
  /// \p Err set and leaves the caches unchanged (partial corruption drops
  /// the remainder of the file only).
  bool loadFrom(const std::string &Path, std::string &Err);

  /// Writes every cache as one snapshot file.
  bool saveTo(const std::string &Path, std::string &Err) const;
};

/// The choices of one pipeline. The defaults are the shipped path.
struct PipelineConfig {
  BackendProfile Backend = BackendProfile::BlastBVAIG;
  /// Preprocess through MBASolver in simplify(); off returns the input.
  bool Simplify = true;
  SimplifyOptions SimplifyOpts;
  /// The stage-0 static prover (makeStagedChecker) in front of the backend.
  bool StageZero = true;
  /// Ask the SigCheck backend first; its definite verdict wins.
  bool RefuteFirst = false;
  double TimeoutSeconds = 5.0;
  /// Shared caches: the simplify and basis layers feed simplify(), the
  /// verdict layer sits in front of stage 0 (so it needs StageZero).
  PipelineCaches *Caches = nullptr;
};

/// One configured pipeline, bound to one context (the stage-0 prover
/// builds e-nodes against its width and variable numbering). Not copyable
/// or movable: the staged checker points at its stats.
class Pipeline {
public:
  Pipeline(Context &Ctx, const PipelineConfig &Cfg);
  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  /// MBA-Solver preprocessing of \p E, or \p E itself with Simplify off.
  const Expr *simplify(const Expr *E);

  /// Decides A == B within the configured timeout: SigCheck first
  /// (RefuteFirst; a definite verdict wins), then the verdict cache and
  /// stage 0 (StageZero), then the backend with the time that is left.
  CheckResult check(const Expr *A, const Expr *B);

  /// The backend's display name ("Z3", "BlastBV+RW", ...).
  std::string name() const { return Checker->name(); }
  const StageZeroStats &stageZeroStats() const { return Stats; }
  /// The simplifier's statistics so far (all zero before the first
  /// simplify()).
  SimplifyStats simplifyStats() const {
    return Simplifier ? Simplifier->stats() : SimplifyStats();
  }

private:
  Context &Ctx;
  PipelineConfig Config;
  StageZeroStats Stats;
  std::unique_ptr<MBASolver> Simplifier; // built on first simplify()
  std::unique_ptr<EquivalenceChecker> Refuter;
  std::unique_ptr<EquivalenceChecker> Checker;
};

/// The paper's solver matrix: \p Base once per available backend, in the
/// paper's order (Z3, then the STP/Boolector stand-ins BlastBV and
/// BlastBV+RW), plus BlastBV+AIG.
std::vector<PipelineConfig>
paperSolverMatrix(const PipelineConfig &Base = PipelineConfig());

} // namespace mba

#endif // MBA_SOLVERS_PIPELINE_H
