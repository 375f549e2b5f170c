//===- solvers/Pipeline.cpp - The one configurable query pipeline ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/Pipeline.h"

#include <cassert>

using namespace mba;

PipelineCaches::PipelineCaches(unsigned Width)
    : Width(Width), Simplify(Width),
      Telemetry(telemetry::registerSource([this](telemetry::MetricsSink &S) {
        auto Emit = [&S](const char *Layer, const CacheStats &Stats) {
          std::string P = std::string("cache.") + Layer + ".";
          S.value(P + "hits", Stats.Hits);
          S.value(P + "misses", Stats.Misses);
          S.value(P + "inserts", Stats.Inserts);
          S.value(P + "evictions", Stats.Evictions);
          S.value(P + "entries", Stats.Entries);
        };
        Emit("simplify_result", Simplify.resultStats());
        Emit("simplify_linear", Simplify.linearStats());
        Emit("basis", Basis.stats());
        Emit("verdicts", Verdicts.stats());
      })) {}

bool PipelineCaches::loadFrom(const std::string &Path, std::string &Err) {
  SnapshotReader R(Path, Width);
  if (!R.ok()) {
    Err = R.error();
    return false;
  }
  std::string Name;
  uint64_t Count = 0;
  while (R.nextSection(Name, Count)) {
    if (Simplify.loadSection(R, Name, Count))
      continue;
    if (Name == BasisCache::SectionName) {
      Basis.loadSection(R, Count);
      continue;
    }
    if (Name == VerdictCache::SectionName) {
      Verdicts.loadSection(R, Count);
      continue;
    }
    // Unknown section (written by a newer binary): skip its entries.
    uint64_t Key = 0;
    std::vector<uint8_t> Payload;
    for (uint64_t I = 0; I != Count && R.entry(Key, Payload); ++I)
      ;
  }
  if (!R.ok()) {
    Err = R.error();
    return false;
  }
  return true;
}

bool PipelineCaches::saveTo(const std::string &Path, std::string &Err) const {
  SnapshotWriter W(Path, Width);
  if (!W.ok()) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  Simplify.save(W);
  Basis.save(W);
  Verdicts.save(W);
  if (!W.finish()) {
    Err = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

namespace {

std::unique_ptr<EquivalenceChecker> makeBackend(BackendProfile P) {
  switch (P) {
  case BackendProfile::Z3:
    return makeZ3Checker();
  case BackendProfile::BlastBV:
    return makeBlastChecker(false);
  case BackendProfile::BlastBVRW:
    return makeBlastChecker(true);
  case BackendProfile::BlastBVAIG:
    return makeAigChecker();
  }
  return nullptr;
}

} // namespace

Pipeline::Pipeline(Context &Ctx, const PipelineConfig &Cfg)
    : Ctx(Ctx), Config(Cfg), Checker(makeBackend(Cfg.Backend)) {
  assert(Checker && "the Z3 profile needs a build with Z3");
  if (Config.Caches) {
    Config.SimplifyOpts.SharedCache = &Config.Caches->Simplify;
    Config.SimplifyOpts.SharedBasisCache = &Config.Caches->Basis;
  }
  if (Config.StageZero)
    Checker = makeStagedChecker(Ctx, std::move(Checker), &Stats, ProveBudget(),
                                Config.Caches ? &Config.Caches->Verdicts
                                              : nullptr);
  if (Config.RefuteFirst)
    Refuter = makeSignatureChecker();
}

const Expr *Pipeline::simplify(const Expr *E) {
  if (!Config.Simplify)
    return E;
  if (!Simplifier)
    Simplifier = std::make_unique<MBASolver>(Ctx, Config.SimplifyOpts);
  return Simplifier->simplify(E);
}

CheckResult Pipeline::check(const Expr *A, const Expr *B) {
  double Spent = 0;
  if (Refuter) {
    CheckResult R = Refuter->check(Ctx, A, B, Config.TimeoutSeconds);
    if (R.Outcome != Verdict::Timeout)
      return R;
    Spent = R.Seconds;
    if (Spent >= Config.TimeoutSeconds)
      return {Verdict::Timeout, Spent};
  }
  CheckResult R = Checker->check(Ctx, A, B, Config.TimeoutSeconds - Spent);
  R.Seconds += Spent;
  return R;
}

std::vector<PipelineConfig> mba::paperSolverMatrix(const PipelineConfig &Base) {
  std::vector<PipelineConfig> Matrix;
  for (BackendProfile P :
       {BackendProfile::Z3, BackendProfile::BlastBV, BackendProfile::BlastBVRW,
        BackendProfile::BlastBVAIG}) {
    if (P == BackendProfile::Z3 && !makeZ3Checker())
      continue;
    Matrix.push_back(Base);
    Matrix.back().Backend = P;
  }
  return Matrix;
}
