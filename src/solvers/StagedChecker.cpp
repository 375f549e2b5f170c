//===- solvers/StagedChecker.cpp - Static prover as solver stage 0 --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The stage-0 wrapper around any EquivalenceChecker backend: a query is
/// first handed to the static equivalence prover (congruence closure +
/// bounded equality saturation with the certified rule table, abstract-
/// domain refutation); only an Unknown verdict reaches the wrapped solver.
/// Both static answers are sound, so wrapping never changes verdicts — it
/// only removes solver work (the Table 6/8 counters report how much).
///
/// With a VerdictCache attached, a repeated query short-circuits before
/// stage 0: a decided entry returns immediately, and an Unknown entry whose
/// recorded budget covers the current timeout returns Timeout without
/// re-running the solver (re-running an exhausted budget cannot decide
/// more). Hits bypass the StageZeroStats counters — those report work done.
///
//===----------------------------------------------------------------------===//

#include "analysis/Prover.h"
#include "ast/ExprUtils.h"
#include "solvers/EquivalenceChecker.h"
#include "support/QueryLog.h"
#include "support/Stopwatch.h"

#include <cassert>
#include <utility>

using namespace mba;

uint64_t VerdictCache::queryKey(const Context &Ctx, const Expr *A,
                                const Expr *B,
                                const std::string &CheckerName) {
  uint64_t H = hashMix64(Ctx.mask());
  H = hashCombine64(H, exprFingerprint(A));
  H = hashCombine64(H, exprFingerprint(B));
  H = hashCombine64(H, hashString64(CheckerName));
  return H;
}

void VerdictCache::save(SnapshotWriter &W) const {
  saveCacheSection(W, SectionName, Cache,
                   [](const VerdictEntry &E, std::vector<uint8_t> &Out) {
                     putU8(Out, E.Outcome);
                     // Budgets are wall-clock seconds; microsecond fixed
                     // point survives the round-trip exactly enough for the
                     // coverage test (stored >= queried).
                     putU64(Out, (uint64_t)(E.BudgetSeconds * 1e6));
                   });
}

size_t VerdictCache::loadSection(SnapshotReader &R, uint64_t Count) {
  return loadCacheSection(
      R, Count, Cache,
      [](const std::vector<uint8_t> &Buf) -> std::optional<VerdictEntry> {
        ByteCursor C(Buf);
        VerdictEntry E;
        E.Outcome = C.u8();
        E.BudgetSeconds = (double)C.u64() / 1e6;
        if (C.failed() || !C.atEnd() || E.Outcome > VerdictEntry::Unknown)
          return std::nullopt;
        return E;
      });
}

namespace {

const querylog::StageDef QueryStage{"solve.query", nullptr, "solve.queries"};
const querylog::StageDef StageZero{"solve.stage0", "stage0"};
const querylog::StageDef BackendStage{"solve.backend", "backend"};

const telemetry::NamedCounter OutcomeCounters[] = {
    "stage0.proved", "stage0.refuted", "stage0.fallthrough"};

/// Stamps the verdict and verdict-cache disposition onto the active
/// flight-recorder record, if any.
void recordCheckOutcome(Verdict V, const char *CacheState) {
  if (querylog::Record *QR = querylog::active()) {
    QR->str("verdict", verdictName(V));
    QR->str("verdict_cache", CacheState);
  }
}

class StagedChecker final : public EquivalenceChecker {
public:
  StagedChecker(Context &Ctx, std::unique_ptr<EquivalenceChecker> Inner,
                StageZeroStats *Stats, const ProveBudget &Budget,
                VerdictCache *Verdicts)
      : Ctx(Ctx), Inner(std::move(Inner)), Stats(Stats ? Stats : &OwnStats),
        Budget(Budget), Verdicts(Verdicts) {}
  StagedChecker(const StagedChecker &) = delete; // Stats may point inside
  StagedChecker &operator=(const StagedChecker &) = delete;

  // The inner backend's name: Table 2/6 rows keep their solver labels and
  // the stage-0 effect shows up purely in the counters and times.
  std::string name() const override { return Inner->name(); }

  CheckResult check(const Context &CheckCtx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) override {
    assert(&CheckCtx == &Ctx &&
           "staged checker bound to a different context than the query");
    (void)CheckCtx;
    querylog::Stage Stage(QueryStage);
    Stopwatch Timer;

    // Flight recorder: one record per equivalence query. Observational
    // only — verdicts are pinned bit-identical with and without a log.
    querylog::QueryScope LogScope("check");
    if (querylog::Record *QR = querylog::active()) {
      QR->num("width", Ctx.width());
      QR->str("backend", Inner->name());
      QR->fingerprint("fp_a", exprFingerprint(A));
      QR->fingerprint("fp_b", exprFingerprint(B));
      QR->fnum("timeout_s", TimeoutSeconds);
    }

    uint64_t Key = 0;
    if (Verdicts) {
      Key = VerdictCache::queryKey(Ctx, A, B, Inner->name());
      VerdictEntry Hit;
      if (Verdicts->lookup(Key, Hit)) {
        static const telemetry::NamedCounter VerdictHits{
            "solve.verdict_cache_hits"};
        switch (Hit.Outcome) {
        case VerdictEntry::Equivalent:
          VerdictHits.add();
          recordCheckOutcome(Verdict::Equivalent, "hit");
          return {Verdict::Equivalent, Timer.seconds()};
        case VerdictEntry::NotEquivalent:
          VerdictHits.add();
          recordCheckOutcome(Verdict::NotEquivalent, "hit");
          return {Verdict::NotEquivalent, Timer.seconds()};
        case VerdictEntry::Unknown:
          // Usable only when the failed budget covers this query's budget;
          // a larger timeout might still decide it, so fall through and
          // actually run. The epsilon absorbs snapshot rounding.
          if (TimeoutSeconds <= Hit.BudgetSeconds + 1e-9) {
            VerdictHits.add();
            recordCheckOutcome(Verdict::Timeout, "hit");
            return {Verdict::Timeout, Timer.seconds()};
          }
          break;
        }
      }
    }

    const StageZeroStats Before = *Stats;
    CheckResult R = checkUncached(A, B, TimeoutSeconds);
    telemetry::publish(OutcomeCounters,
                       {Stats->Proved - Before.Proved,
                        Stats->Refuted - Before.Refuted,
                        Stats->Fallthrough - Before.Fallthrough});
    recordCheckOutcome(R.Outcome, Verdicts ? "miss" : "off");
    if (Verdicts) {
      VerdictEntry E;
      switch (R.Outcome) {
      case Verdict::Equivalent:
        E.Outcome = VerdictEntry::Equivalent;
        break;
      case Verdict::NotEquivalent:
        E.Outcome = VerdictEntry::NotEquivalent;
        break;
      case Verdict::Timeout:
        E.Outcome = VerdictEntry::Unknown;
        E.BudgetSeconds = TimeoutSeconds;
        break;
      }
      Verdicts->insert(Key, E);
    }
    return R;
  }

private:
  CheckResult checkUncached(const Expr *A, const Expr *B,
                            double TimeoutSeconds) {
    uint64_t StaticNs = 0;
    ProveResult Static = [&] {
      querylog::Stage Stage(StageZero, &StaticNs, /*AlwaysTimed=*/true);
      return Prover(Ctx).prove(A, B, Budget);
    }();
    double StaticSeconds = (double)StaticNs * 1e-9;
    if (querylog::Record *QR = querylog::active()) {
      QR->str("stage0", proveOutcomeName(Static.Outcome));
      QR->str("stage0_detail", Static.Detail);
      QR->num("stage0_iterations", Static.Stats.Iterations);
      QR->num("stage0_enodes", Static.Stats.ENodes);
      QR->num("stage0_eclasses", Static.Stats.EClasses);
      QR->num("stage0_matches", Static.Stats.Matches);
    }
    Stats->StaticSeconds += StaticSeconds;
    Stats->Saturation += Static.Stats;
    switch (Static.Outcome) {
    case ProveOutcome::Proved:
      ++Stats->Proved;
      return {Verdict::Equivalent, StaticSeconds};
    case ProveOutcome::Refuted:
      ++Stats->Refuted;
      return {Verdict::NotEquivalent, StaticSeconds};
    case ProveOutcome::Unknown:
      break;
    }
    ++Stats->Fallthrough;
    double Remaining = TimeoutSeconds - StaticSeconds;
    if (Remaining <= 0)
      return {Verdict::Timeout, StaticSeconds};
    uint64_t BackendNs = 0;
    CheckResult R = [&] {
      querylog::Stage Stage(BackendStage, &BackendNs, /*AlwaysTimed=*/true);
      return Inner->check(Ctx, A, B, Remaining);
    }();
    Stats->SolverSeconds += (double)BackendNs * 1e-9;
    R.Seconds += StaticSeconds;
    return R;
  }

  Context &Ctx;
  std::unique_ptr<EquivalenceChecker> Inner;
  StageZeroStats OwnStats; // the counters when the caller passes none
  StageZeroStats *Stats;
  ProveBudget Budget;
  VerdictCache *Verdicts;
};

} // namespace

std::unique_ptr<EquivalenceChecker>
mba::makeStagedChecker(Context &Ctx, std::unique_ptr<EquivalenceChecker> Inner,
                       StageZeroStats *Stats, const ProveBudget &Budget,
                       VerdictCache *Verdicts) {
  return std::make_unique<StagedChecker>(Ctx, std::move(Inner), Stats, Budget,
                                         Verdicts);
}
