//===- solvers/EquivalenceChecker.h - Solver backends -----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform backend interface (Sections 3 and 6): a backend decides an
/// MBA identity LHS == RHS within a timeout by the query the paper poses,
/// `solve(lhs != rhs)` — UNSAT means the identity holds. Z3 (via its C++
/// API, when libz3 is present) and BlastBV and BlastBV+RW (stand-ins for
/// STP and Boolector, unavailable offline; see DESIGN.md) form the paper's
/// solver matrix; those two and BlastBV+AIG are fixed profiles of one AIG
/// bit-blasting stack (solvers/AigChecker.cpp). Callers ask through
/// solvers/Pipeline.h, which configures these backends.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SOLVERS_EQUIVALENCECHECKER_H
#define MBA_SOLVERS_EQUIVALENCECHECKER_H

#include "analysis/Prover.h"
#include "ast/Context.h"
#include "ast/Expr.h"
#include "support/Cache.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mba {

/// Outcome of one equivalence query.
enum class Verdict : uint8_t {
  Equivalent,    ///< lhs != rhs refuted (UNSAT)
  NotEquivalent, ///< witness found (SAT)
  Timeout        ///< budget exhausted (the paper's "O" outcome)
};

const char *verdictName(Verdict V);

/// One query's result with its wall-clock cost.
struct CheckResult {
  Verdict Outcome = Verdict::Timeout;
  double Seconds = 0;
};

/// Abstract solver backend.
class EquivalenceChecker {
public:
  virtual ~EquivalenceChecker();

  /// Short display name ("Z3", "BlastBV", "BlastBV+RW").
  virtual std::string name() const = 0;

  /// Decides A == B over all inputs of Ctx's width, within
  /// \p TimeoutSeconds of wall-clock time.
  virtual CheckResult check(const Context &Ctx, const Expr *A, const Expr *B,
                            double TimeoutSeconds) = 0;
};

/// The in-tree bit-blasting backend ("BlastBV"): a fresh AIG and solver
/// per query. \p EnableRewriting selects the +RW profile.
std::unique_ptr<EquivalenceChecker> makeBlastChecker(bool EnableRewriting);

/// The AIG-based backend ("BlastBV+AIG"): carry-lookahead/carry-save
/// encodings over a fully rewritten, structurally-hashed And-Inverter
/// Graph, with the same per-query protocol as BlastBV (a fresh graph and
/// solver per query). The parameter is ignored; it remains so that callers
/// written against the earlier makeAigChecker(bool) still compile.
std::unique_ptr<EquivalenceChecker> makeAigChecker(bool Ignored = true);

/// The Z3 backend; returns nullptr when built without Z3.
std::unique_ptr<EquivalenceChecker> makeZ3Checker();

/// The MBA-theory backend ("SigCheck"): sampling refutation, Theorem 1 on
/// the linear fragment, and canonical-form comparison — no SAT search. Not
/// part of makeAllCheckers() (the paper's solver matrix); an extension.
std::unique_ptr<EquivalenceChecker> makeSignatureChecker();

/// All available backends in the paper's order (Z3, then the two
/// STP/Boolector stand-ins), plus the BlastBV+AIG backend.
std::vector<std::unique_ptr<EquivalenceChecker>> makeAllCheckers();

//===----------------------------------------------------------------------===//
// Stage 0: the static equivalence prover in front of any backend
//===----------------------------------------------------------------------===//

/// Cumulative counters of the stage-0 static prover (analysis/Prover.h)
/// across the queries of one staged checker (or several sharing the struct).
struct StageZeroStats {
  size_t Proved = 0;      ///< answered Equivalent without a solver
  size_t Refuted = 0;     ///< answered NotEquivalent without a solver
  size_t Fallthrough = 0; ///< undecided; passed to the wrapped backend
  double StaticSeconds = 0; ///< wall-clock spent in the static prover
  double SolverSeconds = 0; ///< wall-clock spent in the wrapped backend
  ProveStats Saturation;    ///< accumulated e-graph saturation statistics

  size_t queries() const { return Proved + Refuted + Fallthrough; }
  size_t discharged() const { return Proved + Refuted; }

  /// Sums every field: the one merge across profiles and workers.
  StageZeroStats &operator+=(const StageZeroStats &O) {
    Proved += O.Proved;
    Refuted += O.Refuted;
    Fallthrough += O.Fallthrough;
    StaticSeconds += O.StaticSeconds;
    SolverSeconds += O.SolverSeconds;
    Saturation += O.Saturation;
    return *this;
  }
};

//===----------------------------------------------------------------------===//
// Verdict cache
//===----------------------------------------------------------------------===//

/// One memoized equivalence verdict. Decided outcomes are final; an
/// Unknown entry records the largest budget that failed to decide the
/// query, so a repeat with an equal-or-smaller timeout can return Timeout
/// immediately while a repeat with more budget still runs.
struct VerdictEntry {
  enum Kind : uint8_t { Equivalent, NotEquivalent, Unknown };
  uint8_t Outcome = Unknown;
  double BudgetSeconds = 0; ///< exhausted budget (Unknown only)
};

/// Thread-safe memo of equivalence queries, keyed on the ordered pair of
/// the operands' canonical fingerprints plus width and backend name (a
/// timeout under BlastBV says nothing about Z3 — sharing entries across
/// backends would change verdicts relative to an uncached run). Used as a
/// short-circuit in front of makeStagedChecker's stage 0; snapshots as one
/// section of the cache persistence format (support/Cache.h).
class VerdictCache {
public:
  explicit VerdictCache(size_t Capacity = 1 << 17) : Cache(Capacity) {}

  /// The cache key of query (A, B) against backend \p CheckerName. A and B
  /// are fingerprinted in order — the checkers are symmetric but callers
  /// present pairs in a stable order, and keeping the pair ordered costs
  /// at most a duplicate entry, never a wrong answer.
  static uint64_t queryKey(const Context &Ctx, const Expr *A, const Expr *B,
                           const std::string &CheckerName);

  bool lookup(uint64_t Key, VerdictEntry &Out) {
    return Cache.lookup(Key, Out);
  }

  /// Records \p E, merging with an existing entry: a decided verdict is
  /// never overwritten (it remains valid at any budget), and Unknown
  /// entries keep the maximum exhausted budget.
  void insert(uint64_t Key, const VerdictEntry &E) {
    Cache.insertMerge(Key, E,
                      [](VerdictEntry &Existing, const VerdictEntry &New) {
                        if (Existing.Outcome != VerdictEntry::Unknown)
                          return;
                        if (New.Outcome != VerdictEntry::Unknown) {
                          Existing = New;
                          return;
                        }
                        if (New.BudgetSeconds > Existing.BudgetSeconds)
                          Existing.BudgetSeconds = New.BudgetSeconds;
                      });
  }

  CacheStats stats() const { return Cache.stats(); }
  void clear() { Cache.clear(); }

  void save(SnapshotWriter &W) const;
  size_t loadSection(SnapshotReader &R, uint64_t Count);

  static constexpr const char *SectionName = "solver.verdicts";

private:
  ShardedCache<VerdictEntry> Cache;
};

/// Wraps \p Inner with the static equivalence prover as stage 0: each query
/// first runs congruence closure + bounded equality saturation with the
/// certified rule table (and abstract-domain refutation); only queries the
/// prover cannot decide reach the wrapped backend, with the static time
/// deducted from the timeout. Both stage-0 answers are sound, so the staged
/// checker's verdicts never differ from the backend's — queries just get
/// cheaper. The wrapper keeps the inner backend's name (tables stay
/// comparable) and reports its counters through \p Stats when given.
///
/// When \p Verdicts is given, it short-circuits repeated queries before
/// stage 0 even runs; cache hits do not touch the \p Stats counters (those
/// report work actually performed).
///
/// \p Ctx must be the context later passed to check() — the prover builds
/// e-nodes against its width and variable numbering.
std::unique_ptr<EquivalenceChecker>
makeStagedChecker(Context &Ctx, std::unique_ptr<EquivalenceChecker> Inner,
                  StageZeroStats *Stats = nullptr,
                  const ProveBudget &Budget = ProveBudget(),
                  VerdictCache *Verdicts = nullptr);

} // namespace mba

#endif // MBA_SOLVERS_EQUIVALENCECHECKER_H
