//===- sat/Solver.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSat lineage:
/// two-watched-literal propagation, first-UIP conflict analysis with
/// self-subsumption minimization, exponential VSIDS branching with phase
/// saving, Luby restarts, and activity-based learnt-clause deletion. The
/// clauses live in one flat arena (SatTypes.h) that deletion compacts.
///
/// This is the engine under the in-tree bit-blasting backends (aig/ feeding
/// solvers/AigChecker), which stand in for STP and Boolector in the paper's
/// experiments (both are bit-blasting solvers over CDCL cores; see
/// DESIGN.md on the substitution). Budgets (conflicts / propagations / wall clock) provide
/// the timeout mechanism the study's tables rely on.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SAT_SOLVER_H
#define MBA_SAT_SOLVER_H

#include "sat/Heap.h"
#include "sat/SatTypes.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mba::sat {

/// Search limits; solve() returns Unknown when one is exhausted.
struct Budget {
  uint64_t MaxConflicts = UINT64_MAX;
  uint64_t MaxPropagations = UINT64_MAX;
  double MaxSeconds = 1e100;
};

/// Outcome of a solve() call.
enum class SatResult : uint8_t { Sat, Unsat, Unknown };

/// Counters exposed for the benchmark harness.
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearntClauses = 0;
  uint64_t DeletedClauses = 0;
  uint64_t ClausesAdded = 0;     ///< problem clauses presented via addClause
  uint64_t Solves = 0;           ///< solve() calls
  uint64_t AssumptionSolves = 0; ///< solve() calls with a nonempty assumption set
  uint64_t ReusedLearnts = 0;    ///< learnt clauses alive at solve() entry,
                                 ///< summed over calls (cross-query reuse)
  uint64_t SimplifiedClauses = 0; ///< clauses removed by simplify()
};

struct CnfFormula;

/// CDCL solver. Usage: newVar()/addClause() to build the instance, then
/// solve(); on Sat, modelValue() reads the model. Incremental solving is
/// supported two ways: addClause() between solve() calls (as long as no
/// solve has returned Unsat at the root), and solve-under-assumptions —
/// learnt clauses, VSIDS activities, and saved phases all persist across
/// calls, so a sequence of related queries gets cheaper as it runs.
class SatSolver {
public:
  SatSolver();

  /// Creates a fresh variable and returns it.
  Var newVar();

  unsigned numVars() const { return (unsigned)Assigns.size(); }

  /// Adds a clause (disjunction of \p Lits). Returns false if the formula
  /// became trivially unsatisfiable (empty clause or conflicting units).
  bool addClause(std::span<const Lit> Lits);
  bool addClause(std::initializer_list<Lit> Lits) {
    return addClause(std::span<const Lit>(Lits.begin(), Lits.size()));
  }

  /// Runs the CDCL loop under \p Limits.
  SatResult solve(const Budget &Limits = Budget());

  /// Runs the CDCL loop with \p Assumptions forced true for the duration of
  /// this call (MiniSat-style: they occupy the first decision levels and
  /// are retracted on return). An Unsat answer means "unsatisfiable under
  /// these assumptions" and does NOT mark the instance proven-unsat; the
  /// subset of assumptions actually used in the refutation is available
  /// from failedAssumptions(). Learnt clauses derived while assumptions
  /// were active mention their negations, so they remain sound for later
  /// calls with different assumptions.
  SatResult solve(std::span<const Lit> Assumptions,
                  const Budget &Limits = Budget());

  /// After solve(Assumptions) returned Unsat without the instance becoming
  /// proven-unsat: the subset of the passed assumptions whose conjunction
  /// was refuted (the final-conflict "unsat core" over assumptions).
  const std::vector<Lit> &failedAssumptions() const {
    return FailedAssumptions;
  }

  /// Number of live (non-deleted) learnt clauses.
  size_t numLearnts() const { return LearntCount; }

  /// Snapshot of the current clause database as a CNF formula: the root
  /// trail becomes unit clauses, stored problem clauses follow, and with
  /// \p IncludeLearnt the live learnt-clause DB is exported separately so
  /// incremental-solver state is inspectable (see writeDimacs). Must be
  /// called at the root level (i.e. outside solve(), which always returns
  /// backtracked to level 0).
  CnfFormula exportCnf(bool IncludeLearnt = false) const;

  /// Root-level garbage collection for incremental use: removes clauses
  /// satisfied by the root trail (say, clauses behind a guard literal
  /// whose negation was added as a unit), strips root-false literals from
  /// the rest, compacts the clause arena, and re-arms the
  /// learnt-DB limit that reduceLearntDB relaxes during long searches.
  /// Call between queries, at decision level 0. Returns false if the
  /// instance is (or becomes) proven unsatisfiable.
  bool simplify();

  /// Model value of \p V after a Sat result.
  bool modelValue(Var V) const {
    assert(V < Model.size() && "no model for variable");
    return Model[V];
  }

  const SolverStats &stats() const { return Stats; }

  /// True once the clause set is known unsatisfiable regardless of budget.
  bool isProvenUnsat() const { return ProvenUnsat; }

  /// Lowers the learnt-clause limit that triggers database reduction
  /// (default 4096). Primarily a test hook to exercise the reduction path
  /// on small instances.
  void setLearntLimit(size_t Limit) { MaxLearnt = BaseMaxLearnt = Limit; }

private:
  struct Watcher {
    ClauseRef Ref;
    Lit Blocker; // satisfied blocker literal fast path
  };

  LBool value(Lit L) const {
    LBool V = Assigns[L.var()];
    return L.negated() ? ~V : V;
  }
  LBool value(Var V) const { return Assigns[V]; }

  unsigned decisionLevel() const { return (unsigned)TrailLim.size(); }

  void attachClause(ClauseRef Ref);
  void enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
               unsigned &BacktrackLevel);
  void analyzeFinal(Lit FailedAssumption);
  void backtrack(unsigned Level);
  Lit pickBranchLit();
  void bumpVarActivity(Var V);
  void bumpClauseActivity(Clause C);
  void decayActivities();
  void reduceLearntDB();
  /// True when clause \p R is the reason of an assigned variable (its
  /// first literal's, which the clause implied).
  bool locked(ClauseRef R) const {
    Lit First = Clauses[R][0];
    return Reason[First.var()] == R && value(First) == LBool::True;
  }
  /// Rewrites the arena without its deleted clauses, keeping their order;
  /// with \p StripRootFalse, unlocked clauses also lose their root-false
  /// literals. Remaps reasons and rebuilds the watch lists. Root level only.
  void compactClauses(bool StripRootFalse);
  void rebuildWatches();
  static uint64_t luby(uint64_t I);

  // Clause database.
  ClauseArena Clauses;
  std::vector<std::vector<Watcher>> Watches; // indexed by literal code

  // Assignment trail.
  std::vector<LBool> Assigns;        // per var
  std::vector<uint8_t> SavedPhase;   // per var, phase saving
  std::vector<unsigned> Level;       // per var
  std::vector<ClauseRef> Reason;     // per var
  std::vector<Lit> Trail;
  std::vector<uint32_t> TrailLim;
  uint32_t PropagateHead = 0;

  // Branching.
  std::vector<double> Activity;
  double VarActivityInc = 1.0;
  double ClauseActivityInc = 1.0;
  VarOrderHeap Order;

  // Conflict analysis scratch.
  std::vector<uint8_t> Seen;
  std::vector<Lit> AnalyzeStack;
  std::vector<Lit> ToClear;
  std::vector<Lit> AddScratch; // addClause's normalized copy

  std::vector<uint8_t> Model;
  std::vector<Lit> FailedAssumptions;

  SolverStats Stats;
  bool ProvenUnsat = false;
  size_t LearntCount = 0;
  size_t MaxLearnt = 4096;
  size_t BaseMaxLearnt = 4096;
};

} // namespace mba::sat

#endif // MBA_SAT_SOLVER_H
