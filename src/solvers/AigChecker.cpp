//===- solvers/AigChecker.cpp - The in-tree bit-blasting backends ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One bit-blasting stack — expression → AIG words → CNF → in-tree CDCL —
/// served as three fixed profiles that reproduce the paper's solver matrix:
///
///   profile      AIG level  adder/multiplier     AIG        SAT solver
///   BlastBV      Plain      ripple/shift-add     per query  per query
///   BlastBV+RW   Strash     ripple/shift-add     per query  per query
///   BlastBV+AIG  Full       prefix/carry-save    immortal   every 8 queries
///
/// BlastBV and BlastBV+RW stand in for STP and Boolector, bit-blasters that
/// differ in their word-level and AIG preprocessing; BlastBV+AIG is the
/// modern configuration (makeAigChecker(false) rebuilds its solver per
/// query instead).
///
/// Per query, the protocol is:
///
///   1. translate both sides onto the profile's AIG (at the Full level the
///      strash dedups every subterm ever seen by this checker, across
///      queries);
///   2. build the miter literal `lhs != rhs`; if rewriting collapsed it to
///      a constant, answer without touching SAT at all;
///   3. otherwise encode only the not-yet-encoded cone (the CnfEmitter's
///      node-to-variable map persists), allocate a fresh guard variable g,
///      add the clause (~g | root), and solve under the single assumption
///      g — learnt clauses, VSIDS activity, and saved phases carry over
///      from every earlier query;
///   4. retire the query with the unit clause ~g, permanently satisfying
///      its guard clause and every learnt clause that depended on it.
///
/// A per-query profile's solver never sees a second query, so it skips the
/// guard: step 3 asserts the root as a unit and solves, and step 4 is void.
///
/// UNSAT under the assumption means the miter is unsatisfiable, i.e. the
/// sides are equivalent; it does NOT mark the shared instance proven-unsat
/// (Solver::solve(assumptions) guarantees that), so the solver survives
/// arbitrarily many queries.
///
/// The incremental solver and emitter are recycled every kResetWindow
/// queries: retired cones stay attached to the shared input variables and
/// propagation costs grow linearly with their number, so unbounded
/// persistence loses more to dead-cone traffic than cross-query learning
/// wins (measured; see the comment at the reset site).
///
/// Ownership/threading: a checker instance is stateful and single-owner,
/// exactly like the Context it serves — the harness builds one checker set
/// per worker thread via its CheckerFactory, so each worker shares one
/// incremental solver across its whole slice of the study and nothing is
/// shared across threads.
///
//===----------------------------------------------------------------------===//

#include "solvers/EquivalenceChecker.h"

#include "aig/Aig.h"
#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"
#include "support/QueryLog.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

using namespace mba;

namespace {

/// One fixed configuration of the bit-blasting stack.
struct Profile {
  const char *Name;
  const char *SpanName;
  aig::AigLevel Level;
  aig::Encoding Enc;
  /// Build the AIG and the solver afresh for every query instead of
  /// keeping the AIG for the checker's lifetime.
  bool FreshGraph;
  /// Queries one SAT solver serves before it is rebuilt.
  unsigned ResetWindow;
};

/// Incremental-mode recycling period, in queries. Within a window,
/// queries share encoded cones and guard-free learnt clauses; across
/// windows the accumulated dead structure is dropped. Eight is the
/// measured knee: larger windows only add propagation work into retired
/// cones without reducing conflicts.
constexpr unsigned kResetWindow = 8;

constexpr Profile BlastBV{.Name = "BlastBV",
                          .SpanName = "solve.backend.BlastBV",
                          .Level = aig::AigLevel::Plain,
                          .Enc = aig::Encoding::Ripple,
                          .FreshGraph = true,
                          .ResetWindow = 1};
constexpr Profile BlastBVRW{.Name = "BlastBV+RW",
                            .SpanName = "solve.backend.BlastBV+RW",
                            .Level = aig::AigLevel::Strash,
                            .Enc = aig::Encoding::Ripple,
                            .FreshGraph = true,
                            .ResetWindow = 1};
constexpr Profile BlastBVAig{.Name = "BlastBV+AIG",
                             .SpanName = "solve.backend.BlastBV+AIG",
                             .Level = aig::AigLevel::Full,
                             .Enc = aig::Encoding::Prefix,
                             .FreshGraph = false,
                             .ResetWindow = kResetWindow};
/// BlastBV+AIG with its solver rebuilt per query (makeAigChecker(false)).
constexpr Profile BlastBVAigFresh{.Name = "BlastBV+AIG",
                                  .SpanName = "solve.backend.BlastBV+AIG",
                                  .Level = aig::AigLevel::Full,
                                  .Enc = aig::Encoding::Prefix,
                                  .FreshGraph = false,
                                  .ResetWindow = 1};

class AigChecker : public EquivalenceChecker {
public:
  explicit AigChecker(const Profile &P) : P(P) {}

  std::string name() const override { return P.Name; }

  CheckResult check(const Context &Ctx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) override {
    MBA_TRACE_SPAN(P.SpanName);
    // Query accounting: every query is either decided structurally by the
    // AIG rewriting layer (`sat.aig.short_circuit` — SAT never runs) or
    // reaches exactly one solve call, counted under the mode that actually
    // ran it (`sat.incremental.assumption_solves` for the guarded
    // persistent solver, `sat.fresh.solves` for per-query solvers). So
    //   sat.aig.queries == short_circuit + assumption_solves + fresh
    // holds by construction; a report showing assumption_solves == 0 next
    // to a large short_circuit count means the rewriter decided everything
    // before SAT, not that the incremental path is broken.
    static telemetry::Counter &CtrQueries = telemetry::counter("sat.aig.queries");
    static telemetry::Counter &CtrShortCircuit =
        telemetry::counter("sat.aig.short_circuit");
    static telemetry::Counter &CtrAssumptionSolves =
        telemetry::counter("sat.incremental.assumption_solves");
    static telemetry::Counter &CtrFreshSolves =
        telemetry::counter("sat.fresh.solves");
    static telemetry::Counter &CtrClausesReused =
        telemetry::counter("sat.incremental.clauses_reused");
    static telemetry::Counter &CtrRetired =
        telemetry::counter("sat.incremental.queries_retired");
    static telemetry::Counter &CtrEncodeVars =
        telemetry::counter("sat.encode.vars");
    static telemetry::Counter &CtrEncodeClauses =
        telemetry::counter("sat.encode.clauses");
    CtrQueries.add();

    // Same-kind scope: pass-through under a staged checker (fields land in
    // its record), a record of its own when the backend runs unstaged.
    querylog::QueryScope LogScope("check");
    if (querylog::Record *QR = querylog::active()) {
      QR->str("backend", name());
      QR->num("width", Ctx.width());
      QR->str("solve_mode", incremental() ? "incremental" : "fresh");
    }

    Stopwatch Timer;
    // A per-query graph and solver die with their query, so the next
    // query's clock never pays for freeing this one's clause database.
    std::unique_ptr<SolverState> PerQuery;
    if (P.FreshGraph)
      PerQuery = std::make_unique<SolverState>(Ctx.width(), P);
    else if (!State || State->Width != Ctx.width())
      State = std::make_unique<SolverState>(Ctx.width(), P);
    SolverState &St = P.FreshGraph ? *PerQuery : *State;
    assert((!St.Bound || St.Bound == &Ctx) &&
           "one incremental checker serves one Context");
    St.Bound = &Ctx;

    // The modern profile's AIG is immortal — strash hits and rewrite
    // short-circuits only get better with age. SAT state is not: every
    // retired query leaves its encoded cone hanging off the shared input
    // variables, and unit propagation cascades into those dead cones on
    // every restart. Measured on a 200-query corpus, solve time grows
    // linearly with the number of retained queries while cross-query
    // learning holds conflict counts flat, so the solver and emitter are
    // recycled every kResetWindow queries (every query in fresh mode).
    if (!St.SolverLive() || St.QueriesSinceReset >= P.ResetWindow)
      St.resetSolver();
    ++St.QueriesSinceReset;

    auto WA = St.Translator.blast(A);
    auto WB = St.Translator.blast(B);
    aig::AigLit Root = St.Blaster.disequalLit(WA, WB);

    CheckResult Result;
    if (Root == aig::Aig::falseLit() || Root == aig::Aig::trueLit()) {
      // Rewriting decided the query structurally; SAT never runs.
      CtrShortCircuit.add();
      Result.Outcome = Root == aig::Aig::falseLit() ? Verdict::Equivalent
                                                    : Verdict::NotEquivalent;
      Result.Seconds = Timer.seconds();
      if (querylog::Record *QR = querylog::active()) {
        QR->flag("aig_short_circuit", true);
        QR->num("aig_nodes", St.Graph.numNodes());
        QR->str("verdict", verdictName(Result.Outcome));
      }
      return Result;
    }

    sat::SatSolver &Solver = *St.Solver;
    uint64_t VarsBefore = Solver.numVars();
    uint64_t ClausesBefore = Solver.stats().ClausesAdded;
    uint64_t ConflictsBefore = Solver.stats().Conflicts;
    uint64_t DecisionsBefore = Solver.stats().Decisions;
    uint64_t PropagationsBefore = Solver.stats().Propagations;
    sat::Lit RootLit = St.Emitter->emit(Root);

    // A solver that outlives the query sees the root only behind a
    // per-query assumption literal it can retire afterwards. A per-query
    // solver takes the root as a unit: its implications then sit at level
    // 0, where they stay out of every learnt clause.
    bool Guarded = !P.FreshGraph;
    sat::Lit Guard;
    if (Guarded) {
      Guard = sat::Lit(Solver.newVar(), false);
      Solver.addClause({~Guard, RootLit});
      // Pull this query's cone to the front of the branching order; stale
      // activity from retired queries otherwise wins every early decision.
      St.ConeVars.clear();
      St.Emitter->appendConeVars(Root, St.ConeVars);
      St.ConeVars.push_back(Guard.var());
      Solver.seedActivity(St.ConeVars);
    } else {
      Solver.addClause({RootLit});
    }
    CtrEncodeVars.add(Solver.numVars() - VarsBefore);
    CtrEncodeClauses.add(Solver.stats().ClausesAdded - ClausesBefore);

    sat::Budget Limits;
    Limits.MaxSeconds = std::max(0.0, TimeoutSeconds - Timer.seconds());
    uint64_t ReusedBefore = Solver.stats().ReusedLearnts;
    sat::Lit Assumptions[1] = {Guard};
    sat::SatResult R = Guarded ? Solver.solve(Assumptions, Limits)
                               : Solver.solve(Limits);
    if (incremental()) {
      CtrAssumptionSolves.add();
      CtrClausesReused.add(Solver.stats().ReusedLearnts - ReusedBefore);
    } else {
      // Fresh mode resets the solver before every query, so the guarded
      // solve carries nothing across queries; counting it as an
      // "incremental" assumption solve would overstate the shared-solver
      // path in reports.
      CtrFreshSolves.add();
    }

    // Retire the query: ~Guard satisfies its clauses for good, and
    // simplify() sweeps them (plus any learnt clauses that mention the
    // guard) out of the watch lists so dead queries cost nothing later.
    // (In fresh mode the whole solver is discarded before the next query,
    // so there is no retirement to report.)
    if (Guarded) {
      Solver.addClause({~Guard});
      Solver.simplify();
    }
    if (incremental())
      CtrRetired.add();

    Result.Seconds = Timer.seconds();
    switch (R) {
    case sat::SatResult::Unsat:
      Result.Outcome = Verdict::Equivalent;
      break;
    case sat::SatResult::Sat:
      Result.Outcome = Verdict::NotEquivalent;
      break;
    case sat::SatResult::Unknown:
      Result.Outcome = Verdict::Timeout;
      break;
    }
    if (querylog::Record *QR = querylog::active()) {
      QR->flag("aig_short_circuit", false);
      QR->num("aig_nodes", St.Graph.numNodes());
      QR->num("cnf_vars", Solver.numVars() - VarsBefore);
      QR->num("cnf_clauses", Solver.stats().ClausesAdded - ClausesBefore);
      QR->num("sat_conflicts", Solver.stats().Conflicts - ConflictsBefore);
      QR->num("sat_decisions", Solver.stats().Decisions - DecisionsBefore);
      QR->num("sat_propagations",
              Solver.stats().Propagations - PropagationsBefore);
      QR->num("sat_clauses_reused",
              Solver.stats().ReusedLearnts - ReusedBefore);
      QR->str("verdict", verdictName(Result.Outcome));
    }
    return Result;
  }

private:
  struct SolverState {
    unsigned Width;
    aig::Aig Graph;
    aig::AigBlaster Blaster;
    aig::ExprAig Translator;
    aig::CnfOrder Order;
    std::unique_ptr<sat::SatSolver> Solver;
    std::unique_ptr<aig::CnfEmitter> Emitter;
    unsigned QueriesSinceReset = 0;
    std::vector<sat::Var> ConeVars; // per-query scratch for seedActivity
    const Context *Bound = nullptr;

    // A per-query graph numbers its cone in construction order, the order
    // a one-pass Tseitin bit-blaster allocates in; the immortal graph keeps
    // the depth-first order its pinned searches were measured with.
    SolverState(unsigned W, const Profile &P)
        : Width(W), Graph(P.Level), Blaster(Graph, W, P.Enc),
          Translator(Blaster), Order(P.FreshGraph ? aig::CnfOrder::NodeOrder
                                                  : aig::CnfOrder::Dfs) {}

    bool SolverLive() const { return Solver != nullptr; }

    /// Fresh SAT state under the same AIG: the emitter's node-to-variable
    /// map restarts empty, so the next query re-encodes its cone against
    /// the new solver.
    void resetSolver() {
      Solver = std::make_unique<sat::SatSolver>();
      Emitter = std::make_unique<aig::CnfEmitter>(Graph, *Solver, Order);
      QueriesSinceReset = 0;
    }
  };

  bool incremental() const { return P.ResetWindow > 1; }

  const Profile &P;
  /// The graph and solver of a profile that keeps them across queries.
  std::unique_ptr<SolverState> State;
};

} // namespace

std::unique_ptr<EquivalenceChecker> mba::makeBlastChecker(bool EnableRewriting) {
  return std::make_unique<AigChecker>(EnableRewriting ? BlastBVRW : BlastBV);
}

std::unique_ptr<EquivalenceChecker> mba::makeAigChecker(bool Incremental) {
  return std::make_unique<AigChecker>(Incremental ? BlastBVAig
                                                  : BlastBVAigFresh);
}
