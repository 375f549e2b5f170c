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
///   profile      AIG level  adder/multiplier
///   BlastBV      Plain      ripple/shift-add
///   BlastBV+RW   Strash     ripple/shift-add
///   BlastBV+AIG  Full       prefix/carry-save
///
/// BlastBV and BlastBV+RW stand in for STP and Boolector, bit-blasters that
/// differ in their word-level and AIG preprocessing; BlastBV+AIG is the
/// modern configuration. The profiles differ in nothing else.
///
/// Per query, every profile runs the same protocol on state of its own:
///
///   1. translate both sides onto a fresh AIG at the profile's level;
///   2. build the miter literal `lhs != rhs`; if rewriting collapsed it to
///      a constant, answer without touching SAT at all;
///   3. otherwise encode the miter's cone in construction order into a
///      fresh solver, assert the root as a unit, and solve — UNSAT means
///      the sides are equivalent.
///
/// The graph and solver die with their query, so nothing a query builds
/// is ever paid for by a later one, and a checker holds no state between
/// queries: one instance may serve any number of Contexts. The harness
/// still builds one checker set per worker thread via its CheckerFactory.
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
};

constexpr Profile BlastBV{.Name = "BlastBV",
                          .SpanName = "solve.backend.BlastBV",
                          .Level = aig::AigLevel::Plain,
                          .Enc = aig::Encoding::Ripple};
constexpr Profile BlastBVRW{.Name = "BlastBV+RW",
                            .SpanName = "solve.backend.BlastBV+RW",
                            .Level = aig::AigLevel::Strash,
                            .Enc = aig::Encoding::Ripple};
constexpr Profile BlastBVAig{.Name = "BlastBV+AIG",
                             .SpanName = "solve.backend.BlastBV+AIG",
                             .Level = aig::AigLevel::Full,
                             .Enc = aig::Encoding::Prefix};

class AigChecker : public EquivalenceChecker {
public:
  explicit AigChecker(const Profile &P) : P(P) {}

  std::string name() const override { return P.Name; }

  CheckResult check(const Context &Ctx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) override {
    MBA_TRACE_SPAN(P.SpanName);
    // Query accounting: every query is either decided structurally by the
    // AIG rewriting layer (`sat.aig.short_circuit` — SAT never runs) or
    // reaches exactly one solve call (`sat.fresh.solves`), so
    //   sat.aig.queries == short_circuit + fresh.solves
    // holds by construction.
    static telemetry::Counter &CtrQueries = telemetry::counter("sat.aig.queries");
    static telemetry::Counter &CtrShortCircuit =
        telemetry::counter("sat.aig.short_circuit");
    static telemetry::Counter &CtrFreshSolves =
        telemetry::counter("sat.fresh.solves");
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
    }

    Stopwatch Timer;
    // The query's graph and solver are destroyed on return, after its
    // clock is read, so no query's time includes freeing another's.
    QueryState St(Ctx.width(), P);
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

    // The root goes in as a unit: its implications then sit at level 0,
    // where they stay out of every learnt clause.
    sat::SatSolver &Solver = St.Solver;
    Solver.addClause({St.Emitter.emit(Root)});
    CtrEncodeVars.add(Solver.numVars());
    CtrEncodeClauses.add(Solver.stats().ClausesAdded);

    sat::Budget Limits;
    Limits.MaxSeconds = std::max(0.0, TimeoutSeconds - Timer.seconds());
    sat::SatResult R = Solver.solve(Limits);
    CtrFreshSolves.add();

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
      const sat::SolverStats &Stats = Solver.stats();
      QR->flag("aig_short_circuit", false);
      QR->num("aig_nodes", St.Graph.numNodes());
      QR->num("cnf_vars", Solver.numVars());
      QR->num("cnf_clauses", Stats.ClausesAdded);
      QR->num("sat_conflicts", Stats.Conflicts);
      QR->num("sat_decisions", Stats.Decisions);
      QR->num("sat_propagations", Stats.Propagations);
      QR->str("verdict", verdictName(Result.Outcome));
    }
    return Result;
  }

private:
  /// Everything one query builds: its AIG, the translation onto it, and
  /// the solver its miter cone is encoded into (in construction order,
  /// the order a one-pass Tseitin bit-blaster allocates in).
  struct QueryState {
    aig::Aig Graph;
    aig::AigBlaster Blaster;
    aig::ExprAig Translator;
    sat::SatSolver Solver;
    aig::CnfEmitter Emitter;

    QueryState(unsigned Width, const Profile &P)
        : Graph(P.Level), Blaster(Graph, Width, P.Enc), Translator(Blaster),
          Emitter(Graph, Solver) {}
  };

  const Profile &P;
};

} // namespace

std::unique_ptr<EquivalenceChecker> mba::makeBlastChecker(bool EnableRewriting) {
  return std::make_unique<AigChecker>(EnableRewriting ? BlastBVRW : BlastBV);
}

std::unique_ptr<EquivalenceChecker> mba::makeAigChecker(bool) {
  return std::make_unique<AigChecker>(BlastBVAig);
}
