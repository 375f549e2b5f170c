// mba-tidy corpus: fresh SAT solvers built inside loops. A backend builds
// one SatSolver per query, in the function that answers it; rebuilding the
// solver every loop iteration re-encodes the clauses and throws away the
// learnt clauses, VSIDS order and saved phases the previous iteration
// paid for.
#include "sat/Solver.h"

#include <memory>
#include <vector>

void freshSolverPerQuery(const std::vector<int> &Queries) {
  for (int Q : Queries) {
    mba::sat::SatSolver S; // EXPECT: mba-sat-solver-in-loop
    (void)Q;
    (void)S;
  }
}

void freshHeapSolverPerQuery(const std::vector<int> &Queries) {
  std::unique_ptr<mba::sat::SatSolver> S;
  while (!Queries.empty()) {
    S = std::make_unique<mba::sat::SatSolver>(); // EXPECT: mba-sat-solver-in-loop
    break;
  }
}

void rawNewPerQuery(int N) {
  for (int I = 0; I != N; ++I) {
    auto *S = new mba::sat::SatSolver; // EXPECT: mba-sat-solver-in-loop
    delete S;
  }
}

// The sanctioned shape: one hoisted instance outside the loop, each
// iteration's constraints passed as assumptions. A reference to the
// hoisted solver inside the loop body is fine.
void hoistedIncrementalSolver(const std::vector<int> &Queries) {
  mba::sat::SatSolver Solver;
  for (int Q : Queries) {
    mba::sat::SatSolver &S = Solver;
    (void)S;
    (void)Q;
  }
}
