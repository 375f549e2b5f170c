//===- tests/sat_test.cpp - CDCL SAT solver tests -------------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"
#include "sat/Solver.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace mba;
using namespace mba::sat;

namespace {

/// Loads a DIMACS string into a fresh solver.
void loadCnf(SatSolver &Solver, const CnfFormula &F) {
  while (Solver.numVars() < F.NumVars)
    Solver.newVar();
  for (const auto &Clause : F.Clauses)
    if (!Solver.addClause(Clause))
      return;
}

/// Brute-force SAT check for small variable counts (reference oracle).
bool bruteForceSat(const CnfFormula &F) {
  assert(F.NumVars <= 20 && "brute force only for small instances");
  for (uint64_t Mask = 0; Mask < (1ULL << F.NumVars); ++Mask) {
    bool All = true;
    for (const auto &Clause : F.Clauses) {
      bool Any = false;
      for (Lit L : Clause)
        Any |= ((Mask >> L.var()) & 1) != (uint64_t)L.negated();
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// Checks that a model satisfies every clause.
void expectModelSatisfies(const SatSolver &Solver, const CnfFormula &F) {
  for (const auto &Clause : F.Clauses) {
    bool Any = false;
    for (Lit L : Clause)
      Any |= Solver.modelValue(L.var()) != L.negated();
    EXPECT_TRUE(Any) << "model violates a clause";
  }
}

TEST(Lit, PackingRoundTrips) {
  Lit L(7, true);
  EXPECT_EQ(L.var(), 7u);
  EXPECT_TRUE(L.negated());
  EXPECT_EQ((~L).var(), 7u);
  EXPECT_FALSE((~L).negated());
  EXPECT_EQ(~~L, L);
  EXPECT_FALSE(Lit().valid());
}

TEST(SatSolverTest, TrivialSatAndUnsat) {
  {
    SatSolver S;
    Var A = S.newVar();
    EXPECT_TRUE(S.addClause({Lit(A, false)}));
    EXPECT_EQ(S.solve(), SatResult::Sat);
    EXPECT_TRUE(S.modelValue(A));
  }
  {
    SatSolver S;
    Var A = S.newVar();
    EXPECT_TRUE(S.addClause({Lit(A, false)}));
    EXPECT_FALSE(S.addClause({Lit(A, true)}));
    EXPECT_EQ(S.solve(), SatResult::Unsat);
    EXPECT_TRUE(S.isProvenUnsat());
  }
}

TEST(SatSolverTest, EmptyClauseListIsSat) {
  SatSolver S;
  S.newVar();
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverTest, TautologyIsIgnored) {
  SatSolver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit(A, false), Lit(A, true)}));
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverTest, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): three pigeons, two holes. Var p*2+h = pigeon p in hole h.
  SatSolver S;
  for (int I = 0; I < 6; ++I)
    S.newVar();
  auto P = [](int Pigeon, int Hole) { return Lit(Pigeon * 2 + Hole, false); };
  for (int Pigeon = 0; Pigeon < 3; ++Pigeon)
    S.addClause({P(Pigeon, 0), P(Pigeon, 1)});
  for (int Hole = 0; Hole < 2; ++Hole)
    for (int A = 0; A < 3; ++A)
      for (int B = A + 1; B < 3; ++B)
        S.addClause({~P(A, Hole), ~P(B, Hole)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, PigeonHole6Into5IsUnsatWithLearning) {
  // Large enough to exercise conflict analysis, restarts and learning.
  const int Pigeons = 6, Holes = 5;
  SatSolver S;
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  auto P = [&](int Pigeon, int Hole) {
    return Lit(Pigeon * Holes + Hole, false);
  };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    std::vector<Lit> Clause;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Clause.push_back(P(Pigeon, Hole));
    S.addClause(Clause);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.addClause({~P(A, Hole), ~P(B, Hole)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 10u);
}

/// Adds PHP(Pigeons, Holes): var p*Holes+h = pigeon p in hole h.
void addPigeonHole(SatSolver &S, int Pigeons, int Holes) {
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  auto P = [&](int Pigeon, int Hole) {
    return Lit(Pigeon * Holes + Hole, false);
  };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    std::vector<Lit> Clause;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Clause.push_back(P(Pigeon, Hole));
    S.addClause(Clause);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.addClause({~P(A, Hole), ~P(B, Hole)});
}

TEST(SatSolverTest, BudgetReturnsUnknown) {
  // PHP(8,7) cannot be refuted in 10 conflicts.
  SatSolver S;
  addPigeonHole(S, 8, 7);
  Budget Limits;
  Limits.MaxConflicts = 10;
  EXPECT_EQ(S.solve(Limits), SatResult::Unknown);
  EXPECT_FALSE(S.isProvenUnsat());
  // With a real budget it is refutable.
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, ExpiredClockStopsWithin64Conflicts) {
  // The wall clock is read every 64th conflict of a solve() call, whatever
  // the restart schedule, so an exhausted time budget binds within 64.
  SatSolver S;
  addPigeonHole(S, 8, 7);
  Budget Ten;
  Ten.MaxConflicts = 10; // so later calls start off a multiple of 64
  EXPECT_EQ(S.solve(Ten), SatResult::Unknown);
  Budget Limits;
  Limits.MaxSeconds = 0;
  for (int Call = 0; Call != 3; ++Call) {
    uint64_t Before = S.stats().Conflicts;
    EXPECT_EQ(S.solve(Limits), SatResult::Unknown);
    EXPECT_LE(S.stats().Conflicts - Before, 64u) << "call " << Call;
  }
  EXPECT_FALSE(S.isProvenUnsat());
}

TEST(SatSolverTest, RandomInstancesAgreeWithBruteForce) {
  // Random 3-SAT around the phase transition (ratio ~4.3), cross-checked
  // against exhaustive enumeration.
  RNG Rng(12345);
  for (int Trial = 0; Trial < 120; ++Trial) {
    unsigned NumVars = 4 + (unsigned)Rng.below(9); // 4..12
    unsigned NumClauses = (unsigned)(NumVars * 43 / 10);
    CnfFormula F;
    F.NumVars = NumVars;
    for (unsigned C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(
            Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      F.Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    loadCnf(S, F);
    SatResult R = S.solve();
    bool Expected = bruteForceSat(F);
    ASSERT_EQ(R, Expected ? SatResult::Sat : SatResult::Unsat)
        << "trial " << Trial;
    if (R == SatResult::Sat)
      expectModelSatisfies(S, F);
  }
}

TEST(SatSolverTest, ManyRandomSatInstancesProduceValidModels) {
  // Under-constrained instances (ratio 2.0) are almost surely SAT; verify
  // models on bigger variable counts than brute force allows.
  RNG Rng(777);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned NumVars = 50 + (unsigned)Rng.below(100);
    CnfFormula F;
    F.NumVars = NumVars;
    for (unsigned C = 0; C != NumVars * 2; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      F.Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    loadCnf(S, F);
    ASSERT_EQ(S.solve(), SatResult::Sat);
    expectModelSatisfies(S, F);
  }
}

TEST(SatSolverTest, XorChainsStressLearning) {
  // x1 ^ x2 ^ ... ^ xn = 1 as CNF ladders with auxiliary variables, plus
  // the constraint that an even subset is set: UNSAT by parity.
  const unsigned N = 24;
  SatSolver S;
  std::vector<Var> X(N);
  for (auto &V : X)
    V = S.newVar();
  // t0 = x0; t_{i} = t_{i-1} ^ x_i; assert t_{N-1} = true.
  Var Prev = X[0];
  for (unsigned I = 1; I != N; ++I) {
    Var T = S.newVar();
    // T <-> Prev ^ X[I]
    Lit TL(T, false), A(Prev, false), B(X[I], false);
    S.addClause({~TL, ~A, ~B});
    S.addClause({~TL, A, B});
    S.addClause({TL, ~A, B});
    S.addClause({TL, A, ~B});
    Prev = T;
  }
  S.addClause({Lit(Prev, false)});
  // Now force all x to false: parity 0 != 1 -> UNSAT.
  for (unsigned I = 0; I != N; ++I)
    S.addClause({Lit(X[I], true)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, ClauseDatabaseReductionStaysSound) {
  // Force frequent learnt-DB reductions (limit 30) on random instances
  // near the phase transition and cross-check every verdict against brute
  // force: a broken watch rebuild would surface as a bogus model or a
  // bogus refutation.
  RNG Rng(777777);
  unsigned Reductions = 0;
  for (int Trial = 0; Trial < 60; ++Trial) {
    unsigned NumVars = 10 + (unsigned)Rng.below(5);
    unsigned NumClauses = (unsigned)(NumVars * 43 / 10);
    CnfFormula F;
    F.NumVars = NumVars;
    for (unsigned C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      F.Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    S.setLearntLimit(30);
    loadCnf(S, F);
    SatResult R = S.solve();
    bool Expected = bruteForceSat(F);
    ASSERT_EQ(R, Expected ? SatResult::Sat : SatResult::Unsat)
        << "trial " << Trial;
    if (R == SatResult::Sat)
      expectModelSatisfies(S, F);
    Reductions += S.stats().DeletedClauses > 0;
  }
  (void)Reductions; // small instances may finish before the limit

  // Guarantee the reduction path runs: PHP(7,6) needs far more than 20
  // learnt clauses to refute, and the answer must still be Unsat.
  const int Pigeons = 7, Holes = 6;
  SatSolver S;
  S.setLearntLimit(20);
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  auto P = [&](int Pigeon, int Hole) {
    return Lit((Var)(Pigeon * Holes + Hole), false);
  };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    std::vector<Lit> Clause;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Clause.push_back(P(Pigeon, Hole));
    S.addClause(Clause);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.addClause({~P(A, Hole), ~P(B, Hole)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_GT(S.stats().DeletedClauses, 0u);
}

TEST(SatSolverTest, ArenaCompactionKeepsAnswersAndExport) {
  // The clause arena is compacted by learnt-DB reduction (a tiny limit
  // forces it) and by simplify() between assumption solves, which also
  // strips root-false literals and remaps the reasons of root units
  // learned during search. Every answer must still match brute force, and
  // the compacted database must export and round-trip through DIMACS as
  // an instance equisatisfiable with the original.
  RNG Rng(90210);
  uint64_t Deleted = 0, Simplified = 0, RootUnits = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    unsigned NumVars = 10 + (unsigned)Rng.below(5); // 10..14
    unsigned NumClauses = (unsigned)(NumVars * 4);
    CnfFormula F;
    F.NumVars = NumVars;
    for (unsigned C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      F.Clauses.push_back(std::move(Clause));
    }
    bool BaseSat = bruteForceSat(F);
    SatSolver S;
    S.setLearntLimit(4);
    loadCnf(S, F);
    for (int Query = 0; Query < 6 && !S.isProvenUnsat(); ++Query) {
      std::vector<Lit> Assumps;
      for (unsigned I = 0, N = 1 + (unsigned)Rng.below(3); I != N; ++I)
        Assumps.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      CnfFormula WithUnits = F;
      for (Lit L : Assumps)
        WithUnits.Clauses.push_back({L});
      SatResult R = S.solve(Assumps);
      ASSERT_EQ(R, bruteForceSat(WithUnits) ? SatResult::Sat
                                            : SatResult::Unsat)
          << "trial " << Trial << " query " << Query;
      if (R == SatResult::Sat)
        expectModelSatisfies(S, F);
      if (!S.simplify()) {
        EXPECT_FALSE(BaseSat) << "simplify refuted a satisfiable instance";
        break;
      }

      CnfFormula Exported = S.exportCnf(/*IncludeLearnt=*/true);
      EXPECT_EQ(Exported.LearntClauses.size(), S.numLearnts());
      for (const auto &Clause : Exported.Clauses)
        RootUnits += Clause.size() == 1;
      auto Reparsed =
          parseDimacs(writeDimacs(Exported, /*IncludeLearnt=*/true));
      ASSERT_TRUE(Reparsed.has_value());
      EXPECT_EQ(Reparsed->Clauses, Exported.Clauses);
      EXPECT_EQ(Reparsed->LearntClauses, Exported.LearntClauses);
      CnfFormula All = *Reparsed;
      All.NumVars = NumVars;
      ASSERT_EQ(bruteForceSat(All), BaseSat) << "trial " << Trial;
      for (const auto &Clause : Reparsed->LearntClauses)
        All.Clauses.push_back(Clause);
      ASSERT_EQ(bruteForceSat(All), BaseSat)
          << "a learnt clause is not implied, trial " << Trial;
    }
    Deleted += S.stats().DeletedClauses;
    Simplified += S.stats().SimplifiedClauses;
  }
  // The corpus must reach every compaction path.
  EXPECT_GT(Deleted, 0u);
  EXPECT_GT(Simplified, 0u);
  EXPECT_GT(RootUnits, 0u);
}

TEST(SatSolverTest, StatsArePopulated) {
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  S.addClause({Lit(A, true), Lit(C, false)});
  S.addClause({Lit(B, true), Lit(C, true)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_GT(S.stats().Propagations + S.stats().Decisions, 0u);
}

TEST(Dimacs, ParseAndWriteRoundTrip) {
  const char *Text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
  auto F = parseDimacs(Text);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->NumVars, 3u);
  ASSERT_EQ(F->Clauses.size(), 2u);
  EXPECT_EQ(F->Clauses[0][0], Lit(0, false));
  EXPECT_EQ(F->Clauses[0][1], Lit(1, true));
  auto F2 = parseDimacs(writeDimacs(*F));
  ASSERT_TRUE(F2.has_value());
  EXPECT_EQ(F2->Clauses, F->Clauses);
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_FALSE(parseDimacs("1 2 3").has_value());   // missing terminator
  EXPECT_FALSE(parseDimacs("1 x 0").has_value());   // junk token
  EXPECT_TRUE(parseDimacs("").has_value());         // empty formula is fine
  // Variables that overflow the digit accumulator or Lit's 2*var+sign
  // packing are rejected, not wrapped onto small variables.
  EXPECT_FALSE(parseDimacs("4294967297 0").has_value());
  EXPECT_FALSE(parseDimacs("2147483649 0").has_value());
  EXPECT_FALSE(parseDimacs("-18446744073709551617 0").has_value());
  EXPECT_FALSE(parseDimacs("2147483648 0").has_value());
  auto Largest = parseDimacs("-2147483647 0");
  ASSERT_TRUE(Largest.has_value());
  EXPECT_EQ(Largest->NumVars, 2147483647u);
  EXPECT_EQ(Largest->Clauses[0][0], Lit(2147483646u, true));
  EXPECT_TRUE(Largest->Clauses[0][0].valid());
}

TEST(Dimacs, SolvesParsedFormula) {
  auto F = parseDimacs("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n");
  ASSERT_TRUE(F.has_value());
  SatSolver S;
  loadCnf(S, *F);
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
  EXPECT_TRUE(S.modelValue(1));
}

TEST(Dimacs, LearntClausesRoundTrip) {
  CnfFormula F;
  F.NumVars = 3;
  F.Clauses = {{Lit(0, false), Lit(1, false)}, {Lit(2, true)}};
  F.LearntClauses = {{Lit(0, false), Lit(2, false)}, {Lit(1, true)}};

  // Without the flag, learnt clauses are not serialized.
  auto Plain = parseDimacs(writeDimacs(F));
  ASSERT_TRUE(Plain.has_value());
  EXPECT_EQ(Plain->Clauses, F.Clauses);
  EXPECT_TRUE(Plain->LearntClauses.empty());

  // With it, both sections survive the round trip.
  auto Full = parseDimacs(writeDimacs(F, /*IncludeLearnt=*/true));
  ASSERT_TRUE(Full.has_value());
  EXPECT_EQ(Full->Clauses, F.Clauses);
  EXPECT_EQ(Full->LearntClauses, F.LearntClauses);
}

//===----------------------------------------------------------------------===//
// Incremental solving: assumptions, final-conflict analysis, CNF export
//===----------------------------------------------------------------------===//

TEST(Incremental, AssumptionsRestrictWithoutPoisoning) {
  // (a | b) is satisfiable; unsatisfiable under {~a, ~b}; satisfiable
  // again afterwards — assumptions must not mark the instance unsat.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});

  Lit Assumps[] = {Lit(A, true), Lit(B, true)};
  EXPECT_EQ(S.solve(Assumps), SatResult::Unsat);
  EXPECT_FALSE(S.isProvenUnsat());
  EXPECT_EQ(S.failedAssumptions().size(), 2u);

  EXPECT_EQ(S.solve(), SatResult::Sat);
  Lit Only[] = {Lit(A, true)};
  EXPECT_EQ(S.solve(Only), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Incremental, ContradictoryAssumptionsFail) {
  SatSolver S;
  Var A = S.newVar();
  S.newVar();
  Lit Assumps[] = {Lit(A, false), Lit(A, true)};
  EXPECT_EQ(S.solve(Assumps), SatResult::Unsat);
  EXPECT_FALSE(S.isProvenUnsat());
  // Both polarities participate in the failure.
  EXPECT_EQ(S.failedAssumptions().size(), 2u);
}

TEST(Incremental, FailedAssumptionsAreTheUsedSubset) {
  // (~a | ~b) refutes {a, b}; c plays no role and must not be reported.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause({Lit(A, true), Lit(B, true)});

  Lit Assumps[] = {Lit(C, false), Lit(A, false), Lit(B, false)};
  EXPECT_EQ(S.solve(Assumps), SatResult::Unsat);
  const auto &Failed = S.failedAssumptions();
  EXPECT_EQ(Failed.size(), 2u);
  for (Lit L : Failed)
    EXPECT_NE(L.var(), C) << "unused assumption reported in the core";
}

TEST(Incremental, GuardedQueriesReuseLearntClauses) {
  // The checker protocol: embed PHP(6,5) behind guard G1 (unsat under
  // {G1}), retire it, then run a satisfiable query behind G2 — on one
  // persistent solver, with learnt clauses carried across.
  const int Pigeons = 6, Holes = 5;
  SatSolver S;
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  Lit G1(S.newVar(), false);
  auto P = [&](int Pigeon, int Hole) {
    return Lit(Pigeon * Holes + Hole, false);
  };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    std::vector<Lit> Clause{~G1};
    for (int Hole = 0; Hole < Holes; ++Hole)
      Clause.push_back(P(Pigeon, Hole));
    S.addClause(Clause);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.addClause({~G1, ~P(A, Hole), ~P(B, Hole)});

  Lit Q1[] = {G1};
  EXPECT_EQ(S.solve(Q1), SatResult::Unsat);
  EXPECT_FALSE(S.isProvenUnsat());
  ASSERT_EQ(S.failedAssumptions().size(), 1u);
  EXPECT_EQ(S.failedAssumptions()[0], G1);
  uint64_t LearntAfterQ1 = S.stats().LearntClauses;
  EXPECT_GT(LearntAfterQ1, 0u);

  // Retire query 1; its clauses are permanently satisfied.
  EXPECT_TRUE(S.addClause({~G1}));

  // Query 2 on the same solver sees the learnt DB from query 1.
  Lit G2(S.newVar(), false);
  S.addClause({~G2, P(0, 0)});
  Lit Q2[] = {G2};
  EXPECT_EQ(S.solve(Q2), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(P(0, 0).var()));
  EXPECT_EQ(S.stats().AssumptionSolves, 2u);
  EXPECT_GT(S.stats().ReusedLearnts, 0u);

  // The whole instance (guards free) is still satisfiable.
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(Incremental, RandomAssumptionSolvesAgreeWithBruteForce) {
  // solve(assumptions) must equal solving F + assumption units from
  // scratch — across repeated queries on one persistent solver.
  RNG Rng(424242);
  for (int Trial = 0; Trial < 40; ++Trial) {
    unsigned NumVars = 4 + (unsigned)Rng.below(7); // 4..10
    unsigned NumClauses = (unsigned)(NumVars * 4);
    CnfFormula F;
    F.NumVars = NumVars;
    for (unsigned C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));
      F.Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    loadCnf(S, F);
    if (S.isProvenUnsat())
      continue;
    for (int Query = 0; Query < 8; ++Query) {
      unsigned NumAssumps = 1 + (unsigned)Rng.below(NumVars / 2);
      std::vector<Lit> Assumps;
      for (unsigned I = 0; I != NumAssumps; ++I)
        Assumps.push_back(Lit((Var)Rng.below(NumVars), Rng.chance(1, 2)));

      CnfFormula WithUnits = F;
      for (Lit L : Assumps)
        WithUnits.Clauses.push_back({L});
      bool Expected = bruteForceSat(WithUnits);

      SatResult R = S.solve(Assumps);
      ASSERT_EQ(R, Expected ? SatResult::Sat : SatResult::Unsat)
          << "trial " << Trial << " query " << Query;
      if (R == SatResult::Sat) {
        expectModelSatisfies(S, F);
        for (Lit L : Assumps)
          EXPECT_NE(S.modelValue(L.var()), L.negated())
              << "model violates an assumption";
      } else if (S.isProvenUnsat()) {
        // CDCL may prove the base formula root-unsat mid-query; that is
        // only sound if F really is unsatisfiable on its own.
        EXPECT_FALSE(bruteForceSat(F));
      } else {
        // The failed subset must itself be a refutation core.
        CnfFormula Core = F;
        for (Lit L : S.failedAssumptions())
          Core.Clauses.push_back({L});
        EXPECT_FALSE(bruteForceSat(Core))
            << "failed-assumption set is not a core";
      }
    }
  }
}

TEST(Incremental, ExportCnfRoundTripsThroughDimacs) {
  // Solve guarded PHP(6,5) to grow a learnt DB, export with the learnt
  // clauses, round-trip through DIMACS text, and check the exported
  // problem clauses alone reproduce the verdicts.
  const int Pigeons = 6, Holes = 5;
  SatSolver S;
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  Lit G1(S.newVar(), false);
  auto P = [&](int Pigeon, int Hole) {
    return Lit(Pigeon * Holes + Hole, false);
  };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    std::vector<Lit> Clause{~G1};
    for (int Hole = 0; Hole < Holes; ++Hole)
      Clause.push_back(P(Pigeon, Hole));
    S.addClause(Clause);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.addClause({~G1, ~P(A, Hole), ~P(B, Hole)});
  Lit Q1[] = {G1};
  ASSERT_EQ(S.solve(Q1), SatResult::Unsat);

  CnfFormula Exported = S.exportCnf(/*IncludeLearnt=*/true);
  EXPECT_EQ(Exported.NumVars, S.numVars());
  EXPECT_EQ(Exported.LearntClauses.size(), S.numLearnts());
  EXPECT_GT(Exported.LearntClauses.size(), 0u);

  auto Reparsed = parseDimacs(writeDimacs(Exported, /*IncludeLearnt=*/true));
  ASSERT_TRUE(Reparsed.has_value());
  EXPECT_EQ(Reparsed->Clauses, Exported.Clauses);
  EXPECT_EQ(Reparsed->LearntClauses, Exported.LearntClauses);

  // The exported problem clauses are the same instance: unsat under {G1}
  // even with the learnt DB loaded as ordinary (implied) clauses.
  SatSolver S2;
  loadCnf(S2, *Reparsed);
  for (const auto &Clause : Reparsed->LearntClauses)
    S2.addClause(Clause);
  EXPECT_EQ(S2.solve(Q1), SatResult::Unsat);
  EXPECT_EQ(S2.solve(), SatResult::Sat);
}

} // namespace
