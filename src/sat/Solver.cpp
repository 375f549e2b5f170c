//===- sat/Solver.cpp - CDCL SAT solver -------------------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "sat/Dimacs.h"
#include "support/Stopwatch.h"

#include <algorithm>

using namespace mba;
using namespace mba::sat;

SatSolver::SatSolver() : Order(Activity) {}

Var SatSolver::newVar() {
  Var V = (Var)Assigns.size();
  Assigns.push_back(LBool::Undef);
  SavedPhase.push_back(0);
  Level.push_back(0);
  Reason.push_back(InvalidClause);
  Activity.push_back(0.0);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  Order.insert(V);
  return V;
}

bool SatSolver::addClause(std::span<const Lit> Lits) {
  assert(decisionLevel() == 0 && "clauses are added at the root level");
  if (ProvenUnsat)
    return false;
  ++Stats.ClausesAdded;

  // Simplify: sort, dedupe, drop root-false literals, detect tautologies
  // and root-satisfied clauses.
  std::vector<Lit> &Final = AddScratch;
  Final.assign(Lits.begin(), Lits.end());
  std::sort(Final.begin(), Final.end());
  Final.erase(std::unique(Final.begin(), Final.end()), Final.end());
  size_t Kept = 0;
  for (size_t I = 0; I != Final.size(); ++I) {
    Lit L = Final[I];
    if (I + 1 < Final.size() && Final[I + 1] == ~L)
      return true; // tautology: x | ~x
    LBool V = value(L);
    if (V == LBool::True)
      return true; // already satisfied at root
    if (V == LBool::False)
      continue; // root-false literal drops out
    Final[Kept++] = L;
  }
  Final.resize(Kept);

  if (Final.empty()) {
    ProvenUnsat = true;
    return false;
  }
  if (Final.size() == 1) {
    enqueue(Final[0], InvalidClause);
    if (propagate() != InvalidClause) {
      ProvenUnsat = true;
      return false;
    }
    return true;
  }

  attachClause(Clauses.alloc(Final, /*Learnt=*/false, 0.0));
  return true;
}

void SatSolver::attachClause(ClauseRef Ref) {
  Clause C = Clauses[Ref];
  assert(C.size() >= 2 && "cannot watch a unit clause");
  Watches[C[0].code()].push_back({Ref, C[1]});
  Watches[C[1].code()].push_back({Ref, C[0]});
}

void SatSolver::enqueue(Lit L, ClauseRef From) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Var V = L.var();
  Assigns[V] = lboolFromBool(!L.negated());
  Level[V] = decisionLevel();
  Reason[V] = From;
  Trail.push_back(L);
}

ClauseRef SatSolver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++]; // P just became true
    ++Stats.Propagations;
    Lit NotP = ~P;
    std::vector<Watcher> &WList = Watches[NotP.code()];
    size_t I = 0, J = 0;
    while (I < WList.size()) {
      Watcher W = WList[I];
      // Blocker fast path: clause already satisfied.
      if (value(W.Blocker) == LBool::True) {
        WList[J++] = WList[I++];
        continue;
      }
      // Deletion always compacts the arena and rebuilds the watch lists,
      // so every watcher names a live clause.
      Clause C = Clauses[W.Ref];
      // Normalize so the falsified watched literal sits at index 1.
      if (C[0] == NotP)
        C.swapLits(0, 1);
      assert(C[1] == NotP && "watcher desynchronized");
      ++I;
      if (value(C[0]) == LBool::True) {
        WList[J++] = {W.Ref, C[0]};
        continue;
      }
      // Look for a replacement watch.
      bool FoundWatch = false;
      for (uint32_t K = 2, Size = C.size(); K < Size; ++K) {
        if (value(C[K]) != LBool::False) {
          C.swapLits(1, K);
          Watches[C[1].code()].push_back({W.Ref, C[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting under the current assignment.
      WList[J++] = {W.Ref, C[0]};
      if (value(C[0]) == LBool::False) {
        // Conflict: compact the remaining watchers and bail out.
        while (I < WList.size())
          WList[J++] = WList[I++];
        WList.resize(J);
        PropagateHead = (uint32_t)Trail.size();
        return W.Ref;
      }
      enqueue(C[0], W.Ref);
    }
    WList.resize(J);
  }
  return InvalidClause;
}

namespace {
uint32_t abstractLevelBit(unsigned Level) { return 1u << (Level & 31); }
} // namespace

void SatSolver::analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
                        unsigned &BacktrackLevel) {
  Learnt.clear();
  Learnt.push_back(Lit()); // slot for the asserting (first-UIP) literal

  unsigned Counter = 0;
  Lit P; // invalid on the first iteration
  size_t Index = Trail.size();
  ClauseRef CRef = Conflict;

  do {
    assert(CRef != InvalidClause && "resolving on a decision");
    Clause C = Clauses[CRef];
    if (C.learnt())
      bumpClauseActivity(C);
    for (uint32_t K = P.valid() ? 1 : 0; K < C.size(); ++K) {
      Lit Q = C[K];
      Var V = Q.var();
      if (Seen[V] || Level[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVarActivity(V);
      if (Level[V] >= decisionLevel())
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Walk the trail back to the next marked literal.
    do {
      --Index;
    } while (!Seen[Trail[Index].var()]);
    P = Trail[Index];
    CRef = Reason[P.var()];
    Seen[P.var()] = 0;
    --Counter;
  } while (Counter > 0);
  Learnt[0] = ~P;

  // Conflict-clause minimization by self-subsumption (MiniSat style): a
  // literal is redundant when its reason is covered by the rest of the
  // learnt clause.
  ToClear.assign(Learnt.begin() + 1, Learnt.end());
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I != Learnt.size(); ++I)
    AbstractLevels |= abstractLevelBit(Level[Learnt[I].var()]);
  size_t NewSize = 1;
  for (size_t I = 1; I != Learnt.size(); ++I) {
    Lit L = Learnt[I];
    bool Redundant = false;
    if (Reason[L.var()] != InvalidClause) {
      // Track Seen marks added during the redundancy check for cleanup.
      size_t MarkBase = ToClear.size();
      AnalyzeStack.assign(1, L);
      Redundant = true;
      while (!AnalyzeStack.empty() && Redundant) {
        Lit Q = AnalyzeStack.back();
        AnalyzeStack.pop_back();
        Clause RC = Clauses[Reason[Q.var()]];
        for (uint32_t K = 1; K < RC.size(); ++K) {
          Lit R = RC[K];
          Var V = R.var();
          if (Seen[V] || Level[V] == 0)
            continue;
          if (Reason[V] != InvalidClause &&
              (abstractLevelBit(Level[V]) & AbstractLevels)) {
            Seen[V] = 1;
            ToClear.push_back(R);
            AnalyzeStack.push_back(R);
          } else {
            Redundant = false;
            break;
          }
        }
      }
      if (!Redundant) {
        for (size_t Z = MarkBase; Z < ToClear.size(); ++Z)
          Seen[ToClear[Z].var()] = 0;
        ToClear.resize(MarkBase);
      }
    }
    if (!Redundant)
      Learnt[NewSize++] = L;
  }
  Learnt.resize(NewSize);

  // Backtrack level: the second-highest decision level in the clause; move
  // that literal to index 1 so it is watched.
  if (Learnt.size() == 1) {
    BacktrackLevel = 0;
  } else {
    size_t MaxIndex = 1;
    for (size_t I = 2; I != Learnt.size(); ++I)
      if (Level[Learnt[I].var()] > Level[Learnt[MaxIndex].var()])
        MaxIndex = I;
    std::swap(Learnt[1], Learnt[MaxIndex]);
    BacktrackLevel = Level[Learnt[1].var()];
  }

  for (Lit L : ToClear)
    Seen[L.var()] = 0;
  Seen[Learnt[0].var()] = 0;
}

void SatSolver::backtrack(unsigned ToLevel) {
  if (decisionLevel() <= ToLevel)
    return;
  uint32_t Bound = TrailLim[ToLevel];
  for (size_t I = Trail.size(); I-- > Bound;) {
    Var V = Trail[I].var();
    SavedPhase[V] = Assigns[V] == LBool::True;
    Assigns[V] = LBool::Undef;
    Reason[V] = InvalidClause;
    Order.insert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(ToLevel);
  PropagateHead = Bound;
}

Lit SatSolver::pickBranchLit() {
  while (!Order.empty()) {
    Var V = Order.removeMax();
    if (Assigns[V] == LBool::Undef)
      return Lit(V, !SavedPhase[V]); // phase saving
  }
  return Lit(); // fully assigned: model found
}

void SatSolver::bumpVarActivity(Var V) {
  Activity[V] += VarActivityInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarActivityInc *= 1e-100;
    Order.rebuild();
  }
  Order.increased(V);
}

void SatSolver::bumpClauseActivity(Clause C) {
  C.setActivity(C.activity() + ClauseActivityInc);
  if (C.activity() > 1e20) {
    for (ClauseRef R = 0; R != Clauses.end(); R = Clauses.next(R)) {
      Clause Other = Clauses[R];
      if (Other.learnt())
        Other.setActivity(Other.activity() * 1e-20);
    }
    ClauseActivityInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  VarActivityInc /= 0.95;
  ClauseActivityInc /= 0.999;
}

void SatSolver::reduceLearntDB() {
  // Restart first: rebuilding watch lists blindly on lits[0]/lits[1] is
  // only invariant-preserving when nothing beyond the root level is
  // assigned (a clause whose first two literals are already false would
  // otherwise never be revisited and could silently stay violated in a
  // "model").
  backtrack(0);

  // Collect deletable learnt clauses (not currently a reason).
  std::vector<ClauseRef> Candidates;
  for (ClauseRef R = 0; R != Clauses.end(); R = Clauses.next(R)) {
    Clause C = Clauses[R];
    if (C.learnt() && !C.deleted() && C.size() > 2 && !locked(R))
      Candidates.push_back(R);
  }
  std::sort(Candidates.begin(), Candidates.end(),
            [&](ClauseRef A, ClauseRef B) {
              return Clauses[A].activity() < Clauses[B].activity();
            });
  size_t ToDelete = Candidates.size() / 2;
  for (size_t I = 0; I != ToDelete; ++I) {
    Clauses[Candidates[I]].markDeleted();
    ++Stats.DeletedClauses;
    --LearntCount;
  }
  MaxLearnt = MaxLearnt + MaxLearnt / 4;
  compactClauses(/*StripRootFalse=*/false);
}

bool SatSolver::simplify() {
  assert(decisionLevel() == 0 && "simplify only at the root level");
  if (ProvenUnsat)
    return false;
  if (propagate() != InvalidClause) {
    ProvenUnsat = true;
    return false;
  }

  // Reason clauses of root assignments stay untouched (same locking rule
  // as reduceLearntDB); they are few and already satisfied.
  for (ClauseRef R = 0; R != Clauses.end(); R = Clauses.next(R)) {
    Clause C = Clauses[R];
    if (C.deleted() || locked(R))
      continue;
    for (uint32_t K = 0; K != C.size(); ++K)
      if (value(C[K]) == LBool::True) {
        if (C.learnt())
          --LearntCount;
        C.markDeleted();
        ++Stats.SimplifiedClauses;
        break;
      }
  }
  compactClauses(/*StripRootFalse=*/true);

  // Learnt-DB reductions relax MaxLearnt by 25% each time so a single hard
  // query can keep what it learns; between queries, fall back toward the
  // configured limit so the database cannot ratchet up forever.
  MaxLearnt = std::max(BaseMaxLearnt, LearntCount + BaseMaxLearnt / 4);
  return true;
}

void SatSolver::compactClauses(bool StripRootFalse) {
  assert(decisionLevel() == 0 && "compaction only at the root level");
  ClauseRef To = 0;
  for (ClauseRef From = 0, End = Clauses.end(); From != End;) {
    ClauseRef Next = Clauses.next(From);
    if (Clauses[From].deleted()) {
      From = Next;
      continue;
    }
    bool Locked = locked(From);
    // Offsets only shrink, so a remapped reason can never equal the offset
    // of a clause this loop has yet to visit.
    if (Locked)
      Reason[Clauses[From][0].var()] = To;
    // Root-false literals can never help again; stripping them keeps the
    // watch lists dense. At the propagation fixpoint an unsatisfied clause
    // has >= 2 unassigned literals, so it stays watchable.
    bool Strip = StripRootFalse && !Locked;
    ClauseRef At = To;
    To = Clauses.moveDown(From, To, [&](Lit L) {
      return !Strip || value(L) != LBool::False;
    });
    assert(Clauses[At].size() >= 2 && "clause shrank below two literals");
    (void)At;
    From = Next;
  }
  Clauses.truncate(To);
  rebuildWatches();
}

void SatSolver::rebuildWatches() {
  for (auto &WList : Watches)
    WList.clear();
  for (ClauseRef R = 0; R != Clauses.end(); R = Clauses.next(R))
    attachClause(R);
}

uint64_t SatSolver::luby(uint64_t I) {
  // Finite-subsequence Luby: find the subsequence containing index I.
  uint64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I = I % Size;
  }
  return 1ULL << Seq;
}

void SatSolver::analyzeFinal(Lit FailedAssumption) {
  // FailedAssumption is an assumption literal whose negation the solver
  // derived from clauses plus earlier assumption decisions. Walk the
  // implication graph backwards from its variable; every assumption
  // *decision* reached (reason == InvalidClause at level > 0 — inside the
  // assumption prefix only assumptions are decisions) belongs to the
  // refuted subset.
  FailedAssumptions.clear();
  FailedAssumptions.push_back(FailedAssumption);
  if (decisionLevel() == 0)
    return;
  Seen[FailedAssumption.var()] = 1;
  for (size_t I = Trail.size(); I-- > TrailLim[0];) {
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    if (Reason[V] == InvalidClause) {
      assert(Level[V] > 0 && "decision at the root level");
      // Trail[I] can share FailedAssumption's variable but never equals it
      // (FailedAssumption is false): contradictory assumptions {x, ~x}
      // report both polarities.
      FailedAssumptions.push_back(Trail[I]);
    } else {
      Clause C = Clauses[Reason[V]];
      for (uint32_t K = 1; K < C.size(); ++K)
        if (Level[C[K].var()] > 0)
          Seen[C[K].var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[FailedAssumption.var()] = 0;
}

CnfFormula SatSolver::exportCnf(bool IncludeLearnt) const {
  assert(decisionLevel() == 0 && "export only at the root level");
  CnfFormula F;
  F.NumVars = numVars();
  // Root-implied units first (addClause enqueues units instead of storing
  // them, and level-0 propagation adds more).
  for (Lit L : Trail)
    F.Clauses.push_back({L});
  for (ClauseRef R = 0; R != Clauses.end(); R = Clauses.next(R)) {
    ConstClause C = Clauses[R];
    if (C.learnt() && !IncludeLearnt)
      continue;
    std::vector<Lit> Lits(C.size());
    for (uint32_t K = 0; K != C.size(); ++K)
      Lits[K] = C[K];
    (C.learnt() ? F.LearntClauses : F.Clauses).push_back(std::move(Lits));
  }
  return F;
}

SatResult SatSolver::solve(const Budget &Limits) {
  return solve(std::span<const Lit>(), Limits);
}

SatResult SatSolver::solve(std::span<const Lit> Assumptions,
                           const Budget &Limits) {
  ++Stats.Solves;
  if (!Assumptions.empty())
    ++Stats.AssumptionSolves;
  Stats.ReusedLearnts += LearntCount;
  FailedAssumptions.clear();
  if (ProvenUnsat)
    return SatResult::Unsat;
  assert(decisionLevel() == 0 && "solve starts at the root level");
  Stopwatch Timer;

  if (propagate() != InvalidClause) {
    ProvenUnsat = true;
    return SatResult::Unsat;
  }

  uint64_t ConflictBudgetStart = Stats.Conflicts;
  uint64_t PropagationBudgetStart = Stats.Propagations;
  std::vector<Lit> Learnt;

  for (uint64_t RestartNum = 0;; ++RestartNum) {
    uint64_t RestartLimit = 64 * luby(RestartNum);
    uint64_t ConflictsThisRestart = 0;
    ++Stats.Restarts;

    for (;;) {
      ClauseRef Conflict = propagate();
      if (Conflict != InvalidClause) {
        ++Stats.Conflicts;
        ++ConflictsThisRestart;
        if (decisionLevel() == 0) {
          ProvenUnsat = true;
          return SatResult::Unsat;
        }

        unsigned BtLevel = 0;
        analyze(Conflict, Learnt, BtLevel);
        backtrack(BtLevel);

        if (Learnt.size() == 1) {
          enqueue(Learnt[0], InvalidClause);
        } else {
          ClauseRef Ref =
              Clauses.alloc(Learnt, /*Learnt=*/true, ClauseActivityInc);
          attachClause(Ref);
          ++Stats.LearntClauses;
          ++LearntCount;
          enqueue(Learnt[0], Ref);
        }
        decayActivities();

        // Budget checks on conflict boundaries.
        if (Stats.Conflicts - ConflictBudgetStart >= Limits.MaxConflicts ||
            Stats.Propagations - PropagationBudgetStart >=
                Limits.MaxPropagations) {
          backtrack(0);
          return SatResult::Unknown;
        }
        // The clock is read every 64th conflict of this call: counting
        // per restart would skip every Luby restart shorter than the
        // stride, and those are most of them.
        if (((Stats.Conflicts - ConflictBudgetStart) & 63) == 0 &&
            Timer.seconds() > Limits.MaxSeconds) {
          backtrack(0);
          return SatResult::Unknown;
        }

        if (LearntCount >= MaxLearnt)
          reduceLearntDB();
        if (ConflictsThisRestart >= RestartLimit) {
          backtrack(0);
          break; // restart
        }
      } else {
        // Budgets are also enforced on decision boundaries so that
        // conflict-free instances (pure propagation chains) terminate.
        if (Stats.Conflicts - ConflictBudgetStart >= Limits.MaxConflicts ||
            Stats.Propagations - PropagationBudgetStart >=
                Limits.MaxPropagations) {
          backtrack(0);
          return SatResult::Unknown;
        }
        // Re-establish the assumption prefix: assumption i is the decision
        // of level i+1 (restarts retract it; this loop puts it back).
        Lit Next = Lit();
        while (decisionLevel() < Assumptions.size()) {
          Lit A = Assumptions[decisionLevel()];
          if (value(A) == LBool::True) {
            // Already implied: dummy level keeps the level<->index map.
            TrailLim.push_back((uint32_t)Trail.size());
          } else if (value(A) == LBool::False) {
            // Refuted under the earlier assumptions: report the subset used
            // and leave the instance usable (NOT proven unsat).
            analyzeFinal(A);
            backtrack(0);
            return SatResult::Unsat;
          } else {
            Next = A;
            break;
          }
        }
        if (!Next.valid()) {
          Next = pickBranchLit();
          if (!Next.valid()) {
            // Model found.
            Model.resize(Assigns.size());
            for (Var V = 0; V != Assigns.size(); ++V)
              Model[V] = Assigns[V] == LBool::True;
            backtrack(0);
            return SatResult::Sat;
          }
          ++Stats.Decisions;
        }
        TrailLim.push_back((uint32_t)Trail.size());
        enqueue(Next, InvalidClause);
      }
    }
  }
}
