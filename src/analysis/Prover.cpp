//===- analysis/Prover.cpp - Static equivalence prover --------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Prover.h"

#include "analysis/AbstractInterp.h"
#include "analysis/EGraph.h"
#include "support/QueryLog.h"

#include <array>
#include <optional>
#include <vector>

using namespace mba;

const char *mba::proveOutcomeName(ProveOutcome O) {
  switch (O) {
  case ProveOutcome::Proved: return "proved";
  case ProveOutcome::Refuted: return "refuted";
  case ProveOutcome::Unknown: return "unknown";
  }
  return "?";
}

namespace {

/// An e-matching environment: pattern-variable dense index -> e-class.
constexpr EClassId Unbound = ~(EClassId)0;
constexpr size_t NumKinds = (size_t)ExprKind::Xor + 1;
using Env = std::vector<EClassId>;

/// A non-owning reference to a `bool()` continuation: what to do with each
/// completed match of a sub-pattern. Returning false stops the enumeration.
class Continuation {
public:
  template <class Fn>
  Continuation(const Fn &F)
      : Obj(&F), Call([](const void *O) {
          return (*static_cast<const Fn *>(O))();
        }) {}
  bool operator()() const { return Call(Obj); }

private:
  const void *Obj;
  bool (*Call)(const void *);
};

/// A continuation-passing e-matcher over one environment: it binds pattern
/// variables in place, hands each completed environment to the
/// continuation, and unbinds on the way out, so matching allocates nothing.
/// Matches come in the order classes list their nodes, a binary node's lhs
/// operand before its rhs. Patterns live in the rule set's pattern context;
/// constants match the pattern value truncated to the e-graph's width.
class Matcher {
public:
  Matcher(const EGraph &G, Env &E) : G(G), E(E) {}

  /// Matches operator pattern \p P against e-node \p N.
  bool matchNode(const Expr *P, const ENode &N, Continuation Then) {
    if (isUnaryKind(N.Kind))
      return match(P->operand(), N.Lhs, Then);
    auto MatchRhs = [&] { return match(P->rhs(), N.Rhs, Then); };
    return match(P->lhs(), N.Lhs, MatchRhs);
  }

  /// Matches pattern \p P against class \p Cls.
  bool match(const Expr *P, EClassId Cls, Continuation Then) {
    Cls = G.find(Cls);
    switch (P->kind()) {
    case ExprKind::Var: {
      EClassId &Slot = E[P->varIndex()];
      if (Slot != Unbound)
        return G.find(Slot) != Cls || Then();
      Slot = Cls;
      bool Continue = Then();
      Slot = Unbound;
      return Continue;
    }
    case ExprKind::Const: {
      std::optional<uint64_t> C = G.constantOf(Cls);
      return !C || *C != G.context().truncate(P->constValue()) || Then();
    }
    default:
      for (const ENode &N : G.nodesOfKind(Cls, P->kind()))
        if (!matchNode(P, N, Then))
          return false;
      return true;
    }
  }

private:
  const EGraph &G;
  Env &E;
};

/// Instantiates pattern \p P under the bindings \p E into the e-graph.
EClassId instantiate(EGraph &G, const Expr *P, const EClassId *E) {
  switch (P->kind()) {
  case ExprKind::Var:
    assert(E[P->varIndex()] != Unbound && "rhs variable unbound by lhs");
    return E[P->varIndex()];
  case ExprKind::Const:
    return G.addConst(P->constValue()); // addConst truncates to the width
  case ExprKind::Not:
  case ExprKind::Neg:
    return G.addNode(P->kind(), instantiate(G, P->operand(), E));
  default:
    return G.addNode(P->kind(), instantiate(G, P->lhs(), E),
                     instantiate(G, P->rhs(), E));
  }
}

/// One pending rewrite: class \p Where equals \p Rhs instantiated under
/// the bindings stored at \p Binding in the round's binding pool.
struct PendingMerge {
  EClassId Where;
  const Expr *Rhs;
  size_t Binding;
};

/// Runs one saturation round: e-matches every certified rule (both
/// directions for bidirectional rules) against every class, then applies
/// all merges and rebuilds. Returns true when the e-graph changed.
bool saturateRound(EGraph &G, const RuleSet &Rules, const ProveBudget &Budget,
                   ProveStats &Stats) {
  // Cached count, not patternContext().numVars(): the rule set is shared
  // across worker threads, and the pattern context's accessors are pinned
  // to the thread that first built certifiedRules().
  unsigned NumPatVars = Rules.numPatternVars();
  // The round's e-nodes by operator kind, in class-id then node order: a
  // rule's root is matched only against e-nodes of its kind.
  std::array<std::vector<std::pair<EClassId, ENode>>, NumKinds> ByKind;
  for (EClassId Cls : G.canonicalClasses())
    for (const ENode &N : G.nodesOf(Cls))
      ByKind[(size_t)N.Kind].push_back({Cls, N});
  std::vector<PendingMerge> Pending;
  std::vector<EClassId> Bindings; // NumPatVars entries per pending merge
  Env E(NumPatVars, Unbound);
  Matcher M(G, E);
  auto MatchRule = [&](const Expr *Lhs, const Expr *Rhs) {
    // Leaf-pattern LHS would merge every class into one; the table has no
    // such rule, but guard custom sets.
    if (Lhs->isLeaf() || Budget.MaxMatchesPerRule == 0)
      return;
    size_t Found = 0;
    EClassId Where = 0;
    auto Record = [&] {
      Pending.push_back({Where, Rhs, Bindings.size()});
      Bindings.insert(Bindings.end(), E.begin(), E.end());
      return ++Found < Budget.MaxMatchesPerRule;
    };
    for (const auto &[Cls, N] : ByKind[(size_t)Lhs->kind()]) {
      Where = Cls;
      if (!M.matchNode(Lhs, N, Record))
        break;
    }
  };
  // Per-rule attribution (flight recorder + rule-attribution registry):
  // e-matching dominates saturation cost, so time each rule's match pass
  // and count the environments it produced. Only rules that matched are
  // recorded — unmatched rules' time stays in the stage-0 aggregate. Gated so the undisturbed pipeline pays one relaxed load.
  bool Attribute = querylog::attributing();
  for (const EqualityRule &R : Rules.rules()) {
    if (R.Certified == CertMethod::Uncertified)
      continue; // only certified rules may touch the e-graph
    size_t PendingBefore = Pending.size();
    uint64_t MatchStart = Attribute ? telemetry::nowNs() : 0;
    MatchRule(R.Lhs, R.Rhs);
    if (R.Bidirectional)
      MatchRule(R.Rhs, R.Lhs);
    if (Attribute) {
      size_t Fires = Pending.size() - PendingBefore;
      if (Fires)
        querylog::noteRule("egraph." + R.Name, Fires,
                           telemetry::nowNs() - MatchStart, 0, 0);
    }
  }
  bool Changed = false;
  for (const PendingMerge &P : Pending) {
    if (G.numNodes() >= Budget.MaxENodes)
      break;
    EClassId RhsCls = instantiate(G, P.Rhs, Bindings.data() + P.Binding);
    Changed |= G.merge(P.Where, RhsCls);
    ++Stats.Matches;
  }
  G.rebuild();
  return Changed;
}

void fillStats(const EGraph &G, ProveStats &Stats) {
  Stats.ENodes = G.numNodes();
  Stats.EClasses = G.numClasses();
  Stats.Merges = G.numMerges();
}

} // namespace

Prover::Prover(Context &Ctx, const RuleSet *Rules)
    : Ctx(Ctx), Rules(Rules ? Rules : &certifiedRules()) {}

ProveResult Prover::prove(const Expr *A, const Expr *B,
                          const ProveBudget &Budget) {
  static const querylog::StageDef ProveStage{"prover.prove", nullptr,
                                             "prover.queries"};
  querylog::Stage Stage(ProveStage);
  ProveResult Result;
  if (A == B) { // hash-consing: pointer equality is structural equality
    Result.Outcome = ProveOutcome::Proved;
    Result.Detail = "syntactic";
    return Result;
  }
  if (std::optional<Refutation> R = refuteEquivalence(Ctx, A, B)) {
    Result.Outcome = ProveOutcome::Refuted;
    Result.Detail = R->Domain + ": " + R->Detail;
    return Result;
  }
  EGraph G(Ctx);
  EClassId CA = G.addExpr(A), CB = G.addExpr(B);
  G.rebuild();
  if (G.sameClass(CA, CB)) {
    Result.Outcome = ProveOutcome::Proved;
    Result.Detail = "congruence";
    fillStats(G, Result.Stats);
    return Result;
  }
  for (unsigned Iter = 0; Iter != Budget.MaxIterations; ++Iter) {
    bool Changed = saturateRound(G, *Rules, Budget, Result.Stats);
    ++Result.Stats.Iterations;
    if (G.sameClass(CA, CB)) {
      Result.Outcome = ProveOutcome::Proved;
      Result.Detail =
          "saturation, " + std::to_string(Result.Stats.Iterations) + " round" +
          (Result.Stats.Iterations == 1 ? "" : "s");
      fillStats(G, Result.Stats);
      return Result;
    }
    if (!Changed || G.numNodes() >= Budget.MaxENodes)
      break; // saturated or out of budget
  }
  Result.Outcome = ProveOutcome::Unknown;
  Result.Detail = "budget exhausted";
  fillStats(G, Result.Stats);
  return Result;
}

ProveResult mba::proveEquivalence(Context &Ctx, const Expr *A, const Expr *B,
                                  const ProveBudget &Budget) {
  return Prover(Ctx).prove(A, B, Budget);
}
