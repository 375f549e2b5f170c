//===- mba/Simplifier.cpp - The MBA-Solver simplification engine ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/Simplifier.h"

#include "analysis/AbstractInterp.h"
#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Printer.h"
#include "linalg/TruthTable.h"
#include "mba/BooleanMin.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Signature.h"
#include "mba/SimplifyCache.h"
#include "poly/PolyExpr.h"
#include "support/QueryLog.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace mba;

namespace {

/// Recursion budget for re-simplification of substituted results.
constexpr unsigned MaxDepth = 16;

/// Folds every option that can change the simplifier's output into one
/// word, so differently-configured solvers sharing a SimplifyCache can
/// never alias each other's result-layer entries.
uint64_t optionsFingerprint(const SimplifyOptions &O) {
  uint64_t H = hashMix64(0x51312c1f1e5ULL);
  auto Add = [&H](uint64_t V) { H = hashCombine64(H, V); };
  Add((uint64_t)O.Basis);
  Add(O.AutoBasis);
  Add(O.MaxSignatureVars);
  Add(O.EnableCSE);
  Add(O.EnableFinalOpt);
  Add(O.EnableKnownBits);
  Add((bool)O.SynthFallback);
  return H;
}

// The simplifier's stages. The Algorithm 1 paths count their runs in
// SimplifyStats, which simplify() publishes once per call.
const querylog::StageDef SimplifyStage{"simplify", nullptr, "simplify.calls"};
const querylog::StageDef ClassifyInputStage{"simplify.classify", "classify"};
const querylog::StageDef AbstractFoldStage{"simplify.abstract_fold",
                                           "abstract-fold"};
const querylog::StageDef FinalOptStage{"simplify.finalopt", "final-opt"};
const querylog::StageDef LinearStage{"simplify.linear", "linear-signature"};
const querylog::StageDef PolyStage{"simplify.poly", "poly-normalize"};
const querylog::StageDef NonPolyStage{"simplify.nonpoly",
                                      "nonpoly-abstraction"};

const telemetry::NamedCounter RunCounters[] = {
    "simplify.linear_runs", "simplify.poly_runs", "simplify.nonpoly_runs"};

} // namespace

MBASolver::MBASolver(Context &Ctx, SimplifyOptions Opts)
    : Ctx(Ctx), Opts(Opts), OptionsFp(optionsFingerprint(this->Opts)) {}

void MBASolver::note(const char *Rule, const Expr *Before, const Expr *After,
                     uint64_t Ns) {
  // Rule attribution counts actual fires — a pass that ran but returned
  // its input is stage time, not a rule application.
  if (Before == After || !*Rule)
    return;
  if (querylog::attributing())
    querylog::noteRule(Rule, 1, Ns, countDagNodes(Before),
                       countDagNodes(After));
}

const Expr *MBASolver::simplify(const Expr *E) {
  static telemetry::Histogram &DurationNs =
      telemetry::histogram("simplify.duration_ns");
  uint64_t Ns = 0;
  querylog::Stage Top(SimplifyStage, &Ns, /*AlwaysTimed=*/true);
  const SimplifyStats Before = Stats;

  // Flight recorder: one record per top-level simplify query. Purely
  // observational — nothing below branches on whether recording is on, so
  // logged and unlogged runs stay bit-identical (pinned by harness_test).
  querylog::QueryScope LogScope("simplify");
  querylog::Record *QR = querylog::active();
  if (QR)
    QR->num("width", Ctx.width());
  auto Finish = [&](const Expr *Result, const char *ResultCache) {
    Top.end();
    Stats.Seconds += (double)Ns * 1e-9;
    DurationNs.record(Ns);
    telemetry::publish(RunCounters,
                       {Stats.LinearRuns - Before.LinearRuns,
                        Stats.PolyRuns - Before.PolyRuns,
                        Stats.NonPolyRuns - Before.NonPolyRuns});
    if (!QR)
      return Result;
    QR->str("result_cache", ResultCache);
    QR->fingerprint("fp_out", exprFingerprint(Result));
    // Simplifier-side cache events during this query (result + linear +
    // basis layers share the counters; the early-return hit path makes
    // "hit" vs these numbers unambiguous).
    QR->num("cache_hits", Stats.CacheHits - Before.CacheHits);
    QR->num("cache_misses", Stats.CacheMisses - Before.CacheMisses);
    return Result;
  };

  // Structural result layer of the shared cache: keyed on the input's
  // fingerprint (not its semantics — the alternation guard below makes the
  // output depend on the input's *form*, so semantic keying would break
  // bit-identity). Suspended while a synthesis fallback is attached (see
  // SimplifyOptions::SharedCache). A hit records only O(1) fields: no walk
  // of the input or the output.
  SimplifyCache *SC =
      Opts.EnableCache && !Opts.SynthFallback ? Opts.SharedCache : nullptr;
  uint64_t ResultKey = 0;
  uint64_t InputFp = exprFingerprint(E);
  if (QR)
    QR->fingerprint("fp_in", InputFp);
  if (SC) {
    ResultKey = hashCombine64(hashCombine64(hashMix64(Ctx.mask()), OptionsFp),
                              InputFp);
    if (const Expr *Hit = SC->lookupResult(ResultKey, Ctx)) {
      ++Stats.CacheHits;
      return Finish(Hit, "hit");
    }
  }
  if (QR) {
    QR->num("nodes_in", countDagNodes(E));
    QR->num("alt_in", mbaAlternation(E));
    querylog::Stage Classify(ClassifyInputStage);
    QR->str("class", mbaKindName(classifyMBA(Ctx, E)));
  }
  // Per-call state, built only on a miss: temp numbering restarts at zero
  // and may only avoid the *input's* variable names, and the rewrite memo
  // is scoped to this call. Both make the output a function of the input
  // expression alone — a solver that processed other expressions first (a
  // reused serial solver, a thread-pool worker with its private memo)
  // produces the same form a fresh solver would, which is what lets the
  // parallel study and the shared caches promise bit-identical expressions,
  // not just verdicts. (Cross-call reuse isn't lost: the schedule-independent
  // semantic caches below replace what the cross-call memo used to provide.)
  NextTempId = 0;
  ResultMemo.clear();
  FactsMemo.clear();
  AltMemo.clear();
  VarMemo.clear();
  InputVars = VarMemo.variables(E);

  const Expr *R = E;
  if (Opts.EnableKnownBits) {
    // Multi-domain constant folding (known bits + parity + intervals);
    // strictly stronger than the original known-bits-only pre-pass.
    uint64_t FoldNs = 0;
    {
      querylog::Stage Stage(AbstractFoldStage, &FoldNs);
      R = foldAbstract(Ctx, R);
    }
    note("abstract-fold", E, R, FoldNs);
  }
  R = simplifyRec(R, 0);
  if (Opts.EnableFinalOpt) {
    const Expr *Before = R;
    uint64_t OptNs = 0;
    {
      querylog::Stage Stage(FinalOptStage, &OptNs);
      R = finalOptimize(R);
    }
    note("final-opt", Before, R, OptNs);
  }
  // Never return a form with more bitwise/arithmetic mixing than the
  // input. (Length may grow: the normalized expansion of a factored
  // polynomial is longer but canonical, which is what solvers need.)
  if (mbaAlternation(R, AltMemo) > mbaAlternation(E, AltMemo))
    R = E;

  if (SC)
    SC->insertResult(ResultKey, R);
  if (QR) {
    QR->num("nodes_out", countDagNodes(R));
    QR->num("alt_out", mbaAlternation(R));
  }
  return Finish(R, SC ? "miss" : "off");
}

const Expr *MBASolver::simplifyRec(const Expr *E, unsigned Depth) {
  if (E->isLeaf())
    return E;
  if (Depth > MaxDepth)
    return E;
  if (const Expr *const *Done = ResultMemo.find(E))
    return *Done;

  const Expr *R = E;
  const char *Rule = "";
  StageNs = 0; // set by the path's Stage; a constant fold runs none
  switch (classifyMBA(Ctx, E, FactsMemo)) {
  case MBAKind::Linear: {
    std::vector<const Expr *> Vars = VarMemo.variables(E);
    if (Vars.size() <= Opts.MaxSignatureVars) {
      R = simplifyLinear(E, Vars);
      Rule = "linear-signature";
    } else {
      // Too many variables for a whole-expression signature: the
      // polynomial path normalizes each bitwise atom over its own
      // (smaller) variable set instead.
      R = simplifyPoly(E, Depth);
      Rule = "poly-normalize";
    }
    break;
  }
  case MBAKind::Polynomial:
    R = simplifyPoly(E, Depth);
    Rule = "poly-normalize";
    break;
  case MBAKind::NonPolynomial:
    R = simplifyNonPoly(E, Depth);
    Rule = "nonpoly-abstraction";
    // Residue the abstraction path could not flatten is where the
    // enumerative synthesizer gets its shot. Its results arrive
    // checker-proved (see SimplifyOptions::SynthFallback), and pickBetter
    // keeps the replacement only when it actually improves the form.
    // The bank form is re-canonicalized before installation: the residue
    // was canonicalized over a basis that included its opaque temporaries,
    // so its linear part is *not* the canonical form over the real
    // variables — without this pass, a synthesized side and an untouched
    // side of the same function would meet the equivalence checker as two
    // structurally different (and SAT-hard to relate) canonical forms
    // instead of strash-collapsing.
    if (Opts.SynthFallback && mbaAlternation(R, AltMemo) > 0) {
      if (const Expr *S = Opts.SynthFallback(Ctx, R)) {
        if (Depth < MaxDepth) {
          uint64_t NonPolyNs = StageNs;
          S = simplifyRec(S, Depth + 1);
          StageNs = NonPolyNs;
        }
        const Expr *P = pickBetter(S, R);
        bool Installed = P != R;
        if (Installed) {
          R = P;
          Rule = "synth-fallback";
        }
        // Attribution: the candidate arrived checker-proved; record
        // whether pickBetter installed it or judged it no improvement.
        if (querylog::attributing())
          querylog::noteRuleOutcome("synth-fallback", Installed);
      }
    }
    break;
  }

  if (mbaAlternation(R, AltMemo) > mbaAlternation(E, AltMemo))
    R = E;
  note(Rule, E, R, StageNs);
  ResultMemo.emplace(E, R);
  return R;
}

const Expr *MBASolver::simplifyLinear(const Expr *E,
                                      const std::vector<const Expr *> &Vars) {
  if (Vars.empty())
    // No variables: a constant expression; evaluate it.
    return Ctx.getConst(evaluate(Ctx, E, std::span<const uint64_t>()));
  ++Stats.LinearRuns;
  querylog::Stage Stage(LinearStage, &StageNs);
  std::vector<uint64_t> Sig = computeSignature(Ctx, E, Vars);
  Stats.TransientBytes += Sig.size() * sizeof(uint64_t);

  // Semantic layer of the shared cache: by Theorem 1 the signature (with
  // the variable names and basis options) fully determines the normalized
  // rebuild, so the cached value is a pure function of the key and the hit
  // path is bit-identical to the computing path.
  SimplifyCache *SC = Opts.EnableCache ? Opts.SharedCache : nullptr;
  uint64_t Key = 0;
  if (SC) {
    Key = linearCacheKey(Sig, Vars);
    if (const Expr *Hit = SC->lookupLinear(Key, Ctx)) {
      ++Stats.CacheHits;
      return Hit;
    }
  }
  LinearCombo Combo = normalizedCombo(Sig, Vars, /*AllowAuto=*/true);
  const Expr *R = buildLinearCombination(Ctx, Combo.Terms, Combo.Constant);
  if (SC)
    SC->insertLinear(Key, R);
  return R;
}

uint64_t MBASolver::basisCacheKey(const std::vector<uint64_t> &Sig,
                                  const std::vector<const Expr *> &Vars,
                                  bool Auto) const {
  // Mode tag 0/1 = fixed conjunction/disjunction basis, 2 = auto selection.
  uint64_t H = hashMix64(Ctx.mask());
  H = hashCombine64(H, Auto ? 2 : (uint64_t)Opts.Basis);
  H = hashCombine64(H, Vars.size());
  for (uint64_t S : Sig)
    H = hashCombine64(H, S);
  // A fixed-basis solution references variables only by subset index, so
  // it is shareable across variable sets of the same arity. AutoBasis
  // breaks print-length ties with the rebuilt expression, which depends on
  // the names — they join the key so the pick stays a pure function of it.
  if (Auto)
    for (const Expr *V : Vars)
      H = hashCombine64(H, hashString64(V->varName()));
  return H;
}

uint64_t MBASolver::linearCacheKey(const std::vector<uint64_t> &Sig,
                                   const std::vector<const Expr *> &Vars) const {
  // The linear layer stores rebuilt expressions, which always reference
  // the variables by name — extend the basis key (domain-separated) with
  // the full name tuple.
  uint64_t H = basisCacheKey(Sig, Vars, Opts.AutoBasis);
  H = hashCombine64(H, 0x11ea7ULL);
  for (const Expr *V : Vars)
    H = hashCombine64(H, hashString64(V->varName()));
  return H;
}

LinearCombo
MBASolver::normalizedCombo(const std::vector<uint64_t> &Sig,
                           const std::vector<const Expr *> &Vars,
                           bool AllowAuto) {
  bool Auto = Opts.AutoBasis && AllowAuto;
  uint64_t Mask = Ctx.mask();
  unsigned T = (unsigned)Vars.size();

  auto Solve = [&]() -> BasisSolution {
    if (!Auto)
      return solveBasisRaw(Opts.Basis, Sig, T, Mask);
    // Input-dependent basis selection (Section 7): keep the combination
    // with fewer terms; break ties toward the shorter rebuilt expression.
    BasisSolution Conj = solveBasisRaw(BasisKind::Conjunction, Sig, T, Mask);
    BasisSolution Disj = solveBasisRaw(BasisKind::Disjunction, Sig, T, Mask);
    if (Conj.Terms.size() != Disj.Terms.size())
      return Conj.Terms.size() < Disj.Terms.size() ? Conj : Disj;
    LinearCombo ConjCombo = comboFromSolution(Ctx, Conj, Vars);
    LinearCombo DisjCombo = comboFromSolution(Ctx, Disj, Vars);
    size_t LenC =
        printExpr(Ctx, buildLinearCombination(Ctx, ConjCombo.Terms,
                                              ConjCombo.Constant))
            .size();
    size_t LenD =
        printExpr(Ctx, buildLinearCombination(Ctx, DisjCombo.Terms,
                                              DisjCombo.Constant))
            .size();
    return LenD < LenC ? Disj : Conj;
  };

  if (!Opts.EnableCache)
    return comboFromSolution(Ctx, Solve(), Vars);
  uint64_t Key = basisCacheKey(Sig, Vars, Auto);
  BasisSolution Solution;
  if (basisCache().lookup(Key, Solution)) {
    ++Stats.CacheHits;
  } else {
    ++Stats.CacheMisses;
    Solution = Solve();
    basisCache().insert(Key, Solution);
  }
  return comboFromSolution(Ctx, Solution, Vars);
}

const Expr *MBASolver::simplifyPoly(const Expr *E, unsigned Depth) {
  ++Stats.PolyRuns;
  querylog::Stage Stage(PolyStage, &StageNs);
  AtomMap Atoms;
  uint64_t Mask = Ctx.mask();

  // Section 4.4: substitute every bitwise sub-expression by its normalized
  // linear combination over basis terms, then expand and collect in the
  // polynomial ring.
  auto AtomPoly = [&](const Expr *N) -> std::optional<Polynomial> {
    if (N->isVar())
      return Polynomial::atom(Atoms.getOrCreate(N), Mask);
    if (!isBitwiseKind(N->kind()))
      return std::nullopt; // arithmetic and constants: converter recurses
    if (!isPureBitwise(Ctx, N, FactsMemo))
      // Impure bitwise (only reachable from the non-poly path): opaque.
      return Polynomial::atom(Atoms.getOrCreate(N), Mask);
    std::vector<const Expr *> Vars = VarMemo.variables(N);
    if (Vars.empty())
      return Polynomial::constant(
          evaluate(Ctx, N, std::span<const uint64_t>()), Mask);
    if (Vars.size() > Opts.MaxSignatureVars)
      return Polynomial::atom(Atoms.getOrCreate(N), Mask);
    std::vector<uint64_t> Sig = computeSignature(Ctx, N, Vars);
    Stats.TransientBytes += Sig.size() * sizeof(uint64_t);
    LinearCombo Combo = normalizedCombo(Sig, Vars, /*AllowAuto=*/false);
    Polynomial P = Polynomial::constant(Combo.Constant, Mask);
    for (auto &[Coeff, Term] : Combo.Terms)
      P.addTerm(Monomial::atom(Atoms.getOrCreate(Term)), Coeff);
    return P;
  };

  std::optional<Polynomial> P = exprToPolynomialGeneral(Ctx, E, AtomPoly);
  if (!P)
    // Expansion exceeded the term cap: fall back to simplifying operands.
    return rebuildWithSimplifiedChildren(E, Depth);
  // Per-term footprint: one entry of the polynomial's term vector.
  Stats.TransientBytes +=
      P->numTerms() * sizeof(Polynomial::TermList::value_type);
  return polynomialToExpr(Ctx, *P, Atoms);
}

const Expr *MBASolver::simplifyNonPoly(const Expr *E, unsigned Depth) {
  ++Stats.NonPolyRuns;
  querylog::Stage Stage(NonPolyStage, &StageNs);

  // Abstract every arithmetic sub-expression that sits directly under a
  // bitwise operator as a fresh temporary variable, recursively simplifying
  // it first. Equal (post-simplification) sub-expressions share one
  // temporary — this *is* the paper's common-sub-expression optimization:
  //   ((x&~y - ~x&y)|z) + ((x&~y - ~x&y)&z)
  //     -> (t|z) + (t&z) with t = x - y  ->  t + z  ->  x - y + z
  std::unordered_map<const Expr *, const Expr *> TempFor;   // subexpr -> temp
  std::vector<const Expr *> TempOrder; // TempFor keys in creation order
  std::unordered_map<const Expr *, const Expr *> BackSubst; // temp -> subexpr
  bool AbstractionFailed = false;

  // The abstraction of an operand of a bitwise node, unless that operand
  // is itself an impure bitwise node (the walk below abstracts deeper
  // inside those).
  auto AbstractOperand = [&](const Expr *O) -> const Expr * {
    if (isPureBitwise(Ctx, O, FactsMemo))
      return O;
    // Note that a plain constant mask (e.g. the 3 in x & 3) is
    // abstracted like any arithmetic operand: the derived identity
    // holds for every value of the temporary, in particular for the
    // constant. Generality is lost (no constant-specific reasoning)
    // but soundness is not.
    const Expr *S = simplifyRec(O, Depth);
    if (isPureBitwise(Ctx, S, FactsMemo))
      return S; // simplification removed the arithmetic
    // A linear operand whose signature is 0/1-valued *is* a bitwise
    // function (Theorem 1 makes the corner agreement total): rewrite
    // it as one instead of abstracting — e.g. -x-1 under & becomes
    // ~x, letting the surrounding bitwise context normalize fully.
    if (const Expr *Bitwise = recognizeBitwise(S))
      return Bitwise;
    if (!Opts.EnableCSE) {
      AbstractionFailed = true;
      return S;
    }
    auto [TIt, Inserted] = TempFor.emplace(S, nullptr);
    if (Inserted) {
      // Complement sharing: when S == ~S' for an already-abstracted
      // S' (e.g. -x-y-1 alongside x+y), reuse ~t' instead of burning
      // an unrelated temporary — the relation survives into the
      // signature solve. Theorem 1 decides the equality exactly for
      // (semantically) linear operands.
      if (classifyMBA(Ctx, S, FactsMemo) == MBAKind::Linear &&
          VarMemo.count(S) <= Opts.MaxSignatureVars) {
        // Walk candidates in creation order, not map order: when S is
        // the complement of several previous operands the first one
        // must win deterministically, or the rebuilt form would vary
        // run to run.
        for (const Expr *Prev : TempOrder) {
          const Expr *Temp = TempFor.at(Prev);
          if (classifyMBA(Ctx, Prev, FactsMemo) != MBAKind::Linear)
            continue;
          if (VarMemo.count(Prev) > Opts.MaxSignatureVars)
            continue;
          if (isComplementOf(S, Prev)) {
            const Expr *Shared = Ctx.getNot(Temp);
            TempFor.erase(TIt);
            return Shared;
          }
        }
      }
      const Expr *T = freshTempVar();
      TIt->second = T;
      TempOrder.push_back(S);
      BackSubst.emplace(T, S);
    }
    return TIt->second;
  };

  // The abstraction walk over an explicit stack, so a deep arithmetic
  // spine cannot overflow the call stack. The arithmetic spine is rebuilt
  // structurally; an impure bitwise operand of a bitwise node is walked
  // in turn, any other one abstracted by AbstractOperand. A node's rhs
  // operand is handled before its lhs one: temporaries are numbered in
  // that order.
  NodeMap<const Expr *> Memo;
  struct Frame {
    const Expr *N;
    unsigned Done; ///< operands handled, rhs first
    const Expr *Ops[2];
  };
  std::vector<Frame> Stack;
  // The abstraction of N when it is memoized or a leaf; otherwise pushes
  // N's frame and returns null.
  auto Enter = [&](const Expr *N) -> const Expr * {
    if (const Expr *const *Done = Memo.find(N))
      return *Done;
    if (N->isLeaf()) {
      Memo.emplace(N, N);
      return N;
    }
    Stack.push_back({N, 0, {nullptr, nullptr}});
    return nullptr;
  };
  // Hands R to the top frame as its next operand (rhs first).
  auto Fill = [&](const Expr *R) {
    Frame &F = Stack.back();
    F.Ops[F.N->numOperands() - 1 - F.Done++] = R;
  };
  const Expr *EAbs = Enter(E);
  while (!Stack.empty()) {
    const Frame &F = Stack.back();
    unsigned NumOps = F.N->numOperands();
    if (F.Done != NumOps) {
      const Expr *O = F.N->getOperand(NumOps - 1 - F.Done);
      const Expr *R;
      if (!isBitwiseKind(F.N->kind()) ||
          (isBitwiseKind(O->kind()) && !isPureBitwise(Ctx, O, FactsMemo)))
        R = Enter(O);
      else
        R = AbstractOperand(O);
      if (R)
        Fill(R); // else O's frame is on top, and fills this slot when done
      continue;
    }
    const Expr *R = Ctx.rebuild(F.N, F.Ops[0], F.Ops[1]);
    Memo.emplace(F.N, R);
    Stack.pop_back();
    if (Stack.empty())
      EAbs = R;
    else
      Fill(R);
  }

  if (AbstractionFailed)
    return arithReduceOpaque(rebuildWithSimplifiedChildren(E, Depth));

  // The abstraction is linear or polynomial unless constants appear as
  // direct bitwise operands (x & 3 style), which stay non-poly.
  const Expr *RAbs = EAbs;
  switch (classifyMBA(Ctx, EAbs, FactsMemo)) {
  case MBAKind::Linear: {
    std::vector<const Expr *> Vars = VarMemo.variables(EAbs);
    RAbs = Vars.size() <= Opts.MaxSignatureVars ? simplifyLinear(EAbs, Vars)
                                                : simplifyPoly(EAbs, Depth);
    break;
  }
  case MBAKind::Polynomial:
    RAbs = simplifyPoly(EAbs, Depth);
    break;
  case MBAKind::NonPolynomial:
    RAbs = arithReduceOpaque(EAbs);
    break;
  }

  const Expr *R =
      BackSubst.empty() ? RAbs : substitute(Ctx, RAbs, BackSubst);
  R = arithReduceOpaque(R);

  // Substitution may expose further structure — a simpler class (the
  // paper's example collapses to the linear x - y + z) or another round of
  // abstraction (e.g. a remaining -z under &). Iterate while progress is
  // made, bounded by the depth budget.
  if (R != E && Depth < MaxDepth)
    R = simplifyRec(R, Depth + 1);
  return R;
}

const Expr *MBASolver::recognizeBitwise(const Expr *E) {
  if (classifyMBA(Ctx, E, FactsMemo) != MBAKind::Linear)
    return nullptr;
  std::vector<const Expr *> Vars = VarMemo.variables(E);
  if (Vars.empty() || Vars.size() > Opts.MaxSignatureVars)
    return nullptr;
  std::vector<uint64_t> Sig = computeSignature(Ctx, E, Vars);
  for (uint64_t S : Sig)
    if (S > 1)
      return nullptr;

  unsigned T = (unsigned)Vars.size();
  unsigned Rows = 1u << T;
  if (T <= MaxBooleanMinVars) {
    uint32_t Truth = 0;
    for (unsigned Row = 0; Row != Rows; ++Row)
      if (Sig[Row])
        Truth |= 1u << Row;
    return synthesizeBitwise(Ctx, Vars, Truth);
  }
  // More variables: disjunctive normal form over the true rows (rarely
  // reached and possibly large, but always pure bitwise and exact).
  bool AllTrue = true;
  for (uint64_t S : Sig)
    AllTrue &= S == 1;
  if (AllTrue)
    return Ctx.getAllOnes();
  const Expr *Dnf = nullptr;
  for (unsigned Row = 0; Row != Rows; ++Row) {
    if (!Sig[Row])
      continue;
    const Expr *Minterm = nullptr;
    for (unsigned I = 0; I != T; ++I) {
      const Expr *L = truthBit(Row, I, T) ? Vars[I] : Ctx.getNot(Vars[I]);
      Minterm = Minterm ? Ctx.getAnd(Minterm, L) : L;
    }
    Dnf = Dnf ? Ctx.getOr(Dnf, Minterm) : Minterm;
  }
  return Dnf ? Dnf : Ctx.getZero();
}

const Expr *MBASolver::rebuildWithSimplifiedChildren(const Expr *E,
                                                     unsigned Depth) {
  if (E->isLeaf())
    return E;
  if (E->isUnary())
    return Ctx.rebuild(E, simplifyRec(E->operand(), Depth), nullptr);
  // The rhs first, as in the non-poly abstraction: the order in which
  // operands are simplified is the order temporaries are numbered in.
  const Expr *R = simplifyRec(E->rhs(), Depth);
  return Ctx.rebuild(E, simplifyRec(E->lhs(), Depth), R);
}

bool MBASolver::isComplementOf(const Expr *S, const Expr *P) {
  // Theorem 1 over the union of the two variable sets. Entry k of a
  // signature is -E(corner_k), and -(~p) == p + 1, so sig(~P) is
  // 1 - sig(P): no ~P node is built or walked.
  std::vector<const Expr *> Vars = VarMemo.variables(S, P);
  std::vector<uint64_t> SigS = computeSignature(Ctx, S, Vars);
  std::vector<uint64_t> SigP = computeSignature(Ctx, P, Vars);
  for (size_t K = 0; K != SigS.size(); ++K)
    if (SigS[K] != ((1 - SigP[K]) & Ctx.mask()))
      return false;
  return true;
}

const Expr *MBASolver::arithReduceOpaque(const Expr *E) {
  AtomMap Atoms;
  std::optional<Polynomial> P =
      exprToPolynomial(Ctx, E, Atoms, [](const Expr *N) {
        return N->isVar() || isBitwiseKind(N->kind());
      });
  if (!P)
    return E;
  return polynomialToExpr(Ctx, *P, Atoms);
}

const Expr *MBASolver::finalOptimize(const Expr *E) {
  if (E->isConst())
    return E;
  if (classifyMBA(Ctx, E, FactsMemo) != MBAKind::Linear)
    return E;
  std::vector<const Expr *> Vars = VarMemo.variables(E);
  if (Vars.empty())
    return Ctx.getConst(evaluate(Ctx, E, std::span<const uint64_t>()));
  unsigned T = (unsigned)Vars.size();
  if (T > MaxBooleanMinVars)
    return E;

  uint64_t Mask = Ctx.mask();
  unsigned Rows = 1u << T;
  std::vector<uint64_t> Sig = computeSignature(Ctx, E, Vars);

  // Uniform signature: the expression is a constant.
  bool Uniform = true;
  for (unsigned K = 1; K != Rows; ++K)
    Uniform &= Sig[K] == Sig[0];
  if (Uniform)
    return pickBetter(Ctx.getConst((0 - Sig[0]) & Mask), E);

  // Section 4.5 final step: search for a representation a * f(vars) + c
  // with f a single bitwise function; e.g. sig(x + y - 2*(x&y)) matches
  // f = XOR with a = 1, c = 0.
  const Expr *Best = E;
  for (uint32_t F = 1; F + 1 < (1u << Rows); ++F) {
    uint64_t OffValue = 0, OnValue = 0;
    bool HaveOff = false, HaveOn = false, Consistent = true;
    for (unsigned K = 0; K != Rows && Consistent; ++K) {
      if (F >> K & 1) {
        if (!HaveOn) {
          OnValue = Sig[K];
          HaveOn = true;
        } else {
          Consistent = OnValue == Sig[K];
        }
      } else {
        if (!HaveOff) {
          OffValue = Sig[K];
          HaveOff = true;
        } else {
          Consistent = OffValue == Sig[K];
        }
      }
    }
    if (!Consistent)
      continue;
    uint64_t A = (OnValue - OffValue) & Mask;
    if (!A)
      continue; // degenerate: uniform case already handled
    const Expr *FExpr = synthesizeBitwise(Ctx, Vars, F);
    const Expr *Candidate =
        buildLinearCombination(Ctx, {{A, FExpr}}, (0 - OffValue) & Mask);
    Best = pickBetter(Best, Candidate);
  }
  return Best;
}

const Expr *MBASolver::pickBetter(const Expr *A, const Expr *B) {
  if (A == B)
    return A;
  uint64_t AltA = mbaAlternation(A, AltMemo);
  uint64_t AltB = mbaAlternation(B, AltMemo);
  if (AltA != AltB)
    return AltA < AltB ? A : B;
  size_t LenA = printExpr(Ctx, A).size(), LenB = printExpr(Ctx, B).size();
  if (LenA != LenB)
    return LenA < LenB ? A : B;
  size_t NodesA = countDagNodes(A), NodesB = countDagNodes(B);
  if (NodesA != NodesB)
    return NodesA < NodesB ? A : B;
  return A;
}

const Expr *MBASolver::freshTempVar() {
  // Zero-padded so lexicographic name order equals creation order: the
  // canonical variable sort (collectVariables) would otherwise place _t10
  // before _t9 and reshuffle terms depending on how many temps a call
  // needed. Collisions are checked against the input's variables only —
  // probing the whole context (hasVar) would tie the numbering to which
  // expressions the context happened to see earlier. Names are interned: a
  // taken name is an input variable's own node, which getVar returns.
  for (;;) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "_t%04u", NextTempId++);
    const Expr *V = Ctx.getVar(Name);
    if (std::find(InputVars.begin(), InputVars.end(), V) == InputVars.end())
      return V;
  }
}
