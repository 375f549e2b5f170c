//===- ir/Passes.cpp - MBA deobfuscation passes over the program IR -------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Passes.h"

#include "analysis/AbstractInterp.h"
#include "analysis/Prover.h"
#include "ast/ExprUtils.h"
#include "ast/Printer.h"
#include "ir/Dataflow.h"
#include "mba/Metrics.h"
#include "support/QueryLog.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace mba;

namespace {

/// The pass counts a FunctionReport owns, published once per function.
const telemetry::NamedCounter ReportCounters[] = {
    "ir.regions_found", "ir.regions_rewritten", "ir.branches_folded",
    "ir.blocks_removed", "ir.unsound_blocked"};

/// Rewrites every expression of \p F through \p Map (instruction rhs,
/// branch conditions, return values, phi incomings). Phi destinations and
/// instruction destinations are definitions, never rewritten.
void substituteUses(Context &Ctx, Function &F,
                    const std::unordered_map<const Expr *, const Expr *> &Map) {
  for (BasicBlock &BB : F.Blocks) {
    for (PhiNode &P : BB.Phis)
      for (auto &[Pred, In] : P.Incoming)
        if (auto It = Map.find(In); It != Map.end())
          In = It->second;
    for (IRInst &I : BB.Insts)
      I.Rhs = substitute(Ctx, I.Rhs, Map);
    if (BB.Term.Kind == TermKind::Branch)
      BB.Term.Cond = substitute(Ctx, BB.Term.Cond, Map);
    else if (BB.Term.Kind == TermKind::Ret)
      BB.Term.Value = substitute(Ctx, BB.Term.Value, Map);
  }
}

} // namespace

PipelineConfig mba::regionVerifierConfig(const PassOptions &Opts) {
  PipelineConfig Config;
  Config.Backend = BackendProfile::BlastBVRW;
  Config.RefuteFirst = true;
  Config.TimeoutSeconds = Opts.VerifyTimeout;
  return Config;
}

//===----------------------------------------------------------------------===//
// Flattening
//===----------------------------------------------------------------------===//

const Expr *mba::flattenValue(Context &Ctx, const Function &F,
                              const Expr *V) {
  // rhs of every instruction definition; phi dests and params are absent
  // and therefore stay free.
  std::unordered_map<const Expr *, const Expr *> InstDef;
  for (const BasicBlock &BB : F.Blocks)
    for (const IRInst &I : BB.Insts)
      InstDef.emplace(I.Dest, I.Rhs);

  // Iterative post-order over the definition dependency graph: flatten
  // every instruction-defined variable reachable from V, deepest first.
  std::unordered_map<const Expr *, const Expr *> Flat; // var -> pure expr
  std::vector<std::pair<const Expr *, bool>> Stack;    // (var, expanded)
  auto Push = [&](const Expr *E) {
    for (const Expr *Var : collectVariables(E))
      if (InstDef.count(Var) && !Flat.count(Var))
        Stack.emplace_back(Var, false);
  };
  Push(V);
  while (!Stack.empty()) {
    auto [Var, Expanded] = Stack.back();
    if (Flat.count(Var)) {
      Stack.pop_back();
      continue;
    }
    const Expr *Rhs = InstDef.at(Var);
    if (!Expanded) {
      Stack.back().second = true;
      Push(Rhs);
      continue;
    }
    Stack.pop_back();
    Flat.emplace(Var, substitute(Ctx, Rhs, Flat));
  }
  return substitute(Ctx, V, Flat);
}

//===----------------------------------------------------------------------===//
// Opaque-predicate elimination
//===----------------------------------------------------------------------===//

namespace {

/// True/false decision about a branch condition, with how it was reached.
struct BranchDecision {
  bool Taken = false; ///< condition is nonzero on every execution
  /// Constant value when a domain pinned the condition to one value (the
  /// verification target for the taken direction); nullopt when only
  /// "nonzero" is known.
  std::optional<uint64_t> Value;
};

/// Tries to decide the flattened condition \p C as a global fact (over free
/// phi variables and parameters).
std::optional<BranchDecision> decideGlobally(Context &Ctx, const Expr *C) {
  const Expr *Folded = foldAbstract(Ctx, C);
  if (Folded->isConst())
    return BranchDecision{Folded->constValue() != 0, Folded->constValue()};
  // Prover: Proved C == 0 means never taken; Refuted means C differs from
  // 0 on every input — always taken.
  ProveResult R = proveEquivalence(Ctx, C, Ctx.getZero());
  if (R.Outcome == ProveOutcome::Proved)
    return BranchDecision{false, 0};
  if (R.Outcome == ProveOutcome::Refuted)
    return BranchDecision{true, std::nullopt};
  return std::nullopt;
}

/// Enumerates the phi variables of \p C with their flattened incoming
/// values; used for the bounded one-level case split. Returns nullopt when
/// the split would exceed \p MaxCases or an incoming is itself phi-defined
/// (a deeper split than one level).
std::optional<std::vector<std::pair<const Expr *, std::vector<const Expr *>>>>
phiCaseSplit(Context &Ctx, const Function &F, const Expr *C,
             size_t MaxCases) {
  std::unordered_map<const Expr *, const PhiNode *> PhiOf;
  for (const BasicBlock &BB : F.Blocks)
    for (const PhiNode &P : BB.Phis)
      PhiOf.emplace(P.Dest, &P);

  std::vector<std::pair<const Expr *, std::vector<const Expr *>>> Split;
  size_t Cases = 1;
  for (const Expr *Var : collectVariables(C)) {
    auto It = PhiOf.find(Var);
    if (It == PhiOf.end())
      continue; // parameter: stays free
    std::vector<const Expr *> Values;
    for (const auto &[Pred, In] : It->second->Incoming) {
      const Expr *FlatIn = flattenValue(Ctx, F, In);
      // One level only: a nested phi would need its own split.
      for (const Expr *V : collectVariables(FlatIn))
        if (PhiOf.count(V))
          return std::nullopt;
      Values.push_back(FlatIn);
    }
    Cases *= Values.size();
    if (Cases > MaxCases)
      return std::nullopt;
    Split.emplace_back(Var, std::move(Values));
  }
  if (Split.empty())
    return std::nullopt; // no phis: the global path already decided or not
  return Split;
}

/// Decides \p C by substituting every combination of one-level phi
/// incomings and requiring all cases to agree. Sound: every execution
/// reaching the branch entered each phi through one of its incomings, so
/// the concrete condition value is covered by some case.
std::optional<BranchDecision>
decideByCaseSplit(Context &Ctx, const Function &F, const Expr *C,
                  size_t MaxCases) {
  auto Split = phiCaseSplit(Ctx, F, C, MaxCases);
  if (!Split)
    return std::nullopt;
  std::optional<bool> Agreed;
  std::vector<size_t> Pick(Split->size(), 0);
  while (true) {
    std::unordered_map<const Expr *, const Expr *> Map;
    for (size_t I = 0; I != Split->size(); ++I)
      Map.emplace((*Split)[I].first, (*Split)[I].second[Pick[I]]);
    const Expr *CaseC = substitute(Ctx, C, Map);
    auto D = decideGlobally(Ctx, CaseC);
    if (!D)
      return std::nullopt;
    if (Agreed && *Agreed != D->Taken)
      return std::nullopt; // cases disagree: genuinely input-dependent
    Agreed = D->Taken;
    // Advance the odometer.
    size_t I = 0;
    for (; I != Pick.size(); ++I) {
      if (++Pick[I] < (*Split)[I].second.size())
        break;
      Pick[I] = 0;
    }
    if (I == Pick.size())
      break;
  }
  return BranchDecision{*Agreed, std::nullopt};
}

/// Builds the "always nonzero" verification query: (c | -c) & signbit,
/// which equals signbit iff c != 0 (x | -x has the sign bit set exactly
/// when x is nonzero).
std::pair<const Expr *, const Expr *> nonzeroQuery(Context &Ctx,
                                                   const Expr *C) {
  const Expr *SignBit = Ctx.getConst(1ULL << (Ctx.width() - 1));
  const Expr *Probe = Ctx.getAnd(Ctx.getOr(C, Ctx.getNeg(C)), SignBit);
  return {Probe, SignBit};
}

/// Verifies a branch decision with the verifier. For the case-split path
/// the check runs per case (each must verify).
bool verifyDecision(Context &Ctx, const Function &F, const Expr *C,
                    const BranchDecision &D, bool FromCaseSplit,
                    Pipeline *Verifier, FunctionReport *Report) {
  if (!Verifier)
    return true;
  auto CheckOne = [&](const Expr *Cond) {
    const Expr *A, *B;
    if (!D.Taken) {
      A = Cond;
      B = Ctx.getZero();
    } else if (D.Value) {
      A = Cond;
      B = Ctx.getConst(*D.Value);
    } else {
      std::tie(A, B) = nonzeroQuery(Ctx, Cond);
    }
    CheckResult R = Verifier->check(A, B);
    if (R.Outcome == Verdict::NotEquivalent && Report)
      ++Report->UnsoundBlocked;
    return R.Outcome == Verdict::Equivalent;
  };
  if (!FromCaseSplit)
    return CheckOne(C);
  auto Split = phiCaseSplit(Ctx, F, C, 64);
  if (!Split)
    return false;
  std::vector<size_t> Pick(Split->size(), 0);
  while (true) {
    std::unordered_map<const Expr *, const Expr *> Map;
    for (size_t I = 0; I != Split->size(); ++I)
      Map.emplace((*Split)[I].first, (*Split)[I].second[Pick[I]]);
    if (!CheckOne(substitute(Ctx, C, Map)))
      return false;
    size_t I = 0;
    for (; I != Pick.size(); ++I) {
      if (++Pick[I] < (*Split)[I].second.size())
        break;
      Pick[I] = 0;
    }
    if (I == Pick.size())
      break;
  }
  return true;
}

} // namespace

unsigned mba::foldOpaqueBranches(Context &Ctx, Function &F,
                                 Pipeline *Verifier, FunctionReport *Report,
                                 FailedVerifySet *FailedVerify) {
  static const querylog::StageDef FoldStage{"ir.fold_branches", nullptr};
  querylog::Stage Stage(FoldStage);
  CFG G = CFG::build(F);
  std::vector<bool> Reach = reachableBlocks(G);

  // Flow-sensitive analyses are shared across the branches of the function
  // (they analyze every SSA value at once).
  KnownBitsDomain KBD(Ctx.mask());
  ParityDomain PD(Ctx.width());
  IntervalDomain ID(Ctx.mask());
  FlowAnalysis<KnownBitsDomain> KBA(KBD, F, G);
  FlowAnalysis<ParityDomain> PA(PD, F, G);
  FlowAnalysis<IntervalDomain> IA(ID, F, G);

  unsigned Folded = 0;
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    if (!Reach[B])
      continue;
    BasicBlock &BB = F.Blocks[B];
    if (BB.Term.Kind != TermKind::Branch)
      continue;
    // A branch with identical targets is trivially a jump; no proof needed.
    if (BB.Term.Succs[0] == BB.Term.Succs[1]) {
      BB.Term = Terminator{TermKind::Jump, nullptr,
                           {BB.Term.Succs[0], 0}, nullptr, BB.Term.Loc};
      ++Folded;
      continue;
    }

    const Expr *C = flattenValue(Ctx, F, BB.Term.Cond);
    uint64_t FP = exprFingerprint(C);
    // A condition whose verification already failed once stays undecided —
    // the query would time out again, at full cost, every iteration.
    if (FailedVerify && FailedVerify->count(FP))
      continue;
    bool FromCaseSplit = false;
    std::optional<BranchDecision> D = decideGlobally(Ctx, C);
    if (!D) {
      // Flow-sensitive: the analyses know phi joins and edge refinements
      // the global fold cannot see. The decision is then verified by the
      // one-level case split, so only conditions the split covers fold.
      std::optional<uint64_t> FlowConst = KBA.constantOf(BB.Term.Cond);
      if (!FlowConst)
        FlowConst = PA.constantOf(BB.Term.Cond);
      if (!FlowConst)
        FlowConst = IA.constantOf(BB.Term.Cond);
      if (FlowConst) {
        D = BranchDecision{*FlowConst != 0, std::nullopt};
        FromCaseSplit = true;
      } else {
        D = decideByCaseSplit(Ctx, F, C, 16);
        FromCaseSplit = D.has_value();
      }
      // A flow-derived decision must survive the case-split re-derivation
      // (the split is the sound argument; the analyses only nominate).
      if (D && FromCaseSplit && !Verifier) {
        auto Confirm = decideByCaseSplit(Ctx, F, C, 16);
        if (!Confirm || Confirm->Taken != D->Taken)
          D = std::nullopt;
      }
    }
    if (!D)
      continue;
    if (!verifyDecision(Ctx, F, C, *D, FromCaseSplit, Verifier, Report)) {
      if (FailedVerify)
        FailedVerify->insert(FP);
      continue;
    }

    unsigned Live = D->Taken ? BB.Term.Succs[0] : BB.Term.Succs[1];
    unsigned Dead = D->Taken ? BB.Term.Succs[1] : BB.Term.Succs[0];
    BB.Term = Terminator{TermKind::Jump, nullptr, {Live, 0}, nullptr,
                         BB.Term.Loc};
    // The edge B -> Dead no longer exists; its phi incomings are stale.
    for (PhiNode &P : F.Blocks[Dead].Phis)
      P.Incoming.erase(std::remove_if(P.Incoming.begin(), P.Incoming.end(),
                                      [&](const auto &In) {
                                        return In.first == B;
                                      }),
                       P.Incoming.end());
    ++Folded;
  }
  if (Report)
    Report->BranchesFolded += Folded;
  return Folded;
}

//===----------------------------------------------------------------------===//
// Unreachable-block removal
//===----------------------------------------------------------------------===//

unsigned mba::removeUnreachableBlocks(Function &F, FunctionReport *Report) {
  CFG G = CFG::build(F);
  std::vector<bool> Reach = reachableBlocks(G);
  unsigned N = F.numBlocks();
  std::vector<unsigned> NewId(N, ~0U);
  unsigned Next = 0;
  for (unsigned B = 0; B != N; ++B)
    if (Reach[B])
      NewId[B] = Next++;
  if (Next == N)
    return 0;

  std::vector<BasicBlock> Kept;
  Kept.reserve(Next);
  for (unsigned B = 0; B != N; ++B) {
    if (!Reach[B])
      continue;
    BasicBlock BB = std::move(F.Blocks[B]);
    for (PhiNode &P : BB.Phis) {
      P.Incoming.erase(std::remove_if(P.Incoming.begin(), P.Incoming.end(),
                                      [&](const auto &In) {
                                        return !Reach[In.first];
                                      }),
                       P.Incoming.end());
      for (auto &[Pred, In] : P.Incoming)
        Pred = NewId[Pred];
    }
    for (unsigned I = 0; I != BB.Term.numSuccessors(); ++I)
      BB.Term.Succs[I] = NewId[BB.Term.Succs[I]];
    Kept.push_back(std::move(BB));
  }
  unsigned Removed = N - Next;
  F.Blocks = std::move(Kept);
  if (Report)
    Report->BlocksRemoved += Removed;
  return Removed;
}

//===----------------------------------------------------------------------===//
// Trivial-phi simplification
//===----------------------------------------------------------------------===//

unsigned mba::simplifyTrivialPhis(Context &Ctx, Function &F,
                                  FunctionReport *Report) {
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock &BB : F.Blocks) {
      for (size_t I = 0; I != BB.Phis.size(); ++I) {
        PhiNode &P = BB.Phis[I];
        if (P.Incoming.empty())
          continue; // unreachable junk; removeUnreachableBlocks handles it
        const Expr *V = P.Incoming[0].second;
        bool AllSame = true;
        for (const auto &[Pred, In] : P.Incoming)
          if (In != V) {
            AllSame = false;
            break;
          }
        // A phi referencing only itself plus one other value is also
        // trivial (a loop-carried copy): x = phi [a: v], [loop: x].
        if (!AllSame) {
          const Expr *Other = nullptr;
          bool Trivial = true;
          for (const auto &[Pred, In] : P.Incoming) {
            if (In == P.Dest)
              continue;
            if (Other && In != Other) {
              Trivial = false;
              break;
            }
            Other = In;
          }
          if (Trivial && Other) {
            AllSame = true;
            V = Other;
          }
        }
        if (!AllSame)
          continue;
        std::unordered_map<const Expr *, const Expr *> Map{{P.Dest, V}};
        BB.Phis.erase(BB.Phis.begin() + (long)I);
        substituteUses(Ctx, F, Map);
        ++Removed;
        Changed = true;
        --I;
      }
    }
  }
  if (Report)
    Report->PhisSimplified += Removed;
  return Removed;
}

//===----------------------------------------------------------------------===//
// Dead-instruction elimination
//===----------------------------------------------------------------------===//

unsigned mba::eliminateDeadInstructions(Function &F,
                                        FunctionReport *Report) {
  // Mark: roots are the values terminators read.
  std::unordered_set<const Expr *> Live;
  std::vector<const Expr *> Work;
  auto MarkExpr = [&](const Expr *E) {
    for (const Expr *V : collectVariables(E))
      if (Live.insert(V).second)
        Work.push_back(V);
  };
  for (const BasicBlock &BB : F.Blocks) {
    if (BB.Term.Kind == TermKind::Branch)
      MarkExpr(BB.Term.Cond);
    else if (BB.Term.Kind == TermKind::Ret)
      MarkExpr(BB.Term.Value);
  }
  std::unordered_map<const Expr *, const Expr *> InstDef;
  std::unordered_map<const Expr *, const PhiNode *> PhiDef;
  for (const BasicBlock &BB : F.Blocks) {
    for (const IRInst &I : BB.Insts)
      InstDef.emplace(I.Dest, I.Rhs);
    for (const PhiNode &P : BB.Phis)
      PhiDef.emplace(P.Dest, &P);
  }
  while (!Work.empty()) {
    const Expr *V = Work.back();
    Work.pop_back();
    if (auto It = InstDef.find(V); It != InstDef.end()) {
      MarkExpr(It->second);
    } else if (auto It2 = PhiDef.find(V); It2 != PhiDef.end()) {
      for (const auto &[Pred, In] : It2->second->Incoming)
        if (In->isVar() && Live.insert(In).second)
          Work.push_back(In);
    }
  }

  // Sweep.
  unsigned Removed = 0;
  for (BasicBlock &BB : F.Blocks) {
    auto DeadInst = [&](const IRInst &I) { return !Live.count(I.Dest); };
    auto DeadPhi = [&](const PhiNode &P) { return !Live.count(P.Dest); };
    Removed += (unsigned)std::count_if(BB.Insts.begin(), BB.Insts.end(),
                                       DeadInst);
    Removed += (unsigned)std::count_if(BB.Phis.begin(), BB.Phis.end(),
                                       DeadPhi);
    BB.Insts.erase(std::remove_if(BB.Insts.begin(), BB.Insts.end(),
                                  DeadInst),
                   BB.Insts.end());
    BB.Phis.erase(std::remove_if(BB.Phis.begin(), BB.Phis.end(), DeadPhi),
                  BB.Phis.end());
  }
  if (Report)
    Report->InstsRemoved += Removed;
  return Removed;
}

//===----------------------------------------------------------------------===//
// MBA-region detection & rewrite
//===----------------------------------------------------------------------===//

unsigned mba::rewriteMBARegions(Context &Ctx, Function &F, MBASolver &Solver,
                                Pipeline *Verifier,
                                const PassOptions &Opts,
                                FunctionReport *Report,
                                FailedVerifySet *FailedVerify) {
  static const querylog::StageDef RewriteStage{"ir.region_rewrite", nullptr};
  querylog::Stage Stage(RewriteStage);
  DefUseInfo DU = DefUseInfo::build(F);

  // Region roots: instructions whose value escapes the pure instruction
  // dataflow — used by a phi, a branch condition, or a return. Everything
  // an escaping instruction transitively computes through other
  // instructions is its region (flattening walks exactly that slice, so
  // the region is the maximal single-exit subgraph rooted there).
  struct Root {
    unsigned Block;
    unsigned Index;
  };
  std::vector<Root> Roots;
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    for (unsigned I = 0; I != F.Blocks[B].Insts.size(); ++I) {
      const Expr *Dest = F.Blocks[B].Insts[I].Dest;
      bool Escapes = false;
      for (const UseSite &U : DU.usesOf(Dest))
        if (U.Kind != UseSite::InstOp) {
          Escapes = true;
          break;
        }
      if (Escapes)
        Roots.push_back({B, I});
    }

  // Count the instructions each flattening consumes (region size).
  std::unordered_map<const Expr *, std::pair<unsigned, unsigned>> InstAt;
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    for (unsigned I = 0; I != F.Blocks[B].Insts.size(); ++I)
      InstAt.emplace(F.Blocks[B].Insts[I].Dest, std::make_pair(B, I));
  auto RegionInsts = [&](const Expr *Dest) {
    std::unordered_set<const Expr *> Seen;
    std::vector<const Expr *> WL{Dest};
    Seen.insert(Dest);
    while (!WL.empty()) {
      const Expr *V = WL.back();
      WL.pop_back();
      auto It = InstAt.find(V);
      if (It == InstAt.end())
        continue;
      const IRInst &I = F.Blocks[It->second.first].Insts[It->second.second];
      for (const Expr *Op : collectVariables(I.Rhs))
        if (InstAt.count(Op) && Seen.insert(Op).second)
          WL.push_back(Op);
    }
    size_t N = 0;
    for (const Expr *V : Seen)
      if (InstAt.count(V))
        ++N;
    return N;
  };

  unsigned Rewritten = 0;
  for (const Root &R : Roots) {
    IRInst &Inst = F.Blocks[R.Block].Insts[R.Index];
    const Expr *Flat = flattenValue(Ctx, F, Inst.Dest);
    if (countDagNodes(Flat) > Opts.MaxRegionNodes)
      continue;
    uint64_t AltBefore = mbaAlternation(Flat);
    if (AltBefore < Opts.MinAlternation)
      continue;
    uint64_t FP = exprFingerprint(Flat);
    // Already attempted (and reported) in an earlier pipeline iteration;
    // the verification would fail again at full timeout cost.
    if (FailedVerify && FailedVerify->count(FP))
      continue;

    RegionInfo Info;
    Info.Root = Inst.Dest->varName();
    Info.Block = F.Blocks[R.Block].Name;
    Info.NumInsts = RegionInsts(Inst.Dest);
    Info.NodesBefore = countDagNodes(Flat);
    Info.AlternationBefore = AltBefore;
    if (Report)
      ++Report->RegionsFound;

    const Expr *Simp = Solver.simplify(foldAbstract(Ctx, Flat));
    uint64_t AltAfter = mbaAlternation(Simp);
    Info.NodesAfter = countDagNodes(Simp);
    Info.AlternationAfter = AltAfter;

    // Rewrite only on strict improvement: lower alternation, or equal
    // alternation with a smaller DAG.
    bool Better = AltAfter < AltBefore ||
                  (AltAfter == AltBefore &&
                   Info.NodesAfter < Info.NodesBefore);
    if (Better && Simp != Flat) {
      if (Verifier) {
        CheckResult CR = Verifier->check(Flat, Simp);
        if (CR.Outcome == Verdict::NotEquivalent) {
          // An unsound simplification candidate (only possible with an
          // unsound SynthFallback): blocked, never installed.
          if (Report)
            ++Report->UnsoundBlocked;
          if (FailedVerify)
            FailedVerify->insert(FP);
          Better = false;
        } else if (CR.Outcome == Verdict::Timeout) {
          Info.VerifyTimedOut = true;
          if (FailedVerify)
            FailedVerify->insert(FP);
          Better = false;
        } else {
          Info.Verified = true;
        }
      }
      if (Better) {
        // Sound by SSA dominance: every variable of Simp is a parameter
        // or a phi/instruction definition that (transitively) dominates
        // this instruction, so referencing it here is legal.
        Inst.Rhs = Simp;
        Info.Rewritten = true;
        ++Rewritten;
        if (Report)
          ++Report->RegionsRewritten;
      }
    }
    if (Report)
      Report->Regions.push_back(std::move(Info));
  }
  return Rewritten;
}

//===----------------------------------------------------------------------===//
// The composed pipeline
//===----------------------------------------------------------------------===//

FunctionReport mba::deobfuscateFunction(Context &Ctx, Function &F,
                                        MBASolver &Solver,
                                        Pipeline *Verifier,
                                        const PassOptions &Opts) {
  static const querylog::StageDef FunctionStage{"ir.deobfuscate_function",
                                                nullptr};
  querylog::Stage Stage(FunctionStage);
  FunctionReport Report;
  Report.Name = F.Name;
  Report.BlocksBefore = F.numBlocks();
  Report.InstsBefore = countFunctionInsts(F);
  Report.NodesBefore = countFunctionNodes(F);

  FailedVerifySet FailedVerify;
  for (unsigned Iter = 0; Iter != Opts.MaxIterations; ++Iter) {
    unsigned Changes = 0;
    Changes += foldOpaqueBranches(Ctx, F, Verifier, &Report, &FailedVerify);
    Changes += removeUnreachableBlocks(F, &Report);
    Changes += simplifyTrivialPhis(Ctx, F, &Report);
    Changes += rewriteMBARegions(Ctx, F, Solver, Verifier, Opts, &Report,
                                 &FailedVerify);
    Changes += eliminateDeadInstructions(F, &Report);
    if (!Changes)
      break;
  }

  Report.BlocksAfter = F.numBlocks();
  Report.InstsAfter = countFunctionInsts(F);
  Report.NodesAfter = countFunctionNodes(F);
  telemetry::publish(ReportCounters,
                     {Report.RegionsFound, Report.RegionsRewritten,
                      Report.BranchesFolded, Report.BlocksRemoved,
                      Report.UnsoundBlocked});
  return Report;
}

ProgramReport mba::deobfuscateProgram(Context &Ctx, Program &P,
                                      const PassOptions &Opts) {
  static const querylog::StageDef ProgramStage{"ir.deobfuscate", nullptr};
  querylog::Stage Stage(ProgramStage);
  MBASolver Solver(Ctx, Opts.Simplify);
  std::unique_ptr<Pipeline> Verifier;
  if (Opts.Verify)
    Verifier = std::make_unique<Pipeline>(Ctx, regionVerifierConfig(Opts));

  ProgramReport Report;
  for (Function &F : P.Functions)
    Report.Functions.push_back(
        deobfuscateFunction(Ctx, F, Solver, Verifier.get(), Opts));
  return Report;
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

std::string FunctionReport::str() const {
  std::string S = "func @" + Name + ": blocks " +
                  std::to_string(BlocksBefore) + " -> " +
                  std::to_string(BlocksAfter) + ", insts " +
                  std::to_string(InstsBefore) + " -> " +
                  std::to_string(InstsAfter) + ", nodes " +
                  std::to_string(NodesBefore) + " -> " +
                  std::to_string(NodesAfter) + "\n";
  S += "  regions: " + std::to_string(RegionsFound) + " found, " +
       std::to_string(RegionsRewritten) + " rewritten; branches folded: " +
       std::to_string(BranchesFolded) + "; blocks removed: " +
       std::to_string(BlocksRemoved) + "; phis simplified: " +
       std::to_string(PhisSimplified) + "; insts removed: " +
       std::to_string(InstsRemoved) + "\n";
  if (UnsoundBlocked)
    S += "  UNSOUND CANDIDATES BLOCKED: " + std::to_string(UnsoundBlocked) +
         "\n";
  for (const RegionInfo &R : Regions) {
    S += "  region @" + R.Block + "/" + R.Root + ": " +
         std::to_string(R.NumInsts) + " insts, alternation " +
         std::to_string(R.AlternationBefore) + " -> " +
         std::to_string(R.AlternationAfter) + ", nodes " +
         std::to_string(R.NodesBefore) + " -> " +
         std::to_string(R.NodesAfter);
    if (R.Rewritten)
      S += R.Verified ? " [rewritten, verified]" : " [rewritten]";
    else if (R.VerifyTimedOut)
      S += " [kept: verification timeout]";
    else
      S += " [kept]";
    S += "\n";
  }
  return S;
}

size_t ProgramReport::totalRegionsFound() const {
  size_t N = 0;
  for (const FunctionReport &F : Functions)
    N += F.RegionsFound;
  return N;
}

size_t ProgramReport::totalRegionsRewritten() const {
  size_t N = 0;
  for (const FunctionReport &F : Functions)
    N += F.RegionsRewritten;
  return N;
}

size_t ProgramReport::totalBranchesFolded() const {
  size_t N = 0;
  for (const FunctionReport &F : Functions)
    N += F.BranchesFolded;
  return N;
}

size_t ProgramReport::totalUnsoundBlocked() const {
  size_t N = 0;
  for (const FunctionReport &F : Functions)
    N += F.UnsoundBlocked;
  return N;
}

std::string ProgramReport::str() const {
  std::string S;
  for (const FunctionReport &F : Functions)
    S += F.str();
  S += "total: " + std::to_string(totalRegionsFound()) + " regions found, " +
       std::to_string(totalRegionsRewritten()) + " rewritten, " +
       std::to_string(totalBranchesFolded()) + " branches folded";
  if (size_t U = totalUnsoundBlocked())
    S += ", " + std::to_string(U) + " unsound candidates blocked";
  S += "\n";
  return S;
}
