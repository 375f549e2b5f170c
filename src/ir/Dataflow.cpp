//===- ir/Dataflow.cpp - Dataflow analyses over the program IR ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Dataflow.h"


#include <algorithm>

using namespace mba;

//===----------------------------------------------------------------------===//
// CFG + orders
//===----------------------------------------------------------------------===//

CFG CFG::build(const Function &F) {
  CFG G;
  G.Succs.resize(F.numBlocks());
  G.Preds.resize(F.numBlocks());
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const Terminator &T = F.Blocks[B].Term;
    for (unsigned I = 0; I != T.numSuccessors(); ++I) {
      unsigned S = T.Succs[I];
      G.Succs[B].push_back(S);
      G.Preds[S].push_back(B);
    }
  }
  return G;
}

std::vector<bool> mba::reachableBlocks(const CFG &G) {
  std::vector<bool> Seen(G.numBlocks(), false);
  if (G.numBlocks() == 0)
    return Seen;
  std::vector<unsigned> Stack{0};
  Seen[0] = true;
  while (!Stack.empty()) {
    unsigned B = Stack.back();
    Stack.pop_back();
    for (unsigned S : G.Succs[B])
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back(S);
      }
  }
  return Seen;
}

std::vector<unsigned> mba::reversePostOrder(const CFG &G) {
  std::vector<unsigned> Post;
  if (G.numBlocks() == 0)
    return Post;
  // Iterative DFS with an explicit successor cursor per frame.
  std::vector<uint8_t> State(G.numBlocks(), 0); // 0 new, 1 open, 2 done
  std::vector<std::pair<unsigned, size_t>> Stack;
  Stack.emplace_back(0U, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[B, Cursor] = Stack.back();
    if (Cursor < G.Succs[B].size()) {
      unsigned S = G.Succs[B][Cursor++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
    } else {
      State[B] = 2;
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  std::reverse(Post.begin(), Post.end());
  return Post;
}

//===----------------------------------------------------------------------===//
// Dominator tree (Cooper-Harvey-Kennedy)
//===----------------------------------------------------------------------===//

DominatorTree DominatorTree::build(const CFG &G) {
  DominatorTree DT;
  unsigned N = G.numBlocks();
  DT.Idom.assign(N, -1);
  DT.Level.assign(N, 0);
  if (N == 0)
    return DT;

  std::vector<unsigned> RPO = reversePostOrder(G);
  std::vector<int> RpoNum(N, -1);
  for (unsigned I = 0; I != RPO.size(); ++I)
    RpoNum[RPO[I]] = (int)I;

  DT.Idom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = (unsigned)DT.Idom[A];
      while (RpoNum[B] > RpoNum[A])
        B = (unsigned)DT.Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : RPO) {
      if (B == 0)
        continue;
      int NewIdom = -1;
      for (unsigned P : G.Preds[B]) {
        if (DT.Idom[P] < 0)
          continue; // not yet processed / unreachable
        NewIdom = NewIdom < 0 ? (int)P
                              : (int)Intersect((unsigned)NewIdom, P);
      }
      if (NewIdom >= 0 && DT.Idom[B] != NewIdom) {
        DT.Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }

  for (unsigned B : RPO)
    if (B != 0)
      DT.Level[B] = DT.Level[(unsigned)DT.Idom[B]] + 1;
  return DT;
}

bool DominatorTree::dominates(unsigned A, unsigned B) const {
  if (A >= Idom.size() || B >= Idom.size() || !reachable(A) || !reachable(B))
    return false;
  while (Level[B] > Level[A])
    B = (unsigned)Idom[B];
  return A == B;
}

//===----------------------------------------------------------------------===//
// Def-use chains
//===----------------------------------------------------------------------===//

DefUseInfo DefUseInfo::build(const Function &F) {
  DefUseInfo DU;
  for (unsigned I = 0; I != F.Params.size(); ++I)
    DU.Defs.emplace(F.Params[I], DefSite{DefSite::Param, 0, I});
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Phis.size(); ++I)
      DU.Defs.emplace(BB.Phis[I].Dest, DefSite{DefSite::Phi, B, I});
    for (unsigned I = 0; I != BB.Insts.size(); ++I)
      DU.Defs.emplace(BB.Insts[I].Dest, DefSite{DefSite::Inst, B, I});
  }

  auto AddExprUses = [&](const Expr *E, UseSite Site) {
    for (const Expr *V : collectVariables(E))
      DU.Uses[V].push_back(Site);
  };
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Phis.size(); ++I)
      for (const auto &[Pred, In] : BB.Phis[I].Incoming)
        if (In->isVar())
          DU.Uses[In].push_back(UseSite{UseSite::PhiIn, B, I, Pred});
    for (unsigned I = 0; I != BB.Insts.size(); ++I)
      AddExprUses(BB.Insts[I].Rhs, UseSite{UseSite::InstOp, B, I, 0});
    const Terminator &T = BB.Term;
    if (T.Kind == TermKind::Branch)
      AddExprUses(T.Cond, UseSite{UseSite::TermCond, B, 0, 0});
    else if (T.Kind == TermKind::Ret)
      AddExprUses(T.Value, UseSite{UseSite::TermRet, B, 0, 0});
  }
  return DU;
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

Liveness Liveness::build(const Function &F, const CFG &G) {
  unsigned N = F.numBlocks();
  Liveness L;
  L.LiveIn.resize(N);
  L.LiveOut.resize(N);

  // Per-block defs and upward-exposed uses. Phi incomings are edge uses
  // (handled when computing the predecessor's live-out); phi dests are
  // block-entry defs.
  std::vector<std::unordered_set<const Expr *>> Def(N), UpUse(N);
  for (unsigned B = 0; B != N; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    auto Use = [&](const Expr *E) {
      for (const Expr *V : collectVariables(E))
        if (!Def[B].count(V))
          UpUse[B].insert(V);
    };
    for (const PhiNode &P : BB.Phis)
      Def[B].insert(P.Dest);
    for (const IRInst &I : BB.Insts) {
      Use(I.Rhs);
      Def[B].insert(I.Dest);
    }
    if (BB.Term.Kind == TermKind::Branch)
      Use(BB.Term.Cond);
    else if (BB.Term.Kind == TermKind::Ret)
      Use(BB.Term.Value);
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = N; I-- > 0;) {
      unsigned B = I; // plain reverse index order; fixpoint fixes the rest
      std::unordered_set<const Expr *> Out;
      for (unsigned S : G.Succs[B]) {
        for (const Expr *V : L.LiveIn[S])
          Out.insert(V);
        for (const PhiNode &P : F.Blocks[S].Phis)
          if (const Expr *In = P.incomingFor(B); In && In->isVar())
            Out.insert(In);
      }
      std::unordered_set<const Expr *> In = UpUse[B];
      for (const Expr *V : Out)
        if (!Def[B].count(V))
          In.insert(V);
      if (Out != L.LiveOut[B] || In != L.LiveIn[B]) {
        L.LiveOut[B] = std::move(Out);
        L.LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
  return L;
}

//===----------------------------------------------------------------------===//
// SSA verification
//===----------------------------------------------------------------------===//

namespace {

bool verifyFail(Diag *D, SourceLoc Loc, std::string Token,
                std::string Message) {
  if (D)
    *D = Diag{Loc.Line, Loc.Col, std::move(Token), std::move(Message)};
  return false;
}

} // namespace

bool mba::verifyFunction(const Context &Ctx, const Function &F, Diag *D) {
  (void)Ctx;
  if (F.Blocks.empty())
    return verifyFail(D, {}, "", "function '@" + F.Name + "' has no blocks");

  unsigned N = F.numBlocks();
  // Structural checks first: successor ids in range, dest/param shapes.
  std::unordered_map<const Expr *, SourceLoc> DefLoc;
  auto Define = [&](const Expr *V, SourceLoc Loc, std::string_view What,
                    std::string *Err) {
    if (!V || !V->isVar()) {
      *Err = std::string(What) + " destination is not a variable";
      return false;
    }
    auto [It, New] = DefLoc.emplace(V, Loc);
    if (!New) {
      *Err = "redefinition of '" + std::string(V->varName()) +
             "' (first defined at line " + std::to_string(It->second.Line) +
             "; functions are in SSA form)";
      return false;
    }
    return true;
  };

  std::string Err;
  for (const Expr *P : F.Params)
    if (!Define(P, SourceLoc{}, "parameter", &Err))
      return verifyFail(D, {}, P && P->isVar() ? P->varName() : "", Err);

  for (unsigned B = 0; B != N; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    const Terminator &T = BB.Term;
    for (unsigned I = 0; I != T.numSuccessors(); ++I)
      if (T.Succs[I] >= N)
        return verifyFail(D, T.Loc, "",
                          "terminator of block '" + BB.Name +
                              "' targets block id " +
                              std::to_string(T.Succs[I]) + " of " +
                              std::to_string(N));
    if (T.Kind == TermKind::Branch && !T.Cond)
      return verifyFail(D, T.Loc, "", "branch without a condition");
    if (T.Kind == TermKind::Ret && !T.Value)
      return verifyFail(D, T.Loc, "", "ret without a value");
    for (const PhiNode &P : BB.Phis)
      if (!Define(P.Dest, P.Loc, "phi", &Err))
        return verifyFail(D, P.Loc,
                          P.Dest && P.Dest->isVar() ? P.Dest->varName() : "",
                          Err);
    for (const IRInst &I : BB.Insts)
      if (!Define(I.Dest, I.Loc, "instruction", &Err))
        return verifyFail(D, I.Loc,
                          I.Dest && I.Dest->isVar() ? I.Dest->varName() : "",
                          Err);
  }

  CFG G = CFG::build(F);

  // Entry phis can never be evaluated for the initial entry from outside.
  if (!F.Blocks[0].Phis.empty())
    return verifyFail(D, F.Blocks[0].Phis[0].Loc,
                      F.Blocks[0].Phis[0].Dest->varName(),
                      "the entry block cannot have phi nodes");

  // Phi incoming lists must name each CFG predecessor exactly once; phi
  // incoming values must be variables or constants.
  for (unsigned B = 0; B != N; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    std::unordered_set<unsigned> PredSet(G.Preds[B].begin(),
                                         G.Preds[B].end());
    for (const PhiNode &P : BB.Phis) {
      std::unordered_set<unsigned> Seen;
      for (const auto &[Pred, In] : P.Incoming) {
        if (!In || (!In->isVar() && !In->isConst()))
          return verifyFail(D, P.Loc, P.Dest->varName(),
                            "phi incoming values must be variables or "
                            "constants");
        if (Pred >= N || !PredSet.count(Pred))
          return verifyFail(
              D, P.Loc, Pred < N ? F.Blocks[Pred].Name : "",
              "phi of '" + std::string(P.Dest->varName()) +
                  "' has an incoming from '" +
                  (Pred < N ? F.Blocks[Pred].Name : "<out of range>") +
                  "', which is not a predecessor of '" + BB.Name + "'");
        if (!Seen.insert(Pred).second)
          return verifyFail(D, P.Loc, F.Blocks[Pred].Name,
                            "phi of '" + std::string(P.Dest->varName()) +
                                "' lists predecessor '" +
                                F.Blocks[Pred].Name + "' twice");
      }
      for (unsigned Pred : PredSet)
        if (!Seen.count(Pred))
          return verifyFail(D, P.Loc, F.Blocks[Pred].Name,
                            "phi of '" + std::string(P.Dest->varName()) +
                                "' is missing an incoming for predecessor '" +
                                F.Blocks[Pred].Name + "'");
    }
  }

  // Dominance: every use in a reachable block must be dominated by its
  // definition. Instruction order within a block gives the intra-block
  // relation; a phi incoming is a use at the end of the predecessor.
  DominatorTree DT = DominatorTree::build(G);
  std::vector<bool> Reach = reachableBlocks(G);

  // Position of each def inside its block: phis count as position -1
  // (before every instruction), instruction i as position i.
  struct Pos {
    unsigned Block;
    int Index; ///< -2 param (dominates everything), -1 phi, >=0 inst
  };
  std::unordered_map<const Expr *, Pos> DefPos;
  for (const Expr *P : F.Params)
    DefPos.emplace(P, Pos{0, -2});
  for (unsigned B = 0; B != N; ++B) {
    for (const PhiNode &P : F.Blocks[B].Phis)
      DefPos.emplace(P.Dest, Pos{B, -1});
    for (unsigned I = 0; I != F.Blocks[B].Insts.size(); ++I)
      DefPos.emplace(F.Blocks[B].Insts[I].Dest, Pos{B, (int)I});
  }

  auto CheckUse = [&](const Expr *V, unsigned UseBlock, int UsePos,
                      std::string *Msg) {
    auto It = DefPos.find(V);
    if (It == DefPos.end()) {
      *Msg = "use of undefined value '" + std::string(V->varName()) + "'";
      return false;
    }
    if (!Reach[UseBlock])
      return true; // unreachable code: structural checks only
    const Pos &P = It->second;
    bool Ok;
    if (P.Index == -2)
      Ok = true; // parameters dominate every use
    else if (P.Block == UseBlock)
      Ok = P.Index < UsePos;
    else
      Ok = DT.dominates(P.Block, UseBlock);
    if (!Ok) {
      *Msg = "use of '" + std::string(V->varName()) +
             "' is not dominated by its definition (use before def)";
      return false;
    }
    return true;
  };

  std::string Msg;
  for (unsigned B = 0; B != N; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (const PhiNode &P : BB.Phis)
      for (const auto &[Pred, In] : P.Incoming) {
        if (!In->isVar())
          continue;
        // The incoming value is read at the end of Pred.
        if (!CheckUse(In, Pred, (int)F.Blocks[Pred].Insts.size(), &Msg))
          return verifyFail(D, P.Loc, In->varName(), Msg);
      }
    for (unsigned I = 0; I != BB.Insts.size(); ++I)
      for (const Expr *V : collectVariables(BB.Insts[I].Rhs))
        if (!CheckUse(V, B, (int)I, &Msg))
          return verifyFail(D, BB.Insts[I].Loc, V->varName(), Msg);
    const Expr *TermE = BB.Term.Kind == TermKind::Branch ? BB.Term.Cond
                        : BB.Term.Kind == TermKind::Ret ? BB.Term.Value
                                                        : nullptr;
    if (TermE)
      for (const Expr *V : collectVariables(TermE))
        if (!CheckUse(V, B, (int)BB.Insts.size(), &Msg))
          return verifyFail(D, BB.Term.Loc, V->varName(), Msg);
  }
  return true;
}
