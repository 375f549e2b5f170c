//===- analysis/EGraph.cpp - E-graph with congruence closure --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/EGraph.h"

#include "ast/ExprUtils.h"

#include <algorithm>
#include <limits>
#include <tuple>

using namespace mba;

namespace {

/// The order of a class's node list: (kind, lhs, rhs, aux).
bool nodeLess(const ENode &X, const ENode &Y) {
  return std::tie(X.Kind, X.Lhs, X.Rhs, X.Aux) <
         std::tie(Y.Kind, Y.Lhs, Y.Rhs, Y.Aux);
}

} // namespace

EGraph::EGraph(Context &Ctx) : Ctx(Ctx) {}

EClassId EGraph::find(EClassId Id) const {
  while (Parent[Id] != Id) {
    Parent[Id] = Parent[Parent[Id]]; // path halving
    Id = Parent[Id];
  }
  return Id;
}

ENode EGraph::canonicalize(ENode N) const {
  if (isUnaryKind(N.Kind)) {
    N.Lhs = find(N.Lhs);
  } else if (isBinaryKind(N.Kind)) {
    N.Lhs = find(N.Lhs);
    N.Rhs = find(N.Rhs);
  }
  return N;
}

EClassId EGraph::intern(const ENode &N) {
  auto It = Hashcons.find(N);
  if (It != Hashcons.end())
    return find(It->second);
  EClassId Id = (EClassId)Parent.size();
  Parent.push_back(Id);
  Classes.emplace_back();
  Classes[Id].Nodes.push_back(N);
  if (N.Kind == ExprKind::Const)
    Classes[Id].Const = N.Aux;
  Hashcons.emplace(N, Id);
  if (isUnaryKind(N.Kind)) {
    Classes[N.Lhs].Parents.push_back({N, Id});
  } else if (isBinaryKind(N.Kind)) {
    Classes[N.Lhs].Parents.push_back({N, Id});
    if (N.Rhs != N.Lhs)
      Classes[N.Rhs].Parents.push_back({N, Id});
  }
  return Id;
}

uint64_t EGraph::evalOp(ExprKind K, uint64_t A, uint64_t B) const {
  switch (K) {
  case ExprKind::Not: return Ctx.truncate(~A);
  case ExprKind::Neg: return Ctx.truncate(0 - A);
  case ExprKind::Add: return Ctx.truncate(A + B);
  case ExprKind::Sub: return Ctx.truncate(A - B);
  case ExprKind::Mul: return Ctx.truncate(A * B);
  case ExprKind::And: return A & B;
  case ExprKind::Or: return A | B;
  case ExprKind::Xor: return A ^ B;
  default:
    assert(false && "not an operator kind");
    return 0;
  }
}

EClassId EGraph::addVar(unsigned VarIndex) {
  return intern(ENode{ExprKind::Var, 0, 0, VarIndex});
}

EClassId EGraph::addConst(uint64_t Value) {
  return intern(ENode{ExprKind::Const, 0, 0, Ctx.truncate(Value)});
}

EClassId EGraph::addNode(ExprKind K, EClassId A, EClassId B) {
  ENode N;
  N.Kind = K;
  N.Lhs = find(A);
  if (isBinaryKind(K))
    N.Rhs = find(B);
  EClassId Id = intern(N);
  // Eager constant folding: all-constant operands make the class constant.
  if (!Classes[Id].Const) {
    std::optional<uint64_t> CA = Classes[N.Lhs].Const;
    std::optional<uint64_t> CB =
        isBinaryKind(K) ? Classes[N.Rhs].Const : std::optional<uint64_t>(0);
    if (CA && CB) {
      EClassId C = addConst(evalOp(K, *CA, *CB));
      merge(Id, C);
      Id = find(Id);
    }
  }
  return Id;
}

EClassId EGraph::addExpr(const Expr *E) {
  std::unordered_map<const Expr *, EClassId> Memo;
  forEachUnseenPostOrder(E, Memo, [&](const Expr *N) {
    EClassId Id;
    switch (N->kind()) {
    case ExprKind::Var:
      Id = addVar(N->varIndex());
      break;
    case ExprKind::Const:
      Id = addConst(N->constValue());
      break;
    case ExprKind::Not:
    case ExprKind::Neg:
      Id = addNode(N->kind(), Memo.at(N->operand()));
      break;
    default:
      Id = addNode(N->kind(), Memo.at(N->lhs()), Memo.at(N->rhs()));
      break;
    }
    Memo.emplace(N, Id);
  });
  return find(Memo.at(E));
}

bool EGraph::merge(EClassId A, EClassId B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return false;
  // The older class (lower id) stays the representative, so a class's
  // canonical id is its oldest member's whatever order the merges came in,
  // and match loops, which visit classes in id order, see the input's
  // classes first. Only the shorter lists are copied.
  if (A > B)
    std::swap(A, B);
  Parent[B] = A;
  ++Merges;
  EClass &Into = Classes[A], &From = Classes[B];
  if (Into.Parents.size() < From.Parents.size()) {
    std::swap(Into.Nodes, From.Nodes);
    std::swap(Into.Parents, From.Parents);
  }
  Into.Nodes.insert(Into.Nodes.end(), From.Nodes.begin(), From.Nodes.end());
  Into.Parents.insert(Into.Parents.end(), From.Parents.begin(),
                      From.Parents.end());
  if (From.Const) {
    // Two distinct constants in one class would mean an unsound merge was
    // requested; rules are certified, so this cannot happen.
    assert(!Into.Const || *Into.Const == *From.Const);
    Into.Const = From.Const;
  }
  From.Nodes.clear();
  From.Nodes.shrink_to_fit();
  From.Parents.clear();
  From.Parents.shrink_to_fit();
  Dirty.push_back(A);
  return true;
}

void EGraph::rebuild() {
  std::vector<EClassId> Sweep;
  while (!Dirty.empty()) {
    // One sweep repairs each merged class once, however many merges it
    // absorbed; repairs that merge again queue the next sweep.
    Sweep.swap(Dirty);
    for (EClassId &Id : Sweep)
      Id = find(Id);
    std::sort(Sweep.begin(), Sweep.end());
    Sweep.erase(std::unique(Sweep.begin(), Sweep.end()), Sweep.end());
    for (EClassId Id : Sweep)
      if (find(Id) == Id) // else absorbed this sweep; its root is queued
        repair(Id);
    Sweep.clear();
  }
  assert(nodeListsSorted());
}

void EGraph::repair(EClassId Id) {
  // Steal the parent list; re-canonicalized survivors are put back.
  std::vector<std::pair<ENode, EClassId>> Parents;
  Parents.swap(Classes[Id].Parents);
  for (auto &[Node, NodeClass] : Parents) {
    Hashcons.erase(Node); // stale key (pre-merge operand ids)
    Node = canonicalize(Node);
    EClassId Cls = find(NodeClass);
    auto [It, Inserted] = Hashcons.emplace(Node, Cls);
    if (!Inserted)
      merge(It->second, Cls); // congruence: same canonical node twice
    Cls = find(Cls);
    // Fold operators whose operands became constant through merging.
    if (!Classes[Cls].Const && isBinaryKind(Node.Kind)) {
      std::optional<uint64_t> CA = Classes[find(Node.Lhs)].Const;
      std::optional<uint64_t> CB = Classes[find(Node.Rhs)].Const;
      if (CA && CB)
        merge(Cls, addConst(evalOp(Node.Kind, *CA, *CB)));
    } else if (!Classes[Cls].Const && isUnaryKind(Node.Kind)) {
      if (std::optional<uint64_t> CA = Classes[find(Node.Lhs)].Const)
        merge(Cls, addConst(evalOp(Node.Kind, *CA, 0)));
    }
  }
  // Keep each (e-node, class) pair once. The nodes stay as interned above:
  // they are the hashcons keys the next repair erases.
  for (auto &Entry : Parents)
    Entry.second = find(Entry.second);
  std::sort(Parents.begin(), Parents.end(), [](const auto &X, const auto &Y) {
    return nodeLess(X.first, Y.first) ||
           (X.first == Y.first && X.second < Y.second);
  });
  Parents.erase(std::unique(Parents.begin(), Parents.end()), Parents.end());
  EClass &Root = Classes[find(Id)];
  Root.Parents.insert(Root.Parents.end(), Parents.begin(), Parents.end());
  // Deduplicate the class's own nodes under the new canonicalization.
  for (ENode &N : Root.Nodes)
    N = canonicalize(N);
  std::sort(Root.Nodes.begin(), Root.Nodes.end(), nodeLess);
  Root.Nodes.erase(std::unique(Root.Nodes.begin(), Root.Nodes.end()),
                   Root.Nodes.end());
}

bool EGraph::nodeListsSorted() const {
  for (EClassId Id = 0; Id != (EClassId)Parent.size(); ++Id)
    if (find(Id) == Id &&
        std::adjacent_find(Classes[Id].Nodes.begin(), Classes[Id].Nodes.end(),
                           [](const ENode &X, const ENode &Y) {
                             return !nodeLess(X, Y);
                           }) != Classes[Id].Nodes.end())
      return false;
  return true;
}

std::optional<uint64_t> EGraph::constantOf(EClassId Id) const {
  return Classes[find(Id)].Const;
}

const std::vector<ENode> &EGraph::nodesOf(EClassId Id) const {
  return Classes[find(Id)].Nodes;
}

std::span<const ENode> EGraph::nodesOfKind(EClassId Id, ExprKind K) const {
  assert(Dirty.empty() && "node order is only defined after rebuild()");
  const std::vector<ENode> &Nodes = Classes[find(Id)].Nodes;
  auto First = std::partition_point(Nodes.begin(), Nodes.end(),
                                    [K](const ENode &N) { return N.Kind < K; });
  auto Last = std::partition_point(First, Nodes.end(),
                                   [K](const ENode &N) { return N.Kind == K; });
  return {First, Last};
}

std::vector<EClassId> EGraph::canonicalClasses() const {
  std::vector<EClassId> Ids;
  for (EClassId Id = 0; Id != (EClassId)Parent.size(); ++Id)
    if (find(Id) == Id)
      Ids.push_back(Id);
  return Ids;
}

size_t EGraph::numClasses() const {
  size_t N = 0;
  for (EClassId Id = 0; Id != (EClassId)Parent.size(); ++Id)
    if (find(Id) == Id)
      ++N;
  return N;
}

const Expr *EGraph::extract(EClassId Root) const {
  Root = find(Root);
  const size_t Inf = std::numeric_limits<size_t>::max();
  // Minimal tree-size cost per class, to a fixpoint (bottom-up; the e-graph
  // may contain cycles through merged classes, which simply never relax).
  std::unordered_map<EClassId, std::pair<size_t, ENode>> Best;
  bool Changed = true;
  auto CostOf = [&](EClassId Id) -> size_t {
    auto It = Best.find(find(Id));
    return It == Best.end() ? Inf : It->second.first;
  };
  std::vector<EClassId> Live = canonicalClasses();
  while (Changed) {
    Changed = false;
    for (EClassId Id : Live) {
      for (const ENode &N : Classes[Id].Nodes) {
        size_t Cost;
        if (N.Kind == ExprKind::Var || N.Kind == ExprKind::Const) {
          Cost = 1;
        } else if (isUnaryKind(N.Kind)) {
          size_t C = CostOf(N.Lhs);
          Cost = C == Inf ? Inf : C + 1;
        } else {
          size_t CL = CostOf(N.Lhs), CR = CostOf(N.Rhs);
          Cost = (CL == Inf || CR == Inf ||
                  CL + CR >= Inf - 1)
                     ? Inf
                     : CL + CR + 1;
        }
        if (Cost < CostOf(Id)) {
          Best[Id] = {Cost, N};
          Changed = true;
        }
      }
    }
  }
  if (Best.find(Root) == Best.end())
    return nullptr;
  // Build the chosen representatives bottom-up (memoized per class), the
  // rhs operand's class before the lhs one's, as forEachUnseenPostOrder
  // orders operands. The chosen nodes form a DAG: each operand's cost is
  // below its user's.
  std::unordered_map<EClassId, const Expr *> Built;
  auto BuiltOf = [&](EClassId Id) { return Built.at(find(Id)); };
  // Each entry is a class and whether its operands were already pushed.
  std::vector<std::pair<EClassId, bool>> Stack{{Root, false}};
  while (!Stack.empty()) {
    auto [Id, Expanded] = Stack.back();
    Stack.pop_back();
    if (Built.contains(Id))
      continue;
    const ENode &N = Best.at(Id).second;
    if (!Expanded) {
      Stack.push_back({Id, true});
      if (isUnaryKind(N.Kind) || isBinaryKind(N.Kind))
        Stack.push_back({find(N.Lhs), false});
      if (isBinaryKind(N.Kind))
        Stack.push_back({find(N.Rhs), false});
      continue;
    }
    const Expr *E;
    switch (N.Kind) {
    case ExprKind::Var:
      E = Ctx.getVarByIndex((unsigned)N.Aux);
      break;
    case ExprKind::Const:
      E = Ctx.getConst(N.Aux);
      break;
    case ExprKind::Not:
    case ExprKind::Neg:
      E = Ctx.getUnary(N.Kind, BuiltOf(N.Lhs));
      break;
    default:
      E = Ctx.getBinary(N.Kind, BuiltOf(N.Lhs), BuiltOf(N.Rhs));
      break;
    }
    Built.emplace(Id, E);
  }
  return Built.at(Root);
}
