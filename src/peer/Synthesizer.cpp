//===- peer/Synthesizer.cpp - Syntia-style MCTS program synthesis ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "peer/Synthesizer.h"

#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"

#include <bit>
#include <cmath>

using namespace mba;

namespace {

/// The candidate grammar: leaf productions (variables and small constants)
/// followed by binary and unary operators.
class Grammar {
public:
  Grammar(Context &Ctx, std::span<const Expr *const> Vars)
      : Ctx(Ctx), Vars(Vars.begin(), Vars.end()) {
    for (uint64_t C : {0ULL, 1ULL, 2ULL, ~0ULL})
      Consts.push_back(Ctx.getConst(C));
  }

  unsigned numProductions() const {
    return (unsigned)(Vars.size() + Consts.size() + NumBinary + NumUnary);
  }

  /// Operand count of production \p P (0 leaf, 1 unary, 2 binary).
  unsigned arity(unsigned P) const {
    unsigned Leaves = (unsigned)(Vars.size() + Consts.size());
    if (P < Leaves)
      return 0;
    return P < Leaves + NumBinary ? 2 : 1;
  }

  /// Builds the node for production \p P over already-built operands.
  const Expr *build(unsigned P, const Expr *A, const Expr *B) const {
    unsigned Leaves = (unsigned)(Vars.size() + Consts.size());
    if (P < Vars.size())
      return Vars[P];
    if (P < Leaves)
      return Consts[P - Vars.size()];
    switch (P - Leaves) {
    case 0:
      return Ctx.getAdd(A, B);
    case 1:
      return Ctx.getSub(A, B);
    case 2:
      return Ctx.getMul(A, B);
    case 3:
      return Ctx.getAnd(A, B);
    case 4:
      return Ctx.getOr(A, B);
    case 5:
      return Ctx.getXor(A, B);
    case 6:
      return Ctx.getNot(A);
    default:
      return Ctx.getNeg(A);
    }
  }

private:
  static constexpr unsigned NumBinary = 6;
  static constexpr unsigned NumUnary = 2;
  Context &Ctx;
  std::vector<const Expr *> Vars;
  std::vector<const Expr *> Consts;
};

/// A partial derivation: preorder production sequence with open holes.
struct Derivation {
  std::vector<uint8_t> Prods;
  unsigned Holes = 1;

  bool complete() const { return Holes == 0; }

  void apply(unsigned P, const Grammar &G) {
    Prods.push_back((uint8_t)P);
    Holes += G.arity(P) - 1;
  }

  /// A production is admissible if the size cap stays satisfiable: every
  /// open hole still needs at least one production.
  bool admissible(unsigned P, const Grammar &G, unsigned MaxNodes) const {
    return Prods.size() + Holes + G.arity(P) <= MaxNodes;
  }
};

/// Builds the expression of a complete derivation (preorder replay).
const Expr *buildExpr(const Derivation &D, const Grammar &G, size_t &Pos) {
  unsigned P = D.Prods[Pos++];
  switch (G.arity(P)) {
  case 0:
    return G.build(P, nullptr, nullptr);
  case 1: {
    const Expr *A = buildExpr(D, G, Pos);
    return G.build(P, A, nullptr);
  }
  default: {
    const Expr *A = buildExpr(D, G, Pos);
    const Expr *B = buildExpr(D, G, Pos);
    return G.build(P, A, B);
  }
  }
}

struct TreeNode {
  Derivation State;
  int32_t Parent = -1;
  std::vector<int32_t> Children;       // index into pool, -1 = unexpanded
  std::vector<uint8_t> ChildProd;      // production of each child slot
  uint32_t Visits = 0;
  double BestReward = 0;
};

} // namespace

SynthResult Synthesizer::synthesize(const Expr *Target,
                                    std::span<const Expr *const> Vars,
                                    const SynthOptions &Opts) {
  RNG Rng(Opts.Seed);
  Grammar G(Ctx, Vars);
  unsigned Width = Ctx.width();
  uint64_t Mask = Ctx.mask();

  // The I/O oracle: corner-ish samples first, then random ones. Outputs
  // come from the target, which is otherwise treated as a black box. The
  // inputs are kept transposed — one lane of NumSamples values per
  // variable index — so each candidate runs once over the whole batch.
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  const size_t NumSamples = Opts.NumSamples;
  std::vector<uint64_t> Lanes((MaxIndex + 1) * NumSamples, 0);
  const uint64_t Special[] = {0, 1, Mask, 2};
  for (size_t S = 0; S != NumSamples; ++S)
    for (const Expr *V : Vars)
      Lanes[V->varIndex() * NumSamples + S] =
          S < 4 ? Special[(S + V->varIndex()) % 4] : (Rng.next() & Mask);
  std::vector<const uint64_t *> LanePtrs;
  for (unsigned I = 0; I <= MaxIndex; ++I)
    LanePtrs.push_back(Lanes.data() + I * NumSamples);
  const std::vector<uint64_t> Outputs =
      BitslicedExpr(Ctx, Target).evaluatePoints(LanePtrs, NumSamples);

  // Reward: mean per-sample bit similarity; 1.0 iff all samples match.
  // Each candidate gets its own program rather than Context::getBitsliced,
  // whose cache would keep every random candidate alive with the context.
  auto RewardOf = [&](const Expr *E) {
    std::vector<uint64_t> Out =
        BitslicedExpr(Ctx, E).evaluatePoints(LanePtrs, NumSamples);
    double Total = 0;
    for (size_t S = 0; S != NumSamples; ++S) {
      unsigned Wrong = (unsigned)std::popcount((Out[S] ^ Outputs[S]) & Mask);
      Total += 1.0 - (double)Wrong / Width;
    }
    return Total / (double)NumSamples;
  };

  // Uniform random completion under the size cap.
  auto Rollout = [&](Derivation D) {
    while (!D.complete()) {
      unsigned P;
      do {
        P = (unsigned)Rng.below(G.numProductions());
      } while (!D.admissible(P, G, Opts.MaxNodes));
      D.apply(P, G);
    }
    size_t Pos = 0;
    return buildExpr(D, G, Pos);
  };

  std::vector<TreeNode> Pool(1);
  Pool[0].State = Derivation();

  SynthResult Result;
  Result.Best = Ctx.getZero();
  Result.BestReward = -1;
  double BestScore = -1e9;

  // Candidate preference: exact matches first, then reward with a small
  // parsimony penalty so a compact exact form beats a bloated one.
  auto Consider = [&](const Expr *E) {
    double Raw = RewardOf(E);
    double Score = Raw - 0.004 * (double)countTreeNodes(E);
    bool Exact = Raw >= 1.0;
    bool BestIsExact = Result.BestReward >= 1.0;
    if ((Exact && !BestIsExact) || (Exact == BestIsExact && Score > BestScore)) {
      BestScore = Score;
      Result.BestReward = Raw;
      Result.Best = E;
    }
    return Raw;
  };

  uint32_t FirstExactIter = UINT32_MAX;
  for (unsigned Iter = 0; Iter != Opts.MaxIterations; ++Iter) {
    Result.IterationsUsed = Iter + 1;

    // Selection: descend while fully expanded and non-terminal.
    int32_t NodeIdx = 0;
    for (;;) {
      TreeNode &Node = Pool[NodeIdx];
      if (Node.State.complete())
        break;
      if (Node.Children.empty()) {
        // Materialize child slots for admissible productions.
        for (unsigned P = 0; P != G.numProductions(); ++P) {
          if (Node.State.admissible(P, G, Opts.MaxNodes)) {
            Node.Children.push_back(-1);
            Node.ChildProd.push_back((uint8_t)P);
          }
        }
      }
      // Expand a random unexpanded slot if any.
      std::vector<unsigned> Unexpanded;
      for (unsigned I = 0; I != Node.Children.size(); ++I)
        if (Node.Children[I] < 0)
          Unexpanded.push_back(I);
      if (!Unexpanded.empty()) {
        unsigned Slot = Unexpanded[Rng.below(Unexpanded.size())];
        TreeNode Child;
        Child.State = Node.State;
        Child.State.apply(Node.ChildProd[Slot], G);
        Child.Parent = NodeIdx;
        Pool.push_back(std::move(Child));
        Pool[NodeIdx].Children[Slot] = (int32_t)(Pool.size() - 1);
        NodeIdx = (int32_t)(Pool.size() - 1);
        break;
      }
      // UCT over expanded children with max-reward exploitation (SA-UCT).
      double BestScore = -1;
      int32_t BestChild = -1;
      for (unsigned I = 0; I != Node.Children.size(); ++I) {
        const TreeNode &C = Pool[Node.Children[I]];
        double Score =
            C.BestReward + Opts.ExplorationC *
                               std::sqrt(std::log((double)Node.Visits + 2) /
                                         ((double)C.Visits + 1));
        if (Score > BestScore) {
          BestScore = Score;
          BestChild = Node.Children[I];
        }
      }
      NodeIdx = BestChild;
    }

    // Simulation.
    const Expr *Candidate = Rollout(Pool[NodeIdx].State);
    double R = Consider(Candidate);

    // Backpropagation (max reward).
    for (int32_t I = NodeIdx; I >= 0; I = Pool[I].Parent) {
      ++Pool[I].Visits;
      Pool[I].BestReward = std::max(Pool[I].BestReward, R);
    }

    // Once an exact match exists, keep searching briefly for a smaller
    // one, then stop.
    if (Result.BestReward >= 1.0) {
      if (FirstExactIter == UINT32_MAX)
        FirstExactIter = Iter;
      if (countTreeNodes(Result.Best) <= 5 || Iter >= FirstExactIter + 400)
        break;
    }
  }

  Result.MatchesAllSamples = Result.BestReward >= 1.0;
  return Result;
}
