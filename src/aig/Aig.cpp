//===- aig/Aig.cpp - And-Inverter Graph with structural hashing -----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aig/Aig.h"

#include "support/Telemetry.h"

#include <algorithm>

using namespace mba;
using namespace mba::aig;

namespace {
telemetry::Counter &ctrNodes() {
  static telemetry::Counter &C = telemetry::counter("aig.nodes");
  return C;
}
telemetry::Counter &ctrStrashHits() {
  static telemetry::Counter &C = telemetry::counter("aig.strash_hits");
  return C;
}
telemetry::Counter &ctrRewrites() {
  static telemetry::Counter &C = telemetry::counter("aig.rewrites");
  return C;
}
telemetry::Counter &ctrConstFolds() {
  static telemetry::Counter &C = telemetry::counter("aig.const_folds");
  return C;
}
} // namespace

AigLit Aig::newAnd(AigLit A, AigLit B) {
  uint32_t N = (uint32_t)Nodes.size();
  Nodes.push_back(Node{A.code(), B.code()});
  ++St.AndNodes;
  ctrNodes().add();
  return AigLit(N, false);
}

AigLit Aig::mkAnd(AigLit A, AigLit B) {
  if (Level == AigLevel::Plain) {
    if (B < A)
      std::swap(A, B);
    return newAnd(A, B);
  }

  // Level 1: constants and trivial sharing.
  if (A == falseLit() || B == falseLit() || A == ~B) {
    ++St.ConstFolds;
    ctrConstFolds().add();
    return falseLit();
  }
  if (A == trueLit())
    return B;
  if (B == trueLit())
    return A;
  if (A == B)
    return A;

  if (Level == AigLevel::Full)
    if (std::optional<AigLit> R = twoLevelRewrite(A, B))
      return *R;

  // Canonical operand order, then the structural hash.
  if (B < A)
    std::swap(A, B);
  uint64_t Key = (uint64_t)A.code() << 32 | B.code();
  auto [It, Inserted] = Strash.try_emplace(Key, 0);
  if (!Inserted) {
    ++St.StrashHits;
    ctrStrashHits().add();
    return AigLit(It->second, false);
  }
  AigLit N = newAnd(A, B);
  It->second = N.node();
  return N;
}

std::optional<AigLit> Aig::twoLevelRewrite(AigLit A, AigLit B) {
  // One level of fanin lookahead (Brummayer & Biere's rules).
  // and(and(x,y), b): contradiction and idempotence/absorption.
  for (int Side = 0; Side != 2; ++Side) {
    AigLit P = Side ? B : A, Other = Side ? A : B;
    if (!isPosAnd(P))
      continue;
    AigLit X = fanin0(P.node()), Y = fanin1(P.node());
    if (Other == ~X || Other == ~Y) {
      ++St.Rewrites;
      ++St.ConstFolds;
      ctrRewrites().add();
      ctrConstFolds().add();
      return falseLit();
    }
    if (Other == X || Other == Y) {
      ++St.Rewrites;
      ctrRewrites().add();
      return P;
    }
  }
  // and(~and(x,y), b): subsumption and substitution.
  for (int Side = 0; Side != 2; ++Side) {
    AigLit P = Side ? B : A, Other = Side ? A : B;
    if (!isNegAnd(P))
      continue;
    AigLit X = fanin0(P.node()), Y = fanin1(P.node());
    if (Other == ~X || Other == ~Y) {
      // b implies ~and(x,y) already.
      ++St.Rewrites;
      ctrRewrites().add();
      return Other;
    }
    if (Other == X) {
      // ~(x&y) & x == x & ~y.
      ++St.Rewrites;
      ctrRewrites().add();
      return mkAnd(X, ~Y);
    }
    if (Other == Y) {
      ++St.Rewrites;
      ctrRewrites().add();
      return mkAnd(Y, ~X);
    }
  }
  // and(and(x,y), and(u,v)): contradiction across the grandchildren.
  if (isPosAnd(A) && isPosAnd(B)) {
    AigLit X = fanin0(A.node()), Y = fanin1(A.node());
    AigLit U = fanin0(B.node()), V = fanin1(B.node());
    if (X == ~U || X == ~V || Y == ~U || Y == ~V) {
      ++St.Rewrites;
      ++St.ConstFolds;
      ctrRewrites().add();
      ctrConstFolds().add();
      return falseLit();
    }
  }
  // and(~and(x,y), ~and(u,v)): resolution — ~(x&y) & ~(x&~y) == ~x.
  if (isNegAnd(A) && isNegAnd(B)) {
    AigLit X = fanin0(A.node()), Y = fanin1(A.node());
    AigLit U = fanin0(B.node()), V = fanin1(B.node());
    if ((X == U && Y == ~V) || (X == V && Y == ~U)) {
      ++St.Rewrites;
      ctrRewrites().add();
      return ~X;
    }
    if ((Y == U && X == ~V) || (Y == V && X == ~U)) {
      ++St.Rewrites;
      ctrRewrites().add();
      return ~Y;
    }
  }
  return std::nullopt;
}

AigLit Aig::mkXor(AigLit A, AigLit B) {
  bool Flip = false;
  if (Level == AigLevel::Strash) {
    // xor(~a, b) == ~xor(a, b): build over positive operands in canonical
    // order so every polarity of one operand pair shares a single gate.
    Flip = A.complemented() != B.complemented();
    A = AigLit(A.node(), false);
    B = AigLit(B.node(), false);
    if (B < A)
      std::swap(A, B);
  }
  AigLit X = ~mkAnd(~mkAnd(A, ~B), ~mkAnd(~A, B));
  return Flip ? ~X : X;
}

XorMux Aig::matchXorMux(uint32_t N) const {
  if (!isAnd(N))
    return XorMux();
  AigLit L = fanin0(N), R = fanin1(N);
  if (!isNegAnd(L) || !isNegAnd(R))
    return XorMux();
  AigLit A0 = fanin0(L.node()), A1 = fanin1(L.node());
  AigLit B0 = fanin0(R.node()), B1 = fanin1(R.node());
  // N = ~(a&b) & ~(~a&~b) == a ^ b. (Check before MUX: the XOR shape also
  // matches the MUX shape.)
  if ((B0 == ~A0 && B1 == ~A1) || (B0 == ~A1 && B1 == ~A0))
    return XorMux{XorMux::Xor, A0, A1, AigLit()};
  // N = ~(s&t) & ~(~s&e) == ~(s ? t : e), for a selector shared in
  // opposite polarity.
  if (B0 == ~A0)
    return XorMux{XorMux::Mux, A0, A1, B1};
  if (B1 == ~A0)
    return XorMux{XorMux::Mux, A0, A1, B0};
  if (B0 == ~A1)
    return XorMux{XorMux::Mux, A1, A0, B1};
  if (B1 == ~A1)
    return XorMux{XorMux::Mux, A1, A0, B0};
  return XorMux();
}

void Aig::simulate(std::span<const uint64_t> InputPatterns,
                   std::vector<uint64_t> &Values) const {
  assert(InputPatterns.size() >= NumInputs && "pattern per input required");
  Values.assign(Nodes.size(), 0);
  for (uint32_t N = 1; N != Nodes.size(); ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.F0 == InvalidCode) {
      Values[N] = InputPatterns[Nd.F1];
      continue;
    }
    AigLit F0 = AigLit::fromCode(Nd.F0), F1 = AigLit::fromCode(Nd.F1);
    uint64_t V0 = Values[F0.node()], V1 = Values[F1.node()];
    if (F0.complemented())
      V0 = ~V0;
    if (F1.complemented())
      V1 = ~V1;
    Values[N] = V0 & V1;
  }
}

namespace {
/// The literals AND node \p N is encoded over: the leaves of its XOR/MUX
/// shape \p M, else its two fanins. Returns how many were written.
unsigned cnfFanins(const Aig &G, uint32_t N, const XorMux &M, AigLit Out[3]) {
  switch (M.K) {
  case XorMux::Xor:
    Out[0] = M.A;
    Out[1] = M.B;
    return 2;
  case XorMux::Mux:
    Out[0] = M.A;
    Out[1] = M.B;
    Out[2] = M.C;
    return 3;
  case XorMux::None:
    break;
  }
  Out[0] = G.fanin0(N);
  Out[1] = G.fanin1(N);
  return 2;
}
} // namespace

void CnfEmitter::encode(uint32_t N) {
  static telemetry::Counter &CtrXor = telemetry::counter("aig.xor_detected");
  static telemetry::Counter &CtrMux = telemetry::counter("aig.mux_detected");

  sat::Lit NL(S.newVar(), false);
  NodeLit[N] = NL;
  if (G.isConst(N)) {
    S.addClause({~NL}); // constrained false
    return;
  }
  if (G.isInput(N))
    return;

  XorMux M = G.matchXorMux(N);
  if (M.K == XorMux::Xor) {
    CtrXor.add();
    sat::Lit A = litOf(M.A), B = litOf(M.B);
    // NL <-> A ^ B in four clauses (vs 9 for the 3-AND cone).
    S.addClause({~A, ~B, ~NL});
    S.addClause({A, B, ~NL});
    S.addClause({A, ~B, NL});
    S.addClause({~A, B, NL});
  } else if (M.K == XorMux::Mux) {
    CtrMux.add();
    sat::Lit Sel = litOf(M.A), T = litOf(M.B), E = litOf(M.C);
    // NL <-> ~(Sel ? T : E).
    S.addClause({~Sel, ~T, ~NL});
    S.addClause({~Sel, T, NL});
    S.addClause({Sel, ~E, ~NL});
    S.addClause({Sel, E, NL});
  } else {
    sat::Lit A = litOf(G.fanin0(N)), B = litOf(G.fanin1(N));
    // NL <-> A & B.
    S.addClause({~NL, A});
    S.addClause({~NL, B});
    S.addClause({NL, ~A, ~B});
  }
}

sat::Lit CnfEmitter::emit(AigLit L) {
  if (NodeLit.size() < G.numNodes())
    NodeLit.resize(G.numNodes(), sat::Lit());
  uint32_t Root = L.node();
  if (NodeLit[Root].valid()) {
    ++Hits;
    return litOf(L);
  }

  // Mark the not-yet-encoded cone, then encode it by ascending node index:
  // fanins precede their nodes, so every node's leaves are ready in time.
  SeenEpoch.resize(G.numNodes(), 0);
  ++Epoch;
  uint32_t Lowest = Root;
  Stack.clear();
  Stack.push_back(Root);
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (SeenEpoch[N] == Epoch || NodeLit[N].valid())
      continue;
    SeenEpoch[N] = Epoch;
    Lowest = std::min(Lowest, N);
    if (!G.isAnd(N))
      continue;
    AigLit F[3];
    for (unsigned I = 0, K = cnfFanins(G, N, G.matchXorMux(N), F); I != K; ++I)
      Stack.push_back(F[I].node());
  }
  for (uint32_t N = Lowest; N <= Root; ++N)
    if (SeenEpoch[N] == Epoch)
      encode(N);
  return litOf(L);
}
