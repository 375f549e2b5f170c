//===- aig/Aig.h - And-Inverter Graph with structural hashing ---*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An And-Inverter Graph (AIG) layer between word-level circuit
/// construction and CNF, in the style competition bit-vector solvers
/// (Boolector, Bitwuzla) use under their bit-blasters:
///
///  * every gate is a 2-input AND with complemented-edge literals, so one
///    hash table (the *strash*) deduplicates identical gates across the
///    whole query — both sides of an equivalence miter share structure by
///    construction;
///  * mkAnd applies constant propagation plus the classic bounded
///    two-level rewrite rules (contradiction, subsumption/absorption,
///    idempotence, substitution, resolution — Brummayer & Biere, "Local
///    Two-Level And-Inverter Graph Minimization without Blowup"), so many
///    miters collapse to a constant and never reach SAT at all;
///  * CNF emission (CnfEmitter) detects XOR/MUX shapes structurally and
///    numbers a root's cone in construction order; its node-to-SAT-variable
///    map persists across emit() calls, so a later root against the same
///    solver encodes only its not-yet-encoded cone.
///
/// An AigLevel turns the construction-time rules down: Plain builds every
/// gate, Strash only folds and hashes. Those two levels stand in for the
/// naive and the rewriting bit-blasters of the paper's solver matrix.
///
/// Node 0 is the constant-false node; an AigLit packs (node << 1 |
/// complement), so literal 0 is false and literal 1 is true. Fanins always
/// point to lower node indices, so node order is a topological order —
/// simulation and emission walk it linearly.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AIG_AIG_H
#define MBA_AIG_AIG_H

#include "sat/Solver.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace mba::aig {

/// An AIG edge: node index plus complement bit, packed like a SAT literal.
class AigLit {
public:
  constexpr AigLit() : Code(0) {} // constant false
  constexpr AigLit(uint32_t Node, bool Complement)
      : Code(Node << 1 | (Complement ? 1 : 0)) {}

  static constexpr AigLit fromCode(uint32_t Code) {
    AigLit L;
    L.Code = Code;
    return L;
  }

  constexpr uint32_t node() const { return Code >> 1; }
  constexpr bool complemented() const { return Code & 1; }
  constexpr uint32_t code() const { return Code; }
  constexpr AigLit operator~() const { return fromCode(Code ^ 1); }

  constexpr bool operator==(const AigLit &O) const { return Code == O.Code; }
  constexpr bool operator!=(const AigLit &O) const { return Code != O.Code; }
  constexpr bool operator<(const AigLit &O) const { return Code < O.Code; }

private:
  uint32_t Code;
};

/// Counters of the AIG construction fast paths (always maintained; the
/// telemetry registry mirrors them under aig.* when metrics are enabled).
struct AigStats {
  uint64_t AndNodes = 0;   ///< AND nodes physically created
  uint64_t StrashHits = 0; ///< mkAnd answered from the structural hash
  uint64_t Rewrites = 0;   ///< two-level rewrite rules applied
  uint64_t ConstFolds = 0; ///< mkAnd calls folded to a constant
};

/// A structural XOR/MUX match over an AND node (see Aig::matchXorMux).
struct XorMux {
  enum Kind : uint8_t { None, Xor, Mux } K = None;
  AigLit A, B, C; ///< Xor: node == A ^ B. Mux: node == ~(A ? B : C).
};

/// How much work mkAnd does before it builds a node. The three in-tree
/// bit-blasting backends are profiles of one graph that differ in this
/// level (see solvers/AigChecker.cpp).
enum class AigLevel : uint8_t {
  /// Every mkAnd builds a fresh node: no folding, no sharing.
  Plain,
  /// Constant folding, x&x, x&~x and the structural hash; mkXor also
  /// normalises operand polarity, so xor(~a, b) shares xor(a, b)'s gate.
  Strash,
  /// Strash's AND rules plus bounded two-level rewriting.
  Full,
};

/// The graph. Append-only: nodes are never removed, rewriting happens at
/// construction time by returning an existing literal instead of building
/// a new node.
class Aig {
public:
  explicit Aig(AigLevel Level = AigLevel::Full) : Level(Level) {
    Nodes.push_back(Node()); // node 0: constant false
  }

  static constexpr AigLit falseLit() { return AigLit(0, false); }
  static constexpr AigLit trueLit() { return AigLit(0, true); }

  /// Creates a fresh primary input.
  AigLit mkInput() {
    uint32_t N = (uint32_t)Nodes.size();
    Nodes.push_back(Node{InvalidCode, NumInputs++});
    return AigLit(N, false);
  }

  /// AND, simplified as far as the level allows.
  AigLit mkAnd(AigLit A, AigLit B);

  AigLit mkOr(AigLit A, AigLit B) { return ~mkAnd(~A, ~B); }
  /// A ^ B as three ANDs (CnfEmitter encodes the shape as one XOR gate).
  AigLit mkXor(AigLit A, AigLit B);
  /// S ? T : E.
  AigLit mkMux(AigLit S, AigLit T, AigLit E) {
    return ~mkAnd(~mkAnd(S, T), ~mkAnd(~S, E));
  }

  size_t numNodes() const { return Nodes.size(); }
  uint32_t numInputs() const { return NumInputs; }

  bool isConst(uint32_t N) const { return N == 0; }
  bool isInput(uint32_t N) const {
    return N != 0 && Nodes[N].F0 == InvalidCode;
  }
  bool isAnd(uint32_t N) const { return Nodes[N].F0 != InvalidCode; }

  AigLit fanin0(uint32_t N) const {
    assert(isAnd(N));
    return AigLit::fromCode(Nodes[N].F0);
  }
  AigLit fanin1(uint32_t N) const {
    assert(isAnd(N));
    return AigLit::fromCode(Nodes[N].F1);
  }
  /// Creation index of input node \p N (its slot in simulate()'s patterns).
  uint32_t inputOrdinal(uint32_t N) const {
    assert(isInput(N));
    return Nodes[N].F1;
  }

  /// If AND node \p N structurally computes an XOR or a (complemented) MUX
  /// of grandchild literals, returns the classification; the CNF emitter
  /// uses it to encode 4 clauses over the leaves instead of 9 over the
  /// 3-AND cone.
  XorMux matchXorMux(uint32_t N) const;

  const AigStats &stats() const { return St; }

  /// 64-way bit-parallel simulation: lane k of \p InputPatterns[i] is the
  /// value of input i in test vector k. \p Values receives one 64-lane
  /// word per node. Used by the exhaustive agreement tests.
  void simulate(std::span<const uint64_t> InputPatterns,
                std::vector<uint64_t> &Values) const;

  /// Reads literal \p L out of a simulate() result.
  static uint64_t simValue(const std::vector<uint64_t> &Values, AigLit L) {
    uint64_t V = Values[L.node()];
    return L.complemented() ? ~V : V;
  }

private:
  static constexpr uint32_t InvalidCode = UINT32_MAX;

  /// For AND nodes F0/F1 are fanin literal codes (F0 <= F1 after
  /// canonicalization); inputs are marked with F0 == InvalidCode and carry
  /// their ordinal in F1; node 0 (constant) has both invalid.
  struct Node {
    uint32_t F0 = InvalidCode;
    uint32_t F1 = InvalidCode;
  };

  bool isPosAnd(AigLit L) const { return !L.complemented() && isAnd(L.node()); }
  bool isNegAnd(AigLit L) const { return L.complemented() && isAnd(L.node()); }

  /// Full level's two-level rules; nullopt when none applies.
  std::optional<AigLit> twoLevelRewrite(AigLit A, AigLit B);
  /// Appends an AND node over (canonically ordered) fanins \p A, \p B.
  AigLit newAnd(AigLit A, AigLit B);

  AigLevel Level;
  std::vector<Node> Nodes;
  std::unordered_map<uint64_t, uint32_t> Strash;
  uint32_t NumInputs = 0;
  AigStats St;
};

/// Tseitin encoder from an AIG into a solver. The node-to-lit map
/// survives across emit() calls, so roots that share AIG structure share
/// their encoding: only the not-yet-encoded cone of each new root gets
/// fresh variables and clauses, numbered by ascending node index — the
/// construction order a one-pass bit-blaster allocates in.
class CnfEmitter {
public:
  CnfEmitter(const Aig &G, sat::SatSolver &S) : G(G), S(S) {}

  /// Returns a SAT literal constrained equivalent to \p L, emitting the
  /// not-yet-encoded part of its cone.
  sat::Lit emit(AigLit L);

  /// Roots whose encoding was answered by the persistent map.
  uint64_t cacheHits() const { return Hits; }

private:
  sat::Lit litOf(AigLit L) const {
    sat::Lit Base = NodeLit[L.node()];
    return L.complemented() ? ~Base : Base;
  }

  /// Gives node \p N a variable and its defining clauses; the nodes it is
  /// encoded over (XOR/MUX leaves or fanins) must already have one.
  void encode(uint32_t N);

  const Aig &G;
  sat::SatSolver &S;
  std::vector<sat::Lit> NodeLit; // per node; invalid = not yet encoded
  std::vector<uint32_t> Stack;   // cone walk scratch
  std::vector<uint32_t> SeenEpoch; // cone walk visit marks
  uint32_t Epoch = 0;
  uint64_t Hits = 0;
};

} // namespace mba::aig

#endif // MBA_AIG_AIG_H
