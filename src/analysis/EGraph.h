//===- analysis/EGraph.h - E-graph with congruence closure ------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash-consed e-graph over MBA expressions: a union-find of equivalence
/// classes (e-classes) whose members are operator nodes (e-nodes) with
/// e-class operands, maintained congruently — if `a ≡ a'` and `b ≡ b'`,
/// then `a + b ≡ a' + b'` after rebuild(). The e-graph is the substrate of
/// the static equivalence prover (analysis/Prover.h): expressions are added,
/// certified rewrite rules are applied as e-class merges (equality
/// saturation), and two expressions are proved equivalent when their
/// e-classes coincide.
///
/// The design follows the egg recipe (Willsey et al., POPL 2021): a
/// hashcons map from canonical e-nodes to e-classes, per-class parent lists,
/// deferred congruence repair through a dirty-class worklist, and constant
/// e-nodes folded eagerly so arithmetic identities (`2*3 ≡ 6`) come out of
/// the closure for free. Repair is egg's "rebuilding": each sweep of
/// rebuild() repairs every class merged since the last sweep once, however
/// many merges it absorbed, and leaves its parent list free of duplicates.
///
/// Invariant, after rebuild(): every live class's node list is sorted by
/// (kind, lhs, rhs, aux) as of the class's last repair and holds no entry
/// twice, so the nodes of one kind form one contiguous range
/// (nodesOfKind()). merge() concatenates node lists and marks the class
/// dirty, and rebuild() re-sorts it, so the order holds whenever no merge is
/// pending. Debug builds assert it at the end of every rebuild().
///
//===----------------------------------------------------------------------===//

#ifndef MBA_ANALYSIS_EGRAPH_H
#define MBA_ANALYSIS_EGRAPH_H

#include "ast/Context.h"
#include "ast/Expr.h"

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace mba {

/// Identifier of an e-class. Stable across merges (ids are never reused),
/// but only canonical ids — `find(Id)` — index live classes.
using EClassId = uint32_t;

/// One e-node: an operator applied to e-class operands, or a leaf. Compared
/// and hashed on the canonical form (kind, canonical child ids, payload).
struct ENode {
  ExprKind Kind = ExprKind::Const;
  EClassId Lhs = 0;  ///< first operand class; unused for leaves
  EClassId Rhs = 0;  ///< second operand class; unused for leaves/unary
  uint64_t Aux = 0;  ///< Const: value (masked); Var: dense variable index

  bool operator==(const ENode &O) const {
    return Kind == O.Kind && Lhs == O.Lhs && Rhs == O.Rhs && Aux == O.Aux;
  }
};

/// An e-graph over the expression language of one Context. The context
/// supplies the bit width (constants are folded modulo its mask) and the
/// variable numbering; extraction builds result expressions in it.
class EGraph {
public:
  explicit EGraph(Context &Ctx);

  Context &context() const { return Ctx; }

  /// Adds every node of \p E and returns its e-class.
  EClassId addExpr(const Expr *E);

  /// Adds a leaf e-node for variable \p VarIndex / constant \p Value.
  EClassId addVar(unsigned VarIndex);
  EClassId addConst(uint64_t Value);

  /// Adds an operator e-node over canonical operand classes. Unary kinds
  /// ignore \p B. Constant operands are folded: an operator whose operand
  /// classes are all constant becomes (is merged with) the result constant.
  EClassId addNode(ExprKind K, EClassId A, EClassId B = 0);

  /// Canonical representative of \p Id's class.
  EClassId find(EClassId Id) const;

  /// Asserts `A ≡ B`. Returns true when the classes were distinct (the
  /// e-graph changed). Congruence is restored lazily: call rebuild() after
  /// a batch of merges and before the next query/match pass.
  bool merge(EClassId A, EClassId B);

  /// Restores the congruence invariant after merge() calls: parents of
  /// merged classes are re-canonicalized and colliding ones merged, to a
  /// fixpoint. No-op when nothing is dirty.
  void rebuild();

  /// True when \p A and \p B are known equal (same canonical class).
  bool sameClass(EClassId A, EClassId B) const { return find(A) == find(B); }

  /// The constant value of \p Id's class, when it contains a Const e-node.
  std::optional<uint64_t> constantOf(EClassId Id) const;

  /// E-nodes currently stored in \p Id's class (canonicalized as of the
  /// last rebuild). Invalidated by addNode/merge/rebuild.
  const std::vector<ENode> &nodesOf(EClassId Id) const;

  /// The contiguous run of nodesOf(Id) whose kind is \p K, in stored
  /// order. Valid only after rebuild() (see the sorted-node invariant).
  std::span<const ENode> nodesOfKind(EClassId Id, ExprKind K) const;

  /// Extracts a minimal-size expression of \p Id's class into the context
  /// (cost = tree node count, ties broken by first discovery). Returns
  /// nullptr only for classes poisoned by extraction cycles, which cannot
  /// happen for classes reachable from addExpr() roots. Iterative, so deep
  /// expressions cannot overflow the stack.
  const Expr *extract(EClassId Id) const;

  /// All canonical class ids (live classes), for match loops.
  std::vector<EClassId> canonicalClasses() const;

  /// Statistics: total e-nodes in the hashcons / live classes / merges.
  size_t numNodes() const { return Hashcons.size(); }
  size_t numClasses() const;
  size_t numMerges() const { return Merges; }

private:
  struct ENodeHash {
    size_t operator()(const ENode &N) const {
      uint64_t H = (uint64_t)N.Kind * 0x9e3779b97f4a7c15ULL;
      H ^= N.Lhs + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H ^= N.Rhs + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H ^= N.Aux + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      return (size_t)H;
    }
  };

  struct EClass {
    std::vector<ENode> Nodes;
    /// Operator e-nodes (as last interned) that use this class as an
    /// operand, with the class they live in. Drives congruence repair.
    std::vector<std::pair<ENode, EClassId>> Parents;
    std::optional<uint64_t> Const;
  };

  /// Canonicalizes \p N's operand ids (leaves unchanged).
  ENode canonicalize(ENode N) const;

  /// Interns canonical \p N, creating a class when unseen.
  EClassId intern(const ENode &N);

  /// Re-canonicalizes the parents of canonical class \p Id, merging
  /// congruent ones and folding newly constant ones, then deduplicates its
  /// parent list and re-sorts its node list.
  void repair(EClassId Id);

  /// The sorted-node invariant, over every live class (debug checks).
  bool nodeListsSorted() const;

  /// Evaluates \p K over constant operands, modulo the context mask.
  uint64_t evalOp(ExprKind K, uint64_t A, uint64_t B) const;

  Context &Ctx;
  mutable std::vector<EClassId> Parent; ///< union-find (path-halving in find)
  std::vector<EClass> Classes;          ///< indexed by canonical id
  std::unordered_map<ENode, EClassId, ENodeHash> Hashcons;
  std::vector<EClassId> Dirty; ///< merged classes awaiting repair
  size_t Merges = 0;
};

} // namespace mba

#endif // MBA_ANALYSIS_EGRAPH_H
