//===- ast/Context.h - Expression interning context -------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Context owns all expression nodes of a given bit width and interns
/// them so that structurally identical subtrees share one node. All MBA
/// arithmetic in this library is performed modulo 2^w, matching the paper's
/// setting of n-bit two's-complement integers (the ring Z/2^n).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_CONTEXT_H
#define MBA_AST_CONTEXT_H

#include "ast/Expr.h"
#include "ast/NodeMap.h"
#include "support/Arena.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mba {

class BitslicedExpr;

/// Capability standing for "the calling thread is the owner of this
/// Context" (see Context's threading model). It is not a lock — nothing is
/// ever blocked on it — but Clang's thread-safety analysis treats it like
/// one: the interning tables and evaluation caches are MBA_GUARDED_BY this
/// role, and the only way to satisfy the analysis is to pass through
/// Context::assertOwnedByCurrentThread() (the runtime guardrail, annotated
/// MBA_ASSERT_CAPABILITY) or adoptByCurrentThread(). Touching the mutable
/// state on a path that skips the guardrail is a compile-time diagnostic
/// under -DMBA_THREAD_SAFETY=ON and a runtime assert elsewhere.
class MBA_CAPABILITY("context-owner") ContextOwnerRole {};

/// Owns and interns Expr nodes for one bit width.
///
/// Typical use:
/// \code
///   Context Ctx(64);
///   const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y");
///   const Expr *E = Ctx.getAdd(X, Ctx.getAnd(X, Y));
/// \endcode
///
/// Threading model: a Context is NOT thread-safe — not even for concurrent
/// reads, because lookups and evaluation share mutable caches. The rule is
/// one Context per worker thread: parallel pipelines (bench/Harness.cpp)
/// give each worker its own Context and clone expressions into it with
/// cloneExpr() (ast/ExprUtils.h). Debug builds enforce the rule by
/// asserting that every interning mutation and cache access happens on the
/// owner thread — the thread that constructed the Context, or the last one
/// to call adoptByCurrentThread().
class Context {
public:
  /// Creates a context for \p Width-bit words. Width must be in [1, 64].
  explicit Context(unsigned Width = 64);
  ~Context();

  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  /// Re-homes the context onto the calling thread (see the class comment's
  /// threading model). Needed when a Context is constructed on one thread
  /// and handed off to another — e.g. built up front, then used by a pool
  /// worker. The handoff itself must be externally synchronized. After the
  /// call the calling thread holds the owner capability.
  void adoptByCurrentThread() MBA_ASSERT_CAPABILITY(OwnerRole) {
    Owner = std::this_thread::get_id();
  }

  /// The word width in bits.
  unsigned width() const { return Width; }

  /// Bit mask selecting the low `width()` bits of a uint64_t.
  uint64_t mask() const { return Mask; }

  /// Truncates \p V to the context width.
  uint64_t truncate(uint64_t V) const { return V & Mask; }

  /// Sign-extends the masked \p V to a signed 64-bit value. Used when
  /// printing constants and measuring coefficient magnitude.
  int64_t toSigned(uint64_t V) const {
    V &= Mask;
    uint64_t SignBit = 1ULL << (Width - 1);
    if (V & SignBit)
      return (int64_t)(V | ~Mask);
    return (int64_t)V;
  }

  /// Returns (creating on first use) the variable named \p Name. Variables
  /// are numbered densely in creation order; see Expr::varIndex().
  const Expr *getVar(std::string_view Name);

  /// Returns the variable with dense index \p Index, which must exist.
  const Expr *getVarByIndex(unsigned Index) const {
    assertOwnedByCurrentThread();
    assert(Index < Vars.size() && "variable index out of range");
    return Vars[Index];
  }

  /// Number of distinct variables created in this context.
  unsigned numVars() const {
    assertOwnedByCurrentThread();
    return (unsigned)Vars.size();
  }

  /// Returns true if a variable named \p Name already exists.
  bool hasVar(std::string_view Name) const {
    assertOwnedByCurrentThread();
    return VarsByName.contains(Name);
  }

  /// Returns the interned constant \p Value (truncated to the width).
  const Expr *getConst(uint64_t Value);

  /// Constant -1 (all ones), the paper's encoding of the all-"1" truth-table
  /// column on two's-complement integers.
  const Expr *getAllOnes() { return getConst(Mask); }
  const Expr *getZero() { return getConst(0); }
  const Expr *getOne() { return getConst(1); }

  const Expr *getNot(const Expr *A) { return getUnary(ExprKind::Not, A); }
  const Expr *getNeg(const Expr *A) { return getUnary(ExprKind::Neg, A); }
  const Expr *getAdd(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::Add, A, B);
  }
  const Expr *getSub(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::Sub, A, B);
  }
  const Expr *getMul(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::Mul, A, B);
  }
  const Expr *getAnd(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::And, A, B);
  }
  const Expr *getOr(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::Or, A, B);
  }
  const Expr *getXor(const Expr *A, const Expr *B) {
    return getBinary(ExprKind::Xor, A, B);
  }

  /// Builds a unary node of kind \p K (Not or Neg).
  const Expr *getUnary(ExprKind K, const Expr *A);

  /// Builds a binary node of kind \p K.
  const Expr *getBinary(ExprKind K, const Expr *A, const Expr *B);

  /// Rebuilds \p E with new operands. Leaves are returned unchanged.
  const Expr *rebuild(const Expr *E, const Expr *NewLHS, const Expr *NewRHS);

  /// Looks up the canonical interned node a node of kind \p K with operands
  /// \p L / \p R and auxiliary payload \p Aux (constant value or variable
  /// index) resolves to, or nullptr when no such node has been interned.
  /// Used by the IR verifier (analysis/Verifier.h) to check structural
  /// uniqueness: a well-formed node must be its own canonical representative.
  const Expr *findInterned(ExprKind K, const Expr *L, const Expr *R,
                           uint64_t Aux) const;

  /// Invokes \p Fn on every node owned by this context (variables,
  /// constants, and operators), in no particular order. Verifier support.
  void forEachOwnedNode(const std::function<void(const Expr *)> &Fn) const;

  /// Returns (compiling and caching on first use) the bitsliced evaluator
  /// for \p E, which must be owned by this context. Sound as a pointer-keyed
  /// cache because interning makes the pointer the structural identity and
  /// nodes are immutable for the context's lifetime. This is what makes
  /// repeated signature construction over the same DAG (the simplifier's
  /// inner loop) cheap: the compile cost is paid once per distinct DAG.
  const BitslicedExpr &getBitsliced(const Expr *E) const;

  /// Shared evaluation scratch: returns at least \p Words words of
  /// uninitialized, context-lifetime storage. Reused by every cached
  /// evaluator (legal under the one-thread-per-context rule), so cached
  /// programs stay small instead of each holding tens of KB of slots.
  /// The pointer is invalidated by the next evalScratch() call.
  uint64_t *evalScratch(size_t Words) const;

  /// Total number of distinct nodes interned so far.
  size_t numNodes() const {
    assertOwnedByCurrentThread();
    return NumNodes;
  }

  /// Bytes of node/name storage handed out by the arena. This is the memory
  /// metric reported in the Table 8 reproduction.
  size_t bytesUsed() const { return Alloc.bytesUsed(); }

private:
  /// One slot of the interning table: a node and the hash of its key
  /// (kind, operands, constant value). An empty slot has a null Node.
  struct InternSlot {
    uint64_t Hash = 0;
    const Expr *Node = nullptr;
  };

  /// The interned node with key (\p K, \p L, \p R, \p Aux), created on
  /// first request. Aux is the constant value of a Const node, else 0.
  const Expr *intern(ExprKind K, const Expr *L, const Expr *R, uint64_t Aux)
      MBA_REQUIRES(OwnerRole);

  /// Index of the slot holding the key, or of the empty slot that ends its
  /// probe run. Compares stored hashes before touching a node.
  size_t probeInterned(uint64_t Hash, ExprKind K, const Expr *L,
                       const Expr *R, uint64_t Aux) const
      MBA_REQUIRES(OwnerRole);

  /// Doubles the interning table (or allocates its first slots).
  void growInterned() MBA_REQUIRES(OwnerRole);

  /// Heterogeneous string hashing so name lookups take string_view without
  /// materializing a temporary std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  /// Guardrail for the one-thread-per-context rule (class comment): a
  /// runtime assert in every build, and under Clang the annotation tells
  /// the thread-safety analysis the owner capability is held on return —
  /// so the OwnerRole-guarded tables below are only reachable through this
  /// check (or adoptByCurrentThread).
  void assertOwnedByCurrentThread() const MBA_ASSERT_CAPABILITY(OwnerRole) {
    assert(std::this_thread::get_id() == Owner &&
           "Context used from a thread other than its owner; create one "
           "Context per worker (or call adoptByCurrentThread after a "
           "synchronized handoff)");
  }

  unsigned Width;
  uint64_t Mask;
  Arena Alloc;
  /// The owner-thread capability (never blocked on; see ContextOwnerRole).
  mutable ContextOwnerRole OwnerRole;
  size_t NumNodes MBA_GUARDED_BY(OwnerRole) = 0;
  /// Hash-consing table of every constant and operator node: open
  /// addressing over a power-of-two array, linear probing, at most three
  /// quarters full (the stored hashes keep long probe runs cheap, and a
  /// fuller table keeps the peak of a doubling, when old and new arrays
  /// coexist, below what a node-based map holds). Variables live in
  /// Vars/VarsByName instead.
  std::vector<InternSlot> Interned MBA_GUARDED_BY(OwnerRole);
  unsigned InternShift MBA_GUARDED_BY(OwnerRole) = 64;
  std::unordered_map<std::string, const Expr *, StringHash, std::equal_to<>>
      VarsByName MBA_GUARDED_BY(OwnerRole);
  std::vector<const Expr *> Vars MBA_GUARDED_BY(OwnerRole);
  std::thread::id Owner = std::this_thread::get_id();
  mutable NodeMap<std::unique_ptr<BitslicedExpr>>
      BitslicedCache MBA_GUARDED_BY(OwnerRole);
  mutable std::vector<uint64_t> EvalScratch MBA_GUARDED_BY(OwnerRole);
};

} // namespace mba

#endif // MBA_AST_CONTEXT_H
