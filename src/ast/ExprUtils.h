//===- ast/ExprUtils.h - Traversal and rewriting helpers --------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DAG-aware traversal, variable collection, substitution and structural
/// statistics over MBA expressions. All walks memoize on node pointers so
/// shared subtrees are visited once (expressions are hash-consed DAGs).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_EXPRUTILS_H
#define MBA_AST_EXPRUTILS_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "ast/NodeMap.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mba {

/// Returns the distinct variables of \p E sorted by name (the canonical
/// variable order used for truth tables and signature vectors).
std::vector<const Expr *> collectVariables(const Expr *E);

/// Returns true if \p Sub occurs as a subexpression of \p E (pointer
/// identity; nodes are interned, so this is structural containment).
bool containsSubExpr(const Expr *E, const Expr *Sub);

/// Number of distinct DAG nodes reachable from \p E.
size_t countDagNodes(const Expr *E);

/// Number of tree nodes of \p E (shared subtrees counted once per use).
/// Capped at SIZE_MAX/2 to avoid overflow on adversarially shared DAGs.
size_t countTreeNodes(const Expr *E);

/// Replaces every occurrence of the keys of \p Map in \p E by the mapped
/// values, rebuilding the spine bottom-up. Replacement is non-recursive: the
/// substituted values are not themselves rewritten again. Iterative.
const Expr *substitute(Context &Ctx, const Expr *E,
                       const std::unordered_map<const Expr *, const Expr *> &Map);

/// Applies \p Visit, in post-order, to every node of \p E absent from
/// \p Seen, without descending below nodes \p Seen already holds. \p Seen is
/// a memo the caller owns (anything with `contains(const Expr *)`), and
/// \p Visit must add its node to it: that is what makes a node shared by
/// several parents visited once, and what makes repeated walks over one
/// memo cost only the nodes that are new to it. The memo must be closed
/// downwards (a node's operands are in it whenever the node is), which
/// filling it only from \p Visit guarantees.
///
/// Iterative, so deep expressions cannot overflow the stack. Within one
/// node the rhs operand's sub-DAG is visited before the lhs operand's.
template <class SeenSet, class VisitFn>
void forEachUnseenPostOrder(const Expr *E, const SeenSet &Seen,
                            VisitFn &&Visit) {
  if (Seen.contains(E))
    return;
  // Each entry is a node and whether its operands were already pushed.
  std::vector<std::pair<const Expr *, bool>> Stack;
  Stack.push_back({E, false});
  while (!Stack.empty()) {
    auto [N, Expanded] = Stack.back();
    Stack.pop_back();
    if (Expanded) {
      Visit(N);
      assert(Seen.contains(N) && "the visitor must memoize its node");
      continue;
    }
    if (Seen.contains(N))
      continue; // memoized before, or reached again through sharing
    Stack.push_back({N, true});
    for (unsigned I = 0, NumOps = N->numOperands(); I != NumOps; ++I)
      Stack.push_back({N->getOperand(I), false});
  }
}

/// Applies \p Fn to every distinct node of \p E in post-order (operands
/// before operators): forEachUnseenPostOrder over a fresh memo. Iterative.
void forEachNodePostOrder(const Expr *E,
                          const std::function<void(const Expr *)> &Fn);

/// Rewrites \p E bottom-up: children are rewritten first, the node is rebuilt
/// with the new children, and then \p Fn may replace the rebuilt node. \p Fn
/// returns the (possibly unchanged) replacement. \p Fn sees each distinct
/// node once, after its operands, in forEachUnseenPostOrder's order (the rhs
/// sub-DAG before the lhs one). Iterative, so deep inputs are safe.
const Expr *
rewriteBottomUp(Context &Ctx, const Expr *E,
                const std::function<const Expr *(const Expr *)> &Fn);

/// Context-independent 64-bit structural fingerprint of \p E: hashes node
/// kinds, variable names and constant values bottom-up, so two expressions
/// (possibly from different contexts) get the same fingerprint iff they
/// have the same structure, up to hash collisions. Equal text does not
/// imply equal fingerprints: x+(y+z) prints as x+y+z, which parses as
/// (x+y)+z. This is the cache key of the semantic memoization layer
/// (support/Cache.h) — keyed by name/value, never by pointer, so
/// fingerprints are stable across contexts, runs and snapshot reloads.
/// Computed at interning, O(1): the Context stores each variable's and
/// operator's fingerprint in its node, from its operands' fingerprints, and
/// a constant's is one hash of its value (defined in ast/Context.cpp).
uint64_t exprFingerprint(const Expr *E);

/// Deep-copies \p E (owned by any context of the same width) into \p Dst:
/// variables map by name, constants by value (re-truncated to Dst's width),
/// operators structurally. Interning in \p Dst preserves DAG sharing. This
/// is how the parallel pipeline hands work to per-worker contexts — see the
/// threading model in ast/Context.h. Iterative, so adversarially deep
/// expressions don't overflow the stack.
const Expr *cloneExpr(Context &Dst, const Expr *E);

} // namespace mba

#endif // MBA_AST_EXPRUTILS_H
