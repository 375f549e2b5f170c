//===- mba/SimplifyCache.h - Cross-call simplification cache ----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared simplification cache: thread-safe, cross-call memoization of
/// simplifier outputs, layered on the sharded LRU of support/Cache.h. Two
/// layers with different key semantics:
///
///  * **Linear layer** — keyed on the canonical *semantic* key of a linear
///    MBA: hash(width, basis options, variable names, signature vector).
///    By Theorem 1 the signature determines the function, and the stored
///    value (the normalized rebuild of the signature) is a pure function of
///    the key, so structurally different but semantically equal
///    subexpressions simplify once per process.
///  * **Result layer** — keyed on the *structural* fingerprint of a whole
///    input: hash(exprFingerprint, width, options fingerprint). The full
///    pipeline's output is not a pure function of input semantics (the
///    simplifier guarantees never to increase alternation *relative to the
///    input form*), so whole-expression memoization must key on structure
///    to keep cached and uncached runs bit-identical. This layer is the
///    warm-run fast path: a hit replaces a full pipeline pass with a hash
///    and a clone; MBASolver::simplify asks it before walking the input.
///
/// Values are expressions. The cache owns a private store Context; inserts
/// clone the value into the store under the store mutex, lookups clone the
/// stored node into the caller's Context with cloneExpr. Stored nodes are
/// immutable and their publication is ordered by the shard mutex, so
/// clone-out needs no store lock (TSan-clean; see docs/PERF.md).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_SIMPLIFYCACHE_H
#define MBA_MBA_SIMPLIFYCACHE_H

#include "ast/Context.h"
#include "ast/Expr.h"
#include "support/Cache.h"
#include "support/ThreadSafety.h"

namespace mba {

class SimplifyCache {
public:
  /// \p Width must match every Context the cache is used with (cloneExpr
  /// requires equal widths; enforced by assertion on lookup/insert).
  explicit SimplifyCache(unsigned Width, size_t ResultCapacity = 1 << 16,
                         size_t LinearCapacity = 1 << 16)
      : Width(Width), Store(Width), Results(ResultCapacity),
        Linear(LinearCapacity) {}

  /// Lock-discipline fix surfaced by the annotations: this used to read
  /// Store.width() without StoreMu. The width is immutable, so the race was
  /// benign, but the analysis cannot know that — and a separate const copy
  /// states the invariant instead of relying on it.
  unsigned width() const { return Width; }

  /// Returns the cached result cloned into \p Dst, or nullptr on miss.
  const Expr *lookupResult(uint64_t Key, Context &Dst) {
    return lookup(Results, Key, Dst);
  }
  const Expr *lookupLinear(uint64_t Key, Context &Dst) {
    return lookup(Linear, Key, Dst);
  }

  /// Clones \p E (from any same-width context) into the store and caches
  /// it under \p Key.
  void insertResult(uint64_t Key, const Expr *E) {
    Results.insert(Key, intern(E));
  }
  void insertLinear(uint64_t Key, const Expr *E) {
    Linear.insert(Key, intern(E));
  }

  CacheStats resultStats() const { return Results.stats(); }
  CacheStats linearStats() const { return Linear.stats(); }

  /// Writes both layers as snapshot sections (each value as a post-order
  /// node list, rebuilt node for node on load).
  void save(SnapshotWriter &W) const MBA_EXCLUDES(StoreMu);

  /// Loads one section by name if it belongs to this cache; returns false
  /// for foreign section names (caller skips those entries itself).
  bool loadSection(SnapshotReader &R, std::string_view Name, uint64_t Count)
      MBA_EXCLUDES(StoreMu);

  static constexpr const char *ResultSection = "simplify.result";
  static constexpr const char *LinearSection = "simplify.linear";

private:
  const Expr *lookup(ShardedCache<const Expr *> &Layer, uint64_t Key,
                     Context &Dst);
  const Expr *intern(const Expr *E) MBA_EXCLUDES(StoreMu);

  const unsigned Width;
  /// Guards Store (interning is not thread-safe); the cached Expr pointers
  /// themselves are immutable once published through a shard mutex.
  mutable Mutex StoreMu;
  Context Store MBA_GUARDED_BY(StoreMu);
  ShardedCache<const Expr *> Results;
  ShardedCache<const Expr *> Linear;
};

} // namespace mba

#endif // MBA_MBA_SIMPLIFYCACHE_H
