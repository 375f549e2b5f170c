//===- mba/SimplifyCache.cpp - Cross-call simplification cache ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mba/SimplifyCache.h"

#include "ast/ExprUtils.h"
#include "ast/NodeMap.h"

#include <cassert>

using namespace mba;

namespace {

// Entry payload: the value's DAG as a post-order node list, root last —
// a u32 node count, then per node its kind byte followed by its constant
// (u64), its variable name (u32 length, then the bytes), or its operand
// indices (u32 each, every one smaller than the node's own index).
// Unlike printed text this keeps the exact shape, so a replayed value has
// the fingerprint of the one that was saved.

void encodeNodes(const Expr *E, std::vector<uint8_t> &Out) {
  NodeMap<uint32_t> Index;
  uint32_t Next = 0;
  putU32(Out, 0); // the node count, patched below
  forEachNodePostOrder(E, [&](const Expr *N) {
    putU8(Out, (uint8_t)N->kind());
    if (N->isConst()) {
      putU64(Out, N->constValue());
    } else if (N->isVar()) {
      std::string_view Name = N->varName();
      putU32(Out, (uint32_t)Name.size());
      Out.insert(Out.end(), Name.begin(), Name.end());
    } else {
      for (unsigned I = 0; I != N->numOperands(); ++I)
        putU32(Out, Index.at(N->getOperand(I)));
    }
    Index.emplace(N, Next++);
  });
  for (int I = 0; I != 4; ++I)
    Out[I] = (uint8_t)(Next >> (8 * I));
}

/// Rebuilds an encodeNodes payload in \p Ctx; null on an unknown kind, an
/// empty variable name, an operand index that is not smaller than its
/// node's, a node count the bytes do not match, or an empty list.
const Expr *decodeNodes(Context &Ctx, const std::vector<uint8_t> &Buf) {
  ByteCursor C(Buf);
  uint32_t Count = C.u32();
  if (C.failed() || Count == 0 || Count > Buf.size())
    return nullptr;
  std::vector<const Expr *> Nodes;
  Nodes.reserve(Count);
  auto Operand = [&]() -> const Expr * {
    uint32_t I = C.u32();
    return !C.failed() && I < Nodes.size() ? Nodes[I] : nullptr;
  };
  while (Nodes.size() != Count) {
    uint8_t Kind = C.u8();
    if (Kind > (uint8_t)ExprKind::Xor)
      return nullptr;
    ExprKind K = (ExprKind)Kind;
    const Expr *N = nullptr;
    if (K == ExprKind::Const) {
      uint64_t V = C.u64();
      N = C.failed() ? nullptr : Ctx.getConst(V);
    } else if (K == ExprKind::Var) {
      uint32_t Len = C.u32();
      if (!C.failed() && Len != 0 && Len <= Buf.size() - C.Pos) {
        N = Ctx.getVar({(const char *)Buf.data() + C.Pos, Len});
        C.Pos += Len;
      }
    } else if (isUnaryKind(K)) {
      if (const Expr *A = Operand())
        N = Ctx.getUnary(K, A);
    } else {
      const Expr *A = Operand(), *B = Operand();
      if (A && B)
        N = Ctx.getBinary(K, A, B);
    }
    if (!N)
      return nullptr;
    Nodes.push_back(N);
  }
  return C.atEnd() ? Nodes.back() : nullptr;
}

} // namespace

const Expr *SimplifyCache::lookup(ShardedCache<const Expr *> &Layer,
                                  uint64_t Key, Context &Dst) {
  // width() (not Store.width()): the lock-free read of the guarded store
  // context was a discipline violation the annotations flagged.
  assert(Dst.width() == width() &&
         "simplify cache used with a context of a different width");
  const Expr *Stored = nullptr;
  if (!Layer.lookup(Key, Stored))
    return nullptr;
  // No store lock: Stored and everything it references were fully built
  // before the inserting thread released the shard mutex, and this thread
  // acquired that mutex inside Layer.lookup — the nodes are immutable and
  // safely published. cloneExpr only reads node fields.
  return cloneExpr(Dst, Stored);
}

const Expr *SimplifyCache::intern(const Expr *E) {
  assert(E && "caching a null expression");
  MutexLock Lock(StoreMu);
  // The store context is touched by whichever thread inserts; re-adopt so
  // its owner-thread guardrail (debug builds) accepts serialized
  // multi-thread use.
  Store.adoptByCurrentThread();
  return cloneExpr(Store, E);
}

void SimplifyCache::save(SnapshotWriter &W) const {
  MutexLock Lock(StoreMu);
  const_cast<Context &>(Store).adoptByCurrentThread();
  // Open-coded rather than via saveCacheSection's Encode callback: the
  // thread-safety analysis cannot see into a lambda that touches the
  // guarded Store, but it does see these accesses under StoreMu.
  for (const ShardedCache<const Expr *> *Layer : {&Results, &Linear}) {
    auto Entries = Layer->entries();
    W.beginSection(Layer == &Results ? ResultSection : LinearSection,
                   Entries.size());
    std::vector<uint8_t> Buf;
    for (const auto &[Key, Value] : Entries) {
      Buf.clear();
      encodeNodes(Value, Buf);
      W.entry(Key, Buf);
    }
  }
}

bool SimplifyCache::loadSection(SnapshotReader &R, std::string_view Name,
                                uint64_t Count) {
  ShardedCache<const Expr *> *Layer = nullptr;
  if (Name == ResultSection)
    Layer = &Results;
  else if (Name == LinearSection)
    Layer = &Linear;
  else
    return false;

  MutexLock Lock(StoreMu);
  Store.adoptByCurrentThread();
  // Open-coded for the same reason as save(): the guarded rebuild in the
  // store context must be visible to the analysis, not hidden in a
  // Decode callback.
  uint64_t Key = 0;
  std::vector<uint8_t> Buf;
  for (uint64_t I = 0; I != Count; ++I) {
    if (!R.entry(Key, Buf))
      break;
    if (const Expr *E = decodeNodes(Store, Buf))
      Layer->insert(Key, E);
    // else: a malformed payload drops the entry
  }
  return true;
}
