//===- ast/NodeMap.h - Flat Expr*-keyed hash tables -------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NodeMap<V> and NodeSet: open-addressing hash tables keyed by node
/// pointer, for the per-call memos of DAG walks. Nodes are hash-consed, so
/// the pointer is the structural identity and no key comparison beyond
/// pointer equality is needed.
///
/// Layout: one power-of-two array of slots, linear probing, a multiplicative
/// pointer mixer whose high bits pick the home slot, and at most half the
/// slots occupied. There is no per-entry allocation and no erase.
///
/// Rule for callers: any insertion (emplace, insert) may grow
/// the table and move every slot, so a pointer or reference obtained from
/// find(), at() or an earlier insertion is dead after the next insertion
/// into the same table. Read what you need first, then insert.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_NODEMAP_H
#define MBA_AST_NODEMAP_H

#include "ast/Expr.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mba {

namespace detail {

/// Open-addressing core of NodeMap and NodeSet. \p SlotT has a
/// `const Expr *Key` member (nullptr marks an empty slot) and is
/// default-constructible and movable.
template <class SlotT> class FlatNodeTable {
public:
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  /// Number of slots currently allocated (0 before the first insertion).
  size_t capacity() const { return Slots.size(); }

  bool contains(const Expr *K) const { return findSlot(K) != nullptr; }

  /// Makes room for \p N entries: inserting that many grows no further.
  void reserve(size_t N) {
    size_t Wanted = std::bit_ceil(std::max(2 * N, InitialSlots));
    if (Wanted > Slots.size())
      rehash(Wanted);
  }

  /// Removes every entry. The storage is kept for the next use, unless it
  /// is far larger than what was just cleared: then one huge walk has grown
  /// it past what the ordinary ones need, and it is freed instead.
  void clear() {
    if (Size == 0)
      return;
    if (Slots.size() > ShrinkAboveSlots && Size * 16 < Slots.size()) {
      std::vector<SlotT>().swap(Slots);
      Shift = 64;
    } else {
      for (SlotT &S : Slots)
        S = SlotT();
    }
    Size = 0;
  }

protected:
  static constexpr size_t InitialSlots = 16;
  static constexpr size_t ShrinkAboveSlots = 1024;

  const SlotT *findSlot(const Expr *K) const {
    assert(K && "null key");
    if (Slots.empty())
      return nullptr;
    const SlotT &S = Slots[probe(K)];
    return S.Key ? &S : nullptr;
  }

  /// The slot of \p K, claimed (and counted) when \p K is new; the flag is
  /// true when it was claimed by this call.
  std::pair<SlotT *, bool> claimSlot(const Expr *K) {
    assert(K && "null key");
    if (!Slots.empty()) {
      SlotT &S = Slots[probe(K)];
      if (S.Key)
        return {&S, false};
      if ((Size + 1) * 2 <= Slots.size()) {
        S.Key = K;
        ++Size;
        return {&S, true};
      }
    }
    rehash(Slots.empty() ? InitialSlots : Slots.size() * 2);
    SlotT &S = Slots[probe(K)];
    S.Key = K;
    ++Size;
    return {&S, true};
  }

private:
  /// Index of \p K's slot, or of the empty slot that ends its probe run.
  size_t probe(const Expr *K) const {
    size_t M = Slots.size() - 1;
    size_t I = (size_t)(((uint64_t)(uintptr_t)K * 0x9e3779b97f4a7c15ULL) >>
                        Shift);
    while (Slots[I].Key && Slots[I].Key != K)
      I = (I + 1) & M;
    return I;
  }

  /// Moves every entry into a fresh array of \p NewSlots (a power of two).
  void rehash(size_t NewSlots) {
    std::vector<SlotT> Old = std::move(Slots);
    Slots = std::vector<SlotT>(NewSlots);
    Shift = 64 - (unsigned)std::countr_zero(NewSlots);
    for (SlotT &S : Old)
      if (S.Key)
        Slots[probe(S.Key)] = std::move(S);
  }

  std::vector<SlotT> Slots;
  unsigned Shift = 64;
  size_t Size = 0;
};

template <class V> struct NodeMapSlot {
  const Expr *Key = nullptr;
  V Value{};
};

struct NodeSetSlot {
  const Expr *Key = nullptr;
};

} // namespace detail

/// A flat map from node pointer to \p V (see the file comment for the
/// layout and the rule about pointers held across insertions). \p V must be
/// default-constructible and movable.
template <class V>
class NodeMap : public detail::FlatNodeTable<detail::NodeMapSlot<V>> {
public:
  /// The value of \p K, or nullptr when absent.
  V *find(const Expr *K) {
    return const_cast<V *>(std::as_const(*this).find(K));
  }
  const V *find(const Expr *K) const {
    auto *S = this->findSlot(K);
    return S ? &S->Value : nullptr;
  }

  /// The value of \p K, which must be present.
  V &at(const Expr *K) {
    V *P = find(K);
    assert(P && "key not in NodeMap");
    return *P;
  }
  const V &at(const Expr *K) const {
    const V *P = find(K);
    assert(P && "key not in NodeMap");
    return *P;
  }

  /// Inserts \p K -> \p Value unless \p K is present. Returns the stored
  /// value and whether this call inserted it (an existing value is kept).
  std::pair<V *, bool> emplace(const Expr *K, V Value) {
    auto [S, Inserted] = this->claimSlot(K);
    if (Inserted)
      S->Value = std::move(Value);
    return {&S->Value, Inserted};
  }
};

/// A flat set of node pointers (see the file comment).
class NodeSet : public detail::FlatNodeTable<detail::NodeSetSlot> {
public:
  /// Adds \p K; returns false when it was already present.
  bool insert(const Expr *K) { return claimSlot(K).second; }
};

} // namespace mba

#endif // MBA_AST_NODEMAP_H
