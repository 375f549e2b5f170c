//===- support/Cache.h - Sharded concurrent LRU caches ----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic memoization layer: a generic sharded concurrent LRU cache
/// plus a versioned binary snapshot format for cross-run persistence.
///
/// MBA-Solver's workload is dominated by recomputation — corpus expressions
/// share subterms, the simplifier re-derives basis solutions for
/// semantically identical subexpressions, and the staged checker re-proves
/// pairs it has already decided. Three clients sit on top of this layer:
/// the simplification cache (mba/SimplifyCache.h), the basis/lookup cache
/// (mba/Basis.h) and the verdict cache (solvers/EquivalenceChecker.h).
///
/// Keys are 64-bit semantic hashes (signature vectors, canonical
/// fingerprints). The cache stores no full keys beyond the hash, so a hash
/// collision would alias two entries; with the mixers below the probability
/// is ~n^2 / 2^65 (about 2^-25 for a million-entry cache), far below the
/// solver backends' own error sources. docs/PERF.md discusses the trade.
///
/// Concurrency: the key space is split over N shards (power of two), each
/// a mutex-guarded hash map with an intrusive LRU list threaded through the
/// map's nodes (libstdc++/libc++ node-based maps guarantee stable element
/// addresses). Lookups and inserts on different shards never contend.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_CACHE_H
#define MBA_SUPPORT_CACHE_H

#include "support/ThreadSafety.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mba {

//===----------------------------------------------------------------------===//
// Hashing helpers
//===----------------------------------------------------------------------===//

/// Finalizing 64-bit mixer (splitmix64): every input bit affects every
/// output bit. Used both to derive shard indices and to build cache keys.
inline uint64_t hashMix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Order-sensitive accumulation of \p V into the running hash \p H.
inline uint64_t hashCombine64(uint64_t H, uint64_t V) {
  return hashMix64(H ^ (V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2)));
}

/// Hash of a byte string (FNV-1a folded through the finalizer).
inline uint64_t hashBytes64(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Len; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return hashMix64(H);
}

inline uint64_t hashString64(std::string_view S) {
  return hashBytes64(S.data(), S.size());
}

//===----------------------------------------------------------------------===//
// CacheStats
//===----------------------------------------------------------------------===//

/// Rolled-up counters of one cache (summed over its shards).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0; ///< current population, not a rate

  CacheStats &operator+=(const CacheStats &O) {
    Hits += O.Hits;
    Misses += O.Misses;
    Inserts += O.Inserts;
    Evictions += O.Evictions;
    Entries += O.Entries;
    return *this;
  }
};

//===----------------------------------------------------------------------===//
// ShardedCache
//===----------------------------------------------------------------------===//

/// A concurrent LRU cache from 64-bit keys to values of type \p V, sharded
/// by the mixed key's top bits. \p V must be copyable; lookups hand out
/// copies, so values should be cheap to copy (pointers, small structs, or
/// small vectors).
template <typename V> class ShardedCache {
public:
  /// \p Capacity is the total entry budget, split evenly over
  /// \p NumShards (rounded up to a power of two).
  explicit ShardedCache(size_t Capacity = 1 << 16, unsigned NumShards = 16) {
    unsigned Shards = 1;
    ShardBits = 0;
    while (Shards < NumShards && Shards < 256) {
      Shards <<= 1;
      ++ShardBits;
    }
    ShardCapacity = Capacity / Shards ? Capacity / Shards : 1;
    Shards_.reserve(Shards);
    for (unsigned I = 0; I != Shards; ++I)
      Shards_.push_back(std::make_unique<Shard>());
  }

  /// Copies the value of \p Key into \p Out and marks the entry
  /// most-recently-used. Counts a hit or a miss.
  bool lookup(uint64_t Key, V &Out) {
    Shard &S = shardFor(Key);
    MutexLock Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      S.Misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    S.Hits.fetch_add(1, std::memory_order_relaxed);
    touch(S, &It->second);
    Out = It->second.Value;
    return true;
  }

  /// Inserts or overwrites \p Key. Evicts the shard's least-recently-used
  /// entry when the shard is over budget.
  void insert(uint64_t Key, const V &Value) {
    insertMerge(Key, Value,
                [](V &Existing, const V &New) { Existing = New; });
  }

  /// Like insert(), but an existing entry is combined with the new value
  /// via \p Merge(V &Existing, const V &New) instead of overwritten (e.g.
  /// the verdict cache keeps the larger exhausted budget).
  template <typename MergeFn>
  void insertMerge(uint64_t Key, const V &Value, MergeFn Merge) {
    Shard &S = shardFor(Key);
    MutexLock Lock(S.Mu);
    auto [It, Inserted] = S.Map.try_emplace(Key, Node{Key, Value});
    Node *N = &It->second;
    if (!Inserted) {
      Merge(N->Value, Value);
      touch(S, N);
      return;
    }
    S.Inserts.fetch_add(1, std::memory_order_relaxed);
    pushFront(S, N);
    if (S.Map.size() > ShardCapacity) {
      Node *Victim = S.Tail;
      detach(S, Victim);
      S.Map.erase(Victim->Key);
      S.Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Snapshot of all entries (shard by shard; the order is unspecified).
  std::vector<std::pair<uint64_t, V>> entries() const {
    std::vector<std::pair<uint64_t, V>> Out;
    for (const auto &SP : Shards_) {
      MutexLock Lock(SP->Mu);
      for (const auto &[Key, N] : SP->Map)
        Out.push_back({Key, N.Value});
    }
    return Out;
  }

  /// Rolled-up counters over all shards. The rate counters are relaxed
  /// atomics (never torn under --jobs=N; audited for the telemetry layer),
  /// so only the population read takes each shard's lock.
  CacheStats stats() const {
    CacheStats Out;
    for (const auto &SP : Shards_) {
      Out.Hits += SP->Hits.load(std::memory_order_relaxed);
      Out.Misses += SP->Misses.load(std::memory_order_relaxed);
      Out.Inserts += SP->Inserts.load(std::memory_order_relaxed);
      Out.Evictions += SP->Evictions.load(std::memory_order_relaxed);
      MutexLock Lock(SP->Mu);
      Out.Entries += SP->Map.size();
    }
    return Out;
  }

  size_t size() const { return stats().Entries; }

  /// Drops every entry; hit/miss counters are preserved.
  void clear() {
    for (const auto &SP : Shards_) {
      MutexLock Lock(SP->Mu);
      SP->Map.clear();
      SP->Head = SP->Tail = nullptr;
    }
  }

  unsigned numShards() const { return (unsigned)Shards_.size(); }
  size_t shardCapacity() const { return ShardCapacity; }

private:
  struct Node {
    uint64_t Key = 0;
    V Value{};
    Node *Prev = nullptr; ///< toward the MRU end
    Node *Next = nullptr; ///< toward the LRU end
  };

  struct Shard {
    mutable Mutex Mu;
    std::unordered_map<uint64_t, Node> Map MBA_GUARDED_BY(Mu);
    Node *Head MBA_GUARDED_BY(Mu) = nullptr; ///< most recently used
    Node *Tail MBA_GUARDED_BY(Mu) = nullptr; ///< least recently used
    // Relaxed atomics: written under Mu (the map/LRU updates need it
    // anyway) but readable lock-free by stats() and telemetry snapshots.
    std::atomic<uint64_t> Hits{0}, Misses{0}, Inserts{0}, Evictions{0};
  };

  Shard &shardFor(uint64_t Key) {
    size_t Index = ShardBits ? (hashMix64(Key) >> (64 - ShardBits)) : 0;
    return *Shards_[Index];
  }

  static void detach(Shard &S, Node *N) MBA_REQUIRES(S.Mu) {
    (N->Prev ? N->Prev->Next : S.Head) = N->Next;
    (N->Next ? N->Next->Prev : S.Tail) = N->Prev;
    N->Prev = N->Next = nullptr;
  }

  static void pushFront(Shard &S, Node *N) MBA_REQUIRES(S.Mu) {
    N->Prev = nullptr;
    N->Next = S.Head;
    if (S.Head)
      S.Head->Prev = N;
    S.Head = N;
    if (!S.Tail)
      S.Tail = N;
  }

  static void touch(Shard &S, Node *N) MBA_REQUIRES(S.Mu) {
    if (S.Head == N)
      return;
    detach(S, N);
    pushFront(S, N);
  }

  std::vector<std::unique_ptr<Shard>> Shards_;
  size_t ShardCapacity = 1;
  unsigned ShardBits = 0;
};

//===----------------------------------------------------------------------===//
// Snapshot format
//===----------------------------------------------------------------------===//
//
// Little-endian binary layout:
//
//   8 bytes   magic "MBACACHE"
//   u32       schema version (SnapshotVersion)
//   u32       word width the caches were built at
//   repeated sections until EOF:
//     u32       section-name length
//     bytes     section name (e.g. "simplify.result")
//     u64       entry count
//     repeated: u64 key, u32 payload length, payload bytes
//
// Payloads are the client's codec. The simplify sections store each
// expression as a post-order node list (mba/SimplifyCache.cpp): a u32 node
// count, then per node a kind byte and a u64 constant, a u32-length-
// prefixed variable name, or u32 operand indices that point at earlier
// nodes; the root is last. (Printed text would lose the shape of
// right-nested associative operators, and with it the fingerprints the
// verdict cache keys on.)
//
// A reader rejects mismatched magic, version or width up front (a cache
// keyed at width 64 is meaningless at width 8), and reports truncation or
// implausible lengths as corruption. Unknown section names are skipped, so
// the format is forward-extensible within one version.

inline constexpr char SnapshotMagic[8] = {'M', 'B', 'A', 'C', 'A', 'C', 'H', 'E'};
inline constexpr uint32_t SnapshotVersion = 2;

/// Streaming writer for the snapshot format. Construct, write sections via
/// beginSection()/entry(), then call finish() — which reports whether every
/// write landed. A writer that never reached finish() leaves a file that
/// readers reject as truncated.
class SnapshotWriter {
public:
  SnapshotWriter(const std::string &Path, uint32_t Width);
  ~SnapshotWriter();

  bool ok() const { return File && Healthy; }

  void beginSection(std::string_view Name, uint64_t Count);
  void entry(uint64_t Key, const std::vector<uint8_t> &Payload);
  bool finish();

private:
  void writeBytes(const void *P, size_t N);
  void writeU32(uint32_t V);
  void writeU64(uint64_t V);

  void *File = nullptr; ///< std::FILE*, kept opaque for the header
  bool Healthy = true;
};

/// Whole-file snapshot reader. The constructor slurps and validates the
/// header; ok() is false (with error()) on open failure, bad magic, version
/// or width mismatch. Iterate nextSection() / entry(); both return false
/// and set error() on corruption.
class SnapshotReader {
public:
  SnapshotReader(const std::string &Path, uint32_t ExpectWidth);

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// Advances to the next section header. Returns false at a clean end of
  /// file, or on corruption (then error() is set).
  bool nextSection(std::string &Name, uint64_t &Count);

  /// Reads one entry of the current section.
  bool entry(uint64_t &Key, std::vector<uint8_t> &Payload);

private:
  bool take(void *P, size_t N);
  bool takeU32(uint32_t &V);
  bool takeU64(uint64_t &V);

  std::vector<uint8_t> Data;
  size_t Pos = 0;
  std::string Err;
};

/// Serializes every entry of \p Cache as one snapshot section; \p Encode
/// appends the payload bytes of a value to a buffer.
template <typename V, typename EncodeFn>
void saveCacheSection(SnapshotWriter &W, std::string_view Name,
                      const ShardedCache<V> &Cache, EncodeFn Encode) {
  auto Entries = Cache.entries();
  W.beginSection(Name, Entries.size());
  std::vector<uint8_t> Buf;
  for (const auto &[Key, Value] : Entries) {
    Buf.clear();
    Encode(Value, Buf);
    W.entry(Key, Buf);
  }
}

/// Loads \p Count entries of the current section into \p Cache; \p Decode
/// turns payload bytes back into a value (std::nullopt drops the entry).
/// Returns the number of entries loaded.
template <typename V, typename DecodeFn>
size_t loadCacheSection(SnapshotReader &R, uint64_t Count,
                        ShardedCache<V> &Cache, DecodeFn Decode) {
  size_t Loaded = 0;
  uint64_t Key = 0;
  std::vector<uint8_t> Buf;
  for (uint64_t I = 0; I != Count; ++I) {
    if (!R.entry(Key, Buf))
      break;
    if (std::optional<V> Value = Decode(Buf)) {
      Cache.insert(Key, *Value);
      ++Loaded;
    }
  }
  return Loaded;
}

//===----------------------------------------------------------------------===//
// Little-endian payload encoding helpers
//===----------------------------------------------------------------------===//

inline void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }

inline void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back((uint8_t)(V >> (8 * I)));
}

inline void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back((uint8_t)(V >> (8 * I)));
}

/// Bounds-checked sequential decoder over a payload buffer. Failure is
/// sticky: once a read runs past the end, every later read fails too, so
/// callers can batch reads and check failed() once.
struct ByteCursor {
  const std::vector<uint8_t> &Buf;
  size_t Pos = 0;
  bool Fail = false;

  explicit ByteCursor(const std::vector<uint8_t> &Buf) : Buf(Buf) {}

  uint8_t u8() {
    if (Pos + 1 > Buf.size()) {
      Fail = true;
      return 0;
    }
    return Buf[Pos++];
  }

  uint32_t u32() {
    uint32_t V = 0;
    if (Pos + 4 > Buf.size()) {
      Fail = true;
      return 0;
    }
    for (int I = 0; I != 4; ++I)
      V |= (uint32_t)Buf[Pos++] << (8 * I);
    return V;
  }

  uint64_t u64() {
    uint64_t V = 0;
    if (Pos + 8 > Buf.size()) {
      Fail = true;
      return 0;
    }
    for (int I = 0; I != 8; ++I)
      V |= (uint64_t)Buf[Pos++] << (8 * I);
    return V;
  }

  bool failed() const { return Fail; }
  bool atEnd() const { return Pos == Buf.size(); }
};

} // namespace mba

#endif // MBA_SUPPORT_CACHE_H
