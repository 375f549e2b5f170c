//===- tests/cache_test.cpp - Semantic memoization layer tests ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests of support/Cache.h and its three clients: ShardedCache semantics
/// (LRU, merge, sharding, stats), concurrent stress under the ThreadPool,
/// the snapshot format (round-trip, corruption and version/width guards),
/// and the BasisCache / SimplifyCache / VerdictCache codecs.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "mba/Basis.h"
#include "mba/SimplifyCache.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Cache.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <unistd.h>

using namespace mba;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + "/" + Name;
}

TEST(ShardedCache, InsertLookupMiss) {
  ShardedCache<uint64_t> Cache(1024);
  uint64_t Out = 0;
  EXPECT_FALSE(Cache.lookup(7, Out));
  Cache.insert(7, 49);
  ASSERT_TRUE(Cache.lookup(7, Out));
  EXPECT_EQ(Out, 49u);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(ShardedCache, OverwriteAndMerge) {
  ShardedCache<uint64_t> Cache(1024);
  Cache.insert(1, 10);
  Cache.insert(1, 20); // plain insert overwrites
  uint64_t Out = 0;
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out, 20u);

  Cache.insertMerge(1, 5, [](uint64_t &Existing, const uint64_t &New) {
    Existing = std::max(Existing, New);
  });
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out, 20u); // merge kept the max
  EXPECT_EQ(Cache.stats().Inserts, 1u); // overwrite/merge is not an insert
}

TEST(ShardedCache, LruEvictionSingleShard) {
  // One shard of capacity 8 makes the LRU order directly observable.
  ShardedCache<uint64_t> Cache(8, 1);
  ASSERT_EQ(Cache.numShards(), 1u);
  for (uint64_t K = 0; K != 8; ++K)
    Cache.insert(K, K);

  // Touch key 0 so key 1 is now the LRU entry.
  uint64_t Out = 0;
  ASSERT_TRUE(Cache.lookup(0, Out));
  Cache.insert(100, 100);
  EXPECT_FALSE(Cache.lookup(1, Out)) << "LRU entry should have been evicted";
  EXPECT_TRUE(Cache.lookup(0, Out)) << "recently used entry must survive";
  EXPECT_TRUE(Cache.lookup(100, Out));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Entries, 8u);
}

TEST(ShardedCache, CapacitySplitsOverShards) {
  ShardedCache<uint64_t> Cache(1 << 10, 16);
  EXPECT_EQ(Cache.numShards(), 16u);
  EXPECT_EQ(Cache.shardCapacity(), (1u << 10) / 16);
}

TEST(ShardedCache, ConcurrentStress) {
  // 8 workers hammer a shared cache with overlapping key ranges; every
  // lookup that hits must return the unique value derived from its key.
  ShardedCache<uint64_t> Cache(1 << 12, 16);
  ThreadPool Pool(8);
  const size_t OpsPerWorker = 20000;
  std::atomic<size_t> BadValues{0};
  Pool.parallelFor(8, [&](size_t, unsigned Worker) {
    uint64_t Rng = 0x9e3779b97f4a7c15ULL * (Worker + 1);
    for (size_t I = 0; I != OpsPerWorker; ++I) {
      Rng = hashMix64(Rng);
      // Key and operation come from disjoint bits — otherwise the key's
      // parity would decide the operation and lookups could never hit.
      uint64_t Key = (Rng >> 8) % 4096;
      if (Rng & 1) {
        Cache.insert(Key, Key * 2 + 1);
      } else {
        uint64_t Out = 0;
        if (Cache.lookup(Key, Out) && Out != Key * 2 + 1)
          ++BadValues;
      }
    }
  });
  EXPECT_EQ(BadValues.load(), 0u);
  CacheStats S = Cache.stats();
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Inserts, 0u);
}

TEST(Snapshot, RoundTrip) {
  std::string Path = tempPath("roundtrip.mbacache");
  ShardedCache<uint64_t> Cache(1024);
  for (uint64_t K = 0; K != 100; ++K)
    Cache.insert(K, K * K);
  {
    SnapshotWriter W(Path, 64);
    ASSERT_TRUE(W.ok());
    saveCacheSection(W, "test.section", Cache,
                     [](const uint64_t &V, std::vector<uint8_t> &Out) {
                       putU64(Out, V);
                     });
    ASSERT_TRUE(W.finish());
  }

  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Name;
  uint64_t Count = 0;
  ASSERT_TRUE(R.nextSection(Name, Count));
  EXPECT_EQ(Name, "test.section");
  EXPECT_EQ(Count, 100u);
  ShardedCache<uint64_t> Loaded(1024);
  size_t N = loadCacheSection(
      R, Count, Loaded,
      [](const std::vector<uint8_t> &Buf) -> std::optional<uint64_t> {
        ByteCursor C(Buf);
        uint64_t V = C.u64();
        if (C.failed() || !C.atEnd())
          return std::nullopt;
        return V;
      });
  EXPECT_EQ(N, 100u);
  EXPECT_FALSE(R.nextSection(Name, Count)) << "clean EOF expected";
  EXPECT_TRUE(R.ok()) << R.error();
  for (uint64_t K = 0; K != 100; ++K) {
    uint64_t Out = 0;
    ASSERT_TRUE(Loaded.lookup(K, Out)) << "missing key " << K;
    EXPECT_EQ(Out, K * K);
  }
}

TEST(Snapshot, RejectsBadMagic) {
  std::string Path = tempPath("badmagic.mbacache");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("this is not a cache snapshot at all........", F);
  std::fclose(F);
  SnapshotReader R(Path, 64);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("bad magic"), std::string::npos) << R.error();
}

TEST(Snapshot, RejectsMissingFile) {
  SnapshotReader R(tempPath("never-written.mbacache"), 64);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("cannot open"), std::string::npos) << R.error();
}

TEST(Snapshot, RejectsWidthMismatch) {
  std::string Path = tempPath("width.mbacache");
  {
    SnapshotWriter W(Path, 64);
    ASSERT_TRUE(W.finish());
  }
  SnapshotReader R(Path, 8);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("width"), std::string::npos) << R.error();
}

TEST(Snapshot, RejectsVersionMismatch) {
  std::string Path = tempPath("version.mbacache");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(SnapshotMagic, 1, sizeof(SnapshotMagic), F);
  uint32_t FutureVersion = SnapshotVersion + 41, Width = 64;
  std::fwrite(&FutureVersion, 4, 1, F); // host-endian == little on x86/arm64
  std::fwrite(&Width, 4, 1, F);
  std::fclose(F);
  SnapshotReader R(Path, 64);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("version"), std::string::npos) << R.error();
}

TEST(Snapshot, RejectsTruncation) {
  std::string Path = tempPath("trunc.mbacache");
  ShardedCache<uint64_t> Cache(64);
  for (uint64_t K = 0; K != 32; ++K)
    Cache.insert(K, K);
  {
    SnapshotWriter W(Path, 64);
    saveCacheSection(W, "test.section", Cache,
                     [](const uint64_t &V, std::vector<uint8_t> &Out) {
                       putU64(Out, V);
                     });
    ASSERT_TRUE(W.finish());
  }
  // Chop the tail off: entries past the cut must read as corruption, not
  // as a clean EOF.
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  ASSERT_GT(Size, 40);
  ASSERT_EQ(truncate(Path.c_str(), Size - 9), 0);

  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok());
  std::string Name;
  uint64_t Count = 0;
  ASSERT_TRUE(R.nextSection(Name, Count));
  uint64_t Key = 0;
  std::vector<uint8_t> Payload;
  size_t Read = 0;
  while (R.entry(Key, Payload))
    ++Read;
  EXPECT_LT(Read, Count);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("corrupted"), std::string::npos) << R.error();
}

TEST(BasisCacheTest, RawSolveMatchesSolveBasis) {
  Context Ctx(64);
  const Expr *Vars[] = {Ctx.getVar("x"), Ctx.getVar("y"), Ctx.getVar("z")};
  std::vector<uint64_t> Sig = {0, 1, 1, 2, 3, 4, 5, 6};
  for (BasisKind Kind : {BasisKind::Conjunction, BasisKind::Disjunction}) {
    LinearCombo Direct = solveBasis(Ctx, Kind, Sig, Vars);
    BasisSolution Raw = solveBasisRaw(Kind, Sig, 3, Ctx.mask());
    LinearCombo Rebuilt = comboFromSolution(Ctx, Raw, Vars);
    EXPECT_EQ(Direct.Constant, Rebuilt.Constant);
    ASSERT_EQ(Direct.Terms.size(), Rebuilt.Terms.size());
    for (size_t I = 0; I != Direct.Terms.size(); ++I) {
      EXPECT_EQ(Direct.Terms[I].first, Rebuilt.Terms[I].first);
      EXPECT_EQ(Direct.Terms[I].second, Rebuilt.Terms[I].second)
          << "basis expressions must be interned identically";
    }
  }
}

TEST(BasisCacheTest, SnapshotRoundTrip) {
  std::string Path = tempPath("basis.mbacache");
  BasisCache Cache;
  std::vector<uint64_t> Sig = {0, 1, 1, 2};
  BasisSolution S = solveBasisRaw(BasisKind::Conjunction, Sig, 2, ~0ULL);
  Cache.insert(1234, S);
  {
    SnapshotWriter W(Path, 64);
    Cache.save(W);
    ASSERT_TRUE(W.finish());
  }
  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Name;
  uint64_t Count = 0;
  ASSERT_TRUE(R.nextSection(Name, Count));
  EXPECT_EQ(Name, BasisCache::SectionName);
  BasisCache Loaded;
  EXPECT_EQ(Loaded.loadSection(R, Count), 1u);
  BasisSolution Out;
  ASSERT_TRUE(Loaded.lookup(1234, Out));
  EXPECT_EQ(Out.Kind, S.Kind);
  EXPECT_EQ(Out.Constant, S.Constant);
  EXPECT_EQ(Out.Terms, S.Terms);
}

TEST(SimplifyCacheTest, LookupClonesIntoCallerContext) {
  SimplifyCache Cache(64);
  Context A(64);
  const Expr *E = parseOrDie(A, "x + 2*(x&y)");
  Cache.insertResult(99, E);

  Context B(64);
  const Expr *Out = Cache.lookupResult(99, B);
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(printExpr(B, Out), printExpr(A, E));
  EXPECT_EQ(Cache.lookupResult(98, B), nullptr);
}

TEST(SimplifyCacheTest, SnapshotRoundTrip) {
  std::string Path = tempPath("simplify.mbacache");
  {
    SimplifyCache Cache(64);
    Context Ctx(64);
    Cache.insertResult(1, parseOrDie(Ctx, "x ^ y"));
    Cache.insertLinear(2, parseOrDie(Ctx, "x + y - 2*(x&y)"));
    SnapshotWriter W(Path, 64);
    Cache.save(W);
    ASSERT_TRUE(W.finish());
  }
  SimplifyCache Loaded(64);
  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Name;
  uint64_t Count = 0;
  while (R.nextSection(Name, Count))
    EXPECT_TRUE(Loaded.loadSection(R, Name, Count));
  EXPECT_TRUE(R.ok()) << R.error();

  Context Ctx(64);
  const Expr *Result = Loaded.lookupResult(1, Ctx);
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(printExpr(Ctx, Result), "x^y");
  const Expr *Lin = Loaded.lookupLinear(2, Ctx);
  ASSERT_NE(Lin, nullptr);
  EXPECT_EQ(printExpr(Ctx, Lin), printExpr(Ctx, parseOrDie(Ctx, "x+y-2*(x&y)")));
}

/// Loads every simplify section of the snapshot at \p Path into \p Cache.
void loadSimplify(const std::string &Path, SimplifyCache &Cache) {
  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Name;
  uint64_t Count = 0;
  while (R.nextSection(Name, Count))
    EXPECT_TRUE(Cache.loadSection(R, Name, Count));
  EXPECT_TRUE(R.ok()) << R.error();
}

TEST(SimplifyCacheTest, SnapshotKeepsRightNestedShapes) {
  // The printer drops the parentheses of a right-nested associative
  // operator (x+(y+z) prints as x+y+z), so a text payload would come back
  // left-nested with a different fingerprint. The node list keeps it.
  std::string Path = tempPath("nested.mbacache");
  Context Ctx(64);
  const Expr *X = Ctx.getVar("x"), *Y = Ctx.getVar("y"), *Z = Ctx.getVar("z");
  const ExprKind Kinds[] = {ExprKind::Add, ExprKind::Mul, ExprKind::And,
                            ExprKind::Or, ExprKind::Xor};
  std::vector<const Expr *> Saved;
  {
    SimplifyCache Cache(64);
    for (ExprKind K : Kinds) {
      // x op (y op z), plus a shared operand to exercise DAG indices.
      const Expr *Inner = Ctx.getBinary(K, Y, Z);
      Saved.push_back(Ctx.getBinary(K, X, Inner));
      Saved.push_back(Ctx.getSub(Ctx.getBinary(K, X, Inner), Ctx.getNot(Inner)));
    }
    for (size_t I = 0; I != Saved.size(); ++I)
      Cache.insertResult(I, Saved[I]);
    SnapshotWriter W(Path, 64);
    Cache.save(W);
    ASSERT_TRUE(W.finish());
  }
  SimplifyCache Loaded(64);
  loadSimplify(Path, Loaded);
  Context Fresh(64);
  for (size_t I = 0; I != Saved.size(); ++I) {
    const Expr *Out = Loaded.lookupResult(I, Fresh);
    ASSERT_NE(Out, nullptr) << I;
    EXPECT_EQ(exprFingerprint(Out), exprFingerprint(Saved[I]))
        << printExpr(Ctx, Saved[I]);
  }
}

TEST(SimplifyCacheTest, MalformedPayloadsNeverCrash) {
  // Every truncation of an entry, and every single-bit flip of it, must
  // load without crashing: a truncated entry is dropped, a flipped one is
  // dropped or rebuilt as some well-formed expression.
  std::string Path = tempPath("malformed.mbacache");
  uint64_t Key = 0;
  std::vector<uint8_t> Payload;
  {
    SimplifyCache Cache(64);
    Context Ctx(64);
    Cache.insertResult(7, parseOrDie(Ctx, "(x & ~y) * 3 + -(x ^ y)"));
    SnapshotWriter W(Path, 64);
    Cache.save(W);
    ASSERT_TRUE(W.finish());
    SnapshotReader R(Path, 64);
    std::string Name;
    uint64_t Count = 0;
    ASSERT_TRUE(R.nextSection(Name, Count));
    ASSERT_EQ(Name, SimplifyCache::ResultSection);
    ASSERT_TRUE(R.entry(Key, Payload));
  }
  auto LoadOne = [&](const std::vector<uint8_t> &Bytes) -> const Expr * {
    {
      SnapshotWriter W(Path, 64);
      W.beginSection(SimplifyCache::ResultSection, 1);
      W.entry(Key, Bytes);
      EXPECT_TRUE(W.finish());
    }
    SimplifyCache Cache(64);
    loadSimplify(Path, Cache);
    Context Ctx(64);
    const Expr *E = Cache.lookupResult(Key, Ctx);
    if (E)
      (void)printExpr(Ctx, E);
    return E;
  };
  ASSERT_NE(LoadOne(Payload), nullptr);
  for (size_t Len = 0; Len != Payload.size(); ++Len)
    EXPECT_EQ(LoadOne({Payload.begin(), Payload.begin() + Len}), nullptr)
        << "truncated to " << Len << " bytes";
  for (size_t Bit = 0; Bit != Payload.size() * 8; ++Bit) {
    std::vector<uint8_t> Flipped = Payload;
    Flipped[Bit / 8] ^= (uint8_t)(1u << (Bit % 8));
    LoadOne(Flipped);
  }
}

TEST(VerdictCacheTest, MergeKeepsDecidedOverUnknown) {
  VerdictCache Cache;
  Cache.insert(5, {VerdictEntry::Unknown, 0.5});
  VerdictEntry Out;
  ASSERT_TRUE(Cache.lookup(5, Out));
  EXPECT_EQ(Out.Outcome, VerdictEntry::Unknown);

  // A larger exhausted budget widens the Unknown entry...
  Cache.insert(5, {VerdictEntry::Unknown, 2.0});
  ASSERT_TRUE(Cache.lookup(5, Out));
  EXPECT_DOUBLE_EQ(Out.BudgetSeconds, 2.0);
  // ...a smaller one does not shrink it...
  Cache.insert(5, {VerdictEntry::Unknown, 0.1});
  ASSERT_TRUE(Cache.lookup(5, Out));
  EXPECT_DOUBLE_EQ(Out.BudgetSeconds, 2.0);
  // ...and a decided verdict replaces it and then sticks.
  Cache.insert(5, {VerdictEntry::Equivalent, 0});
  Cache.insert(5, {VerdictEntry::Unknown, 9.0});
  ASSERT_TRUE(Cache.lookup(5, Out));
  EXPECT_EQ(Out.Outcome, VerdictEntry::Equivalent);
}

TEST(VerdictCacheTest, QueryKeyDistinguishesOperandsAndBackend) {
  Context Ctx(64);
  const Expr *A = parseOrDie(Ctx, "x + y");
  const Expr *B = parseOrDie(Ctx, "x ^ y");
  uint64_t K1 = VerdictCache::queryKey(Ctx, A, B, "Z3");
  EXPECT_NE(K1, VerdictCache::queryKey(Ctx, B, A, "Z3"));
  EXPECT_NE(K1, VerdictCache::queryKey(Ctx, A, B, "BlastBV"));
  EXPECT_EQ(K1, VerdictCache::queryKey(Ctx, A, B, "Z3"));
}

TEST(VerdictCacheTest, SnapshotRoundTrip) {
  std::string Path = tempPath("verdicts.mbacache");
  VerdictCache Cache;
  Cache.insert(1, {VerdictEntry::Equivalent, 0});
  Cache.insert(2, {VerdictEntry::NotEquivalent, 0});
  Cache.insert(3, {VerdictEntry::Unknown, 1.5});
  {
    SnapshotWriter W(Path, 64);
    Cache.save(W);
    ASSERT_TRUE(W.finish());
  }
  VerdictCache Loaded;
  SnapshotReader R(Path, 64);
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Name;
  uint64_t Count = 0;
  ASSERT_TRUE(R.nextSection(Name, Count));
  EXPECT_EQ(Name, VerdictCache::SectionName);
  EXPECT_EQ(Loaded.loadSection(R, Count), 3u);
  VerdictEntry Out;
  ASSERT_TRUE(Loaded.lookup(1, Out));
  EXPECT_EQ(Out.Outcome, VerdictEntry::Equivalent);
  ASSERT_TRUE(Loaded.lookup(3, Out));
  EXPECT_EQ(Out.Outcome, VerdictEntry::Unknown);
  EXPECT_NEAR(Out.BudgetSeconds, 1.5, 1e-6);
}

TEST(ExprFingerprintTest, StableAcrossContextsAndOrderSensitive) {
  Context A(64), B(64);
  // Force different interning orders so pointer values cannot agree.
  parseOrDie(B, "q*r - 17");
  uint64_t FA = exprFingerprint(parseOrDie(A, "x - y"));
  uint64_t FB = exprFingerprint(parseOrDie(B, "x - y"));
  EXPECT_EQ(FA, FB) << "fingerprint must be context-independent";
  EXPECT_NE(FA, exprFingerprint(parseOrDie(A, "y - x")))
      << "operand order must be distinguished";
  EXPECT_NE(exprFingerprint(parseOrDie(A, "x & y")),
            exprFingerprint(parseOrDie(A, "x | y")));
}

} // namespace
