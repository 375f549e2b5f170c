//===- support/ThreadPool.cpp - Work-stealing thread pool -----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/QueryLog.h"

#include <algorithm>
#include <cassert>

using namespace mba;

namespace {

/// The scheduler counts PoolStats owns, published once per job. The
/// registry counters outlive the pool, so a metrics dump written after the
/// study still reports the totals.
const telemetry::NamedCounter JobCounters[] = {"pool.steals",
                                               "pool.idle_waits", "pool.tasks"};

} // namespace

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Shards.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Shards.push_back(std::make_unique<Shard>());
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(Mu);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

PoolStats ThreadPool::stats() const {
  PoolStats Out;
  Out.Steals = Steals.load(std::memory_order_relaxed);
  Out.IdleWaits = IdleWaits.load(std::memory_order_relaxed);
  Out.Tasks = Tasks.load(std::memory_order_relaxed);
  return Out;
}

bool ThreadPool::grabIndex(unsigned Ordinal, size_t &Index) {
  // Fast path: the front of our own shard.
  {
    Shard &Own = *Shards[Ordinal];
    MutexLock Lock(Own.Mu);
    if (Own.Lo < Own.Hi) {
      Index = Own.Lo++;
      return true;
    }
  }
  // Steal: cut the back half of the fullest other shard, then adopt it.
  // The victim's lock is never held while taking our own (no ordering
  // cycle), at the cost of the stolen range being stealable again.
  for (;;) {
    unsigned Victim = numWorkers();
    size_t Best = 0;
    for (unsigned V = 0; V != numWorkers(); ++V) {
      if (V == Ordinal)
        continue;
      Shard &S = *Shards[V];
      MutexLock Lock(S.Mu);
      if (S.Hi - S.Lo > Best) {
        Best = S.Hi - S.Lo;
        Victim = V;
      }
    }
    if (Victim == numWorkers())
      return false; // everything drained
    size_t StolenLo = 0, StolenHi = 0;
    {
      Shard &S = *Shards[Victim];
      MutexLock Lock(S.Mu);
      size_t Remaining = S.Hi - S.Lo;
      if (Remaining == 0)
        continue; // lost the race; rescan
      size_t Keep = Remaining / 2;
      StolenLo = S.Lo + Keep;
      StolenHi = S.Hi;
      S.Hi = StolenLo;
    }
    {
      Shard &Own = *Shards[Ordinal];
      MutexLock Lock(Own.Mu);
      Own.Lo = StolenLo + 1;
      Own.Hi = StolenHi;
    }
    Steals.fetch_add(1, std::memory_order_relaxed);
    Index = StolenLo;
    return true;
  }
}

void ThreadPool::workerMain(unsigned Ordinal) {
  uint64_t SeenGeneration = 0;
  for (;;) {
    const std::function<void(size_t, unsigned)> *Fn = nullptr;
    {
      UniqueMutexLock Lock(Mu);
      // Explicit predicate loop rather than the wait(lock, pred) overload:
      // the thread-safety analysis cannot look into a predicate lambda, but
      // it does see these guarded reads happen with Mu held. Same condition
      // variable semantics (re-check after every wakeup).
      while (!(ShuttingDown || (Job && JobGeneration != SeenGeneration)))
        WorkCv.wait(Lock.native());
      if (ShuttingDown)
        return;
      SeenGeneration = JobGeneration;
      Fn = Job;
    }

    size_t LocalTasks = 0;
    std::exception_ptr LocalError;
    size_t Index;
    while (grabIndex(Ordinal, Index)) {
      ++LocalTasks;
      if (LocalError)
        continue; // drain without running more work after a failure
      try {
        static const querylog::StageDef TaskStage{"pool.task", nullptr};
        querylog::Stage Stage(TaskStage);
        (*Fn)(Index, Ordinal);
      } catch (...) {
        LocalError = std::current_exception();
      }
    }

    Tasks.fetch_add(LocalTasks, std::memory_order_relaxed);
    if (LocalTasks == 0)
      IdleWaits.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock Lock(Mu);
      if (LocalError && !FirstError)
        FirstError = LocalError;
      if (--ActiveWorkers == 0)
        DoneCv.notify_all();
    }
  }
}

void ThreadPool::parallelFor(
    size_t N, const std::function<void(size_t, unsigned)> &Fn) {
  if (N == 0)
    return;
  unsigned W = numWorkers();
  // Seed one contiguous shard per worker.
  size_t Chunk = (N + W - 1) / W;
  for (unsigned I = 0; I != W; ++I) {
    Shard &S = *Shards[I];
    MutexLock Lock(S.Mu);
    S.Lo = std::min(N, (size_t)I * Chunk);
    S.Hi = std::min(N, S.Lo + Chunk);
  }
  PoolStats Before = stats();
  UniqueMutexLock Lock(Mu);
  assert(!Job && "parallelFor is not reentrant");
  Job = &Fn;
  FirstError = nullptr;
  ActiveWorkers = W;
  ++JobGeneration;
  WorkCv.notify_all();
  // Explicit predicate loop for the thread-safety analysis (see workerMain).
  while (ActiveWorkers != 0)
    DoneCv.wait(Lock.native());
  Job = nullptr;
  PoolStats After = stats();
  telemetry::publish(JobCounters, {After.Steals - Before.Steals,
                                   After.IdleWaits - Before.IdleWaits,
                                   After.Tasks - Before.Tasks});
  // Move the error out before rethrowing: the throw unwinds Lock, and no
  // guarded field may be touched after that.
  std::exception_ptr Error = FirstError;
  FirstError = nullptr;
  if (Error)
    std::rethrow_exception(Error);
}
