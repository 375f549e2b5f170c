//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the parallel corpus pipeline
/// (bench/Harness.h). parallelFor() splits an index range into one
/// contiguous shard per worker; a worker that drains its own shard steals
/// the back half of the largest remaining shard, so uneven per-entry cost
/// (a handful of near-timeout solver queries among thousands of easy ones)
/// does not serialize the run.
///
/// Design notes:
///  * shards are [lo, hi) ranges guarded by one mutex per worker — at this
///    granularity (thousands of entries, each milliseconds of work) lock
///    traffic is noise, and the simple scheme is easy to audit under TSAN;
///  * steal and idle-wait counters are exported (PoolStats) so the bench
///    harness can report scheduler health next to its timing tables; they
///    are relaxed atomics (no torn reads under --jobs=N) and the only
///    count; each parallelFor() publishes its job's share to the telemetry
///    counters pool.tasks / pool.steals / pool.idle_waits, which outlive
///    the pool, so a metrics dump written after a study still has them;
///  * the callback receives (index, worker) — the worker ordinal lets
///    callers keep per-worker state (e.g. one expression Context per
///    worker, see ast/Context.h's threading rule) without sharing.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_THREADPOOL_H
#define MBA_SUPPORT_THREADPOOL_H

#include "support/ThreadSafety.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace mba {

/// Snapshot of the scheduler counters across parallelFor() calls. The live
/// counters are relaxed atomics inside the pool; this is the consistent-read
/// copy stats() hands out.
struct PoolStats {
  size_t Steals = 0;    ///< shard halves taken from another worker
  size_t IdleWaits = 0; ///< times a worker found every shard empty
  size_t Tasks = 0;     ///< total indices executed
};

/// A fixed-size work-stealing pool. Threads are created on construction and
/// parked between parallelFor() calls.
class ThreadPool {
public:
  /// Creates \p Threads workers (0 means std::thread::hardware_concurrency,
  /// itself clamped to at least 1).
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return (unsigned)Workers.size(); }

  /// Runs Fn(Index, Worker) for every Index in [0, N), distributing indices
  /// over all workers with stealing. Blocks until every index has run.
  /// Worker ordinals are in [0, numWorkers()). If any invocation throws,
  /// the first exception is rethrown here after the loop drains.
  void parallelFor(size_t N,
                   const std::function<void(size_t, unsigned)> &Fn)
      MBA_EXCLUDES(Mu);

  PoolStats stats() const;

private:
  struct Shard {
    Mutex Mu;
    // Remaining [Lo, Hi). Guarded: both ends move under steals, so even a
    // racy read of one end is meaningless.
    size_t Lo MBA_GUARDED_BY(Mu) = 0;
    size_t Hi MBA_GUARDED_BY(Mu) = 0;
  };

  void workerMain(unsigned Ordinal) MBA_EXCLUDES(Mu);
  bool grabIndex(unsigned Ordinal, size_t &Index);

  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<Shard>> Shards; // one per worker

  Mutex Mu; // guards the job state below
  std::condition_variable WorkCv;   // workers wait for a job
  std::condition_variable DoneCv;   // parallelFor waits for completion
  const std::function<void(size_t, unsigned)> *Job MBA_GUARDED_BY(Mu) = nullptr;
  uint64_t JobGeneration MBA_GUARDED_BY(Mu) = 0;
  unsigned ActiveWorkers MBA_GUARDED_BY(Mu) = 0;
  bool ShuttingDown MBA_GUARDED_BY(Mu) = false;
  std::exception_ptr FirstError MBA_GUARDED_BY(Mu);

  // Scheduler counters: relaxed atomics, so concurrent workers never tear
  // a read and stats() needs no lock.
  std::atomic<size_t> Steals{0};
  std::atomic<size_t> IdleWaits{0};
  std::atomic<size_t> Tasks{0};
};

} // namespace mba

#endif // MBA_SUPPORT_THREADPOOL_H
