//===- support/Telemetry.h - Unified metrics + tracing layer ----*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified telemetry layer: a global metrics registry (monotonic
/// counters, gauges, log-scale histograms) plus a scoped tracing-span API,
/// with exporters to the Chrome trace-event JSON format (loadable in
/// chrome://tracing / Perfetto) and a flat Prometheus-style text dump.
///
/// Everything in the pipeline — parser, classification, signatures, the
/// Algorithm 1 simplification stages, basis solving, the stage-0 prover,
/// SMT backend calls, cache lookups, and thread-pool tasks — reports into
/// this one subsystem, so a single snapshot (or one trace file) covers a
/// whole study instead of N ad-hoc stat structs.
///
/// Design constraints, in order:
///
///  1. **Near-zero overhead when disabled.** Both metrics and tracing are
///     off by default; every recording operation starts with one relaxed
///     atomic load and returns. Instrumentation can therefore live inside
///     per-expression hot paths (docs/OBSERVABILITY.md records measured
///     costs; bench/micro_telemetry reproduces them).
///  2. **No cross-thread contention when enabled.** Counters and histogram
///     buckets are striped over cache-line-padded relaxed atomics, with the
///     stripe picked per thread; span events go to per-thread buffers.
///     Aggregation happens only at snapshot/collect time.
///  3. **Stable identity.** Metrics are named once and live for the
///     process; threads carry stable ids and labels (the pool sets
///     "worker-N"), so traces from repeated runs line up.
///
/// Usage:
///
///   // metrics — cache the reference, then count
///   static telemetry::Counter &C = telemetry::counter("simplify.calls");
///   C.add();
///
///   // spans — RAII, nanosecond timestamps, per-thread trees (a pipeline
///   // stage uses querylog::Stage, which also feeds counter and log)
///   { MBA_TRACE_SPAN("test.span"); ...work...; }
///
///   // export
///   telemetry::writeChromeTrace("trace.json");
///   telemetry::writeMetricsText("metrics.txt");
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_TELEMETRY_H
#define MBA_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mba::telemetry {

//===----------------------------------------------------------------------===//
// Global enable switches
//===----------------------------------------------------------------------===//

/// The three views (tracing, metrics, the query log) as bits of one word,
/// so an instrumentation point asks "is anything on?" with one load.
enum View : unsigned { ViewTrace = 1, ViewMetrics = 2, ViewLog = 4 };

namespace detail {
extern std::atomic<unsigned> Views;
void setView(View V, bool On);
} // namespace detail

/// Which views are on (View bits). One relaxed load.
inline unsigned views() { return detail::Views.load(std::memory_order_relaxed); }

/// Metrics recording (counters/gauges/histograms). Off by default.
inline bool metricsEnabled() { return views() & ViewMetrics; }
inline void setMetricsEnabled(bool On) { detail::setView(ViewMetrics, On); }

/// Span tracing. Off by default.
inline bool tracingEnabled() { return views() & ViewTrace; }
inline void setTracingEnabled(bool On) { detail::setView(ViewTrace, On); }

//===----------------------------------------------------------------------===//
// Metrics: counters, gauges, histograms
//===----------------------------------------------------------------------===//

/// Stripe count for counters/histograms: enough that a handful of pool
/// workers rarely share a stripe, small enough to keep snapshots cheap.
inline constexpr unsigned NumStripes = 8;

/// The stripe this thread writes to (assigned round-robin on first use).
unsigned threadStripe();

namespace detail {
struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> V{0};
};
} // namespace detail

/// Monotonic counter. add() is one relaxed load (the enable check) plus one
/// relaxed fetch_add on a thread-striped slot; value() sums the stripes.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (!metricsEnabled())
      return;
    Stripes[threadStripe()].V.fetch_add(N, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t Sum = 0;
    for (const auto &S : Stripes)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  detail::PaddedAtomic Stripes[NumStripes];
};

/// Last-value gauge (e.g. current cache population, configured job count).
/// set()/add() are single relaxed atomic ops; not striped — gauges record a
/// state, not a rate, so the last writer wins by design.
class Gauge {
public:
  void set(int64_t V) {
    if (!metricsEnabled())
      return;
    Value.store(V, std::memory_order_relaxed);
  }
  void add(int64_t Delta) {
    if (!metricsEnabled())
      return;
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// Number of log2 histogram buckets: bucket 0 counts the value 0, bucket i
/// (1..64) counts values in [2^(i-1), 2^i).
inline constexpr unsigned HistogramBuckets = 65;

/// Bucket index of \p V (0 for 0, otherwise bit_width).
inline unsigned histogramBucket(uint64_t V) {
  unsigned B = 0;
  while (V) {
    ++B;
    V >>= 1;
  }
  return B;
}

/// Inclusive upper bound of bucket \p B (2^B - 1; bucket 0 holds only 0).
inline uint64_t histogramBucketMax(unsigned B) {
  return B == 0 ? 0 : (B >= 64 ? ~0ULL : (1ULL << B) - 1);
}

/// Log-scale (power-of-two bucket) histogram of uint64 samples — typically
/// nanosecond durations or sizes. record() touches one striped bucket slot
/// plus striped count/sum accumulators.
class Histogram {
public:
  void record(uint64_t V) {
    if (!metricsEnabled())
      return;
    Stripe &S = Stripes[threadStripe()];
    S.Buckets[histogramBucket(V)].fetch_add(1, std::memory_order_relaxed);
    S.Count.fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(V, std::memory_order_relaxed);
  }

  /// Merged view across stripes (and therefore across threads).
  struct Snapshot {
    uint64_t Buckets[HistogramBuckets] = {};
    uint64_t Count = 0;
    uint64_t Sum = 0;

    /// Estimated value at percentile \p P (0..100), linearly interpolated
    /// inside the log2 bucket holding that rank — the usual
    /// Prometheus-style histogram_quantile estimate, so p50/p95/p99 no
    /// longer require offline bucket math. Exact when a bucket holds one
    /// distinct value (e.g. bucket 0 = 0); otherwise accurate to the
    /// bucket's span. Returns 0 on an empty snapshot.
    double percentile(double P) const;
  };
  Snapshot snapshot() const {
    Snapshot Out;
    for (const Stripe &S : Stripes) {
      for (unsigned B = 0; B != HistogramBuckets; ++B)
        Out.Buckets[B] += S.Buckets[B].load(std::memory_order_relaxed);
      Out.Count += S.Count.load(std::memory_order_relaxed);
      Out.Sum += S.Sum.load(std::memory_order_relaxed);
    }
    return Out;
  }

private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> Buckets[HistogramBuckets] = {};
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
  };
  Stripe Stripes[NumStripes];
};

/// Registry lookup: returns the process-lifetime metric named \p Name,
/// creating it on first use. Callers should cache the reference (e.g. in a
/// function-local static) — lookup takes the registry mutex. Requesting the
/// same name as two different kinds is a programming error and aborts.
Counter &counter(std::string_view Name);
Gauge &gauge(std::string_view Name);
Histogram &histogram(std::string_view Name);

/// A counter named by a string literal (or nullptr: none), registered on its
/// first non-zero add() with metrics on. Constant-initialized: no static-init
/// guard, and a counter that never counted stays out of the dump.
class NamedCounter {
public:
  constexpr NamedCounter(const char *Name) : Name(Name) {}

  void add(uint64_t N = 1) const {
    if (N == 0 || !Name || !metricsEnabled())
      return;
    Counter *C = Resolved.load(std::memory_order_acquire);
    if (!C) {
      C = &counter(Name);
      Resolved.store(C, std::memory_order_release);
    }
    C->add(N);
  }

private:
  const char *Name;
  mutable std::atomic<Counter *> Resolved{nullptr};
};

/// Adds Values[I] to Counters[I]: a struct that owns its counts publishes
/// them once per query, job or function, staying the only count.
template <size_t N>
void publish(const NamedCounter (&Counters)[N], const uint64_t (&Values)[N]) {
  if (!metricsEnabled())
    return;
  for (size_t I = 0; I != N; ++I)
    Counters[I].add(Values[I]);
}

//===----------------------------------------------------------------------===//
// Callback metric sources (CacheStats / PoolStats migration)
//===----------------------------------------------------------------------===//

/// Receives the counters of one callback source during a snapshot.
class MetricsSink {
public:
  virtual ~MetricsSink() = default;
  virtual void value(std::string_view Name, uint64_t V) = 0;
};

/// A live object (a cache, a pool) that owns its own internally-synchronized
/// counters registers a source; each snapshot invokes the callback to pull
/// the current values into the unified view. RAII: destroying the handle
/// (or the owning object, which must destroy the handle first) unregisters.
class SourceHandle {
public:
  SourceHandle() = default;
  explicit SourceHandle(uint64_t Id) : Id(Id) {}
  SourceHandle(SourceHandle &&O) noexcept : Id(O.Id) { O.Id = 0; }
  SourceHandle &operator=(SourceHandle &&O) noexcept;
  SourceHandle(const SourceHandle &) = delete;
  SourceHandle &operator=(const SourceHandle &) = delete;
  ~SourceHandle() { reset(); }

  void reset();
  bool active() const { return Id != 0; }

private:
  uint64_t Id = 0;
};

/// Registers \p Fn to be polled at snapshot time. The callback must stay
/// valid until the handle is destroyed and must be safe to invoke from any
/// thread. Values from sources appear in snapshots as counters; two sources
/// emitting the same name are summed.
SourceHandle registerSource(std::function<void(MetricsSink &)> Fn);

//===----------------------------------------------------------------------===//
// Snapshot + exporters
//===----------------------------------------------------------------------===//

/// One metric in a registry snapshot.
struct MetricValue {
  enum Kind : uint8_t { KCounter, KGauge, KHistogram };
  std::string Name;
  Kind Which = KCounter;
  uint64_t Value = 0;     ///< counter sum / source value
  int64_t GaugeValue = 0; ///< gauges only
  Histogram::Snapshot Hist; ///< histograms only
};

/// The full registry — registered metrics plus polled sources — sorted by
/// name. Safe to call at any time from any thread.
std::vector<MetricValue> snapshotMetrics();

/// Flat Prometheus-style text dump of snapshotMetrics():
///   # TYPE mba_simplify_calls counter
///   mba_simplify_calls 128
/// Histograms emit cumulative _bucket{le="..."} lines plus _count/_sum.
/// Dots in metric names become underscores; every name gains the "mba_"
/// prefix. Returns false if the file cannot be written.
bool writeMetricsText(const std::string &Path);

/// Same dump onto an open stream (used by mba_cli --stats and tests).
void printMetricsText(std::FILE *Out);

/// Human-readable breakdown: counters/gauges one per line, histograms as
/// count/avg, plus a per-span-name aggregation of the collected trace
/// (calls, total ms, mean). The mba_cli --stats output.
void printSummary(std::FILE *Out);

//===----------------------------------------------------------------------===//
// Tracing spans
//===----------------------------------------------------------------------===//

/// Nanoseconds since an arbitrary process-wide monotonic epoch.
uint64_t nowNs();

/// Interns \p Name into process-lifetime storage and returns a stable
/// pointer; equal strings return the same pointer. For span names built at
/// runtime (e.g. "solve.backend.Z3") — string literals need no interning.
const char *internName(std::string_view Name);

/// Labels the calling thread in trace exports ("worker-3"); optionally
/// pins its trace tid (pass -1 to keep the auto-assigned one). The pool
/// labels its workers so per-worker spans merge with stable thread ids.
void setThreadLabel(std::string_view Label, int Tid = -1);

/// One completed span. Name points to a string literal or interned name.
struct TraceEvent {
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0;
};

/// Every completed span from every thread, sorted by (Tid, StartNs).
/// Collection is safe while other threads keep recording.
std::vector<TraceEvent> collectTrace();

/// (Tid, label) pairs of every thread that recorded or was labelled.
std::vector<std::pair<uint32_t, std::string>> traceThreads();

/// Number of spans dropped because a thread buffer hit its cap.
uint64_t traceDropped();

/// Discards all recorded spans (thread registrations and labels survive).
void clearTrace();

/// Writes the collected trace in the Chrome trace-event JSON format:
/// one complete ("ph":"X") event per span with microsecond ts/dur, plus
/// thread_name metadata. Loadable in chrome://tracing and Perfetto.
/// Returns false if the file cannot be written.
bool writeChromeTrace(const std::string &Path);

namespace detail {
void endSpan(const char *Name, uint64_t StartNs, uint64_t EndNs);
} // namespace detail

/// RAII scope for one traced span. When tracing is disabled at entry the
/// guard is inert (one relaxed load); the span is recorded at destruction.
class SpanGuard {
public:
  explicit SpanGuard(const char *Name)
      : Name(tracingEnabled() ? Name : nullptr),
        StartNs(this->Name ? nowNs() : 0) {}
  ~SpanGuard() {
    if (Name)
      detail::endSpan(Name, StartNs, nowNs());
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

private:
  const char *Name;
  uint64_t StartNs;
};

} // namespace mba::telemetry

#define MBA_TELEMETRY_CONCAT2(A, B) A##B
#define MBA_TELEMETRY_CONCAT(A, B) MBA_TELEMETRY_CONCAT2(A, B)

/// Records a span named \p NAME (a string literal or interned pointer)
/// covering the rest of the enclosing scope.
#define MBA_TRACE_SPAN(NAME)                                                   \
  ::mba::telemetry::SpanGuard MBA_TELEMETRY_CONCAT(MbaTraceSpan_,              \
                                                   __LINE__)(NAME)

#endif // MBA_SUPPORT_TELEMETRY_H
