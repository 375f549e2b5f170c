//===- support/Telemetry.cpp - Unified metrics + tracing layer ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/ThreadSafety.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace mba;
using namespace mba::telemetry;

std::atomic<unsigned> mba::telemetry::detail::Views{0};

void mba::telemetry::detail::setView(View V, bool On) {
  if (On)
    Views.fetch_or(V, std::memory_order_relaxed);
  else
    Views.fetch_and(~(unsigned)V, std::memory_order_relaxed);
}

unsigned mba::telemetry::threadStripe() {
  static std::atomic<unsigned> NextStripe{0};
  thread_local unsigned Stripe =
      NextStripe.fetch_add(1, std::memory_order_relaxed) % NumStripes;
  return Stripe;
}

//===----------------------------------------------------------------------===//
// Metric registry
//===----------------------------------------------------------------------===//

namespace {

struct MetricSlot {
  MetricValue::Kind Which = MetricValue::KCounter;
  // Exactly one is set, according to Which. unique_ptr keeps addresses
  // stable across registry rehashes (metrics hand out references).
  std::unique_ptr<Counter> C;
  std::unique_ptr<Gauge> G;
  std::unique_ptr<Histogram> H;
};

struct Registry {
  Mutex Mu;
  std::unordered_map<std::string, MetricSlot> Metrics MBA_GUARDED_BY(Mu);

  Mutex SourcesMu;
  uint64_t NextSourceId MBA_GUARDED_BY(SourcesMu) = 1;
  std::unordered_map<uint64_t, std::function<void(MetricsSink &)>>
      Sources MBA_GUARDED_BY(SourcesMu);
};

// Leaked on purpose: metrics are process-lifetime and instrumented code may
// run during static destruction.
Registry &registry() {
  static Registry *R = new Registry();
  return *R;
}

MetricSlot &findOrCreate(std::string_view Name, MetricValue::Kind Which) {
  Registry &R = registry();
  MutexLock Lock(R.Mu);
  auto [It, Inserted] = R.Metrics.try_emplace(std::string(Name));
  MetricSlot &S = It->second;
  if (Inserted) {
    S.Which = Which;
    switch (Which) {
    case MetricValue::KCounter:
      S.C = std::make_unique<Counter>();
      break;
    case MetricValue::KGauge:
      S.G = std::make_unique<Gauge>();
      break;
    case MetricValue::KHistogram:
      S.H = std::make_unique<Histogram>();
      break;
    }
  } else if (S.Which != Which) {
    std::fprintf(stderr,
                 "telemetry: metric '%.*s' requested as two different "
                 "kinds\n",
                 (int)Name.size(), Name.data());
    std::abort();
  }
  return S;
}

} // namespace

double mba::telemetry::Histogram::Snapshot::percentile(double P) const {
  if (Count == 0)
    return 0.0;
  if (P < 0)
    P = 0;
  if (P > 100)
    P = 100;
  // 1-based rank of the sample at percentile P (nearest-rank, then
  // interpolated inside the bucket that holds it).
  uint64_t Rank = (uint64_t)((P / 100.0) * (double)Count + 0.5);
  if (Rank < 1)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Cum = 0;
  for (unsigned B = 0; B != HistogramBuckets; ++B) {
    if (!Buckets[B])
      continue;
    if (Cum + Buckets[B] < Rank) {
      Cum += Buckets[B];
      continue;
    }
    // Rank falls in bucket B, spanning [Lo, Hi]. Spread the bucket's
    // samples evenly across the span (bucket 0 holds only the value 0).
    if (B == 0)
      return 0.0;
    double Lo = (double)(B == 1 ? 1 : histogramBucketMax(B - 1) + 1);
    double Hi = (double)histogramBucketMax(B);
    double Fraction = (double)(Rank - Cum) / (double)Buckets[B];
    return Lo + Fraction * (Hi - Lo);
  }
  return (double)histogramBucketMax(HistogramBuckets - 1);
}

Counter &mba::telemetry::counter(std::string_view Name) {
  return *findOrCreate(Name, MetricValue::KCounter).C;
}

Gauge &mba::telemetry::gauge(std::string_view Name) {
  return *findOrCreate(Name, MetricValue::KGauge).G;
}

Histogram &mba::telemetry::histogram(std::string_view Name) {
  return *findOrCreate(Name, MetricValue::KHistogram).H;
}

SourceHandle &SourceHandle::operator=(SourceHandle &&O) noexcept {
  if (this != &O) {
    reset();
    Id = O.Id;
    O.Id = 0;
  }
  return *this;
}

void SourceHandle::reset() {
  if (!Id)
    return;
  Registry &R = registry();
  MutexLock Lock(R.SourcesMu);
  R.Sources.erase(Id);
  Id = 0;
}

SourceHandle
mba::telemetry::registerSource(std::function<void(MetricsSink &)> Fn) {
  Registry &R = registry();
  MutexLock Lock(R.SourcesMu);
  uint64_t Id = R.NextSourceId++;
  R.Sources.emplace(Id, std::move(Fn));
  return SourceHandle(Id);
}

std::vector<MetricValue> mba::telemetry::snapshotMetrics() {
  Registry &R = registry();
  // Source values first, summed by name (two pools both emitting
  // "pool.steals" roll up into one line).
  std::map<std::string, uint64_t> SourceValues;
  struct Sink final : MetricsSink {
    std::map<std::string, uint64_t> &Values;
    explicit Sink(std::map<std::string, uint64_t> &Values) : Values(Values) {}
    void value(std::string_view Name, uint64_t V) override {
      Values[std::string(Name)] += V;
    }
  } S(SourceValues);
  {
    MutexLock Lock(R.SourcesMu);
    for (auto &[Id, Fn] : R.Sources)
      Fn(S);
  }

  std::vector<MetricValue> Out;
  {
    MutexLock Lock(R.Mu);
    Out.reserve(R.Metrics.size() + SourceValues.size());
    for (const auto &[Name, Slot] : R.Metrics) {
      MetricValue V;
      V.Name = Name;
      V.Which = Slot.Which;
      switch (Slot.Which) {
      case MetricValue::KCounter:
        V.Value = Slot.C->value();
        break;
      case MetricValue::KGauge:
        V.GaugeValue = Slot.G->value();
        break;
      case MetricValue::KHistogram:
        V.Hist = Slot.H->snapshot();
        V.Value = V.Hist.Count;
        break;
      }
      Out.push_back(std::move(V));
    }
  }
  for (const auto &[Name, Value] : SourceValues) {
    MetricValue V;
    V.Name = Name;
    V.Which = MetricValue::KCounter;
    V.Value = Value;
    Out.push_back(std::move(V));
  }
  std::sort(Out.begin(), Out.end(),
            [](const MetricValue &A, const MetricValue &B) {
              return A.Name < B.Name;
            });
  // Registered metric and same-named source sum into one entry.
  std::vector<MetricValue> Merged;
  for (MetricValue &V : Out) {
    if (!Merged.empty() && Merged.back().Name == V.Name &&
        Merged.back().Which == MetricValue::KCounter &&
        V.Which == MetricValue::KCounter)
      Merged.back().Value += V.Value;
    else
      Merged.push_back(std::move(V));
  }
  return Merged;
}

//===----------------------------------------------------------------------===//
// Text exporters
//===----------------------------------------------------------------------===//

namespace {

/// "simplify.linear runs" -> "mba_simplify_linear_runs".
std::string promName(const std::string &Name) {
  std::string Out = "mba_";
  for (char C : Name)
    Out += (std::isalnum((unsigned char)C) ? C : '_');
  return Out;
}

} // namespace

void mba::telemetry::printMetricsText(std::FILE *Out) {
  // Provenance first: a constant labeled gauge, the Prometheus idiom for
  // "which binary is this" (join on the labels, ignore the value).
  std::fprintf(Out,
               "# TYPE mba_build_info gauge\n"
               "mba_build_info{version=\"%s\",git_sha=\"%s\",isa=\"%s\","
               "build=\"%s\"} 1\n",
               buildinfo::version(), buildinfo::gitSha(),
               buildinfo::activeIsaName(), buildinfo::buildType());
  for (const MetricValue &V : snapshotMetrics()) {
    std::string P = promName(V.Name);
    switch (V.Which) {
    case MetricValue::KCounter:
      std::fprintf(Out, "# TYPE %s counter\n%s %llu\n", P.c_str(), P.c_str(),
                   (unsigned long long)V.Value);
      break;
    case MetricValue::KGauge:
      std::fprintf(Out, "# TYPE %s gauge\n%s %lld\n", P.c_str(), P.c_str(),
                   (long long)V.GaugeValue);
      break;
    case MetricValue::KHistogram: {
      std::fprintf(Out, "# TYPE %s histogram\n", P.c_str());
      uint64_t Cum = 0;
      for (unsigned B = 0; B != HistogramBuckets; ++B) {
        if (!V.Hist.Buckets[B])
          continue; // sparse output: only populated buckets
        Cum += V.Hist.Buckets[B];
        std::fprintf(Out, "%s_bucket{le=\"%llu\"} %llu\n", P.c_str(),
                     (unsigned long long)histogramBucketMax(B),
                     (unsigned long long)Cum);
      }
      std::fprintf(Out, "%s_bucket{le=\"+Inf\"} %llu\n", P.c_str(),
                   (unsigned long long)V.Hist.Count);
      std::fprintf(Out, "%s_sum %llu\n%s_count %llu\n", P.c_str(),
                   (unsigned long long)V.Hist.Sum, P.c_str(),
                   (unsigned long long)V.Hist.Count);
      break;
    }
    }
  }
}

bool mba::telemetry::writeMetricsText(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  printMetricsText(F);
  bool Ok = std::fclose(F) == 0;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

uint64_t mba::telemetry::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - Epoch)
      .count();
}

const char *mba::telemetry::internName(std::string_view Name) {
  static Mutex Mu;
  // Node-based set: element addresses are stable for the process lifetime.
  static std::unordered_set<std::string> *Names =
      new std::unordered_set<std::string>();
  MutexLock Lock(Mu);
  return Names->emplace(Name).first->c_str();
}

namespace {

/// Per-thread buffer cap — ~2M spans ≈ 64 MB. Beyond it spans are counted
/// as dropped rather than growing without bound.
constexpr size_t MaxEventsPerThread = 2u << 20;

struct ThreadBuf {
  Mutex Mu;
  std::vector<TraceEvent> Events MBA_GUARDED_BY(Mu);
  uint32_t Tid MBA_GUARDED_BY(Mu) = 0;
  std::string Label MBA_GUARDED_BY(Mu);
  uint64_t Dropped MBA_GUARDED_BY(Mu) = 0;
};

struct TraceState {
  Mutex Mu; // guards Buffers and NextTid
  std::vector<std::shared_ptr<ThreadBuf>> Buffers MBA_GUARDED_BY(Mu);
  uint32_t NextTid MBA_GUARDED_BY(Mu) = 0;
};

TraceState &traceState() {
  static TraceState *S = new TraceState();
  return *S;
}

ThreadBuf &threadBuf() {
  thread_local std::shared_ptr<ThreadBuf> Buf = [] {
    auto B = std::make_shared<ThreadBuf>();
    TraceState &S = traceState();
    MutexLock Lock(S.Mu);
    // Fix surfaced by the annotations: Tid/Label are guarded by B->Mu, but
    // were initialized holding only S.Mu. Unreachable by other threads
    // until the push_back publishes B, so benign in practice — but the
    // static analysis (rightly) cannot prove that, and the uncontended
    // lock is free. Lock order S.Mu -> B->Mu matches collectTrace().
    {
      MutexLock BLock(B->Mu);
      B->Tid = S.NextTid++;
      B->Label = B->Tid == 0 ? "main" : "thread-" + std::to_string(B->Tid);
    }
    S.Buffers.push_back(B);
    return B;
  }();
  return *Buf;
}

} // namespace

void mba::telemetry::detail::endSpan(const char *Name, uint64_t StartNs,
                                     uint64_t EndNs) {
  ThreadBuf &B = threadBuf();
  MutexLock Lock(B.Mu);
  if (B.Events.size() >= MaxEventsPerThread) {
    ++B.Dropped;
    return;
  }
  B.Events.push_back({Name, StartNs, EndNs - StartNs, B.Tid});
}

void mba::telemetry::setThreadLabel(std::string_view Label, int Tid) {
  ThreadBuf &B = threadBuf();
  MutexLock Lock(B.Mu);
  B.Label = std::string(Label);
  if (Tid >= 0)
    B.Tid = (uint32_t)Tid;
}

std::vector<TraceEvent> mba::telemetry::collectTrace() {
  TraceState &S = traceState();
  std::vector<std::shared_ptr<ThreadBuf>> Buffers;
  {
    MutexLock Lock(S.Mu);
    Buffers = S.Buffers;
  }
  std::vector<TraceEvent> Out;
  for (const auto &B : Buffers) {
    MutexLock Lock(B->Mu);
    // The tid may have been relabelled after events were recorded; stamp
    // the current one so exports stay consistent.
    for (TraceEvent E : B->Events) {
      E.Tid = B->Tid;
      Out.push_back(E);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.DurNs > B.DurNs; // parents before children
            });
  return Out;
}

std::vector<std::pair<uint32_t, std::string>> mba::telemetry::traceThreads() {
  TraceState &S = traceState();
  std::vector<std::pair<uint32_t, std::string>> Out;
  MutexLock Lock(S.Mu);
  for (const auto &B : S.Buffers) {
    MutexLock BLock(B->Mu);
    Out.push_back({B->Tid, B->Label});
  }
  return Out;
}

uint64_t mba::telemetry::traceDropped() {
  TraceState &S = traceState();
  uint64_t Dropped = 0;
  MutexLock Lock(S.Mu);
  for (const auto &B : S.Buffers) {
    MutexLock BLock(B->Mu);
    Dropped += B->Dropped;
  }
  return Dropped;
}

void mba::telemetry::clearTrace() {
  TraceState &S = traceState();
  std::vector<std::shared_ptr<ThreadBuf>> Buffers;
  {
    MutexLock Lock(S.Mu);
    Buffers = S.Buffers;
  }
  for (const auto &B : Buffers) {
    MutexLock Lock(B->Mu);
    B->Events.clear();
    B->Dropped = 0;
  }
}

bool mba::telemetry::writeChromeTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto jsonEscape = [](std::string_view In) {
    std::string Out;
    json::appendEscaped(Out, In);
    return Out;
  };
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::fprintf(F, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"args\":{\"name\":\"mba-solver\"}}");
  for (const auto &[Tid, Label] : traceThreads())
    std::fprintf(F,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 Tid, jsonEscape(Label).c_str());
  for (const TraceEvent &E : collectTrace())
    std::fprintf(F,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 jsonEscape(E.Name).c_str(), E.Tid, (double)E.StartNs / 1e3,
                 (double)E.DurNs / 1e3);
  std::fprintf(F, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Human-readable summary (mba_cli --stats)
//===----------------------------------------------------------------------===//

void mba::telemetry::printSummary(std::FILE *Out) {
  // Span aggregation: per name, call count / total / mean.
  struct Agg {
    uint64_t Calls = 0;
    uint64_t TotalNs = 0;
  };
  std::map<std::string, Agg> Spans;
  for (const TraceEvent &E : collectTrace()) {
    Agg &A = Spans[E.Name];
    ++A.Calls;
    A.TotalNs += E.DurNs;
  }
  if (!Spans.empty()) {
    std::fprintf(Out, "Pipeline spans:\n");
    std::fprintf(Out, "  %-28s %10s %12s %12s\n", "span", "calls",
                 "total ms", "mean us");
    for (const auto &[Name, A] : Spans)
      std::fprintf(Out, "  %-28s %10llu %12.3f %12.3f\n", Name.c_str(),
                   (unsigned long long)A.Calls, (double)A.TotalNs / 1e6,
                   (double)A.TotalNs / 1e3 / (double)A.Calls);
  }
  std::vector<MetricValue> Metrics = snapshotMetrics();
  if (!Metrics.empty()) {
    std::fprintf(Out, "Metrics:\n");
    for (const MetricValue &V : Metrics) {
      switch (V.Which) {
      case MetricValue::KCounter:
        std::fprintf(Out, "  %-40s %llu\n", V.Name.c_str(),
                     (unsigned long long)V.Value);
        break;
      case MetricValue::KGauge:
        std::fprintf(Out, "  %-40s %lld\n", V.Name.c_str(),
                     (long long)V.GaugeValue);
        break;
      case MetricValue::KHistogram:
        std::fprintf(Out,
                     "  %-40s count %llu, mean %.1f, p50 %.0f, p95 %.0f, "
                     "p99 %.0f\n",
                     V.Name.c_str(), (unsigned long long)V.Hist.Count,
                     V.Hist.Count ? (double)V.Hist.Sum / (double)V.Hist.Count
                                  : 0.0,
                     V.Hist.percentile(50), V.Hist.percentile(95),
                     V.Hist.percentile(99));
        break;
      }
    }
  }
  uint64_t Dropped = traceDropped();
  if (Dropped)
    std::fprintf(Out, "(%llu spans dropped: thread buffer cap)\n",
                 (unsigned long long)Dropped);
}
