//===- support/QueryLog.cpp - Per-query flight recorder -------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/QueryLog.h"

#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadSafety.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

namespace mba::querylog {

//===----------------------------------------------------------------------===//
// Sink
//===----------------------------------------------------------------------===//

namespace {

/// The output sink — a file or an in-memory capture buffer. Leaked on
/// purpose (process lifetime), same as the telemetry registry, so records
/// written from detached worker threads during shutdown stay safe.
struct Sink {
  Mutex Mu;
  std::FILE *File MBA_GUARDED_BY(Mu) = nullptr;
  bool Capturing MBA_GUARDED_BY(Mu) = false;
  std::vector<std::string> Captured MBA_GUARDED_BY(Mu);
  uint64_t Written MBA_GUARDED_BY(Mu) = 0;
};

Sink &sink() {
  static Sink *S = new Sink;
  return *S;
}

/// Global record sequence; never reset so seq values stay unique across
/// sink reopenings within one process.
std::atomic<uint64_t> NextSeq{0};

/// Stable small ids for threads that write records.
std::atomic<uint32_t> NextTid{0};

uint32_t threadId() {
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

void writeLine(const std::string &Line) {
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  if (S.Capturing) {
    S.Captured.push_back(Line);
    ++S.Written;
  } else if (S.File) {
    std::string WithNl = Line;
    WithNl += '\n';
    // One fwrite per record: POSIX stdio locks the stream per call, and the
    // sink mutex already serializes us, so lines never interleave.
    std::fwrite(WithNl.data(), 1, WithNl.size(), S.File);
    ++S.Written;
  }
}

} // namespace

bool openFile(const std::string &Path) {
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  if (S.File) {
    std::fclose(S.File);
    S.File = nullptr;
  }
  S.Capturing = false;
  S.Captured.clear();
  S.File = std::fopen(Path.c_str(), "wb");
  S.Written = 0;
  bool Ok = S.File != nullptr;
  telemetry::detail::setView(telemetry::ViewLog, Ok);
  return Ok;
}

void beginCapture() {
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  if (S.File) {
    std::fclose(S.File);
    S.File = nullptr;
  }
  S.Capturing = true;
  S.Captured.clear();
  S.Written = 0;
  telemetry::detail::setView(telemetry::ViewLog, true);
}

std::vector<std::string> endCapture() {
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  S.Capturing = false;
  telemetry::detail::setView(telemetry::ViewLog, false);
  return std::move(S.Captured);
}

void close() {
  telemetry::detail::setView(telemetry::ViewLog, false);
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  if (S.File) {
    std::fclose(S.File);
    S.File = nullptr;
  }
  S.Capturing = false;
  S.Captured.clear();
}

uint64_t recordsWritten() {
  Sink &S = sink();
  MutexLock Lock(S.Mu);
  return S.Written;
}

//===----------------------------------------------------------------------===//
// Record
//===----------------------------------------------------------------------===//

Record::Field &Record::slot(const char *Key) {
  for (Field &F : Fields)
    if (std::strcmp(F.Key, Key) == 0)
      return F;
  Fields.push_back(Field{Key, Field::FNum, {}, 0, 0, 0, false});
  return Fields.back();
}

void Record::str(const char *Key, std::string_view V) {
  Field &F = slot(Key);
  F.Which = Field::FStr;
  F.S.assign(V);
}

void Record::num(const char *Key, uint64_t V) {
  Field &F = slot(Key);
  F.Which = Field::FNum;
  F.U = V;
}

void Record::snum(const char *Key, int64_t V) {
  Field &F = slot(Key);
  F.Which = Field::FSNum;
  F.I = V;
}

void Record::fnum(const char *Key, double V) {
  Field &F = slot(Key);
  F.Which = Field::FFloat;
  F.D = V;
}

void Record::flag(const char *Key, bool V) {
  Field &F = slot(Key);
  F.Which = Field::FBool;
  F.B = V;
}

void Record::fingerprint(const char *Key, uint64_t Fp) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Fp);
  str(Key, Buf);
}

void Record::rule(std::string_view Name, uint64_t Fires, uint64_t Ns,
                  uint64_t NodesBefore, uint64_t NodesAfter) {
  for (RuleEntry &R : Rules)
    if (R.Name == Name) {
      R.Fires += Fires;
      R.Ns += Ns;
      R.NodesBefore += NodesBefore;
      R.NodesAfter += NodesAfter;
      return;
    }
  Rules.push_back(RuleEntry{std::string(Name), Fires, Ns, NodesBefore,
                            NodesAfter});
}

std::string Record::serialize(const char *Kind, uint64_t Seq) const {
  std::string Out;
  Out.reserve(256);
  char Buf[64];
  Out += "{\"seq\":";
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Seq);
  Out += Buf;
  Out += ",\"kind\":\"";
  Out += Kind;
  Out += "\",\"tid\":";
  std::snprintf(Buf, sizeof(Buf), "%u", threadId());
  Out += Buf;
  for (const Field &F : Fields) {
    Out += ",\"";
    Out += F.Key;
    Out += "\":";
    switch (F.Which) {
    case Field::FStr:
      Out += '"';
      json::appendEscaped(Out, F.S);
      Out += '"';
      break;
    case Field::FNum:
      std::snprintf(Buf, sizeof(Buf), "%" PRIu64, F.U);
      Out += Buf;
      break;
    case Field::FSNum:
      std::snprintf(Buf, sizeof(Buf), "%" PRId64, F.I);
      Out += Buf;
      break;
    case Field::FFloat:
      std::snprintf(Buf, sizeof(Buf), "%.9g", F.D);
      Out += Buf;
      break;
    case Field::FBool:
      Out += F.B ? "true" : "false";
      break;
    }
  }
  if (!Stages.empty()) {
    Out += ",\"stages\":[";
    for (size_t I = 0; I != Stages.size(); ++I) {
      if (I)
        Out += ',';
      Out += "{\"name\":\"";
      json::appendEscaped(Out, Stages[I].Name);
      Out += "\",\"ns\":";
      std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Stages[I].Ns);
      Out += Buf;
      Out += '}';
    }
    Out += ']';
  }
  if (!Rules.empty()) {
    Out += ",\"rules\":[";
    for (size_t I = 0; I != Rules.size(); ++I) {
      if (I)
        Out += ',';
      const RuleEntry &R = Rules[I];
      Out += "{\"rule\":\"";
      json::appendEscaped(Out, R.Name);
      Out += '"';
      std::snprintf(Buf, sizeof(Buf), ",\"fires\":%" PRIu64, R.Fires);
      Out += Buf;
      std::snprintf(Buf, sizeof(Buf), ",\"ns\":%" PRIu64, R.Ns);
      Out += Buf;
      std::snprintf(Buf, sizeof(Buf), ",\"nodes_before\":%" PRIu64,
                    R.NodesBefore);
      Out += Buf;
      std::snprintf(Buf, sizeof(Buf), ",\"nodes_after\":%" PRIu64,
                    R.NodesAfter);
      Out += Buf;
      Out += '}';
    }
    Out += ']';
  }
  Out += '}';
  return Out;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

namespace {

struct ThreadScopeState {
  Record *Active = nullptr;
  const char *ActiveKind = nullptr;
  int Suppress = 0;
};

ThreadScopeState &tls() {
  thread_local ThreadScopeState TS;
  return TS;
}

} // namespace

Record *active() {
  if (!enabled())
    return nullptr;
  ThreadScopeState &TS = tls();
  return TS.Suppress == 0 ? TS.Active : nullptr;
}

QueryScope::QueryScope(const char *Kind) : Kind(Kind) {
  if (!enabled())
    return; // inert — nothing to undo in the destructor
  ThreadScopeState &TS = tls();
  if (!TS.Active) {
    Armed = true;
    TS.Active = &Rec;
    TS.ActiveKind = Kind;
    StartNs = telemetry::nowNs();
  } else if (std::strcmp(Kind, TS.ActiveKind) != 0) {
    Suppressing = true;
    ++TS.Suppress;
  }
  // Same-kind nested scope: pass-through; contributions reach the
  // enclosing record via active().
}

QueryScope::~QueryScope() {
  ThreadScopeState &TS = tls();
  if (Suppressing)
    --TS.Suppress;
  if (!Armed)
    return;
  Rec.num("ns", telemetry::nowNs() - StartNs);
  uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  std::string Line = Rec.serialize(Kind, Seq);
  TS.Active = nullptr;
  TS.ActiveKind = nullptr;
  if (enabled())
    writeLine(Line);
}

//===----------------------------------------------------------------------===//
// Stages
//===----------------------------------------------------------------------===//

void Stage::start(const StageDef &D, unsigned On, bool AlwaysTimed) {
  D.Runs.add();
  Span = (On & telemetry::ViewTrace) && D.Span;
  Rec = (On & telemetry::ViewLog) && D.Log ? active() : nullptr;
  // Metrics alone need no clock unless a caller reads the duration.
  if (!Span && !Rec && !Elapsed && !AlwaysTimed)
    return; // Def stays null: nothing to do at the end
  Def = &D;
  StartNs = telemetry::nowNs();
}

void Stage::finish() {
  uint64_t EndNs = telemetry::nowNs();
  uint64_t Ns = EndNs - StartNs;
  if (Span)
    telemetry::detail::endSpan(Def->Span, StartNs, EndNs);
  if (Rec)
    Rec->Stages.push_back({Def->Log, Ns});
  if (Elapsed)
    *Elapsed = Ns;
  Def = nullptr;
}

//===----------------------------------------------------------------------===//
// Rule-attribution registry
//===----------------------------------------------------------------------===//

namespace {

struct AttributionRegistry {
  Mutex Mu;
  std::map<std::string, RuleStats, std::less<>> Stats MBA_GUARDED_BY(Mu);
  /// The telemetry source mirroring Stats; set once, by the first
  /// ensureAttributionSource call, and kept for the process.
  telemetry::SourceHandle Source;
};

AttributionRegistry &attribution() {
  static AttributionRegistry *R = new AttributionRegistry;
  return *R;
}

/// Registers the telemetry source that mirrors the registry as
/// `rule.<name>.*` counters — lazily, on the first observation, and never
/// under the registry mutex (the snapshot path locks the telemetry source
/// list first and this mutex second; registering in the opposite order
/// could deadlock).
void ensureAttributionSource() {
  static std::atomic<bool> Registered{false};
  if (Registered.exchange(true, std::memory_order_acq_rel))
    return;
  attribution().Source =
      telemetry::registerSource([](telemetry::MetricsSink &S) {
        for (const auto &[Name, RS] : ruleAttribution()) {
          std::string Prefix = "rule." + Name;
          S.value(Prefix + ".fires", RS.Fires);
          S.value(Prefix + ".ns", RS.Ns);
          S.value(Prefix + ".nodes_before", RS.NodesBefore);
          S.value(Prefix + ".nodes_after", RS.NodesAfter);
          if (RS.Installs || RS.Rejects) {
            S.value(Prefix + ".installs", RS.Installs);
            S.value(Prefix + ".rejects", RS.Rejects);
          }
        }
      });
}

} // namespace

void noteRule(std::string_view Rule, uint64_t Fires, uint64_t Ns,
              uint64_t NodesBefore, uint64_t NodesAfter) {
  if (Record *R = active())
    R->rule(Rule, Fires, Ns, NodesBefore, NodesAfter);
  ensureAttributionSource();
  AttributionRegistry &Reg = attribution();
  MutexLock Lock(Reg.Mu);
  RuleStats &RS = Reg.Stats[std::string(Rule)];
  RS.Fires += Fires;
  RS.Ns += Ns;
  RS.NodesBefore += NodesBefore;
  RS.NodesAfter += NodesAfter;
}

void noteRuleOutcome(std::string_view Rule, bool Installed) {
  ensureAttributionSource();
  AttributionRegistry &Reg = attribution();
  MutexLock Lock(Reg.Mu);
  RuleStats &RS = Reg.Stats[std::string(Rule)];
  if (Installed)
    ++RS.Installs;
  else
    ++RS.Rejects;
}

std::vector<std::pair<std::string, RuleStats>> ruleAttribution() {
  AttributionRegistry &Reg = attribution();
  MutexLock Lock(Reg.Mu);
  return {Reg.Stats.begin(), Reg.Stats.end()};
}

void resetRuleAttribution() {
  AttributionRegistry &Reg = attribution();
  MutexLock Lock(Reg.Mu);
  Reg.Stats.clear();
}

} // namespace mba::querylog
