//===- support/QueryLog.h - Per-query flight recorder -----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-query flight recorder: a structured JSONL event journal that
/// captures, for every simplify and equivalence query, the full decision
/// trail — classification verdict, which Algorithm 1 stages ran, per-rule
/// fire counts / time / node deltas (Simplifier notes and e-graph
/// saturation), stage-0 outcome, cache hits per layer, the chosen backend,
/// AIG/CNF sizes, SAT conflict/propagation work, and per-stage wall time.
/// Where the telemetry layer answers "how much, in aggregate", the query
/// log answers "why was *this* query slow".
///
/// Discipline mirrors support/Telemetry.h:
///
///  1. **~Zero disabled cost.** Everything funnels through
///     `querylog::active()`, which is one relaxed atomic load returning
///     nullptr when no sink is open. Instrumentation sites therefore live
///     directly in Simplifier / Prover / the checkers.
///  2. **Thread-safe, line-atomic output.** Each record serializes into a
///     private buffer and is appended to the sink under one mutex, so an
///     8-way parallel study produces interleaved but individually intact
///     JSON lines (pinned by tests/querylog_test.cpp).
///  3. **Behavior-neutral.** Opening a log must not change verdicts or
///     simplified output: recording never toggles SimplifyOptions, it
///     only observes. Pinned bit-identical by harness_test.
///
/// Usage — one ambient scope per query, contributions from anywhere below:
///
///   { querylog::QueryScope Scope("check");      // outermost scope arms
///     ...
///     if (querylog::Record *R = querylog::active()) {
///       R->str("backend", Name);
///       R->num("sat_conflicts", Delta);
///     }
///   }                                           // record written here
///
/// Scopes nest: an inner scope of the *same* kind is pass-through (the
/// AIG backend contributes SAT stats into the enclosing staged-checker
/// record; run standalone it opens its own), while an inner scope of a
/// *different* kind suppresses recording for its extent (an equivalence
/// check issued from inside simplify — the synth fallback's verification —
/// does not leak backend fields into the simplify record).
///
/// The same module owns the **rule-attribution registry**: process-wide
/// per-rule totals (fires, ns, node counts before/after, verified installs
/// vs rejects) fed from the same instrumentation hooks and exported through
/// a telemetry source as `rule.<name>.*` counters, so the summary lands in
/// the Prometheus dump and the `--json` report's `metrics` object without
/// extra plumbing. See docs/OBSERVABILITY.md for the record schema.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_QUERYLOG_H
#define MBA_SUPPORT_QUERYLOG_H

#include "support/Telemetry.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mba::querylog {

/// True when a sink (file or in-memory capture) is open. One relaxed load.
inline bool enabled() { return telemetry::views() & telemetry::ViewLog; }

/// Opens \p Path as the JSONL sink (truncating) and enables recording.
/// Returns false (and stays disabled) if the file cannot be created.
bool openFile(const std::string &Path);

/// Enables recording into an in-memory line buffer instead of a file —
/// the `mba_cli explain` path. Replaces any open sink.
void beginCapture();

/// Stops capture mode and returns the recorded lines (without newlines).
std::vector<std::string> endCapture();

/// Flushes and closes whichever sink is open; recording is disabled.
/// Safe to call when nothing is open.
void close();

/// Number of records written to the current sink since it was opened.
uint64_t recordsWritten();

//===----------------------------------------------------------------------===//
// Records and scopes
//===----------------------------------------------------------------------===//

/// One in-flight query record. Fields are typed key/values kept in insertion
/// order; `stage()` appends to the per-stage timing array and `rule()`
/// accumulates into the per-rule attribution array (same rule name merges).
/// Keys must be string literals (they are stored as pointers). Setting a
/// scalar key twice overwrites — later, more specific writers win.
class Record {
public:
  void str(const char *Key, std::string_view V);
  void num(const char *Key, uint64_t V);
  void snum(const char *Key, int64_t V);
  void fnum(const char *Key, double V);
  void flag(const char *Key, bool V);
  /// A 64-bit fingerprint as 16 hex digits (too wide for a JSON number).
  void fingerprint(const char *Key, uint64_t Fp);

  /// Accumulates one rule-attribution entry; repeated calls with the same
  /// \p Name sum into a single {"rule", "fires", "ns", "nodes_before",
  /// "nodes_after"} row.
  void rule(std::string_view Name, uint64_t Fires, uint64_t Ns,
            uint64_t NodesBefore, uint64_t NodesAfter);

  /// Serializes the record as one JSON object (no trailing newline).
  std::string serialize(const char *Kind, uint64_t Seq) const;

private:
  friend class Stage; // the one writer of `Stages`

  struct Field {
    const char *Key;
    enum : uint8_t { FStr, FNum, FSNum, FFloat, FBool } Which;
    std::string S;
    uint64_t U = 0;
    int64_t I = 0;
    double D = 0;
    bool B = false;
  };
  struct StageEntry {
    const char *Name;
    uint64_t Ns;
  };
  struct RuleEntry {
    std::string Name;
    uint64_t Fires;
    uint64_t Ns;
    uint64_t NodesBefore;
    uint64_t NodesAfter;
  };

  Field &slot(const char *Key);

  std::vector<Field> Fields;
  std::vector<StageEntry> Stages;
  std::vector<RuleEntry> Rules;
};

/// The calling thread's active record, or nullptr when recording is off,
/// no scope is open, or a different-kind nested scope suppresses it.
Record *active();

/// RAII ambient scope for one query. The outermost scope on a thread owns
/// the record and writes it at destruction; see the file comment for the
/// nesting rules. \p Kind must be a string literal ("simplify", "check").
class QueryScope {
public:
  explicit QueryScope(const char *Kind);
  ~QueryScope();
  QueryScope(const QueryScope &) = delete;
  QueryScope &operator=(const QueryScope &) = delete;

private:
  const char *Kind;
  bool Armed = false;       ///< outermost scope: owns + writes the record
  bool Suppressing = false; ///< different-kind nested scope
  uint64_t StartNs = 0;
  Record Rec;
};

/// True when rule attribution has an observer (metrics or an active
/// record); sites gate the node counting around a rewrite step on it.
inline bool attributing() {
  return telemetry::metricsEnabled() || active() != nullptr;
}

//===----------------------------------------------------------------------===//
// Stages
//===----------------------------------------------------------------------===//

/// One pipeline stage, declared once as a constant at its site: its span,
/// its record `stages` entry and its run counter (each may be nullptr).
/// Where a struct counts the runs, the def names no counter.
struct StageDef {
  const char *Span;
  const char *Log;
  telemetry::NamedCounter Runs{nullptr};
};

/// RAII scope of one run of a stage, its single instrumentation point: from
/// one clock it emits the span, appends the `stages` entry to the record
/// active at construction and bumps the run counter, each when its view is
/// on. With every view off it costs one relaxed load. \p Elapsed receives
/// the duration in ns when the clock was read — with any view on, or
/// always with \p AlwaysTimed, for an always-on field such as
/// SimplifyStats::Seconds.
class Stage {
public:
  explicit Stage(const StageDef &Def, uint64_t *Elapsed = nullptr,
                 bool AlwaysTimed = false)
      : Elapsed(Elapsed) {
    if (unsigned On = telemetry::views(); On || AlwaysTimed)
      start(Def, On, AlwaysTimed);
  }
  ~Stage() { end(); }
  Stage(const Stage &) = delete;
  Stage &operator=(const Stage &) = delete;

  /// Ends the stage before its scope does; later calls do nothing.
  void end() {
    if (Def)
      finish();
  }

private:
  void start(const StageDef &D, unsigned On, bool AlwaysTimed);
  void finish();

  const StageDef *Def = nullptr; ///< null: inert or already ended
  Record *Rec = nullptr;
  uint64_t *Elapsed;
  uint64_t StartNs = 0;
  bool Span = false;
};

//===----------------------------------------------------------------------===//
// Rule-attribution registry
//===----------------------------------------------------------------------===//

/// Process-wide totals for one rewrite rule.
struct RuleStats {
  uint64_t Fires = 0;
  uint64_t Ns = 0;
  uint64_t NodesBefore = 0; ///< sum of node counts before each fire
  uint64_t NodesAfter = 0;  ///< sum after; Before - After = net reduction
  uint64_t Installs = 0;    ///< verified installs (synth fallback)
  uint64_t Rejects = 0;     ///< verification rejects
};

/// Adds one observation to \p Rule's process-wide totals and, when a query
/// record is active, to its per-query attribution array. Callers gate on
/// attributing() so the disabled pipeline never takes the registry mutex.
void noteRule(std::string_view Rule, uint64_t Fires, uint64_t Ns,
              uint64_t NodesBefore, uint64_t NodesAfter);

/// Records a verified-install (true) or verification-reject (false) for
/// \p Rule — the synth fallback's accept/reject decision.
void noteRuleOutcome(std::string_view Rule, bool Installed);

/// Snapshot of the registry, sorted by rule name.
std::vector<std::pair<std::string, RuleStats>> ruleAttribution();

/// Drops all registry totals (tests).
void resetRuleAttribution();

} // namespace mba::querylog

#endif // MBA_SUPPORT_QUERYLOG_H
