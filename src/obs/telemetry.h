// The observability context threaded through the pipeline: one
// MetricsRegistry, one Tracer, one Logger and one RunJournal, configured by
// TelemetryOptions, plus two optional live sinks the caller attaches — a
// RunRegistry (the status server's /runs data, fed by the journal's events)
// and a ProvenanceRecorder (route-decision evidence for explain chains).
//
// Resolution rule: the entry points that report (`Hoyan`,
// `DistributedSimulator`, `sweep::sweepKFailures`,
// `IncrementalEngine::beginRun`, `StatusServer`) take a nullable
// `obs::Telemetry*` and resolve it once with `resolve(pointer)`: the
// explicit pointer, else the process global, else the process-wide disabled
// instance, so instrumentation code never branches on null. The global
// (`setGlobal`) lets edge harnesses — the benchmarks' flag hooks — enable
// everything without threading a pointer through every call site. The
// disabled instance has tracing, logging and the journal off and no sinks
// attached (spans still *time*, they just record nothing); its metric
// instruments work but are never exported, costing a relaxed atomic op per
// update. Leaf stages (route and traffic simulation) take the pointer their
// caller resolved and use `orDisabled(pointer)`; the diag entry points, which
// have no options struct, resolve the global.
#pragma once

#include <memory>
#include <string>

#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hoyan::obs {

class ProvenanceRecorder;
class RunRegistry;

struct TelemetryOptions {
  bool tracing = false;      // Record spans (Chrome-trace exportable).
  LogLevel logLevel = LogLevel::kOff;
  bool logFromEnv = true;    // HOYAN_LOG overrides logLevel when set.
  bool journal = false;      // Record run lifecycle events (JSONL exportable).
  size_t journalCapacity = 1 << 16;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = {});

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Logger& log() { return log_; }
  const Logger& log() const { return log_; }
  RunJournal& journal() { return journal_; }
  const RunJournal& journal() const { return journal_; }

  // The optional live sinks, not owned. Attach before the runs they should
  // observe (not concurrently with them), and never to disabled(); attaching
  // another replaces the first. The journal hands every event to the
  // registry. DistributedSimulator records route decisions into the
  // recorder unless its options name one, and Hoyan clears it at each
  // verifyChange.
  void attach(RunRegistry* registry) { journal_.attach(registry); }
  void attach(ProvenanceRecorder* recorder) { provenance_ = recorder; }
  RunRegistry* runs() const { return journal_.registry_; }
  ProvenanceRecorder* provenance() const { return provenance_; }

  // Process-wide no-op context. Never exported.
  static Telemetry& disabled();
  static Telemetry& orDisabled(Telemetry* telemetry) {
    return telemetry ? *telemetry : disabled();
  }
  // The resolution rule above: `telemetry`, else global(), else disabled().
  static Telemetry& resolve(Telemetry* telemetry) {
    if (telemetry) return *telemetry;
    return orDisabled(global());
  }

  // The one process-global context; null until set. Not owned.
  static Telemetry* global();
  static void setGlobal(Telemetry* telemetry);

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  Logger log_;
  RunJournal journal_;
  ProvenanceRecorder* provenance_ = nullptr;
};

// Writes `contents` to `path`; returns false on I/O failure. Used by the
// bench flag hook and tests to dump Chrome-trace / metrics JSON.
bool writeFile(const std::string& path, const std::string& contents);

}  // namespace hoyan::obs
