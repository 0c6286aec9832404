// Journal analysis behind the `hoyan_inspect` CLI (and its tests).
//
// A journal is the JSONL file `RunJournal::toJsonl()` (operational form,
// with seq/t_ms/worker/ms and a trailing journal_summary line) or
// `canonicalJsonl()` (volatile fields stripped) writes. Every line is one
// flat JSON object (no nested objects or arrays), read through the one JSON
// reader (obs::parseJson); LF and CRLF line ends both work. Validation checks
// each line against the journal's event table (obs::findJournalEventSpec),
// the one the writer renders from.
//
// Five analyses:
//   validate    schema-check every line (unknown events / missing fields fail)
//   summary     per-run phase wall-times, cache decisions, subtask counts
//   stragglers  per-phase duration outliers among subtask_finish events
//   workers     per-worker utilization (busy ms, subtasks, span of activity)
//   diff        cold vs warm: where did the warm run's time go?
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace hoyan::inspect {

// One parsed journal line: its event name, where its object starts (1-based,
// for located validation errors) and the whole flat object.
struct Event {
  std::string ev;
  size_t line = 0;
  size_t column = 0;
  obs::JsonValue fields;

  const obs::JsonValue* field(std::string_view name) const { return fields.find(name); }
  // A number field; nullopt when absent or not a number.
  std::optional<double> num(std::string_view name) const;
  // A string field; empty when absent or not a string.
  std::string str(std::string_view name) const { return fields.str(name); }
};

// Reads a journal into `out`: a file path, or "-" for stdin, so
// `--journal-out=/dev/stdout | hoyan_inspect summary -` pipelines work.
// Returns false when the file cannot be opened (stdin never fails to open).
bool readInput(const std::string& path, std::string& out);

// Parses a whole journal, one JSON object per line; blank lines are
// skipped. On failure returns false and sets `error` to
// "line L, column C: <what>".
bool parseJournal(const std::string& text, std::vector<Event>& events,
                  std::string& error);

// Schema validation of parseJournal's events: every `ev` names a row of the
// journal's event table (journal_summary included), and the fields that row
// requires are present. Returns false and sets `error` to
// "line L, column C: <what>", located at the first offending line's object.
bool validateJournal(const std::vector<Event>& events, std::string& error);

// --- aggregation ------------------------------------------------------------

struct PhaseStats {
  double wallMs = 0;       // Sum of phase_end ms.
  size_t enqueued = 0;
  size_t finished = 0;
  size_t retries = 0;
  size_t exhausted = 0;
  size_t cancelled = 0;    // Queued attempts an early exit dropped.
  size_t cacheHits = 0;
  size_t cacheMisses = 0;
  double subtaskMsTotal = 0;  // Sum of subtask_finish ms.
};

struct RunStats {
  std::string name;            // run_begin id.
  std::string fp;              // Options fingerprint (hex).
  double wallMs = 0;           // run_end ms.
  std::map<std::string, PhaseStats> phases;
  size_t cacheBypasses = 0;
  size_t cacheEvictions = 0;
  std::string impactVerdict;   // "base" | "scoped" | "all_dirty" | "".
  std::string impactReason;
  // k-failure sweep accounting (sweep_plan / sweep_verdict / sweep_result).
  bool sweepSeen = false;
  std::string sweepHintSource;  // sweep_plan note: "derived"|"caller"|"none".
  double sweepEnumerated = 0;
  double sweepPruned = 0;
  double sweepDeduped = 0;
  double sweepScheduled = 0;
  double sweepChecked = 0;
  double sweepCounterexamples = 0;
  double sweepCacheHits = 0;
  double sweepRetries = 0;
  size_t sweepVerdictPass = 0;
  size_t sweepVerdictFail = 0;
};

struct JournalStats {
  std::vector<RunStats> runs;  // In run-index order.
  size_t events = 0;
  size_t dropped = 0;          // From journal_summary when present.
  size_t totalCacheHits = 0;
  size_t totalCacheMisses = 0;
  size_t totalCacheBypasses = 0;
};

JournalStats aggregate(const std::vector<Event>& events);

// --- analyses ---------------------------------------------------------------

std::string renderSummary(const JournalStats& stats);

struct Straggler {
  std::string phase;
  std::string id;
  int worker = -1;
  int attempt = -1;
  double ms = 0;
  double medianMs = 0;  // The phase's median subtask duration.
};

// Subtask_finish outliers: duration > `threshold` x the phase median (and
// phases need >= 4 finishes for a meaningful median).
std::vector<Straggler> findStragglers(const std::vector<Event>& events,
                                      double threshold);
std::string renderStragglers(const std::vector<Straggler>& stragglers,
                             double threshold);

struct WorkerStats {
  int worker = -1;
  size_t subtasks = 0;
  double busyMs = 0;
  double firstStartMs = -1;  // t_ms of first subtask_start (-1: none seen).
  double lastFinishMs = -1;
};

// Per-worker utilization, keyed by worker id; requires the operational
// journal (canonical journals carry no worker attribution).
std::vector<WorkerStats> workerUtilization(const std::vector<Event>& events);
std::string renderWorkers(const std::vector<WorkerStats>& workers);

// Cold-vs-warm diff: phase wall-time deltas plus the cache facts that
// explain them. Warns when the two journals' options fingerprints
// differ (the runs were not configured identically).
std::string renderDiff(const JournalStats& cold, const JournalStats& warm);

}  // namespace hoyan::inspect
