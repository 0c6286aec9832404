// Journal analysis behind the `hoyan_inspect` CLI (and its tests).
//
// A journal is the JSONL file `RunJournal::toJsonl()` (operational form,
// with seq/t_ms/worker/ms and a trailing journal_summary line) or
// `canonicalJsonl()` (volatile fields stripped) writes. Every line is a flat
// JSON object — string and number values only — so parsing here is a small
// hand-rolled flat-object reader, not a general JSON library.
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
#include <vector>

namespace hoyan::inspect {

// One parsed journal line: the event name plus its raw fields (numbers kept
// as text; `num()` converts on demand).
struct Event {
  std::string ev;
  std::map<std::string, std::string> fields;

  const std::string* field(const std::string& name) const {
    const auto it = fields.find(name);
    return it == fields.end() ? nullptr : &it->second;
  }
  std::optional<double> num(const std::string& name) const;
  std::string str(const std::string& name) const {
    const std::string* value = field(name);
    return value ? *value : std::string();
  }
};

// Reads a journal into `out`: a file path, or "-" for stdin, so
// `--journal-out=/dev/stdout | hoyan_inspect summary -` pipelines work.
// Returns false when the file cannot be opened (stdin never fails to open).
bool readInput(const std::string& path, std::string& out);

// Parses one flat JSON object (`{"k":"v","n":1.5,...}`). Returns false on
// malformed input (trailing garbage counts as malformed).
bool parseJsonObject(const std::string& line, Event& event);

// Parses a whole journal. On failure returns false and sets `error` to
// "<line number>: <what>".
bool parseJournal(const std::string& text, std::vector<Event>& events,
                  std::string& error);

// Schema validation: every line parses, every `ev` is a known journal event
// type (or journal_summary), and the fields each type requires are present.
// Returns false and sets `error` on the first violation.
bool validateJournal(const std::string& text, std::string& error);

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
  std::string ribOutcome;      // Last rib_assembly note.
  double ribRowsReused = 0;
  double ribRowsRendered = 0;
  double ribFragmentHits = 0;
  double ribFragmentMisses = 0;
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

// Cold-vs-warm diff: phase wall-time deltas plus the cache/assembly facts
// that explain them. Warns when the two journals' options fingerprints
// differ (the runs were not configured identically).
std::string renderDiff(const JournalStats& cold, const JournalStats& warm);

}  // namespace hoyan::inspect
