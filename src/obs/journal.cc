#include "obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "obs/json.h"
#include "obs/run_registry.h"

namespace hoyan::obs {
namespace {

void appendField(std::string& out, std::string_view name, std::string_view value) {
  out += ",\"";
  out += name;
  out += "\":\"";
  appendJsonEscaped(out, value);
  out += '"';
}

void appendField(std::string& out, std::string_view name, uint64_t value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += std::to_string(value);
}

// The names of the type-specific numeric payload slots, per event type; null
// when the type carries none.
struct CountNames {
  const char* names[4] = {nullptr, nullptr, nullptr, nullptr};
};

CountNames countNames(JournalEventType type) {
  switch (type) {
    case JournalEventType::kCacheEvict:
      return {{"bytes"}};
    case JournalEventType::kImpact:
      return {{"dirty_devices", "dirty_ranges"}};
    case JournalEventType::kRibAssembly:
      return {{"fragment_hits", "fragment_misses", "rows_reused", "rows_rendered"}};
    case JournalEventType::kSweepPlan:
      return {{"enumerated", "pruned", "deduped", "scheduled"}};
    case JournalEventType::kSweepVerdict:
      return {{"shared"}};
    case JournalEventType::kSweepResult:
      return {{"checked", "counterexamples", "cache_hits", "retries"}};
    case JournalEventType::kPolicyKernel:
      return {{"memo_hits", "memo_misses", "regex_hits", "regex_misses"}};
    default:
      return {};
  }
}

}  // namespace

std::string_view journalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kRunBegin: return "run_begin";
    case JournalEventType::kPhaseBegin: return "phase_begin";
    case JournalEventType::kImpact: return "impact";
    case JournalEventType::kCacheBypass: return "cache_bypass";
    case JournalEventType::kCacheHit: return "cache_hit";
    case JournalEventType::kCacheMiss: return "cache_miss";
    case JournalEventType::kCacheEvict: return "cache_evict";
    case JournalEventType::kSubtaskEnqueue: return "subtask_enqueue";
    case JournalEventType::kSubtaskStart: return "subtask_start";
    case JournalEventType::kSubtaskRetry: return "subtask_retry";
    case JournalEventType::kSubtaskExhaust: return "subtask_exhaust";
    case JournalEventType::kSubtaskCancel: return "subtask_cancel";
    case JournalEventType::kSubtaskFinish: return "subtask_finish";
    case JournalEventType::kRibAssembly: return "rib_assembly";
    case JournalEventType::kSweepPlan: return "sweep_plan";
    case JournalEventType::kSweepVerdict: return "sweep_verdict";
    case JournalEventType::kSweepResult: return "sweep_result";
    case JournalEventType::kPolicyKernel: return "policy_kernel";
    case JournalEventType::kPhaseEnd: return "phase_end";
    case JournalEventType::kRunEnd: return "run_end";
  }
  return "unknown";
}

std::string journalEventJson(const JournalEvent& event, bool canonical) {
  std::string out = "{\"ev\":\"";
  out += journalEventTypeName(event.type);
  out += '"';
  appendField(out, "run", static_cast<uint64_t>(event.run));
  if (!canonical) {
    appendField(out, "seq", event.seq);
    out += ",\"t_ms\":";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(event.tMicros) / 1000.0);
    out += buffer;
  }
  if (!event.phase.empty()) appendField(out, "phase", event.phase);
  if (!event.id.empty()) appendField(out, "id", event.id);
  if (!event.key.empty()) appendField(out, "key", event.key);
  if (!event.note.empty()) appendField(out, "note", event.note);
  if (event.attempt >= 0)
    appendField(out, "attempt", static_cast<uint64_t>(event.attempt));
  if (!canonical && event.worker >= 0)
    appendField(out, "worker", static_cast<uint64_t>(event.worker));
  if (!canonical && event.seconds >= 0) {
    out += ",\"ms\":";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", event.seconds * 1000.0);
    out += buffer;
  }
  if (event.hasFp) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(event.fp));
    appendField(out, "fp", std::string_view(buffer));
  }
  if (event.hasCounts) {
    const CountNames names = countNames(event.type);
    for (int i = 0; i < 4; ++i)
      if (names.names[i]) appendField(out, names.names[i], event.counts[i]);
  }
  out += '}';
  return out;
}

RunJournal::RunJournal(JournalOptions options)
    : enabled_(options.enabled),
      listening_(options.enabled),
      capacity_(std::max<size_t>(options.capacity, 1)),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    std::lock_guard lock(mutex_);
    events_.reserve(std::min<size_t>(capacity_, 4096));
  }
}

void RunJournal::attach(RunRegistry* registry) {
  registry_ = registry;
  listening_ = enabled_ || registry_ != nullptr;
}

void RunJournal::record(const Fields& fields) {
  if (!listening_) return;
  if (registry_) registry_->handle(fields);
  if (!enabled_) return;
  JournalEvent event;
  event.type = fields.type;
  event.phase = std::string(fields.phase);
  event.id = std::string(fields.id);
  event.key = std::string(fields.key);
  event.note = std::string(fields.note);
  event.attempt = fields.attempt;
  event.worker = fields.worker;
  event.seconds = fields.seconds;
  event.fp = fields.fp.value_or(0);
  event.hasFp = fields.fp.has_value();
  std::copy(fields.counts.begin(), fields.counts.end(), event.counts);
  event.hasCounts = fields.counts.size() > 0;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  event.seq = nextSeq_++;
  event.tMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_).count());
  event.run = runIndex_;
  events_.push_back(std::move(event));
}

uint32_t RunJournal::runBegin(std::string_view run, uint64_t optionsFp) {
  uint32_t index = 0;
  if (enabled_) {
    std::lock_guard lock(mutex_);
    index = ++runIndex_;
  }
  record({.type = JournalEventType::kRunBegin, .id = run, .fp = optionsFp});
  return index;
}

void RunJournal::runEnd(std::string_view run, double seconds) {
  record({.type = JournalEventType::kRunEnd, .id = run, .seconds = seconds});
}

void RunJournal::phaseBegin(std::string_view phase) {
  record({.type = JournalEventType::kPhaseBegin, .phase = phase});
}

void RunJournal::phaseEnd(std::string_view phase, double seconds) {
  record({.type = JournalEventType::kPhaseEnd, .phase = phase, .seconds = seconds});
}

void RunJournal::subtaskEnqueue(std::string_view phase, std::string_view id) {
  record({.type = JournalEventType::kSubtaskEnqueue, .phase = phase, .id = id});
}

void RunJournal::subtaskStart(std::string_view phase, std::string_view id,
                              int attempt, int worker) {
  record({.type = JournalEventType::kSubtaskStart, .phase = phase, .id = id,
          .attempt = attempt, .worker = worker});
}

void RunJournal::subtaskFinish(std::string_view phase, std::string_view id,
                               int attempt, int worker, double seconds) {
  record({.type = JournalEventType::kSubtaskFinish, .phase = phase, .id = id,
          .attempt = attempt, .worker = worker, .seconds = seconds});
}

void RunJournal::subtaskRetry(std::string_view phase, std::string_view id,
                              int attempt, int worker) {
  record({.type = JournalEventType::kSubtaskRetry, .phase = phase, .id = id,
          .attempt = attempt, .worker = worker});
}

void RunJournal::subtaskExhaust(std::string_view phase, std::string_view id,
                                int attempts, int worker) {
  record({.type = JournalEventType::kSubtaskExhaust, .phase = phase, .id = id,
          .attempt = attempts, .worker = worker});
}

void RunJournal::subtaskCancel(std::string_view phase, std::string_view id,
                               int attempt) {
  record({.type = JournalEventType::kSubtaskCancel, .phase = phase, .id = id,
          .attempt = attempt});
}

void RunJournal::cacheHit(std::string_view phase, std::string_view id,
                          std::string_view key) {
  record({.type = JournalEventType::kCacheHit, .phase = phase, .id = id, .key = key});
}

void RunJournal::cacheMiss(std::string_view phase, std::string_view id,
                           std::string_view key) {
  record({.type = JournalEventType::kCacheMiss, .phase = phase, .id = id, .key = key});
}

void RunJournal::cacheEvict(std::string_view key, size_t bytes) {
  record({.type = JournalEventType::kCacheEvict, .key = key, .counts = {bytes}});
}

void RunJournal::cacheBypass(std::string_view reason, std::string_view id,
                             std::string_view key) {
  record({.type = JournalEventType::kCacheBypass, .id = id, .key = key,
          .note = reason});
}

void RunJournal::impact(std::string_view verdict, std::string_view reason,
                        size_t dirtyDevices, size_t dirtyRanges) {
  record({.type = JournalEventType::kImpact, .key = reason, .note = verdict,
          .counts = {dirtyDevices, dirtyRanges}});
}

void RunJournal::ribAssembly(std::string_view outcome, size_t fragmentHits,
                             size_t fragmentMisses, size_t rowsReused,
                             size_t rowsRendered) {
  record({.type = JournalEventType::kRibAssembly, .note = outcome,
          .counts = {fragmentHits, fragmentMisses, rowsReused, rowsRendered}});
}

void RunJournal::sweepPlan(std::string_view phase, size_t enumerated, size_t pruned,
                           size_t deduped, size_t scheduled,
                           std::string_view hintSource) {
  record({.type = JournalEventType::kSweepPlan, .phase = phase, .note = hintSource,
          .counts = {enumerated, pruned, deduped, scheduled}});
}

void RunJournal::sweepVerdict(std::string_view phase, std::string_view id, bool pass,
                              std::string_view key, size_t shared) {
  record({.type = JournalEventType::kSweepVerdict, .phase = phase, .id = id,
          .key = key, .note = pass ? "pass" : "fail", .counts = {shared}});
}

void RunJournal::sweepResult(std::string_view phase, size_t checked,
                             size_t counterexamples, size_t cacheHits,
                             size_t retries) {
  record({.type = JournalEventType::kSweepResult, .phase = phase,
          .counts = {checked, counterexamples, cacheHits, retries}});
}

void RunJournal::policyKernel(std::string_view phase, uint64_t memoHits,
                              uint64_t memoMisses, uint64_t regexHits,
                              uint64_t regexMisses) {
  record({.type = JournalEventType::kPolicyKernel, .phase = phase,
          .counts = {memoHits, memoMisses, regexHits, regexMisses}});
}

size_t RunJournal::eventCount() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

size_t RunJournal::droppedEvents() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<JournalEvent> RunJournal::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void RunJournal::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  dropped_ = 0;
  nextSeq_ = 0;
  runIndex_ = 0;
}

std::string RunJournal::toJsonl() const {
  std::vector<JournalEvent> snapshot;
  size_t dropped;
  {
    std::lock_guard lock(mutex_);
    snapshot = events_;
    dropped = dropped_;
  }
  std::string out;
  out.reserve(snapshot.size() * 96);
  for (const JournalEvent& event : snapshot) {
    out += journalEventJson(event, /*canonical=*/false);
    out += '\n';
  }
  out += "{\"ev\":\"journal_summary\",\"events\":" + std::to_string(snapshot.size()) +
         ",\"dropped\":" + std::to_string(dropped) + "}\n";
  return out;
}

std::string RunJournal::canonicalJsonl() const {
  std::vector<JournalEvent> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = events_;
  }
  // Stable key: (run, phase, id, key, type rank, attempt). The stable sort
  // keeps record order for ties — master-side events within one phase are
  // emitted in deterministic order, worker-side events are disambiguated by
  // (id, attempt, type).
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const JournalEvent& a, const JournalEvent& b) {
                     return std::tie(a.run, a.phase, a.id, a.key, a.type, a.attempt) <
                            std::tie(b.run, b.phase, b.id, b.key, b.type, b.attempt);
                   });
  std::string out;
  out.reserve(snapshot.size() * 80);
  for (const JournalEvent& event : snapshot) {
    out += journalEventJson(event, /*canonical=*/true);
    out += '\n';
  }
  return out;
}

}  // namespace hoyan::obs
