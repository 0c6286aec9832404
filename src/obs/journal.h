// The run flight recorder: a low-overhead, bounded, thread-safe event
// journal capturing the *control flow* of a verification run — run begin/end
// with an options fingerprint, phase transitions, the full subtask lifecycle
// (enqueue/start/finish/retry/exhaust/cancel with durations and worker ids),
// incremental-cache decisions (hit/miss/evict/bypass with content keys),
// change-impact verdicts, and RIB-fragment assembly outcomes.
//
// Where metrics answer "how much" and traces answer "when", the journal
// answers "why was this run shaped the way it was": it is the durable,
// queryable record `hoyan_inspect` (tools/) reads to explain stragglers,
// worker utilization, and where a warm run's time went.
//
// The journal is also the one emission point of the live run registry
// (run_registry.h): every event goes to the registry the owning
// obs::Telemetry attached, whether or not the journal itself records, and
// even when its buffer is full. The two therefore cannot disagree.
//
// Cost model: with the journal disabled (the default) and no registry
// attached, every emitter is one branch on a plain bool and returns — no
// locks, no allocation, matching the rest of src/obs. Enabled, an emitter
// builds one small event struct and appends it under a mutex; the buffer is
// bounded by `capacity`, and overflow increments a per-type drop counter
// instead of growing (the summary line reports drops).
//
// Two export forms:
//  * `toJsonl()` — the operational record: one JSON object per line in
//    record order, each with `seq` and `t_ms` plus volatile attribution
//    (worker id, duration). Ends with a `journal_summary` line.
//  * `canonicalJsonl()` — the comparable record: volatile fields (seq, t_ms,
//    worker, ms/seconds) stripped and lines sorted by a stable key
//    (run, phase, subtask id, event rank, attempt), so two runs over the
//    same inputs produce byte-identical output regardless of worker count
//    or scheduling (absent drops, budget-pressure evictions and early-exit
//    cancellations, whose event *sets* are scheduling-dependent).
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hoyan::obs {

class RunRegistry;

struct JournalOptions {
  bool enabled = false;
  size_t capacity = 1 << 16;  // Bounded event buffer; overflow is counted.
};

// Event types, in stable-sort rank order within one (run, phase, id, attempt)
// group: an enqueue sorts before the starts/retries of its attempts, a finish
// after them.
enum class JournalEventType : uint8_t {
  kRunBegin = 0,
  kPhaseBegin,
  kImpact,
  kCacheBypass,
  kCacheHit,
  kCacheMiss,
  kCacheEvict,
  kSubtaskEnqueue,
  kSubtaskStart,
  kSubtaskRetry,
  kSubtaskExhaust,
  kSubtaskCancel,
  kSubtaskFinish,
  kRibAssembly,
  kSweepPlan,
  kSweepVerdict,
  kSweepResult,
  kPolicyKernel,
  kPhaseEnd,
  kRunEnd,
};

std::string_view journalEventTypeName(JournalEventType type);

// One recorded event. Only the fields the type uses are populated; the
// renderers skip empty/negative fields.
struct JournalEvent {
  JournalEventType type = JournalEventType::kRunBegin;
  uint64_t seq = 0;      // Record order (volatile across schedules).
  uint64_t tMicros = 0;  // Since journal construction (volatile).
  uint32_t run = 0;      // Index of the enclosing run (0 = before any run).
  std::string phase;     // "route", "traffic", "intent_verify", ...
  std::string id;        // Subtask id, or the run name for run_begin/end.
  std::string key;       // Cache/content key where applicable.
  std::string note;      // Reason / verdict / outcome.
  int attempt = -1;
  int worker = -1;          // Volatile: which worker executed (start/finish).
  double seconds = -1;      // Volatile: duration (finish, phase_end, run_end).
  uint64_t fp = 0;          // Options fingerprint (run_begin).
  bool hasFp = false;
  uint64_t counts[4] = {0, 0, 0, 0};  // Type-specific numeric payload.
  bool hasCounts = false;
};

class RunJournal {
 public:
  explicit RunJournal(JournalOptions options = {});

  // Whether the journal records. A call site whose argument construction
  // allocates (std::to_string etc.) may check this first, but only for an
  // event the run registry ignores (sweep, policy-kernel and rib-assembly
  // events). The emitters below early-return when nothing listens, so
  // allocation-free call sites need no guard.
  bool enabled() const { return enabled_; }

  // --- run lifecycle --------------------------------------------------------
  // Begins a run (returns its index); `optionsFp` fingerprints the options
  // the run executes under so journals from differently-configured runs are
  // never diffed silently.
  uint32_t runBegin(std::string_view run, uint64_t optionsFp);
  void runEnd(std::string_view run, double seconds);
  void phaseBegin(std::string_view phase);
  void phaseEnd(std::string_view phase, double seconds);

  // --- subtask lifecycle ----------------------------------------------------
  void subtaskEnqueue(std::string_view phase, std::string_view id);
  void subtaskStart(std::string_view phase, std::string_view id, int attempt,
                    int worker);
  void subtaskFinish(std::string_view phase, std::string_view id, int attempt,
                     int worker, double seconds);
  // A crashed attempt on `worker`, re-queued (retry) or the job's last
  // (exhaust).
  void subtaskRetry(std::string_view phase, std::string_view id, int attempt,
                    int worker = -1);
  void subtaskExhaust(std::string_view phase, std::string_view id, int attempts,
                      int worker = -1);
  // A queued attempt dropped unstarted because its run was cancelled (an
  // early-exit sweep).
  void subtaskCancel(std::string_view phase, std::string_view id, int attempt);

  // --- incremental-cache decisions -----------------------------------------
  void cacheHit(std::string_view phase, std::string_view id, std::string_view key);
  void cacheMiss(std::string_view phase, std::string_view id, std::string_view key);
  void cacheEvict(std::string_view key, size_t bytes);
  // `id`/`key` attribute a per-subtask bypass; empty for run-wide ones.
  void cacheBypass(std::string_view reason, std::string_view id = {},
                   std::string_view key = {});

  // --- engine verdicts ------------------------------------------------------
  // `verdict`: "base" | "scoped" | "all_dirty".
  void impact(std::string_view verdict, std::string_view reason,
              size_t dirtyDevices, size_t dirtyRanges);
  // `outcome`: "whole_table_hit" | "assembled" | "bypassed".
  void ribAssembly(std::string_view outcome, size_t fragmentHits,
                   size_t fragmentMisses, size_t rowsReused, size_t rowsRendered);

  // --- k-failure sweep (src/sweep) -----------------------------------------
  // The sweep's enumeration outcome: scenarios enumerated, how many were
  // pruned (inherit the base verdict), deduped onto another scenario's
  // evaluation, and how many unique jobs were scheduled onto workers.
  // `hintSource` records where the pruning relevance came from — "derived"
  // (sweep::deriveHints), "caller" (hand-written hints), or "none".
  void sweepPlan(std::string_view phase, size_t enumerated, size_t pruned,
                 size_t deduped, size_t scheduled,
                 std::string_view hintSource = "none");
  // One committed scenario verdict, emitted master-side in enumeration order
  // (deterministic regardless of worker count). `id` is the scenario id,
  // `key` its impact-fingerprint hex, `shared` how many scenarios share the
  // underlying evaluation.
  void sweepVerdict(std::string_view phase, std::string_view id, bool pass,
                    std::string_view key, size_t shared);
  // The sweep's terminal accounting: committed scenarios, counterexamples
  // retained, verdict-cache hits, worker retries.
  void sweepResult(std::string_view phase, size_t checked, size_t counterexamples,
                   size_t cacheHits, size_t retries);

  // --- policy-eval kernel (proto/policy_kernel.h) --------------------------
  // Aggregated per-phase policy-kernel accounting, emitted once master-side
  // after the route merge (per-subtask sums are deterministic, so this line
  // is byte-identical in the canonical journal for any worker count).
  void policyKernel(std::string_view phase, uint64_t memoHits,
                    uint64_t memoMisses, uint64_t regexHits,
                    uint64_t regexMisses);

  // --- inspection / export --------------------------------------------------
  size_t eventCount() const;
  size_t droppedEvents() const;
  std::vector<JournalEvent> events() const;  // Copy; safe while workers run.
  void clear();

  std::string toJsonl() const;
  std::string canonicalJsonl() const;

 private:
  friend class RunRegistry;  // Reads Fields.
  friend class Telemetry;    // Attaches the registry.

  // The fields one emitter sets. Views, so an emitter nobody listens to
  // allocates nothing; unset fields keep the defaults the renderers skip.
  struct Fields {
    JournalEventType type;
    std::string_view phase = {}, id = {}, key = {}, note = {};
    int attempt = -1;
    int worker = -1;
    double seconds = -1;
    std::initializer_list<uint64_t> counts = {};
    std::optional<uint64_t> fp = {};
  };

  // The one emitter behind the public ones: a branch when nothing listens,
  // otherwise the event goes to the attached registry and, when enabled,
  // is appended under the mutex.
  void record(const Fields& fields);
  void attach(RunRegistry* registry);

  const bool enabled_;
  RunRegistry* registry_ = nullptr;
  bool listening_;  // enabled_ || registry_.
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<JournalEvent> events_;
  uint64_t nextSeq_ = 0;
  uint32_t runIndex_ = 0;
  size_t dropped_ = 0;
};

// Renders one event as a JSON object (exposed for tests). `canonical` strips
// the volatile fields (seq, t_ms, worker, seconds).
std::string journalEventJson(const JournalEvent& event, bool canonical);

}  // namespace hoyan::obs
