// Live run-status registry: the data behind the embedded status server
// (statusd.h). Where the journal (journal.h) is the *post-mortem* record of
// a run, the registry is its *live* mirror, and it is fed by the same
// events: attach it to an obs::Telemetry and the context's journal hands it
// every run, phase, subtask, cache and impact event as it happens (whether
// or not the journal records), while the HTTP endpoints (`/runs`,
// `/runs/<id>`, `/healthz`) snapshot it on every scrape. It has no
// publishing API of its own.
//
// Cost model, matching the rest of src/obs: with no registry attached the
// emitter side is one branch per event — nothing else runs, so the table1
// disabled-overhead bar (<2%) holds. Attached, the per-subtask hot path is
// relaxed atomic counter bumps plus, for start/finish/retry/exhaust, one
// uncontended per-worker mutex protecting the "what is worker w running"
// slot (single writer: the worker itself; readers are scrape threads).
// Phase/impact strings change a handful of times per run and sit behind a
// per-run mutex. Snapshots copy everything out under the registry mutex, so
// scrape threads never hold a lock a worker wants for more than a few loads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"

namespace hoyan::obs {

// One in-flight subtask as seen by a scrape: which worker runs what, for how
// long so far. `straggler` applies the same heuristic `hoyan_inspect
// stragglers` uses post-mortem, against the run's mean finished duration.
struct ActiveSubtask {
  std::string id;
  int worker = -1;
  double seconds = 0;
  bool straggler = false;
};

// The per-run scrape payload (`GET /runs/<id>`).
struct RunSnapshot {
  uint64_t id = 0;
  std::string name;
  std::string state;  // "running" | "succeeded" | "failed".
  std::string phase;  // Current phase; last phase after the run ends.
  // Change-impact one-liner (incremental runs), from the impact event:
  // "<verdict> (<reason>): <n> dirty device(s), <m> dirty range(s)".
  std::string impact;
  double elapsedSeconds = 0;  // Live while running, final afterwards.
  uint64_t version = 0;       // Bumps on phase/state transitions.
  // Subtask lifecycle counts. pending + running + succeeded + failed need
  // not telescope mid-scrape (counters are independent atomics), but settle
  // once the run ends. `succeeded` includes cache-served subtasks; queued
  // subtasks a cancelled run never started (subtask_cancel) leave `pending`
  // and count nowhere.
  uint64_t pending = 0;
  uint64_t running = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t exhausted = 0;
  // Incremental-cache decisions observed so far.
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  uint64_t cacheBypasses = 0;
  std::vector<ActiveSubtask> active;
};

// The per-run row of the `GET /runs` listing.
struct RunSummary {
  uint64_t id = 0;
  std::string name;
  std::string state;
  std::string phase;
  double elapsedSeconds = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t pending = 0;
  uint64_t running = 0;
};

class RunRegistry {
 public:
  // `maxWorkers` bounds the active-subtask table (worker ids at or above it
  // are counted but not attributed); `keepRuns` bounds how many finished
  // runs the listing retains (oldest dropped first; the current run and the
  // newest `keepRuns` survive).
  explicit RunRegistry(size_t maxWorkers = 64, size_t keepRuns = 256);

  // Id of the newest run, 0 when none have begun.
  uint64_t currentRunId() const;
  std::vector<RunSummary> list() const;
  std::optional<RunSnapshot> snapshot(uint64_t id) const;

 private:
  friend class RunJournal;  // The only caller of handle().
  using Clock = std::chrono::steady_clock;

  struct RunSlot {
    uint64_t id = 0;
    std::string name;  // Immutable after creation.
    Clock::time_point start;
    std::atomic<int> state{0};  // 0 running, 1 succeeded, 2 failed.
    std::atomic<double> finalSeconds{-1};
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> pending{0}, running{0}, succeeded{0}, failed{0};
    std::atomic<uint64_t> retries{0}, exhausted{0};
    std::atomic<uint64_t> cacheHits{0}, cacheMisses{0}, cacheBypasses{0};
    // Straggler baseline: mean of finished durations this run.
    std::atomic<uint64_t> finishedCount{0};
    std::atomic<double> finishedSeconds{0};
    mutable std::mutex stringsMutex;  // phase, impact.
    std::string phase;
    std::string impact;
  };

  struct WorkerSlot {
    mutable std::mutex mutex;
    bool busy = false;
    uint64_t runId = 0;
    std::string subtaskId;
    Clock::time_point start;
  };

  // Applies one journal event. A run_begin opens a run and makes it current
  // (verification runs are sequential per process); run_end closes it,
  // "failed" when any subtask exhausted its retries; everything else lands
  // on the current run. Events with no live state (sweep, policy_kernel, ...)
  // are ignored.
  void handle(const RunJournal::Fields& event);
  void beginRun(std::string_view name);
  // Frees `worker`'s active-subtask slot, or claims it for subtask `id`.
  void releaseWorker(int worker);
  void occupyWorker(int worker, uint64_t runId, std::string_view id);

  // The current run, or null before the first run_begin. Shared ownership so
  // an emitter holding the pointer is safe against concurrent eviction.
  std::shared_ptr<RunSlot> current() const;
  std::shared_ptr<RunSlot> find(uint64_t id) const;
  void fillSnapshot(const RunSlot& slot, RunSnapshot& out) const;

  const size_t maxWorkers_;
  const size_t keepRuns_;
  mutable std::mutex runsMutex_;
  std::vector<std::shared_ptr<RunSlot>> runs_;  // Oldest first, bounded.
  std::shared_ptr<RunSlot> current_;            // Also guarded by runsMutex_.
  uint64_t nextId_ = 0;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;  // Fixed at construction.
};

}  // namespace hoyan::obs
