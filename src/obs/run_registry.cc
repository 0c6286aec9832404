#include "obs/run_registry.h"

#include <algorithm>

namespace hoyan::obs {
namespace {

std::atomic<RunRegistry*> g_registry{nullptr};

// Straggler heuristic, mirroring `hoyan_inspect stragglers`: an in-flight
// subtask is flagged once it has run 3x the mean finished duration, with a
// floor so sub-millisecond workloads don't flag everything, and only after
// enough finishes exist for the mean to be meaningful.
constexpr double kStragglerFactor = 3.0;
constexpr double kStragglerFloorSeconds = 0.05;
constexpr uint64_t kStragglerMinSamples = 8;

double secondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

RunRegistry::RunRegistry(size_t maxWorkers, size_t keepRuns)
    : maxWorkers_(maxWorkers), keepRuns_(std::max<size_t>(keepRuns, 1)) {
  workers_.reserve(maxWorkers_);
  for (size_t i = 0; i < maxWorkers_; ++i) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
}

uint64_t RunRegistry::runBegin(std::string_view name) {
  auto slot = std::make_shared<RunSlot>();
  slot->name.assign(name.data(), name.size());
  slot->start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(runsMutex_);
    slot->id = ++nextId_;
    runs_.push_back(slot);
    current_ = slot;
    while (runs_.size() > keepRuns_) runs_.erase(runs_.begin());
  }
  // Worker slots belonging to an earlier run must not leak into this run's
  // active table; runs are sequential, so any stale busy slot is an artifact
  // of a crashed worker and safe to clear.
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    if (worker->runId != slot->id) {
      worker->busy = false;
      worker->subtaskId.clear();
    }
  }
  return slot->id;
}

void RunRegistry::runEnd(uint64_t id, double seconds) {
  auto slot = find(id);
  if (!slot) return;
  bool failed = slot->exhausted.load(std::memory_order_relaxed) > 0;
  slot->finalSeconds.store(seconds, std::memory_order_relaxed);
  slot->state.store(failed ? 2 : 1, std::memory_order_relaxed);
  slot->version.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::phase(std::string_view phase) {
  auto slot = current();
  if (!slot) return;
  {
    std::lock_guard<std::mutex> lock(slot->stringsMutex);
    slot->phase.assign(phase.data(), phase.size());
  }
  slot->version.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::impact(std::string_view summary) {
  auto slot = current();
  if (!slot) return;
  {
    std::lock_guard<std::mutex> lock(slot->stringsMutex);
    slot->impact.assign(summary.data(), summary.size());
  }
  slot->version.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::subtaskEnqueued(uint64_t n) {
  auto slot = current();
  if (!slot) return;
  slot->pending.fetch_add(n, std::memory_order_relaxed);
}

void RunRegistry::subtaskStarted(int worker, std::string_view id) {
  auto slot = current();
  if (!slot) return;
  slot->pending.fetch_sub(1, std::memory_order_relaxed);
  slot->running.fetch_add(1, std::memory_order_relaxed);
  if (worker >= 0 && static_cast<size_t>(worker) < maxWorkers_) {
    WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(w.mutex);
    w.busy = true;
    w.runId = slot->id;
    w.subtaskId.assign(id.data(), id.size());
    w.start = Clock::now();
  }
}

void RunRegistry::subtaskFinished(int worker, double seconds) {
  auto slot = current();
  if (!slot) return;
  slot->running.fetch_sub(1, std::memory_order_relaxed);
  slot->succeeded.fetch_add(1, std::memory_order_relaxed);
  slot->finishedCount.fetch_add(1, std::memory_order_relaxed);
  slot->finishedSeconds.fetch_add(seconds, std::memory_order_relaxed);
  if (worker >= 0 && static_cast<size_t>(worker) < maxWorkers_) {
    WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(w.mutex);
    w.busy = false;
    w.subtaskId.clear();
  }
}

void RunRegistry::subtaskCrashed(int worker) {
  auto slot = current();
  if (!slot) return;
  slot->running.fetch_sub(1, std::memory_order_relaxed);
  if (worker >= 0 && static_cast<size_t>(worker) < maxWorkers_) {
    WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(w.mutex);
    w.busy = false;
    w.subtaskId.clear();
  }
}

void RunRegistry::subtaskRetried() {
  auto slot = current();
  if (!slot) return;
  slot->pending.fetch_add(1, std::memory_order_relaxed);
  slot->retries.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::subtaskExhausted() {
  auto slot = current();
  if (!slot) return;
  slot->failed.fetch_add(1, std::memory_order_relaxed);
  slot->exhausted.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::subtaskCached(uint64_t n) {
  auto slot = current();
  if (!slot) return;
  slot->succeeded.fetch_add(n, std::memory_order_relaxed);
}

void RunRegistry::subtaskCancelled() {
  auto slot = current();
  if (!slot) return;
  slot->pending.fetch_sub(1, std::memory_order_relaxed);
}

void RunRegistry::cacheHit() {
  auto slot = current();
  if (!slot) return;
  slot->cacheHits.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::cacheMiss() {
  auto slot = current();
  if (!slot) return;
  slot->cacheMisses.fetch_add(1, std::memory_order_relaxed);
}

void RunRegistry::cacheBypass() {
  auto slot = current();
  if (!slot) return;
  slot->cacheBypasses.fetch_add(1, std::memory_order_relaxed);
}

uint64_t RunRegistry::currentRunId() const {
  std::lock_guard<std::mutex> lock(runsMutex_);
  return current_ ? current_->id : 0;
}

std::vector<RunSummary> RunRegistry::list() const {
  std::vector<std::shared_ptr<RunSlot>> slots;
  {
    std::lock_guard<std::mutex> lock(runsMutex_);
    slots = runs_;
  }
  auto now = Clock::now();
  std::vector<RunSummary> out;
  out.reserve(slots.size());
  for (const auto& slot : slots) {
    RunSummary row;
    row.id = slot->id;
    row.name = slot->name;
    int state = slot->state.load(std::memory_order_relaxed);
    row.state = state == 0 ? "running" : state == 1 ? "succeeded" : "failed";
    {
      std::lock_guard<std::mutex> lock(slot->stringsMutex);
      row.phase = slot->phase;
    }
    double finalSeconds = slot->finalSeconds.load(std::memory_order_relaxed);
    row.elapsedSeconds =
        finalSeconds >= 0 ? finalSeconds : secondsSince(slot->start, now);
    row.succeeded = slot->succeeded.load(std::memory_order_relaxed);
    row.failed = slot->failed.load(std::memory_order_relaxed);
    row.pending = slot->pending.load(std::memory_order_relaxed);
    row.running = slot->running.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

std::optional<RunSnapshot> RunRegistry::snapshot(uint64_t id) const {
  auto slot = find(id);
  if (!slot) return std::nullopt;
  RunSnapshot out;
  fillSnapshot(*slot, out);
  return out;
}

void RunRegistry::fillSnapshot(const RunSlot& slot, RunSnapshot& out) const {
  auto now = Clock::now();
  out.id = slot.id;
  out.name = slot.name;
  int state = slot.state.load(std::memory_order_relaxed);
  out.state = state == 0 ? "running" : state == 1 ? "succeeded" : "failed";
  {
    std::lock_guard<std::mutex> lock(slot.stringsMutex);
    out.phase = slot.phase;
    out.impact = slot.impact;
  }
  double finalSeconds = slot.finalSeconds.load(std::memory_order_relaxed);
  out.elapsedSeconds =
      finalSeconds >= 0 ? finalSeconds : secondsSince(slot.start, now);
  out.version = slot.version.load(std::memory_order_relaxed);
  out.pending = slot.pending.load(std::memory_order_relaxed);
  out.running = slot.running.load(std::memory_order_relaxed);
  out.succeeded = slot.succeeded.load(std::memory_order_relaxed);
  out.failed = slot.failed.load(std::memory_order_relaxed);
  out.retries = slot.retries.load(std::memory_order_relaxed);
  out.exhausted = slot.exhausted.load(std::memory_order_relaxed);
  out.cacheHits = slot.cacheHits.load(std::memory_order_relaxed);
  out.cacheMisses = slot.cacheMisses.load(std::memory_order_relaxed);
  out.cacheBypasses = slot.cacheBypasses.load(std::memory_order_relaxed);

  uint64_t finished = slot.finishedCount.load(std::memory_order_relaxed);
  double meanSeconds =
      finished > 0
          ? slot.finishedSeconds.load(std::memory_order_relaxed) /
                static_cast<double>(finished)
          : 0;
  double stragglerBar =
      std::max(meanSeconds * kStragglerFactor, kStragglerFloorSeconds);
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerSlot& w = *workers_[i];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.busy || w.runId != slot.id) continue;
    ActiveSubtask row;
    row.id = w.subtaskId;
    row.worker = static_cast<int>(i);
    row.seconds = secondsSince(w.start, now);
    row.straggler =
        finished >= kStragglerMinSamples && row.seconds > stragglerBar;
    out.active.push_back(std::move(row));
  }
}

std::shared_ptr<RunRegistry::RunSlot> RunRegistry::current() const {
  std::lock_guard<std::mutex> lock(runsMutex_);
  return current_;
}

std::shared_ptr<RunRegistry::RunSlot> RunRegistry::find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(runsMutex_);
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if ((*it)->id == id) return *it;
  }
  return nullptr;
}

RunRegistry* RunRegistry::global() {
  return g_registry.load(std::memory_order_acquire);
}

void RunRegistry::setGlobal(RunRegistry* registry) {
  g_registry.store(registry, std::memory_order_release);
}

}  // namespace hoyan::obs
