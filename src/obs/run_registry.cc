#include "obs/run_registry.h"

#include <algorithm>

namespace hoyan::obs {
namespace {

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

void RunRegistry::handle(const RunJournal::Fields& event) {
  using Type = JournalEventType;
  if (event.type == Type::kRunBegin) return beginRun(event.id);
  const std::shared_ptr<RunSlot> slot = current();
  if (!slot) return;
  const auto setString = [&slot](std::string& field, std::string value) {
    {
      std::lock_guard<std::mutex> lock(slot->stringsMutex);
      field = std::move(value);
    }
    slot->version.fetch_add(1, std::memory_order_relaxed);
  };
  const auto up = [](std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  };
  const auto down = [](std::atomic<uint64_t>& counter) {
    counter.fetch_sub(1, std::memory_order_relaxed);
  };
  switch (event.type) {
    case Type::kRunEnd:
      if (slot->state.load(std::memory_order_relaxed) != 0) return;
      slot->finalSeconds.store(event.seconds, std::memory_order_relaxed);
      slot->state.store(slot->exhausted.load(std::memory_order_relaxed) > 0 ? 2 : 1,
                        std::memory_order_relaxed);
      slot->version.fetch_add(1, std::memory_order_relaxed);
      return;
    case Type::kPhaseBegin:
      return setString(slot->phase, std::string(event.phase));
    case Type::kImpact: {
      const auto count = [&event](size_t i) {
        return std::to_string(i < event.counts.size() ? event.counts.begin()[i] : 0);
      };
      return setString(slot->impact, std::string(event.note) + " (" +
                                         std::string(event.key) + "): " + count(0) +
                                         " dirty device(s), " + count(1) +
                                         " dirty range(s)");
    }
    case Type::kSubtaskEnqueue:
      return up(slot->pending);
    case Type::kSubtaskStart:
      down(slot->pending);
      up(slot->running);
      return occupyWorker(event.worker, slot->id, event.id);
    case Type::kSubtaskFinish:
      down(slot->running);
      up(slot->succeeded);
      up(slot->finishedCount);
      slot->finishedSeconds.fetch_add(event.seconds, std::memory_order_relaxed);
      return releaseWorker(event.worker);
    case Type::kSubtaskRetry:  // A crashed attempt, re-queued.
      down(slot->running);
      up(slot->pending);
      up(slot->retries);
      return releaseWorker(event.worker);
    case Type::kSubtaskExhaust:  // A crashed attempt, the job's last.
      down(slot->running);
      up(slot->failed);
      up(slot->exhausted);
      return releaseWorker(event.worker);
    case Type::kSubtaskCancel:
      return down(slot->pending);
    case Type::kCacheHit:  // Served without queueing.
      up(slot->cacheHits);
      return up(slot->succeeded);
    case Type::kCacheMiss:
      return up(slot->cacheMisses);
    case Type::kCacheBypass:
      return up(slot->cacheBypasses);
    default:
      return;
  }
}

void RunRegistry::beginRun(std::string_view name) {
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
}

void RunRegistry::occupyWorker(int worker, uint64_t runId, std::string_view id) {
  if (worker < 0 || static_cast<size_t>(worker) >= maxWorkers_) return;
  WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(w.mutex);
  w.busy = true;
  w.runId = runId;
  w.subtaskId.assign(id.data(), id.size());
  w.start = Clock::now();
}

void RunRegistry::releaseWorker(int worker) {
  if (worker < 0 || static_cast<size_t>(worker) >= maxWorkers_) return;
  WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(w.mutex);
  w.busy = false;
  w.subtaskId.clear();
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

}  // namespace hoyan::obs
