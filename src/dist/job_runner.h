// The worker pool of the distributed framework (§3.2), shared by the route
// and traffic phases and the k-failure sweep: the master queues jobs, worker
// threads pop and run them, a crashed attempt is re-queued until the job has
// had `maxAttempts` tries, and a job that runs out is reported.
//
// Every lifecycle event is emitted here once, to the span, the run journal
// (which hands it on to the live run registry) and the metrics, under the
// names the calling phase passes in. Crashes are drawn per (job id, attempt, seed) and a throwing job body
// counts as a crash, so the attempts made, and the canonical journal, are the
// same at any worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/message_queue.h"
#include "obs/telemetry.h"

namespace hoyan {

// A metric name and its `# HELP` text.
struct MetricName {
  std::string name;
  std::string help;
};

// The vocabulary one phase reports its jobs under. Optional names are empty.
struct JobNames {
  std::string phase;        // Journal phase of the lifecycle and cache events.
  std::string execPhase{};  // Optional journal phase around run().
  std::string span;         // Per-attempt span; also prefixes the log events.
  std::string category;     // Span category.
  MetricName queueDepth, queueWait, retries, completed, crashed, exhausted;
  MetricName seconds, durationMs;  // Histograms: default / 0.1ms..30s buckets.
  MetricName cacheHits{}, cacheMisses{};  // Optional counters.
};

struct JobPolicy {
  size_t workers = 1;
  int maxAttempts = 3;
  double failureProbability = 0;  // Injected crash chance per attempt.
  uint64_t failureSeed = 0;
};

// How a queued job settled. `seconds` times the successful attempt.
struct JobOutcome {
  bool succeeded = false;
  int attempts = 0;
  double seconds = 0;
};

struct JobReport {
  size_t retries = 0;
  size_t succeeded = 0;
  std::vector<std::string> exhausted;  // Job ids, in job order.
};

class JobRunner {
 public:
  // Runs one attempt of `job` on worker `worker` (below workerCount(), so it
  // can index per-worker state). Throwing crashes the attempt.
  using Body = std::function<void(size_t job, int worker)>;
  // Called once per queued job as it settles, serialized across workers.
  using Settle = std::function<void(size_t job, const JobOutcome& outcome)>;

  JobRunner(obs::Telemetry& telemetry, JobNames names, JobPolicy policy);

  // Split time, on the master. A job runs once enqueued; a cache hit settles
  // it without queueing; a miss or bypass leaves it to be enqueued.
  size_t add(std::string id);
  void enqueue(size_t job);
  void cacheHit(size_t job, std::string_view key);
  void cacheMiss(size_t job, std::string_view key);
  void cacheBypass(size_t job, std::string_view reason, std::string_view key);

  size_t size() const { return ids_.size(); }
  const std::string& id(size_t job) const { return ids_[job]; }
  // The threads run() starts: one per queued job up to the policy's worker
  // count, so none when nothing is queued.
  size_t workerCount() const;

  // Runs until every queued job has settled or been cancelled. Once per
  // runner. An exception from `settle` cancels the rest and is rethrown.
  JobReport run(const Body& body, const Settle& settle = {});
  // Drops the jobs still queued, each with a subtask_cancel event; attempts
  // in flight finish. Callable before run() and from `settle`.
  void cancel();

 private:
  // A queued descriptor (the paper's metadata message): inputs and results
  // travel through the caller's object store, not the queue.
  struct Message {
    size_t job;
    int attempt;
  };

  bool injectCrash(const std::string& id, int attempt) const;

  obs::Telemetry& telemetry_;
  const JobNames names_;
  const JobPolicy policy_;
  obs::Counter* cacheHits_ = nullptr;
  obs::Counter* cacheMisses_ = nullptr;
  MessageQueue<Message> queue_;
  std::vector<std::string> ids_;
  size_t queued_ = 0;
  std::atomic<bool> cancelled_{false};
};

}  // namespace hoyan
