#include "dist/job_runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <random>
#include <thread>

namespace hoyan {

JobRunner::JobRunner(obs::Telemetry& telemetry, JobNames names, JobPolicy policy)
    : telemetry_(telemetry), names_(std::move(names)), policy_(policy) {
  obs::MetricsRegistry& metrics = telemetry_.metrics();
  queue_.bindTelemetry(
      &metrics.gauge(names_.queueDepth.name, names_.queueDepth.help),
      &metrics.histogram(names_.queueWait.name, {}, names_.queueWait.help));
  if (!names_.cacheHits.name.empty())
    cacheHits_ = &metrics.counter(names_.cacheHits.name, names_.cacheHits.help);
  if (!names_.cacheMisses.name.empty())
    cacheMisses_ = &metrics.counter(names_.cacheMisses.name, names_.cacheMisses.help);
}

size_t JobRunner::add(std::string id) {
  ids_.push_back(std::move(id));
  return ids_.size() - 1;
}

void JobRunner::enqueue(size_t job) {
  telemetry_.journal().subtaskEnqueue(names_.phase, ids_[job]);
  queue_.push(Message{job, 1});
  ++queued_;
}

void JobRunner::cacheHit(size_t job, std::string_view key) {
  if (cacheHits_) cacheHits_->add(1);
  telemetry_.journal().cacheHit(names_.phase, ids_[job], key);
}

void JobRunner::cacheMiss(size_t job, std::string_view key) {
  if (cacheMisses_) cacheMisses_->add(1);
  telemetry_.journal().cacheMiss(names_.phase, ids_[job], key);
}

void JobRunner::cacheBypass(size_t job, std::string_view reason, std::string_view key) {
  telemetry_.journal().cacheBypass(reason, ids_[job], key);
}

size_t JobRunner::workerCount() const {
  return std::min(std::max<size_t>(policy_.workers, 1), queued_);
}

void JobRunner::cancel() {
  cancelled_ = true;
  queue_.close();
}

bool JobRunner::injectCrash(const std::string& id, int attempt) const {
  if (policy_.failureProbability <= 0) return false;
  const size_t h = std::hash<std::string>{}(id) ^ (attempt * 0x9e3779b97f4a7c15ULL) ^
                   policy_.failureSeed;
  std::mt19937_64 rng(h);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(rng) < policy_.failureProbability;
}

JobReport JobRunner::run(const Body& body, const Settle& settle) {
  obs::Telemetry& tel = telemetry_;
  obs::RunJournal& journal = tel.journal();
  obs::MetricsRegistry& metrics = tel.metrics();
  const auto counter = [&](const MetricName& m) -> obs::Counter& {
    return metrics.counter(m.name, m.help);
  };
  obs::Counter& retries = counter(names_.retries);
  obs::Counter& completed = counter(names_.completed);
  obs::Counter& crashed = counter(names_.crashed);
  obs::Counter& exhausted = counter(names_.exhausted);
  obs::Histogram& seconds =
      metrics.histogram(names_.seconds.name, {}, names_.seconds.help);
  obs::Histogram& durationMs = metrics.histogram(
      names_.durationMs.name,
      {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
       30000},
      names_.durationMs.help);

  std::atomic<size_t> retryCount{0}, succeededCount{0};
  std::vector<char> jobExhausted(ids_.size(), 0);  // One writer per job.
  std::atomic<size_t> unsettled{queued_};
  std::mutex settleMutex;  // Serializes `settle`; guards `failure`.
  const auto settleJob = [&](size_t job, const JobOutcome& outcome) {
    if (settle) {
      std::lock_guard lock(settleMutex);
      settle(job, outcome);
    }
    if (unsettled.fetch_sub(1) == 1) queue_.close();
  };
  const auto drain = [&](int worker) {
    while (const std::optional<Message> message = queue_.pop()) {
      const auto [job, attempt] = *message;
      const std::string& id = ids_[job];
      if (cancelled_) {
        journal.subtaskCancel(names_.phase, id, attempt);
        continue;
      }
      obs::Span span = tel.tracer().span(names_.span, names_.category);
      span.arg("id", id);
      span.arg("attempt", std::to_string(attempt));
      journal.subtaskStart(names_.phase, id, attempt, worker);
      bool ok = !injectCrash(id, attempt);
      try {
        if (ok) body(job, worker);
      } catch (const std::exception& e) {
        tel.log().warn(names_.span + ".crashed", {{"id", id}, {"error", e.what()}});
        ok = false;
      } catch (...) {
        tel.log().warn(names_.span + ".crashed", {{"id", id}});
        ok = false;
      }
      if (ok) {
        span.finish();
        seconds.observe(span.seconds());
        durationMs.observe(span.seconds() * 1e3);
        journal.subtaskFinish(names_.phase, id, attempt, worker, span.seconds());
        completed.add(1);
        ++succeededCount;
        settleJob(job, JobOutcome{true, attempt, span.seconds()});
        continue;
      }
      // The working server died mid-job; the master re-queues it (§3.2).
      span.arg("outcome", "crashed");
      crashed.add(1);
      if (attempt < policy_.maxAttempts) {
        tel.log().warn(names_.span + ".retry",
                       {{"id", id}, {"attempt", std::to_string(attempt)}});
        ++retryCount;
        retries.add(1);
        journal.subtaskRetry(names_.phase, id, attempt, worker);
        queue_.push(Message{job, attempt + 1});
        continue;
      }
      tel.log().error(names_.span + ".exhausted", {{"id", id}});
      exhausted.add(1);
      journal.subtaskExhaust(names_.phase, id, attempt, worker);
      jobExhausted[job] = 1;
      settleJob(job, JobOutcome{false, attempt, 0});
    }
  };
  // An error outside a job body (a throwing settle callback, say) cancels
  // the run and is rethrown to the caller once every worker has exited.
  std::exception_ptr failure;
  const auto work = [&](int worker) {
    try {
      drain(worker);
    } catch (...) {
      {
        std::lock_guard lock(settleMutex);
        if (!failure) failure = std::current_exception();
      }
      cancel();
      drain(worker);  // Drops what is still queued.
    }
  };

  if (!names_.execPhase.empty()) journal.phaseBegin(names_.execPhase);
  const auto start = std::chrono::steady_clock::now();
  {
    // jthreads join on every path out of this scope, a failed spawn included.
    std::vector<std::jthread> threads;
    for (size_t w = 0; w < workerCount(); ++w)
      threads.emplace_back(work, static_cast<int>(w));
  }
  if (!names_.execPhase.empty())
    journal.phaseEnd(names_.execPhase, std::chrono::duration<double>(
                                           std::chrono::steady_clock::now() - start)
                                           .count());

  if (failure) std::rethrow_exception(failure);
  JobReport report;
  report.retries = retryCount;
  report.succeeded = succeededCount;
  for (size_t job = 0; job < ids_.size(); ++job)
    if (jobExhausted[job]) report.exhausted.push_back(ids_[job]);
  return report;
}

}  // namespace hoyan
