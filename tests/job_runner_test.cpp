// Unit tests of the shared job executor (src/dist/job_runner.h): every queued
// job settles exactly once, retries equal the extra attempts, exhausted jobs
// are reported, a throwing body counts as a crash, cancel drops the queued
// jobs, a throwing settle callback reaches the caller, and a run with
// nothing queued starts no threads. Registry counts settle in every case.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/job_runner.h"
#include "obs/run_registry.h"
#include "obs/telemetry.h"

namespace hoyan {
namespace {

JobNames testNames() {
  return JobNames{
      .phase = "test",
      .span = "test.job",
      .category = "test",
      .queueDepth = {"test.queue.depth", ""},
      .queueWait = {"test.queue.wait_seconds", ""},
      .retries = {"test.retries", ""},
      .completed = {"test.jobs.completed", ""},
      .crashed = {"test.jobs.crashed", ""},
      .exhausted = {"test.jobs.exhausted", ""},
      .seconds = {"test.job_seconds", ""},
      .durationMs = {"test.job_duration_ms", ""},
      .cacheHits = {"test.cache.hits", ""},
      .cacheMisses = {"test.cache.misses", ""},
  };
}

// One executor run inside one registry run, with per-job settle records.
class JobRunnerTest : public ::testing::Test {
 protected:
  JobRunner& makeRunner(JobPolicy policy, size_t jobs) {
    runId_ = registry_.runBegin("jobs");
    runner_ = std::make_unique<JobRunner>(telemetry_, &registry_, testNames(), policy);
    for (size_t i = 0; i < jobs; ++i) runner_->add("job-" + std::to_string(i));
    settles_.assign(jobs, 0);
    outcomes_.assign(jobs, JobOutcome{});
    return *runner_;
  }

  JobReport run(const JobRunner::Body& body) {
    const JobReport report =
        runner_->run(body, [&](size_t job, const JobOutcome& outcome) {
          ++settles_[job];
          outcomes_[job] = outcome;
        });
    registry_.runEnd(runId_, 0);
    return report;
  }

  obs::RunSnapshot snapshot() const { return *registry_.snapshot(runId_); }
  uint64_t counter(const std::string& name) {
    return telemetry_.metrics().counter(name).value();
  }

  obs::Telemetry telemetry_;
  obs::RunRegistry registry_;
  uint64_t runId_ = 0;
  std::unique_ptr<JobRunner> runner_;
  std::vector<int> settles_;          // Written under the settle lock only.
  std::vector<JobOutcome> outcomes_;
};

TEST_F(JobRunnerTest, EveryJobSettlesOnceAndRetriesEqualExtraAttempts) {
  constexpr size_t kJobs = 40;
  std::optional<size_t> firstRetries;
  for (const size_t workers : {1u, 3u, 6u}) {
    const uint64_t retriesBefore = counter("test.retries");
    JobRunner& runner = makeRunner(JobPolicy{workers, 4, 0.4, 5}, kJobs);
    for (size_t i = 0; i < kJobs; ++i) runner.enqueue(i);
    EXPECT_EQ(runner.workerCount(), workers);
    std::atomic<size_t> bodies{0};
    std::atomic<bool> workerInRange{true};
    const JobReport report = run([&](size_t, int worker) {
      ++bodies;
      if (worker < 0 || static_cast<size_t>(worker) >= workers) workerInRange = false;
    });
    EXPECT_TRUE(workerInRange.load());

    size_t extraAttempts = 0;
    size_t succeeded = 0;
    for (size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(settles_[i], 1) << "job " << i << " workers=" << workers;
      extraAttempts += static_cast<size_t>(outcomes_[i].attempts - 1);
      if (outcomes_[i].succeeded) ++succeeded;
    }
    EXPECT_GT(report.retries, 0u) << "fault injection never fired";
    EXPECT_EQ(report.retries, extraAttempts) << workers;
    EXPECT_EQ(counter("test.retries") - retriesBefore, report.retries) << workers;
    EXPECT_EQ(report.succeeded, succeeded) << workers;
    EXPECT_EQ(bodies.load(), succeeded) << workers;
    EXPECT_EQ(report.succeeded + report.exhausted.size(), kJobs) << workers;
    // Crashes are drawn per (id, attempt, seed): the same at any worker count.
    if (!firstRetries) firstRetries = report.retries;
    EXPECT_EQ(report.retries, *firstRetries) << workers;

    const obs::RunSnapshot run = snapshot();
    EXPECT_EQ(run.pending, 0u) << workers;
    EXPECT_EQ(run.running, 0u) << workers;
    EXPECT_EQ(run.succeeded, succeeded) << workers;
    EXPECT_EQ(run.retries, report.retries) << workers;
  }
}

TEST_F(JobRunnerTest, ExhaustedJobsAreReportedInJobOrder) {
  JobRunner& runner = makeRunner(JobPolicy{3, 2, 1.0, 0}, 5);
  for (size_t i = 0; i < 5; ++i) runner.enqueue(i);
  std::atomic<size_t> bodies{0};
  const JobReport report = run([&](size_t, int) { ++bodies; });
  EXPECT_EQ(bodies.load(), 0u) << "every attempt crashes before the body";
  EXPECT_EQ(report.exhausted,
            (std::vector<std::string>{"job-0", "job-1", "job-2", "job-3", "job-4"}));
  EXPECT_EQ(report.retries, 5u);  // One retry each before the second crash.
  EXPECT_EQ(report.succeeded, 0u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(settles_[i], 1);
    EXPECT_FALSE(outcomes_[i].succeeded);
    EXPECT_EQ(outcomes_[i].attempts, 2);
  }
  EXPECT_EQ(counter("test.jobs.exhausted"), 5u);
  EXPECT_EQ(counter("test.jobs.crashed"), 10u);
  const obs::RunSnapshot run = snapshot();
  EXPECT_EQ(run.state, "failed");
  EXPECT_EQ(run.failed, 5u);
  EXPECT_EQ(run.exhausted, 5u);
  EXPECT_EQ(run.pending, 0u);
  EXPECT_EQ(run.running, 0u);
}

TEST_F(JobRunnerTest, ThrowingBodyCountsAsACrash) {
  constexpr size_t kJobs = 6;
  JobRunner& runner = makeRunner(JobPolicy{3, 3, 0, 0}, kJobs);
  for (size_t i = 0; i < kJobs; ++i) runner.enqueue(i);
  // Jobs 0..4 throw on their first attempt only; job 5 throws every time.
  std::vector<std::atomic<int>> calls(kJobs);
  const JobReport report = run([&](size_t job, int) {
    const int call = ++calls[job];
    if (job == kJobs - 1 || call == 1) throw std::runtime_error("boom");
  });
  for (size_t i = 0; i + 1 < kJobs; ++i) {
    EXPECT_TRUE(outcomes_[i].succeeded) << i;
    EXPECT_EQ(outcomes_[i].attempts, 2) << i;
  }
  EXPECT_FALSE(outcomes_[kJobs - 1].succeeded);
  EXPECT_EQ(outcomes_[kJobs - 1].attempts, 3);
  EXPECT_EQ(report.exhausted, std::vector<std::string>{"job-5"});
  EXPECT_EQ(report.retries, (kJobs - 1) + 2);
  EXPECT_EQ(counter("test.jobs.crashed"), (kJobs - 1) + 3);
  EXPECT_EQ(counter("test.jobs.completed"), kJobs - 1);
}

TEST_F(JobRunnerTest, CancelDropsQueuedJobs) {
  // One worker, so the first settle happens while the other jobs still wait.
  constexpr size_t kJobs = 10;
  JobRunner& runner = makeRunner(JobPolicy{1, 3, 0, 0}, kJobs);
  for (size_t i = 0; i < kJobs; ++i) runner.enqueue(i);
  std::atomic<size_t> bodies{0};
  size_t settled = 0;
  const JobReport report = runner.run([&](size_t, int) { ++bodies; },
                                      [&](size_t, const JobOutcome&) {
                                        ++settled;
                                        runner.cancel();
                                      });
  registry_.runEnd(runId_, 0);
  EXPECT_EQ(bodies.load(), 1u);
  EXPECT_EQ(settled, 1u);
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_TRUE(report.exhausted.empty());
  const obs::RunSnapshot run = snapshot();
  EXPECT_EQ(run.state, "succeeded");
  EXPECT_EQ(run.succeeded, 1u);
  EXPECT_EQ(run.pending, 0u) << "dropped jobs must leave pending";
  EXPECT_EQ(run.running, 0u);
}

TEST_F(JobRunnerTest, SettleExceptionCancelsTheRunAndIsRethrown) {
  JobRunner& runner = makeRunner(JobPolicy{1, 3, 0, 0}, 6);
  for (size_t i = 0; i < 6; ++i) runner.enqueue(i);
  std::atomic<size_t> bodies{0};
  EXPECT_THROW(runner.run([&](size_t, int) { ++bodies; },
                          [](size_t, const JobOutcome&) {
                            throw std::runtime_error("commit failed");
                          }),
               std::runtime_error);
  registry_.runEnd(runId_, 0);
  EXPECT_EQ(bodies.load(), 1u);
  const obs::RunSnapshot run = snapshot();
  EXPECT_EQ(run.pending, 0u);
  EXPECT_EQ(run.running, 0u);
}

TEST_F(JobRunnerTest, CancelBeforeRunDropsEverything) {
  JobRunner& runner = makeRunner(JobPolicy{4, 3, 0, 0}, 8);
  for (size_t i = 0; i < 8; ++i) runner.enqueue(i);
  runner.cancel();
  std::atomic<size_t> bodies{0};
  const JobReport report = run([&](size_t, int) { ++bodies; });
  EXPECT_EQ(bodies.load(), 0u);
  EXPECT_EQ(report.succeeded, 0u);
  for (const int settles : settles_) EXPECT_EQ(settles, 0);
  EXPECT_EQ(snapshot().pending, 0u);
}

TEST_F(JobRunnerTest, NothingQueuedStartsNoThreads) {
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.journal = true;
  obs::Telemetry journaled(telemetryOptions);
  const uint64_t id = registry_.runBegin("cached");
  JobRunner runner(journaled, &registry_, testNames(), JobPolicy{4, 3, 0, 0});
  EXPECT_EQ(runner.workerCount(), 0u);  // Zero jobs.
  for (size_t i = 0; i < 3; ++i)
    runner.cacheHit(runner.add("hit-" + std::to_string(i)), "k");
  EXPECT_EQ(runner.workerCount(), 0u);  // Cache-served jobs never queue.
  std::atomic<size_t> bodies{0};
  const JobReport report = runner.run([&](size_t, int) { ++bodies; });
  registry_.runEnd(id, 0);
  EXPECT_EQ(bodies.load(), 0u);
  EXPECT_EQ(report.succeeded, 0u);
  EXPECT_EQ(journaled.metrics().counter("test.cache.hits").value(), 3u);
  // The lifecycle instruments register even when nothing runs.
  EXPECT_NE(journaled.metrics().toJson().find("\"test.job_duration_ms\""),
            std::string::npos);
  const obs::RunSnapshot run = *registry_.snapshot(id);
  EXPECT_EQ(run.succeeded, 3u);
  EXPECT_EQ(run.cacheHits, 3u);
  EXPECT_EQ(run.pending, 0u);
  const std::string journal = journaled.journal().canonicalJsonl();
  EXPECT_NE(
      journal.find(R"({"ev":"cache_hit","run":0,"phase":"test","id":"hit-0")"),
      std::string::npos)
      << journal;
}

TEST_F(JobRunnerTest, WorkerCountIsCappedByQueuedJobs) {
  JobRunner& runner = makeRunner(JobPolicy{8, 3, 0, 0}, 3);
  runner.enqueue(0);
  runner.enqueue(2);
  EXPECT_EQ(runner.workerCount(), 2u);
  std::atomic<size_t> bodies{0};
  const JobReport report = run([&](size_t, int) { ++bodies; });
  EXPECT_EQ(bodies.load(), 2u);
  EXPECT_EQ(settles_, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(report.succeeded, 2u);
}

}  // namespace
}  // namespace hoyan
