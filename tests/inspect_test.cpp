// Tests for the hoyan_inspect analysis library (tools/inspect.h): journal
// parsing through the one JSON reader (located errors, CRLF), schema
// validation against the journal's event table, per-run aggregation, and the
// straggler / worker-utilization / cold-vs-warm-diff analyses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inspect.h"
#include "inspect_testing.h"
#include "obs/journal.h"

namespace hoyan {
namespace {

// --- journal parsing ---------------------------------------------------------

TEST(InspectParseTest, ReadsStringsNumbersAndEscapes) {
  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(
      R"({"ev":"run_begin","run":3,"id":"plan \"x\"\n","ms":1.5e2,"ok":true,)"
      R"("name":"caf\u00e9"})",
      events, error))
      << error;
  ASSERT_EQ(events.size(), 1u);
  const inspect::Event& event = events[0];
  EXPECT_EQ(event.ev, "run_begin");
  EXPECT_EQ(event.num("run").value_or(-1), 3.0);
  EXPECT_EQ(event.str("id"), "plan \"x\"\n");
  EXPECT_EQ(event.num("ms").value_or(-1), 150.0);
  ASSERT_NE(event.field("ok"), nullptr);
  EXPECT_TRUE(event.field("ok")->boolean);
  // \u escapes decode to UTF-8, as they do in status payloads.
  EXPECT_EQ(event.str("name"), "caf\xc3\xa9");
  EXPECT_FALSE(event.num("absent").has_value());
  EXPECT_FALSE(event.num("id").has_value()) << "a string is not a number";
}

TEST(InspectParseTest, RejectsMalformedObjects) {
  const struct {
    const char* line;
    const char* error;
  } cases[] = {
      {"{", "line 1, column 2: expected a string key"},
      {R"({"a":1)", "line 1, column 7: expected ',' or '}'"},
      {R"({"a" 1})", "line 1, column 6: expected ':'"},
      {R"({"a":1} trailing)", "line 1, column 9: trailing characters after the document"},
      {R"({"a":"unterminated)", "line 1, column 19: unterminated string"},
      {R"({"run":1-1})", "line 1, column 9: expected ',' or '}'"},
      {R"({"a":1e})", "line 1, column 8: expected a digit in the exponent"},
      // A journal line is one flat object.
      {R"({"a":{"nested":1}})", "line 1, column 6: nesting deeper than 1"},
      {R"({"a":[1]})", "line 1, column 6: nesting deeper than 1"},
      {R"(["ev"])", "line 1, column 1: expected a JSON object"},
      {R"(  "ev")", "line 1, column 3: expected a JSON object"},
  };
  for (const auto& c : cases) {
    std::vector<inspect::Event> events;
    std::string error;
    EXPECT_FALSE(inspect::parseJournal(c.line, events, error)) << c.line;
    EXPECT_EQ(error, c.error) << c.line;
  }
}

TEST(InspectParseTest, ParseJournalReportsTheOffendingLine) {
  std::vector<inspect::Event> events;
  std::string error;
  EXPECT_TRUE(inspect::parseJournal(
      "{\"ev\":\"phase_begin\",\"run\":1,\"phase\":\"p\"}\n\n", events, error));
  EXPECT_EQ(events.size(), 1u);  // Blank lines are skipped.
  events.clear();
  EXPECT_FALSE(inspect::parseJournal(
      "{\"ev\":\"phase_begin\",\"run\":1,\"phase\":\"p\"}\n\n"
      "{\"ev\":\"phase_end\",\"run\":1-1}\n",
      events, error));
  EXPECT_EQ(error, "line 3, column 26: expected ',' or '}'");
}

TEST(InspectParseTest, CrlfJournalsParseAndValidate) {
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("crlf", 0xabc);
  journal.subtaskStart("route", "route-0", 1, 0);
  journal.subtaskFinish("route", "route-0", 1, 0, 0.010);
  journal.runEnd("crlf", 0.020);
  const std::string lf = journal.toJsonl();
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::string error;
  EXPECT_TRUE(testing::validateJournalText(crlf, error)) << error;
  std::vector<inspect::Event> lfEvents, crlfEvents;
  ASSERT_TRUE(inspect::parseJournal(lf, lfEvents, error)) << error;
  ASSERT_TRUE(inspect::parseJournal(crlf, crlfEvents, error)) << error;
  ASSERT_EQ(crlfEvents.size(), lfEvents.size());
  for (size_t i = 0; i < lfEvents.size(); ++i) {
    EXPECT_EQ(crlfEvents[i].ev, lfEvents[i].ev) << i;
    EXPECT_EQ(crlfEvents[i].fields.members.size(), lfEvents[i].fields.members.size()) << i;
  }
  EXPECT_EQ(inspect::renderSummary(inspect::aggregate(crlfEvents)),
            inspect::renderSummary(inspect::aggregate(lfEvents)));
}

// --- validation --------------------------------------------------------------

TEST(InspectValidateTest, FlagsUnknownEventsAndMissingFields) {
  std::string error;
  EXPECT_TRUE(testing::validateJournalText(
      "{\"ev\":\"cache_hit\",\"run\":1,\"phase\":\"route\",\"id\":\"route-0\","
      "\"key\":\"cas/r/1\"}\n",
      error));
  EXPECT_FALSE(testing::validateJournalText("\n{\"ev\":\"bogus\",\"run\":1}\n", error));
  EXPECT_EQ(error, "line 2, column 1: unknown event type 'bogus'");
  // Missing required field (`key` on cache_hit).
  EXPECT_FALSE(testing::validateJournalText(
      "{\"ev\":\"cache_hit\",\"run\":1,\"phase\":\"route\",\"id\":\"route-0\"}\n",
      error));
  EXPECT_EQ(error, "line 1, column 1: cache_hit: missing field 'key'");
  // Missing `run` (required on everything but journal_summary).
  EXPECT_FALSE(testing::validateJournalText(
      "{\"ev\":\"phase_begin\",\"phase\":\"route\"}\n", error));
  EXPECT_NE(error.find("run"), std::string::npos) << error;
  EXPECT_TRUE(testing::validateJournalText(
      "{\"ev\":\"journal_summary\",\"events\":0,\"dropped\":0}\n", error))
      << error;
}

// --- aggregation over a real journal ----------------------------------------

// Builds a two-run journal through the production emitters, so aggregation is
// tested against exactly what RunJournal writes.
std::vector<inspect::Event> makeJournalEvents() {
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("cold", 0xabc);
  journal.phaseBegin("route.exec");
  journal.subtaskEnqueue("route", "route-0");
  journal.subtaskStart("route", "route-0", 1, 0);
  journal.subtaskFinish("route", "route-0", 1, 0, 0.010);
  journal.subtaskEnqueue("route", "route-1");
  journal.subtaskStart("route", "route-1", 1, 1);
  journal.subtaskRetry("route", "route-1", 1);
  journal.subtaskStart("route", "route-1", 2, 1);
  journal.subtaskFinish("route", "route-1", 2, 1, 0.040);
  journal.phaseEnd("route.exec", 0.060);
  journal.runEnd("cold", 0.100);
  journal.runBegin("warm", 0xabc);
  journal.impact("scoped", "one device", 1, 1);
  journal.cacheHit("route", "route-0", "cas/r/0");
  journal.cacheMiss("route", "route-1", "cas/r/1");
  journal.cacheBypass("prov_filter_mismatch", "route-1", "cas/r/1");
  journal.cacheEvict("cas/r/stale", 1024);
  journal.runEnd("warm", 0.020);

  std::vector<inspect::Event> events;
  std::string error;
  EXPECT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  return events;
}

TEST(InspectAggregateTest, BuildsPerRunPhaseAndCacheStats) {
  const inspect::JournalStats stats = inspect::aggregate(makeJournalEvents());
  ASSERT_EQ(stats.runs.size(), 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.totalCacheHits, 1u);
  EXPECT_EQ(stats.totalCacheMisses, 1u);
  EXPECT_EQ(stats.totalCacheBypasses, 1u);

  const inspect::RunStats& cold = stats.runs[0];
  EXPECT_EQ(cold.name, "cold");
  EXPECT_NEAR(cold.wallMs, 100.0, 1e-6);
  ASSERT_TRUE(cold.phases.count("route.exec"));
  EXPECT_NEAR(cold.phases.at("route.exec").wallMs, 60.0, 1e-6);
  ASSERT_TRUE(cold.phases.count("route"));
  EXPECT_EQ(cold.phases.at("route").enqueued, 2u);
  EXPECT_EQ(cold.phases.at("route").finished, 2u);
  EXPECT_EQ(cold.phases.at("route").retries, 1u);
  EXPECT_NEAR(cold.phases.at("route").subtaskMsTotal, 50.0, 1e-6);

  const inspect::RunStats& warm = stats.runs[1];
  EXPECT_EQ(warm.name, "warm");
  EXPECT_EQ(warm.impactVerdict, "scoped");
  EXPECT_EQ(warm.cacheBypasses, 1u);
  EXPECT_EQ(warm.cacheEvictions, 1u);
}

TEST(InspectSweepTest, AggregatesAndRendersSweepEvents) {
  // Sweep events built through the production emitters: a 300-scenario plan
  // with pruning/dedupe, two committed verdicts, and the final accounting.
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("fault-sweep", 0xfee1);
  journal.sweepPlan("fault_sweep", 300, 30, 12, 258, "derived");
  journal.sweepVerdict("fault_sweep", "s000000", true, "cas/k/a0", 0);
  journal.sweepVerdict("fault_sweep", "s000001", false, "cas/k/b1", 2);
  journal.sweepResult("fault_sweep", 300, 1, 240, 3);
  journal.runEnd("fault-sweep", 0.5);

  std::string error;
  ASSERT_TRUE(testing::validateJournalText(journal.toJsonl(), error)) << error;
  std::vector<inspect::Event> events;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;

  const inspect::JournalStats stats = inspect::aggregate(events);
  ASSERT_EQ(stats.runs.size(), 1u);
  const inspect::RunStats& run = stats.runs[0];
  EXPECT_TRUE(run.sweepSeen);
  EXPECT_EQ(run.sweepEnumerated, 300.0);
  EXPECT_EQ(run.sweepPruned, 30.0);
  EXPECT_EQ(run.sweepDeduped, 12.0);
  EXPECT_EQ(run.sweepScheduled, 258.0);
  EXPECT_EQ(run.sweepVerdictPass, 1u);
  EXPECT_EQ(run.sweepVerdictFail, 1u);
  EXPECT_EQ(run.sweepChecked, 300.0);
  EXPECT_EQ(run.sweepCounterexamples, 1.0);
  EXPECT_EQ(run.sweepCacheHits, 240.0);
  EXPECT_EQ(run.sweepRetries, 3.0);
  EXPECT_EQ(run.sweepHintSource, "derived");

  const std::string summary = inspect::renderSummary(stats);
  EXPECT_NE(summary.find("sweep: 300 scenarios (30 pruned 10.0%, 12 deduped), "
                         "258 jobs scheduled [hints: derived]"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("sweep verdicts: 1 pass / 1 fail (300 committed, "
                         "1 counterexamples), 240 cached verdicts, 3 retries"),
            std::string::npos)
      << summary;
}

TEST(InspectSweepTest, AcceptsAndCountsCancelledSubtasks) {
  // An early-exit sweep drops the jobs still queued once its counterexample
  // cap fills; each gets a subtask_cancel line, which validate accepts and
  // summary counts per phase.
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("fault-sweep", 0xfee1);
  for (int i = 0; i < 3; ++i) journal.subtaskEnqueue("sweep", "j" + std::to_string(i));
  journal.subtaskStart("sweep", "j0", 1, 0);
  journal.subtaskFinish("sweep", "j0", 1, 0, 0.002);
  journal.subtaskCancel("sweep", "j1", 1);
  journal.subtaskCancel("sweep", "j2", 1);
  journal.runEnd("fault-sweep", 0.01);

  std::string error;
  ASSERT_TRUE(testing::validateJournalText(journal.toJsonl(), error)) << error;
  ASSERT_TRUE(testing::validateJournalText(journal.canonicalJsonl(), error)) << error;
  // The attempt is required, like every other subtask line.
  EXPECT_FALSE(testing::validateJournalText(
      "{\"ev\":\"subtask_cancel\",\"run\":1,\"phase\":\"sweep\",\"id\":\"j1\"}\n",
      error));
  std::vector<inspect::Event> events;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  const inspect::JournalStats stats = inspect::aggregate(events);
  ASSERT_EQ(stats.runs.size(), 1u);
  ASSERT_TRUE(stats.runs[0].phases.count("sweep"));
  const inspect::PhaseStats& phase = stats.runs[0].phases.at("sweep");
  EXPECT_EQ(phase.enqueued, 3u);
  EXPECT_EQ(phase.finished, 1u);
  EXPECT_EQ(phase.cancelled, 2u);
  const std::string summary = inspect::renderSummary(stats);
  EXPECT_NE(summary.find("sweep: 2.00ms busy, 1 subtasks executed, 2 cancelled"),
            std::string::npos)
      << summary;
}

// --- stragglers --------------------------------------------------------------

TEST(InspectStragglerTest, FindsDurationsFarAboveTheMedian) {
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("run", 1);
  for (int i = 0; i < 7; ++i)
    journal.subtaskFinish("route", "route-" + std::to_string(i), 1, i % 2, 0.010);
  journal.subtaskFinish("route", "route-slow", 1, 1, 0.100);
  // A phase with < 4 finishes is skipped (no meaningful median).
  journal.subtaskFinish("traffic", "traffic-slow", 1, 0, 5.0);
  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error));

  const auto stragglers = inspect::findStragglers(events, 3.0);
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0].id, "route-slow");
  EXPECT_EQ(stragglers[0].phase, "route");
  EXPECT_NEAR(stragglers[0].ms, 100.0, 1e-6);
  EXPECT_NEAR(stragglers[0].medianMs, 10.0, 1e-6);
  EXPECT_TRUE(inspect::findStragglers(events, 20.0).empty());
}

// --- worker utilization ------------------------------------------------------

TEST(InspectWorkerTest, AccumulatesBusyTimePerWorker) {
  obs::RunJournal journal({.enabled = true});
  journal.runBegin("run", 1);
  journal.subtaskStart("route", "route-0", 1, 0);
  journal.subtaskFinish("route", "route-0", 1, 0, 0.030);
  journal.subtaskStart("route", "route-1", 1, 1);
  journal.subtaskFinish("route", "route-1", 1, 1, 0.010);
  journal.subtaskStart("route", "route-2", 1, 1);
  journal.subtaskFinish("route", "route-2", 1, 1, 0.020);
  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error));

  const auto workers = inspect::workerUtilization(events);
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].worker, 0);
  EXPECT_EQ(workers[0].subtasks, 1u);
  EXPECT_NEAR(workers[0].busyMs, 30.0, 1e-6);
  EXPECT_EQ(workers[1].worker, 1);
  EXPECT_EQ(workers[1].subtasks, 2u);
  EXPECT_NEAR(workers[1].busyMs, 30.0, 1e-6);
}

// --- diff --------------------------------------------------------------------

inspect::JournalStats statsForRun(const char* name, uint64_t fp, double runSeconds,
                                  double execSeconds, size_t hits, size_t misses) {
  obs::RunJournal journal({.enabled = true});
  journal.runBegin(name, fp);
  journal.phaseBegin("route.exec");
  for (size_t i = 0; i < hits; ++i)
    journal.cacheHit("route", "route-" + std::to_string(i), "cas/r/h");
  for (size_t i = 0; i < misses; ++i) {
    const std::string id = "route-" + std::to_string(hits + i);
    journal.cacheMiss("route", id, "cas/r/m");
    journal.subtaskFinish("route", id, 1, 0, execSeconds / misses);
  }
  journal.phaseEnd("route.exec", execSeconds);
  journal.runEnd(name, runSeconds);
  std::vector<inspect::Event> events;
  std::string error;
  EXPECT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  return inspect::aggregate(events);
}

TEST(InspectDiffTest, AttributesWarmSavingsToCacheHits) {
  const auto cold = statsForRun("plan", 0x77, 10.0, 8.0, 0, 16);
  const auto warm = statsForRun("plan", 0x77, 2.0, 1.0, 14, 2);
  const std::string diff = inspect::renderDiff(cold, warm);
  EXPECT_NE(diff.find("route.exec"), std::string::npos) << diff;
  EXPECT_NE(diff.find("cache hits 0 -> 14"), std::string::npos) << diff;
  EXPECT_NE(diff.find("executed 16 -> 2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("20.0% of cold wall time"), std::string::npos) << diff;
  EXPECT_EQ(diff.find("WARNING"), std::string::npos) << diff;
}

TEST(InspectDiffTest, WarnsWhenOptionsFingerprintsDiffer) {
  const auto cold = statsForRun("plan", 0x1, 10.0, 8.0, 0, 4);
  const auto warm = statsForRun("plan", 0x2, 2.0, 1.0, 3, 1);
  const std::string diff = inspect::renderDiff(cold, warm);
  EXPECT_NE(diff.find("WARNING"), std::string::npos) << diff;
}

}  // namespace
}  // namespace hoyan
