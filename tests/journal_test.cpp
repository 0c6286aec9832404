// Tests for the run flight recorder (src/obs/journal.h): schema validity of
// every event type against the hoyan_inspect validator, a golden pin of the
// wire format, canonical-export byte-determinism across worker counts,
// bounded-buffer drop accounting, and the disabled-mode zero-allocation
// guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "alloc_counter.h"
#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "inspect.h"
#include "inspect_testing.h"
#include "obs/journal.h"
#include "obs/telemetry.h"

namespace hoyan {
namespace {

// Emits one event of every type (the full control-flow vocabulary).
void emitAllEventTypes(obs::RunJournal& journal) {
  journal.runBegin("plan-1", 0xdeadbeefcafef00dULL);
  journal.phaseBegin("route.split");
  journal.impact("scoped", "prefix-scoped delta on 1 device(s)", 1, 2);
  journal.cacheBypass("prov_filter_mismatch", "route-3", "cas/r/abc");
  journal.cacheHit("route", "route-0", "cas/r/0123");
  journal.cacheMiss("route", "route-1", "cas/r/4567");
  journal.cacheEvict("cas/r/old", 4096);
  journal.subtaskEnqueue("route", "route-1");
  journal.subtaskStart("route", "route-1", 1, 0);
  journal.subtaskRetry("route", "route-1", 1, 0);
  journal.subtaskExhaust("route", "route-2", 3, 1);
  journal.subtaskCancel("route", "route-3", 1);
  journal.subtaskFinish("route", "route-1", 2, 0, 0.0123);
  journal.sweepPlan("fault_sweep", 300, 20, 12, 268);
  journal.sweepVerdict("fault_sweep", "s000007", false, "cas/k/0123", 2);
  journal.sweepResult("fault_sweep", 300, 1, 240, 0);
  journal.policyKernel("route", 9000, 120, 4400, 16);
  journal.phaseEnd("route.split", 0.5);
  journal.runEnd("plan-1", 1.25);
}

TEST(JournalTest, EveryEventTypeValidatesAgainstTheInspectSchema) {
  obs::RunJournal journal({.enabled = true});
  emitAllEventTypes(journal);
  EXPECT_EQ(journal.eventCount(), 19u);

  std::string error;
  EXPECT_TRUE(testing::validateJournalText(journal.toJsonl(), error)) << error;
  // The canonical form (volatile fields stripped, no summary trailer) must
  // satisfy the same schema: nothing required is volatile.
  EXPECT_TRUE(testing::validateJournalText(journal.canonicalJsonl(), error)) << error;
}

// Replaces every `"t_ms":<number>` value with `#`, the one field of
// emitAllEventTypes' operational lines that varies between runs.
std::string maskTimes(std::string jsonl) {
  const std::string tag = "\"t_ms\":";
  for (size_t at = jsonl.find(tag); at != std::string::npos; at = jsonl.find(tag, at)) {
    at += tag.size();
    jsonl.replace(at, jsonl.find_first_not_of("0123456789.", at) - at, "#");
  }
  return jsonl;
}

// The wire format, pinned byte for byte. The writer and the validator read
// one event table, so validation alone cannot see a renamed field, a moved
// count slot or a changed field order; this golden can.
TEST(JournalTest, WireFormatMatchesTheGolden) {
  obs::RunJournal journal({.enabled = true});
  emitAllEventTypes(journal);
  EXPECT_EQ(journal.canonicalJsonl(), R"golden({"ev":"cache_evict","run":1,"key":"cas/r/old","bytes":4096}
{"ev":"impact","run":1,"key":"prefix-scoped delta on 1 device(s)","note":"scoped","dirty_devices":1,"dirty_ranges":2}
{"ev":"run_begin","run":1,"id":"plan-1","fp":"deadbeefcafef00d"}
{"ev":"run_end","run":1,"id":"plan-1"}
{"ev":"cache_bypass","run":1,"id":"route-3","key":"cas/r/abc","note":"prov_filter_mismatch"}
{"ev":"sweep_plan","run":1,"phase":"fault_sweep","note":"none","enumerated":300,"pruned":20,"deduped":12,"scheduled":268}
{"ev":"sweep_result","run":1,"phase":"fault_sweep","checked":300,"counterexamples":1,"cache_hits":240,"retries":0}
{"ev":"sweep_verdict","run":1,"phase":"fault_sweep","id":"s000007","key":"cas/k/0123","note":"fail","shared":2}
{"ev":"policy_kernel","run":1,"phase":"route","memo_hits":9000,"memo_misses":120,"regex_hits":4400,"regex_misses":16}
{"ev":"cache_hit","run":1,"phase":"route","id":"route-0","key":"cas/r/0123"}
{"ev":"subtask_enqueue","run":1,"phase":"route","id":"route-1"}
{"ev":"subtask_start","run":1,"phase":"route","id":"route-1","attempt":1}
{"ev":"subtask_retry","run":1,"phase":"route","id":"route-1","attempt":1}
{"ev":"subtask_finish","run":1,"phase":"route","id":"route-1","attempt":2}
{"ev":"cache_miss","run":1,"phase":"route","id":"route-1","key":"cas/r/4567"}
{"ev":"subtask_exhaust","run":1,"phase":"route","id":"route-2","attempt":3}
{"ev":"subtask_cancel","run":1,"phase":"route","id":"route-3","attempt":1}
{"ev":"phase_begin","run":1,"phase":"route.split"}
{"ev":"phase_end","run":1,"phase":"route.split"}
)golden");
  EXPECT_EQ(maskTimes(journal.toJsonl()), R"golden({"ev":"run_begin","run":1,"seq":0,"t_ms":#,"id":"plan-1","fp":"deadbeefcafef00d"}
{"ev":"phase_begin","run":1,"seq":1,"t_ms":#,"phase":"route.split"}
{"ev":"impact","run":1,"seq":2,"t_ms":#,"key":"prefix-scoped delta on 1 device(s)","note":"scoped","dirty_devices":1,"dirty_ranges":2}
{"ev":"cache_bypass","run":1,"seq":3,"t_ms":#,"id":"route-3","key":"cas/r/abc","note":"prov_filter_mismatch"}
{"ev":"cache_hit","run":1,"seq":4,"t_ms":#,"phase":"route","id":"route-0","key":"cas/r/0123"}
{"ev":"cache_miss","run":1,"seq":5,"t_ms":#,"phase":"route","id":"route-1","key":"cas/r/4567"}
{"ev":"cache_evict","run":1,"seq":6,"t_ms":#,"key":"cas/r/old","bytes":4096}
{"ev":"subtask_enqueue","run":1,"seq":7,"t_ms":#,"phase":"route","id":"route-1"}
{"ev":"subtask_start","run":1,"seq":8,"t_ms":#,"phase":"route","id":"route-1","attempt":1,"worker":0}
{"ev":"subtask_retry","run":1,"seq":9,"t_ms":#,"phase":"route","id":"route-1","attempt":1,"worker":0}
{"ev":"subtask_exhaust","run":1,"seq":10,"t_ms":#,"phase":"route","id":"route-2","attempt":3,"worker":1}
{"ev":"subtask_cancel","run":1,"seq":11,"t_ms":#,"phase":"route","id":"route-3","attempt":1}
{"ev":"subtask_finish","run":1,"seq":12,"t_ms":#,"phase":"route","id":"route-1","attempt":2,"worker":0,"ms":12.300}
{"ev":"sweep_plan","run":1,"seq":13,"t_ms":#,"phase":"fault_sweep","note":"none","enumerated":300,"pruned":20,"deduped":12,"scheduled":268}
{"ev":"sweep_verdict","run":1,"seq":14,"t_ms":#,"phase":"fault_sweep","id":"s000007","key":"cas/k/0123","note":"fail","shared":2}
{"ev":"sweep_result","run":1,"seq":15,"t_ms":#,"phase":"fault_sweep","checked":300,"counterexamples":1,"cache_hits":240,"retries":0}
{"ev":"policy_kernel","run":1,"seq":16,"t_ms":#,"phase":"route","memo_hits":9000,"memo_misses":120,"regex_hits":4400,"regex_misses":16}
{"ev":"phase_end","run":1,"seq":17,"t_ms":#,"phase":"route.split","ms":500.000}
{"ev":"run_end","run":1,"seq":18,"t_ms":#,"id":"plan-1","ms":1250.000}
{"ev":"journal_summary","events":19,"dropped":0}
)golden");
}

TEST(JournalTest, SweepPlanCarriesHintSourceNote) {
  obs::RunJournal journal({.enabled = true});
  journal.sweepPlan("fault_sweep", 10, 2, 1, 7, "derived");
  journal.sweepPlan("fault_sweep", 10, 0, 0, 10);  // Default source: "none".
  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].str("note"), "derived");
  EXPECT_EQ(events[1].str("note"), "none");
  EXPECT_TRUE(testing::validateJournalText(journal.toJsonl(), error)) << error;
  // The hint source is semantic, not volatile: the canonical export keeps it.
  std::vector<inspect::Event> canonical;
  ASSERT_TRUE(inspect::parseJournal(journal.canonicalJsonl(), canonical, error))
      << error;
  ASSERT_GE(canonical.size(), 2u);
  EXPECT_EQ(canonical[0].str("note"), "derived");
}

TEST(JournalTest, OperationalExportCarriesOrderAndSummary) {
  obs::RunJournal journal({.enabled = true});
  emitAllEventTypes(journal);
  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  ASSERT_EQ(events.size(), 20u);  // 19 events + the summary line.
  // seq is record order.
  for (size_t i = 0; i < 19; ++i)
    EXPECT_EQ(events[i].num("seq").value_or(-1), static_cast<double>(i)) << i;
  EXPECT_EQ(events.back().ev, "journal_summary");
  EXPECT_EQ(events.back().num("events").value_or(-1), 19.0);
  EXPECT_EQ(events.back().num("dropped").value_or(-1), 0.0);
  // Volatile attribution is present operationally...
  EXPECT_TRUE(events[8].field("worker"));   // subtask_start
  EXPECT_TRUE(events[9].field("worker"));   // subtask_retry
  EXPECT_TRUE(events[10].field("worker"));  // subtask_exhaust
  // ...and stripped canonically.
  std::vector<inspect::Event> canonical;
  ASSERT_TRUE(inspect::parseJournal(journal.canonicalJsonl(), canonical, error));
  for (const inspect::Event& event : canonical) {
    EXPECT_FALSE(event.field("seq")) << event.ev;
    EXPECT_FALSE(event.field("t_ms")) << event.ev;
    EXPECT_FALSE(event.field("worker")) << event.ev;
  }
}

TEST(JournalTest, BoundedBufferCountsDrops) {
  obs::RunJournal journal({.enabled = true, .capacity = 4});
  for (int i = 0; i < 10; ++i)
    journal.cacheHit("route", "route-" + std::to_string(i), "cas/r/x");
  EXPECT_EQ(journal.eventCount(), 4u);
  EXPECT_EQ(journal.droppedEvents(), 6u);

  std::vector<inspect::Event> events;
  std::string error;
  ASSERT_TRUE(inspect::parseJournal(journal.toJsonl(), events, error)) << error;
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().ev, "journal_summary");
  EXPECT_EQ(events.back().num("dropped").value_or(-1), 6.0);
  // The retained prefix is the first-recorded events, intact.
  EXPECT_EQ(events[0].str("id"), "route-0");
  EXPECT_EQ(events[3].str("id"), "route-3");
}

TEST(JournalTest, ClearResetsEventsAndDrops) {
  obs::RunJournal journal({.enabled = true, .capacity = 2});
  for (int i = 0; i < 5; ++i) journal.phaseBegin("p");
  ASSERT_GT(journal.droppedEvents(), 0u);
  journal.clear();
  EXPECT_EQ(journal.eventCount(), 0u);
  EXPECT_EQ(journal.droppedEvents(), 0u);
}

TEST(JournalTest, DisabledEmittersDoNotAllocate) {
  obs::RunJournal journal;  // Disabled by default.
  ASSERT_FALSE(journal.enabled());
  // Pre-built arguments: the emitters take string_views, so a disabled
  // journal must be a branch-and-return on every path.
  const std::string phase = "route";
  const std::string id = "route-7";
  const std::string key = "cas/r/0123";
  const size_t before = testing::allocationCount();
  journal.runBegin(phase, 1);
  journal.phaseBegin(phase);
  journal.impact(phase, id, 1, 2);
  journal.cacheBypass(phase, id, key);
  journal.cacheHit(phase, id, key);
  journal.cacheMiss(phase, id, key);
  journal.cacheEvict(key, 64);
  journal.subtaskEnqueue(phase, id);
  journal.subtaskStart(phase, id, 1, 0);
  journal.subtaskRetry(phase, id, 1);
  journal.subtaskExhaust(phase, id, 3);
  journal.subtaskFinish(phase, id, 1, 0, 0.5);
  journal.sweepPlan(phase, 1, 2, 3, 4);
  journal.sweepVerdict(phase, id, true, key, 1);
  journal.sweepResult(phase, 1, 2, 3, 4);
  journal.policyKernel(phase, 1, 2, 3, 4);
  journal.phaseEnd(phase, 0.5);
  journal.runEnd(phase, 1.0);
  EXPECT_EQ(testing::allocationCount(), before);
  EXPECT_EQ(journal.eventCount(), 0u);
}

// --- determinism across worker counts ---------------------------------------

class JournalDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 2;
    wan_ = generateWan(spec);
    WorkloadSpec workload;
    workload.prefixesPerIsp = 8;
    workload.prefixesPerDc = 4;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    flows_ = generateFlows(wan_, workload, 200);
    intents_.rclIntents = {"not prefix = 100.0.8.0/24 => PRE = POST"};
    intents_.maxLinkUtilization = 2.0;
  }

  // One full pipeline (preprocess + one change verification) recorded into a
  // fresh journal; returns the canonical export. With fault injection on,
  // every subtask gets enough attempts that preprocess still succeeds.
  std::string canonicalRun(size_t workers, double failureProbability = 0) {
    obs::TelemetryOptions telemetryOptions;
    telemetryOptions.journal = true;
    obs::Telemetry telemetry(telemetryOptions);
    Hoyan hoyan(wan_.topology, wan_.configs);
    hoyan.setInputRoutes(inputs_);
    hoyan.setInputFlows(flows_);
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 8;
    options.trafficSubtasks = 4;
    if (failureProbability > 0) {
      options.workerFailureProbability = failureProbability;
      options.failureSeed = 7;
      options.maxAttempts = 10;
    }
    hoyan.setSimulationOptions(options);
    hoyan.setTelemetry(&telemetry);
    hoyan.enableIncremental();
    hoyan.preprocess();
    ChangePlan plan;
    plan.name = "scoped";
    plan.commands =
        "device BR-0-0\n"
        "ip-prefix LP-J index 10 permit 100.0.8.0/24\n"
        "route-policy ISP-IN-0 node 800 permit\n"
        " match ip-prefix LP-J\n"
        " apply local-pref 150\n";
    hoyan.verifyChange(plan, intents_);
    std::string error;
    EXPECT_TRUE(testing::validateJournalText(telemetry.journal().toJsonl(), error))
        << error;
    return telemetry.journal().canonicalJsonl();
  }

  GeneratedWan wan_;
  std::vector<InputRoute> inputs_;
  std::vector<Flow> flows_;
  IntentSet intents_;
};

TEST_F(JournalDeterminismTest, CanonicalExportIsByteIdenticalAcrossWorkerCounts) {
  const std::string one = canonicalRun(1);
  const std::string four = canonicalRun(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

TEST_F(JournalDeterminismTest,
       CanonicalExportWithRetriesIsByteIdenticalAcrossWorkerCounts) {
  // Crashes are drawn per (subtask, attempt, seed), so the retry events the
  // executor emits are as deterministic as the rest of the journal.
  const std::string one = canonicalRun(1, 0.3);
  EXPECT_NE(one.find("\"ev\":\"subtask_retry\""), std::string::npos);
  for (const size_t workers : {3u, 6u})
    EXPECT_EQ(one, canonicalRun(workers, 0.3)) << "workers=" << workers;
}

TEST_F(JournalDeterminismTest, ExhaustEventsAreByteIdenticalAcrossWorkerCounts) {
  // A route + traffic pass in which a traffic subtask runs out of attempts
  // (crash draws are per job id, attempt and seed; seed 28 spares every
  // route job, which the traffic phase needs): the exhaust events are
  // deterministic too.
  const NetworkModel model = wan_.buildModel();
  const auto canonical = [&](size_t workers) {
    obs::TelemetryOptions telemetryOptions;
    telemetryOptions.journal = true;
    obs::Telemetry telemetry(telemetryOptions);
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 8;
    options.trafficSubtasks = 4;
    options.workerFailureProbability = 0.5;
    options.failureSeed = 28;
    options.maxAttempts = 2;
    options.telemetry = &telemetry;
    DistributedSimulator sim(model, options);
    EXPECT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
    const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
    EXPECT_FALSE(traffic.failedSubtasks.empty());
    std::string error;
    EXPECT_TRUE(testing::validateJournalText(telemetry.journal().toJsonl(), error))
        << error;
    return telemetry.journal().canonicalJsonl();
  };
  const std::string one = canonical(1);
  EXPECT_NE(one.find("\"ev\":\"subtask_retry\""), std::string::npos);
  EXPECT_NE(one.find("\"ev\":\"subtask_exhaust\""), std::string::npos);
  for (const size_t workers : {3u, 6u})
    EXPECT_EQ(one, canonical(workers)) << "workers=" << workers;
}

}  // namespace
}  // namespace hoyan
