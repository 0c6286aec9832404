// Tests for the run flight recorder (src/obs/journal.h): schema validity of
// every event type against the hoyan_inspect validator, canonical-export
// byte-determinism across worker counts, bounded-buffer drop accounting, and
// the disabled-mode zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "inspect.h"
#include "obs/journal.h"
#include "obs/telemetry.h"

// Global allocation counter for the zero-allocation test. Counting only —
// behavior is unchanged, so the rest of the suite runs normally.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  journal.ribAssembly("assembled", 10, 2, 9000, 48);
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
  EXPECT_EQ(journal.eventCount(), 20u);

  std::string error;
  EXPECT_TRUE(inspect::validateJournal(journal.toJsonl(), error)) << error;
  // The canonical form (volatile fields stripped, no summary trailer) must
  // satisfy the same schema: nothing required is volatile.
  EXPECT_TRUE(inspect::validateJournal(journal.canonicalJsonl(), error)) << error;
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
  EXPECT_TRUE(inspect::validateJournal(journal.toJsonl(), error)) << error;
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
  ASSERT_EQ(events.size(), 21u);  // 20 events + the summary line.
  // seq is record order.
  for (size_t i = 0; i < 20; ++i)
    EXPECT_EQ(events[i].num("seq").value_or(-1), static_cast<double>(i)) << i;
  EXPECT_EQ(events.back().ev, "journal_summary");
  EXPECT_EQ(events.back().num("events").value_or(-1), 20.0);
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
  const size_t before = g_allocations.load();
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
  journal.ribAssembly(phase, 1, 2, 3, 4);
  journal.sweepPlan(phase, 1, 2, 3, 4);
  journal.sweepVerdict(phase, id, true, key, 1);
  journal.sweepResult(phase, 1, 2, 3, 4);
  journal.policyKernel(phase, 1, 2, 3, 4);
  journal.phaseEnd(phase, 0.5);
  journal.runEnd(phase, 1.0);
  EXPECT_EQ(g_allocations.load(), before);
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
    EXPECT_TRUE(inspect::validateJournal(telemetry.journal().toJsonl(), error))
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
  // A route + traffic pass in which some subtasks run out of attempts: the
  // exhaust events, and the traffic phase over the surviving route files,
  // are deterministic too.
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
    options.failureSeed = 3;
    options.maxAttempts = 2;
    options.telemetry = &telemetry;
    DistributedSimulator sim(model, options);
    const DistRouteResult route = sim.runRouteSimulation(inputs_);
    const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
    EXPECT_FALSE(route.failedSubtasks.empty() && traffic.failedSubtasks.empty());
    std::string error;
    EXPECT_TRUE(inspect::validateJournal(telemetry.journal().toJsonl(), error))
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
