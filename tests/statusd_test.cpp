// Tests for the live run-status subsystem: RunRegistry semantics as the
// journal feeds it, the /runs JSON schemas, StatusServer routing
// (socket-free via handle(), then over a real loopback socket through the
// hoyan_top client), the concurrent-scrape guarantee — 4 threads hammering
// /metrics and /runs/current over HTTP during a distributed verification
// run — and journal/registry agreement on crashing, cached and early-exit
// runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "obs/provenance.h"
#include "obs/run_registry.h"
#include "obs/statusd.h"
#include "obs/telemetry.h"
#include "json_testing.h"
#include "status_client.h"
#include "sweep/sweep.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using obs::RunRegistry;
using obs::RunSnapshot;
using obs::StatusServer;
using obs::JsonValue;
using obs::StatusServerOptions;
using statusclient::HttpResult;
using testing::buildSmallWan;
using testing::ispRoute;
using testing::member;
using testing::parseJsonOrFail;
using testing::SmallWan;

// --- RunRegistry ------------------------------------------------------------

// A registry fed the way the pipeline feeds it: through the journal of the
// context it is attached to (the journal itself off).
struct FedRegistry {
  explicit FedRegistry(size_t maxWorkers = 64, size_t keepRuns = 256)
      : registry(maxWorkers, keepRuns) {
    context.attach(&registry);
  }
  obs::RunJournal& journal() { return context.journal(); }
  // Opens a run through the journal; returns its registry id.
  uint64_t begin(const std::string& name) {
    journal().runBegin(name, 0);
    return registry.currentRunId();
  }

  RunRegistry registry;
  obs::Telemetry context;
};

TEST(RunRegistryTest, LifecycleCountsAndStates) {
  FedRegistry fed;
  RunRegistry& registry = fed.registry;
  obs::RunJournal& journal = fed.journal();
  EXPECT_EQ(registry.currentRunId(), 0u);
  EXPECT_FALSE(registry.snapshot(1).has_value());

  const uint64_t id = fed.begin("verify-1");
  EXPECT_NE(id, 0u);
  journal.phaseBegin("model_build");
  for (int i = 0; i < 3; ++i) journal.subtaskEnqueue("route", "route:" + std::to_string(i));
  journal.subtaskStart("route", "route:0", 1, 0);
  journal.subtaskFinish("route", "route:0", 1, 0, 0.01);
  journal.subtaskStart("route", "route:1", 1, 1);

  auto live = registry.snapshot(id);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->name, "verify-1");
  EXPECT_EQ(live->state, "running");
  EXPECT_EQ(live->phase, "model_build");
  EXPECT_EQ(live->pending, 1u);
  EXPECT_EQ(live->running, 1u);
  EXPECT_EQ(live->succeeded, 1u);
  ASSERT_EQ(live->active.size(), 1u);
  EXPECT_EQ(live->active[0].id, "route:1");
  EXPECT_EQ(live->active[0].worker, 1);

  journal.subtaskFinish("route", "route:1", 1, 1, 0.01);
  journal.subtaskStart("route", "route:2", 1, 2);
  journal.subtaskFinish("route", "route:2", 1, 2, 0.01);
  journal.runEnd("verify-1", 2.5);
  auto done = registry.snapshot(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, "succeeded");
  EXPECT_DOUBLE_EQ(done->elapsedSeconds, 2.5);  // Frozen, not wall clock.
  EXPECT_EQ(done->succeeded, 3u);
  EXPECT_EQ(done->pending, 0u);
  EXPECT_EQ(done->running, 0u);
  EXPECT_TRUE(done->active.empty());
}

TEST(RunRegistryTest, ExhaustedSubtaskFailsTheRun) {
  FedRegistry fed;
  obs::RunJournal& journal = fed.journal();
  const uint64_t id = fed.begin("crashy");
  journal.subtaskEnqueue("route", "route:0");
  journal.subtaskStart("route", "route:0", 1, 0);
  journal.subtaskRetry("route", "route:0", 1, 0);
  journal.subtaskStart("route", "route:0", 2, 0);
  // A crashed attempt frees its worker's slot: the journal line names it.
  ASSERT_EQ(fed.registry.snapshot(id)->active.size(), 1u);
  journal.subtaskExhaust("route", "route:0", 2, 0);
  EXPECT_TRUE(fed.registry.snapshot(id)->active.empty());
  journal.runEnd("crashy", 1.0);
  auto snapshot = fed.registry.snapshot(id);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->state, "failed");
  EXPECT_EQ(snapshot->retries, 1u);
  EXPECT_EQ(snapshot->exhausted, 1u);
  EXPECT_EQ(snapshot->failed, 1u);
  EXPECT_EQ(snapshot->succeeded, 0u);
  EXPECT_EQ(snapshot->pending, 0u);
  EXPECT_EQ(snapshot->running, 0u);
}

TEST(RunRegistryTest, CachedSubtasksCountAsSucceededWithoutQueueing) {
  FedRegistry fed;
  obs::RunJournal& journal = fed.journal();
  const uint64_t id = fed.begin("warm");
  for (int i = 0; i < 4; ++i)
    journal.cacheHit("route", "route-" + std::to_string(i), "cas/r/0");
  journal.cacheMiss("route", "route-4", "cas/r/1");
  journal.cacheBypass("prov_filter_mismatch", "route-5", "cas/r/2");
  auto snapshot = fed.registry.snapshot(id);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->succeeded, 4u);
  EXPECT_EQ(snapshot->pending, 0u);
  EXPECT_EQ(snapshot->cacheHits, 4u);
  EXPECT_EQ(snapshot->cacheMisses, 1u);
  EXPECT_EQ(snapshot->cacheBypasses, 1u);
}

TEST(RunRegistryTest, StragglerFlaggedAgainstFinishedMean) {
  FedRegistry fed;
  obs::RunJournal& journal = fed.journal();
  const uint64_t id = fed.begin("straggle");
  for (int i = 0; i < 10; ++i) journal.subtaskEnqueue("route", "route:" + std::to_string(i));
  // Not enough finished samples yet: nothing is flagged no matter how long
  // it has been running.
  journal.subtaskStart("route", "slow", 1, 1);
  auto early = fed.registry.snapshot(id);
  ASSERT_EQ(early->active.size(), 1u);
  EXPECT_FALSE(early->active[0].straggler);
  // 8 fast finishes set the baseline; the floor is 0.05s, so after ~80ms the
  // still-running subtask crosses it.
  for (int i = 0; i < 8; ++i) {
    const std::string fast = "fast:" + std::to_string(i);
    journal.subtaskStart("route", fast, 1, 0);
    journal.subtaskFinish("route", fast, 1, 0, 0.001);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto late = fed.registry.snapshot(id);
  ASSERT_EQ(late->active.size(), 1u);
  EXPECT_TRUE(late->active[0].straggler);
  EXPECT_GE(late->active[0].seconds, 0.05);
}

TEST(RunRegistryTest, WorkerIdsBeyondTableAreCountedNotAttributed) {
  FedRegistry fed(/*maxWorkers=*/2);
  obs::RunJournal& journal = fed.journal();
  const uint64_t id = fed.begin("wide");
  journal.subtaskEnqueue("route", "in-table");
  journal.subtaskEnqueue("route", "off-table");
  journal.subtaskStart("route", "in-table", 1, 1);
  journal.subtaskStart("route", "off-table", 1, 7);
  auto snapshot = fed.registry.snapshot(id);
  EXPECT_EQ(snapshot->running, 2u);
  ASSERT_EQ(snapshot->active.size(), 1u);
  EXPECT_EQ(snapshot->active[0].id, "in-table");
  journal.subtaskFinish("route", "off-table", 1, 7, 0.01);
  EXPECT_EQ(fed.registry.snapshot(id)->succeeded, 1u);
}

TEST(RunRegistryTest, ListEvictsOldestFinishedRuns) {
  FedRegistry fed(/*maxWorkers=*/4, /*keepRuns=*/2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const std::string name = "run-" + std::to_string(i);
    ids.push_back(fed.begin(name));
    fed.journal().runEnd(name, 0.1);
  }
  const auto list = fed.registry.list();
  ASSERT_EQ(list.size(), 2u);
  // Newest survive; list is oldest-first.
  EXPECT_EQ(list[0].id, ids[2]);
  EXPECT_EQ(list[1].id, ids[3]);
  EXPECT_FALSE(fed.registry.snapshot(ids[0]).has_value());
  ASSERT_TRUE(fed.registry.snapshot(ids[3]).has_value());
}

TEST(RunRegistryTest, ImpactLineRendersTheImpactEvent) {
  FedRegistry fed;
  const uint64_t id = fed.begin("scoped");
  fed.journal().impact("scoped", "prefix-scoped delta on 1 device(s)", 1, 2);
  EXPECT_EQ(fed.registry.snapshot(id)->impact,
            "scoped (prefix-scoped delta on 1 device(s)): 1 dirty device(s), "
            "2 dirty range(s)");
}

TEST(RunRegistryTest, FedWhetherTheJournalIsOffOnOrFull) {
  // The journal hands every event to the registry before deciding whether
  // to record it, so a full journal loses lines, never registry updates.
  const auto settle = [](obs::TelemetryOptions options) {
    RunRegistry registry;
    obs::Telemetry context(options);
    context.attach(&registry);
    obs::RunJournal& journal = context.journal();
    journal.runBegin("run", 0);
    journal.phaseBegin("route.exec");
    for (int i = 0; i < 6; ++i) {
      const std::string id = "route-" + std::to_string(i);
      journal.subtaskEnqueue("route", id);
      journal.subtaskStart("route", id, 1, i % 2);
      if (i == 5) {
        journal.subtaskExhaust("route", id, 1, 1);
      } else {
        journal.subtaskFinish("route", id, 1, i % 2, 0.01);
      }
    }
    journal.cacheHit("route", "route-6", "cas/r/6");
    journal.runEnd("run", 1.0);
    RunSnapshot snapshot = *registry.snapshot(registry.currentRunId());
    snapshot.elapsedSeconds = 0;
    return runSnapshotToJson(snapshot);
  };
  const std::string off = settle({});
  EXPECT_EQ(settle({.journal = true}), off);
  EXPECT_EQ(settle({.journal = true, .journalCapacity = 2}), off);
  const JsonValue root = parseJsonOrFail(off);
  EXPECT_EQ(root.str("state"), "failed");
  EXPECT_EQ(root.str("phase"), "route.exec");
  EXPECT_EQ(member(root, "subtasks").num("succeeded"), 6);
  EXPECT_EQ(member(root, "subtasks").num("failed"), 1);
}

TEST(RunRegistryTest, ContextGlobalRoundTrips) {
  // The one process global is the context: a registry attached to it is
  // what entry points given no context feed, and a default server serves.
  ASSERT_EQ(obs::Telemetry::global(), nullptr);
  EXPECT_EQ(&obs::Telemetry::resolve(nullptr), &obs::Telemetry::disabled());
  RunRegistry registry;
  obs::Telemetry context;
  context.attach(&registry);
  obs::Telemetry::setGlobal(&context);
  EXPECT_EQ(obs::Telemetry::global(), &context);
  EXPECT_EQ(obs::Telemetry::resolve(nullptr).runs(), &registry);
  obs::Telemetry::resolve(nullptr).journal().runBegin("global-run", 0);
  StatusServer server;
  const auto current = server.handle("GET", "/runs/current");
  obs::Telemetry::setGlobal(nullptr);
  EXPECT_EQ(obs::Telemetry::global(), nullptr);
  EXPECT_EQ(&obs::Telemetry::resolve(nullptr), &obs::Telemetry::disabled());
  EXPECT_EQ(current.status, 200);
  const JsonValue root = parseJsonOrFail(current.body);
  EXPECT_EQ(root.str("name"), "global-run");
}

// --- JSON schemas -----------------------------------------------------------

TEST(RunJsonTest, SnapshotSchemaRoundTripsThroughClientParser) {
  RunSnapshot snapshot;
  snapshot.id = 7;
  snapshot.name = "verify \"q1\"";
  snapshot.state = "running";
  snapshot.phase = "route.exec";
  snapshot.impact = "3 devices, 2 sessions";
  snapshot.elapsedSeconds = 1.25;
  snapshot.version = 5;
  snapshot.pending = 2;
  snapshot.running = 1;
  snapshot.succeeded = 10;
  snapshot.failed = 1;
  snapshot.retries = 3;
  snapshot.exhausted = 1;
  snapshot.cacheHits = 6;
  snapshot.cacheMisses = 2;
  snapshot.cacheBypasses = 1;
  snapshot.active.push_back({"route:9", 3, 0.5, true});

  const JsonValue root = parseJsonOrFail(obs::runSnapshotToJson(snapshot));
  EXPECT_EQ(root.num("id"), 7);
  EXPECT_EQ(root.str("name"), "verify \"q1\"");
  EXPECT_EQ(root.str("state"), "running");
  EXPECT_EQ(root.str("phase"), "route.exec");
  EXPECT_EQ(root.str("impact"), "3 devices, 2 sessions");
  EXPECT_DOUBLE_EQ(root.num("elapsed_seconds"), 1.25);
  const JsonValue* subtasks = root.find("subtasks");
  ASSERT_NE(subtasks, nullptr);
  EXPECT_EQ(subtasks->num("pending"), 2);
  EXPECT_EQ(subtasks->num("succeeded"), 10);
  EXPECT_EQ(subtasks->num("retries"), 3);
  EXPECT_EQ(subtasks->num("exhausted"), 1);
  const JsonValue* cache = root.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->num("hits"), 6);
  EXPECT_DOUBLE_EQ(cache->num("hit_rate"), 0.75);  // 6 / (6 + 2).
  const JsonValue* active = root.find("active");
  ASSERT_NE(active, nullptr);
  ASSERT_EQ(active->items.size(), 1u);
  EXPECT_EQ(active->items[0].str("id"), "route:9");
  EXPECT_EQ(active->items[0].num("worker"), 3);
  const JsonValue* straggler = active->items[0].find("straggler");
  ASSERT_NE(straggler, nullptr);
  EXPECT_TRUE(straggler->boolean);
}

TEST(RunJsonTest, SnapshotOmitsEmptyImpactAndZeroHitRate) {
  RunSnapshot snapshot;
  snapshot.id = 1;
  snapshot.state = "running";
  const JsonValue root = parseJsonOrFail(obs::runSnapshotToJson(snapshot));
  EXPECT_EQ(root.find("impact"), nullptr);
  EXPECT_DOUBLE_EQ(member(root, "cache").num("hit_rate"), 0);  // Not NaN.
}

TEST(RunJsonTest, SummarySchema) {
  obs::RunSummary summary;
  summary.id = 3;
  summary.name = "warm";
  summary.state = "succeeded";
  summary.phase = "traffic.merge";
  summary.elapsedSeconds = 0.5;
  summary.succeeded = 8;
  const JsonValue root = parseJsonOrFail(obs::runSummaryToJson(summary));
  EXPECT_EQ(root.num("id"), 3);
  EXPECT_EQ(root.str("state"), "succeeded");
  EXPECT_EQ(root.str("phase"), "traffic.merge");
  EXPECT_EQ(root.num("succeeded"), 8);
}

// --- handle(): socket-free endpoint routing ---------------------------------

class StatusHandleTest : public ::testing::Test {
 protected:
  StatusHandleTest() {
    telemetry_.attach(&registry_);
    StatusServerOptions options;
    options.telemetry = &telemetry_;
    server_ = std::make_unique<StatusServer>(options);
  }

  obs::RunJournal& journal() { return telemetry_.journal(); }

  RunRegistry registry_;
  obs::Telemetry telemetry_;
  std::unique_ptr<StatusServer> server_;
};

TEST_F(StatusHandleTest, HealthzReportsCurrentRun) {
  auto empty = server_->handle("GET", "/healthz");
  EXPECT_EQ(empty.status, 200);
  JsonValue root = parseJsonOrFail(empty.body);
  EXPECT_EQ(root.str("status"), "ok");
  EXPECT_EQ(member(root, "current").kind, JsonValue::Kind::kNull);

  journal().runBegin("verify-a", 0);
  journal().phaseBegin("route.exec");
  auto live = server_->handle("GET", "/healthz");
  root = parseJsonOrFail(live.body);
  const JsonValue* current = root.find("current");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->str("name"), "verify-a");
  EXPECT_EQ(current->str("state"), "running");
  EXPECT_EQ(current->str("phase"), "route.exec");
}

TEST_F(StatusHandleTest, MetricsServesPrometheusText) {
  telemetry_.metrics().counter("dist.retries", "Retried subtasks.").add(2);
  auto response = server_->handle("GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.contentType, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# HELP dist_retries Retried subtasks.\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("dist_retries 2\n"), std::string::npos);
}

TEST_F(StatusHandleTest, RunListAndSnapshotEndpoints) {
  journal().runBegin("one", 0);
  const uint64_t first = registry_.currentRunId();
  journal().runEnd("one", 0.2);
  journal().runBegin("two", 0);
  const uint64_t second = registry_.currentRunId();
  journal().subtaskEnqueue("route", "route-0");
  journal().subtaskEnqueue("route", "route-1");

  auto list = server_->handle("GET", "/runs");
  EXPECT_EQ(list.status, 200);
  JsonValue root = parseJsonOrFail(list.body);
  EXPECT_EQ(root.num("current"), static_cast<double>(second));
  ASSERT_EQ(member(root, "runs").items.size(), 2u);

  auto byId = server_->handle("GET", "/runs/" + std::to_string(first));
  EXPECT_EQ(byId.status, 200);
  root = parseJsonOrFail(byId.body);
  EXPECT_EQ(root.str("name"), "one");
  EXPECT_EQ(root.str("state"), "succeeded");

  auto current = server_->handle("GET", "/runs/current");
  EXPECT_EQ(current.status, 200);
  root = parseJsonOrFail(current.body);
  EXPECT_EQ(root.str("name"), "two");
  EXPECT_EQ(member(root, "subtasks").num("pending"), 2);
}

TEST_F(StatusHandleTest, ErrorStatuses) {
  EXPECT_EQ(server_->handle("GET", "/runs/banana").status, 400);
  EXPECT_EQ(server_->handle("GET", "/runs/999").status, 404);
  EXPECT_EQ(server_->handle("GET", "/runs/current").status, 404) << "no runs yet";
  EXPECT_EQ(server_->handle("GET", "/nope").status, 404);
  EXPECT_EQ(server_->handle("POST", "/healthz").status, 405);
  EXPECT_EQ(server_->handle("GET", "/explain").status, 503)
      << "no provenance recorder attached";
  // Every error body is itself valid JSON with an "error" member.
  auto error = server_->handle("GET", "/runs/banana");
  const JsonValue root = parseJsonOrFail(error.body);
  EXPECT_FALSE(root.str("error").empty());
}

TEST_F(StatusHandleTest, ExplainAnswers404ForAnUnknownDeviceWithoutInterningIt) {
  obs::ProvenanceOptions options;
  options.enabled = true;
  obs::ProvenanceRecorder recorder(options);
  telemetry_.attach(&recorder);
  const std::string device = "EXPLAIN-NEVER-SEEN";
  ASSERT_FALSE(Names::find(device));
  auto unknown =
      server_->handle("GET", "/explain?device=" + device + "&prefix=10.0.0.0/24");
  EXPECT_EQ(unknown.status, 404);
  const JsonValue root = parseJsonOrFail(unknown.body);
  EXPECT_EQ(root.str("error"), "unknown device");
  EXPECT_FALSE(Names::find(device)) << "/explain interned a client's device name";
  // An interned device with no recorded events still answers.
  Names::id("EXPLAIN-KNOWN");
  EXPECT_EQ(
      server_->handle("GET", "/explain?device=EXPLAIN-KNOWN&prefix=10.0.0.0/24").status,
      200);
}

TEST(StatusServerDetachedTest, EndpointsAnswer503WithoutSources) {
  // No context, no process global: every data endpoint degrades to 503
  // rather than crashing (healthz stays 200 — the server itself is alive).
  ASSERT_EQ(obs::Telemetry::global(), nullptr);
  StatusServer server;
  EXPECT_EQ(server.handle("GET", "/healthz").status, 200);
  EXPECT_EQ(server.handle("GET", "/metrics").status, 503);
  EXPECT_EQ(server.handle("GET", "/runs").status, 503);
  EXPECT_EQ(server.handle("GET", "/runs/current").status, 503);
}

// --- socket round-trip through the hoyan_top client -------------------------

TEST(StatusServerSocketTest, ServesOverLoopbackThroughStatusClient) {
  RunRegistry registry;
  obs::Telemetry telemetry;
  telemetry.attach(&registry);
  telemetry.metrics().counter("dist.retries").add(1);
  StatusServerOptions options;
  options.telemetry = &telemetry;
  StatusServer server(options);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);
  telemetry.journal().runBegin("socket-run", 0);
  const uint64_t id = registry.currentRunId();
  for (int i = 0; i < 5; ++i)
    telemetry.journal().subtaskEnqueue("route", "route-" + std::to_string(i));

  HttpResult result;
  ASSERT_TRUE(statusclient::httpGet("127.0.0.1", server.port(),
                                    "/runs/" + std::to_string(id), result));
  EXPECT_EQ(result.status, 200);
  const JsonValue root = parseJsonOrFail(result.body);
  EXPECT_EQ(root.str("name"), "socket-run");
  EXPECT_EQ(member(root, "subtasks").num("pending"), 5);

  ASSERT_TRUE(statusclient::httpGet("127.0.0.1", server.port(), "/metrics", result));
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("dist_retries 1"), std::string::npos);

  ASSERT_TRUE(statusclient::httpGet("127.0.0.1", server.port(), "/nope", result));
  EXPECT_EQ(result.status, 404);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(
      statusclient::httpGet("127.0.0.1", server.port(), "/healthz", result));
}

TEST(StatusServerSocketTest, StartIsIdempotentAndStopTwiceIsSafe) {
  StatusServer server;
  ASSERT_TRUE(server.start());
  const uint16_t port = server.port();
  EXPECT_TRUE(server.start());
  EXPECT_EQ(server.port(), port);
  server.stop();
  server.stop();
}

// --- concurrent scrape during a distributed verification --------------------

// 4 scraper threads hammer /metrics and /runs/current over real sockets
// while a distributed verify runs. Guards the data-race surface (relaxed
// counters + worker slots + phase strings) under TSan/ASan, and checks the
// observed subtask counts never move backwards within one scraper.
TEST(ConcurrentScrapeTest, FourThreadsHammerEndpointsDuringVerify) {
  SmallWan net = buildSmallWan();
  obs::Telemetry telemetry{obs::TelemetryOptions{}};
  RunRegistry registry;
  Hoyan hoyan(net.topology, net.configs);
  telemetry.attach(&registry);
  hoyan.setTelemetry(&telemetry);
  std::vector<InputRoute> routes;
  for (int i = 0; i < 12; ++i)
    routes.push_back(ispRoute(net, "100." + std::to_string(i + 1) + ".0.0/16"));
  hoyan.setInputRoutes(routes);
  DistSimOptions simOptions;
  simOptions.workers = 4;
  simOptions.routeSubtasks = 16;
  hoyan.setSimulationOptions(simOptions);

  StatusServerOptions serverOptions;
  serverOptions.telemetry = &telemetry;
  StatusServer server(serverOptions);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::atomic<int> scrapeFailures{0};
  std::atomic<int> transportErrors{0};
  std::atomic<uint64_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      double lastDone = -1;
      double lastRunId = -1;
      while (!stop.load(std::memory_order_acquire)) {
        HttpResult result;
        const std::string target = t % 2 == 0 ? "/metrics" : "/runs/current";
        if (!statusclient::httpGet("127.0.0.1", server.port(), target, result)) {
          // A saturated loopback can transiently refuse (backlog overflow);
          // that is retry territory, not a server defect.
          transportErrors.fetch_add(1);
          continue;
        }
        // /runs/current is 404 until the first runBegin; afterwards it must
        // parse and its completed-subtask count must be monotone *within a
        // run* (preprocess and verify are separate runs, each restarting
        // from zero).
        if (target == "/runs/current" && result.status == 200) {
          const obs::JsonParse parsed = obs::parseJson(result.body);
          if (!parsed.ok()) {
            scrapeFailures.fetch_add(1);
            continue;
          }
          const JsonValue& root = parsed.value;
          const double runId = root.num("id", -1);
          if (runId != lastRunId) {
            lastRunId = runId;
            lastDone = -1;
          }
          const JsonValue* subtasks = root.find("subtasks");
          const double done =
              subtasks ? subtasks->num("succeeded") + subtasks->num("failed") : 0;
          if (done + 1e-9 < lastDone) scrapeFailures.fetch_add(1);
          lastDone = done;
        } else if (result.status != 200 && result.status != 404 &&
                   result.status != 503) {
          scrapeFailures.fetch_add(1);
        }
        scrapes.fetch_add(1);
      }
    });
  }

  hoyan.preprocess();
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan.verifyChange({}, intents);
  EXPECT_TRUE(result.satisfied());

  stop.store(true, std::memory_order_release);
  for (auto& scraper : scrapers) scraper.join();
  server.stop();

  EXPECT_EQ(scrapeFailures.load(), 0);
  EXPECT_GT(scrapes.load(), 0u)
      << "no scrape completed (" << transportErrors.load()
      << " transport errors)";
  // The runs the facade published are all closed and visible.
  const auto list = registry.list();
  ASSERT_GE(list.size(), 2u);  // preprocess + verify.
  for (const auto& run : list) EXPECT_NE(run.state, "running");
}

// --- journal / registry agreement ------------------------------------------

// Checks every run's settled registry snapshot against the counts its
// journal implies. Registry run ids and journal run indices both count
// run_begin events, so they line up when the registry is attached from the
// start.
void expectRegistryMatchesJournal(const obs::Telemetry& context,
                                  const std::string& label) {
  struct Counts {
    uint64_t finished = 0, hits = 0, misses = 0, bypasses = 0, retries = 0,
             exhausted = 0;
  };
  std::map<uint32_t, Counts> byRun;
  for (const obs::JournalEvent& event : context.journal().events()) {
    Counts& counts = byRun[event.run];
    switch (event.type) {
      case obs::JournalEventType::kSubtaskFinish: ++counts.finished; break;
      case obs::JournalEventType::kCacheHit: ++counts.hits; break;
      case obs::JournalEventType::kCacheMiss: ++counts.misses; break;
      case obs::JournalEventType::kCacheBypass: ++counts.bypasses; break;
      case obs::JournalEventType::kSubtaskRetry: ++counts.retries; break;
      case obs::JournalEventType::kSubtaskExhaust: ++counts.exhausted; break;
      default: break;
    }
  }
  ASSERT_EQ(context.journal().droppedEvents(), 0u) << label;
  ASSERT_EQ(context.runs()->list().size(), byRun.size()) << label;
  for (const auto& [run, counts] : byRun) {
    const std::optional<RunSnapshot> snapshot = context.runs()->snapshot(run);
    ASSERT_TRUE(snapshot.has_value()) << label << " run " << run;
    const std::string at = label + " run " + snapshot->name;
    EXPECT_EQ(snapshot->state, counts.exhausted > 0 ? "failed" : "succeeded") << at;
    EXPECT_EQ(snapshot->succeeded, counts.finished + counts.hits) << at;
    EXPECT_EQ(snapshot->failed, counts.exhausted) << at;
    EXPECT_EQ(snapshot->exhausted, counts.exhausted) << at;
    EXPECT_EQ(snapshot->retries, counts.retries) << at;
    EXPECT_EQ(snapshot->cacheHits, counts.hits) << at;
    EXPECT_EQ(snapshot->cacheMisses, counts.misses) << at;
    EXPECT_EQ(snapshot->cacheBypasses, counts.bypasses) << at;
    EXPECT_EQ(snapshot->pending, 0u) << at;
    EXPECT_EQ(snapshot->running, 0u) << at;
    EXPECT_TRUE(snapshot->active.empty()) << at;
  }
}

size_t countEvents(const obs::Telemetry& context, obs::JournalEventType type) {
  size_t n = 0;
  for (const obs::JournalEvent& event : context.journal().events())
    n += event.type == type ? 1 : 0;
  return n;
}

TEST(RegistryJournalAgreementTest, RouteAndTrafficWithCrashes) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  workload.prefixesPerDc = 4;
  workload.v6Share = 0;
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);
  const std::vector<Flow> flows = generateFlows(wan, workload, 200);
  IntentSet intents;
  intents.rclIntents = {"not prefix = 100.0.8.0/24 => PRE = POST"};
  intents.maxLinkUtilization = 2.0;
  ChangePlan plan;
  plan.name = "scoped";
  plan.commands =
      "device BR-0-0\n"
      "ip-prefix LP-J index 10 permit 100.0.8.0/24\n"
      "route-policy ISP-IN-0 node 800 permit\n"
      " match ip-prefix LP-J\n"
      " apply local-pref 150\n";
  for (const size_t workers : {1u, 3u, 6u}) {
    const std::string label = "workers=" + std::to_string(workers);
    RunRegistry registry;
    obs::Telemetry context({.journal = true});
    context.attach(&registry);
    // Through the facade: preprocess and two verifications, the second
    // served from the cache, every subtask attempt at risk of a crash.
    Hoyan hoyan(wan.topology, wan.configs);
    hoyan.setInputRoutes(inputs);
    hoyan.setInputFlows(flows);
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 8;
    options.trafficSubtasks = 4;
    options.workerFailureProbability = 0.3;
    options.failureSeed = 7;
    options.maxAttempts = 10;
    hoyan.setSimulationOptions(options);
    hoyan.setTelemetry(&context);
    hoyan.enableIncremental();
    hoyan.preprocess();
    hoyan.verifyChange(plan, intents);
    hoyan.verifyChange(plan, intents);
    // One simulator run in which a traffic subtask exhausts its attempts
    // (seed 28 spares every route job, which the traffic phase needs).
    options.workerFailureProbability = 0.5;
    options.failureSeed = 28;
    options.maxAttempts = 2;
    options.telemetry = &context;
    const NetworkModel model = wan.buildModel();
    context.journal().runBegin("exhausting", 0);
    DistributedSimulator simulator(model, options);
    EXPECT_TRUE(simulator.runRouteSimulation(inputs).succeeded) << label;
    simulator.runTrafficSimulation(flows);
    context.journal().runEnd("exhausting", 0);

    EXPECT_GT(countEvents(context, obs::JournalEventType::kSubtaskRetry), 0u) << label;
    EXPECT_GT(countEvents(context, obs::JournalEventType::kSubtaskExhaust), 0u) << label;
    EXPECT_GT(countEvents(context, obs::JournalEventType::kCacheHit), 0u) << label;
    EXPECT_GT(countEvents(context, obs::JournalEventType::kCacheMiss), 0u) << label;
    EXPECT_EQ(registry.list().size(), 4u) << label;
    expectRegistryMatchesJournal(context, label);
  }
}

TEST(RegistryJournalAgreementTest, EarlyExitSweep) {
  SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  const std::vector<InputRoute> inputs = {ispRoute(net, "100.1.0.0/16")};
  const NetworkProperty property = [&net](const NetworkModel& degraded,
                                          const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, net.c2, *IpAddress::parse("100.1.2.3"));
  };
  for (const size_t workers : {1u, 3u, 6u}) {
    const std::string label = "workers=" + std::to_string(workers);
    RunRegistry registry;
    obs::Telemetry context({.journal = true});
    context.attach(&registry);
    sweep::SweepOptions options;
    options.failure.k = 2;
    options.failure.includeDeviceFailures = true;
    options.failure.maxCounterexamples = 1;
    options.workers = workers;
    options.telemetry = &context;
    context.journal().runBegin("sweep", 0);
    sweep::sweepKFailures(model, inputs, property, options);
    context.journal().runEnd("sweep", 0);
    // One worker settles jobs in queue order, so the cap fills with jobs
    // still queued, and each dropped job gets its cancel line.
    if (workers == 1) {
      EXPECT_GT(countEvents(context, obs::JournalEventType::kSubtaskCancel), 0u);
    }
    expectRegistryMatchesJournal(context, label);
  }
}

// --- status client ----------------------------------------------------------

// hoyan_top reads its payloads through the one JSON reader (obs::parseJson);
// these pin what it needs of it. The reader's full grammar is obs_test's.
TEST(StatusClientJsonTest, ParsesEscapesAndNesting) {
  const JsonValue root = parseJsonOrFail(
      R"({"a":[1,2.5,-3e2],"b":{"c":"x\ny A","d":true,"e":null,"f":"caf\u00e9"}})");
  ASSERT_EQ(member(root, "a").items.size(), 3u);
  EXPECT_DOUBLE_EQ(member(root, "a").items[2].number, -300);
  const JsonValue& b = member(root, "b");
  EXPECT_EQ(b.str("c"), "x\ny A");
  EXPECT_TRUE(member(b, "d").boolean);
  EXPECT_EQ(member(b, "e").kind, JsonValue::Kind::kNull);
  // \u escapes decode to UTF-8, as they do in journals.
  EXPECT_EQ(b.str("f"), "caf\xc3\xa9");
}

TEST(StatusClientJsonTest, RejectsMalformedDocuments) {
  for (const char* bad : {"{\"a\":", "{} trailing", "{\"a\" 1}", "\"unterminated",
                          "{\"n\":+1}", "{\"n\":0x10}", "{\"n\":nan}", "{\"n\":.5}",
                          "{\"s\":\"raw\nnewline\"}"}) {
    const obs::JsonParse parsed = obs::parseJson(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error.line, 1u) << bad;
    EXPECT_GT(parsed.error.column, 1u) << bad;
  }
  EXPECT_TRUE(obs::parseJson(" {} ").ok()) << "whitespace is fine";
  // A hostile body nests without bound: an error, not a stack overflow.
  EXPECT_FALSE(obs::parseJson(std::string(1 << 20, '[')).ok());
}

TEST(StatusClientRenderTest, RendersDashboardFrame) {
  const JsonValue run = parseJsonOrFail(
      R"({"id":7,"name":"verify","state":"running","phase":"route.exec",)"
      R"("elapsed_seconds":65.5,"subtasks":{"pending":2,"running":1,)"
      R"("succeeded":5,"failed":0,"retries":1},"cache":{"hits":3,"misses":1,)"
      R"("bypasses":0,"hit_rate":0.75},"impact":"2 devices",)"
      R"("active":[{"id":"route:3","worker":2,"seconds":1.5,"straggler":true}]})");
  const std::string frame = statusclient::renderTop(run, 2.5);
  EXPECT_NE(frame.find("run #7 \"verify\""), std::string::npos) << frame;
  EXPECT_NE(frame.find("running"), std::string::npos);
  EXPECT_NE(frame.find("phase=route.exec"), std::string::npos);
  EXPECT_NE(frame.find("elapsed=1m05s"), std::string::npos);
  EXPECT_NE(frame.find(" 5/8"), std::string::npos) << "done/total";
  EXPECT_NE(frame.find("(2.5/s)"), std::string::npos);
  EXPECT_NE(frame.find("hit rate 75%"), std::string::npos);
  EXPECT_NE(frame.find("impact: 2 devices"), std::string::npos);
  EXPECT_NE(frame.find("STRAGGLER"), std::string::npos);
  // First frame: throughput unknown, no rate printed.
  EXPECT_EQ(statusclient::renderTop(run, -1).find("/s)"), std::string::npos);
}

}  // namespace
}  // namespace hoyan
