// Tests of the distributed simulation framework: queue/store primitives,
// distributed == centralized result equivalence, failure retry, the ordering
// heuristic's dependency pruning, and the random-split comparison.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <map>
#include <stdexcept>
#include <thread>

#include "dist/dist_sim.h"
#include "dist/message_queue.h"
#include "dist/object_store.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/engine.h"
#include "obs/telemetry.h"
#include "rcl/global_rib.h"
#include "test_fixtures.h"

namespace hoyan {
namespace {

TEST(MessageQueueTest, FifoAndClose) {
  MessageQueue<int> queue;
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(MessageQueueTest, BlockingPopWakesOnPush) {
  MessageQueue<int> queue;
  std::atomic<int> got{0};
  std::thread consumer([&] { got = queue.pop().value_or(-1); });
  queue.push(42);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(MessageQueueTest, CloseWakesAllConsumers) {
  MessageQueue<int> queue;
  std::vector<std::thread> consumers;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i)
    consumers.emplace_back([&] {
      while (queue.pop().has_value()) {
      }
      ++finished;
    });
  queue.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 4);
}

TEST(ObjectStoreTest, TypedPutGetAndAccounting) {
  ObjectStore store;
  store.put("k", std::vector<int>{1, 2, 3}, 12);
  EXPECT_TRUE(store.contains("k"));
  const auto blob = store.get<std::vector<int>>("k");
  EXPECT_EQ(blob->size(), 3u);
  EXPECT_EQ(store.bytesWritten(), 12u);
  EXPECT_EQ(store.bytesRead(), 12u);
  EXPECT_EQ(store.readCount(), 1u);
  EXPECT_THROW(store.get<std::vector<int>>("missing"), std::out_of_range);
  store.erase("k");
  EXPECT_FALSE(store.contains("k"));
}

class DistSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 3;
    wan_ = generateWan(spec);
    model_ = std::make_unique<NetworkModel>(wan_.buildModel());
    WorkloadSpec workload;
    workload.prefixesPerIsp = 24;
    workload.prefixesPerDc = 12;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    flows_ = generateFlows(wan_, workload, 600);
  }

  // wan_ with cells the local-routes file shares with BGP route files: (a) a
  // preference-1 discard static on the first core for an announced prefix,
  // which wins the cell, and (b) a preference-200 floating static on the
  // first border for a prefix it learns over eBGP (distance 20), which loses
  // the cell but is best in the local-routes file alone.
  struct SharedCells {
    GeneratedWan wan;
    Prefix discarded;  // (a)
    Prefix floating;   // (b)
    std::vector<Flow> flows;  // flows_ plus flows to both from every core and border.
  };
  SharedCells withSharedCells() const {
    SharedCells out{wan_, {}, {}, flows_};
    const NameId core = wan_.cores.front();
    const NameId border = wan_.borders.front();
    const auto announcedBy = [&](auto&& wanted) {
      for (const InputRoute& input : inputs_)
        if (wanted(input.device)) return input.route.prefix;
      ADD_FAILURE() << "no such announcement";
      return Prefix{};
    };
    const auto peersWithBorder = [&](NameId device) {
      for (const Adjacency& adj : model_->adjacenciesOf(border))
        if (adj.neighbor == device) return true;
      return false;
    };
    out.floating = announcedBy(peersWithBorder);
    out.discarded = announcedBy([&](NameId device) {
      return device == wan_.externals.back() && !peersWithBorder(device);
    });
    StaticRouteConfig discard;
    discard.prefix = out.discarded;
    discard.discard = true;
    out.wan.configs.device(core).staticRoutes.push_back(discard);
    StaticRouteConfig floating;
    floating.prefix = out.floating;
    floating.nexthop = wan_.topology.findDevice(core)->loopback;
    floating.preference = 200;
    out.wan.configs.device(border).staticRoutes.push_back(floating);
    std::vector<NameId> ingresses = wan_.cores;
    ingresses.insert(ingresses.end(), wan_.borders.begin(), wan_.borders.end());
    for (const NameId ingress : ingresses) {
      for (const Prefix& prefix : {out.discarded, out.floating}) {
        for (const IpAddress& dst : {prefix.firstAddress(), prefix.lastAddress()}) {
          Flow flow = flows_.front();
          flow.ingressDevice = ingress;
          flow.dst = dst;
          out.flows.push_back(flow);
        }
      }
    }
    return out;
  }

  GeneratedWan wan_;
  std::unique_ptr<NetworkModel> model_;
  std::vector<InputRoute> inputs_;
  std::vector<Flow> flows_;
};

// A result cache over a store the test owns. It serves a hit for any key
// whose blob is resident and records the route files each traffic subtask
// loads. Traffic keys are positions in `trafficRibKeys`, so a run repeated
// after clearing it hits.
class RecordingCache : public SubtaskResultCache {
 public:
  ObjectStore& store() override { return store_; }
  std::string transientPrefix() override { return "run/"; }
  std::string routeResultKey(std::span<const InputRoute> chunk,
                             const std::optional<IpRange>&) override {
    // Same-prefix routes never straddle two subtasks, so first prefixes differ.
    return "route/" + chunk.front().route.prefix.str();
  }
  std::string localRoutesResultKey() override { return "local"; }
  std::string trafficResultKey(std::span<const Flow>,
                               std::span<const std::string> ribKeys) override {
    trafficRibKeys.emplace_back(ribKeys.begin(), ribKeys.end());
    return "traffic/" + std::to_string(trafficRibKeys.size());
  }
  bool lookup(const std::string& key) override { return store_.contains(key); }
  void stored(const std::string&, size_t) override {}
  void noteBypass() override {}

  // Per traffic subtask of the current run, in subtask order.
  std::vector<std::vector<std::string>> trafficRibKeys;

 private:
  ObjectStore store_;
};

// The job a phase reported under `id`, or null.
const SubtaskMetric* findSubtask(const std::vector<SubtaskMetric>& subtasks,
                                 const std::string& id) {
  for (const SubtaskMetric& metric : subtasks)
    if (metric.id == id) return &metric;
  return nullptr;
}

// Retries a phase's subtasks made: one per attempt after the first.
size_t extraAttempts(const std::vector<SubtaskMetric>& subtasks) {
  size_t extra = 0;
  for (const SubtaskMetric& metric : subtasks) {
    EXPECT_GE(metric.attempts, 1) << metric.id;
    extra += static_cast<size_t>(metric.attempts - 1);
  }
  return extra;
}

// Every route job survives and a traffic job exhausts: crash draws are
// deterministic per (job id, attempt, seed).
DistSimOptions trafficExhaustingOptions() {
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 8;
  options.trafficSubtasks = 4;
  options.workerFailureProbability = 0.5;
  options.failureSeed = 28;
  options.maxAttempts = 2;
  return options;
}

TEST_F(DistSimTest, DistributedEqualsCentralizedRouteSimulation) {
  const RouteSimResult reference = simulateCentralized(*model_, inputs_);
  // With one route subtask the master merges one BGP file, as
  // simulateCentralized does; with 16, an aggregate's cell is assembled from
  // the files of every subtask that originated it.
  for (const size_t subtasks : {1, 16}) {
    DistSimOptions options;
    options.workers = 4;
    options.routeSubtasks = subtasks;
    DistributedSimulator sim(*model_, options);
    const DistRouteResult distributed = sim.runRouteSimulation(inputs_);
    ASSERT_TRUE(distributed.succeeded) << subtasks << " route subtasks";
    EXPECT_EQ(distributed.ribs.routeCount(), reference.ribs.routeCount());
    // Every cell agrees route for route: order, content and selection type.
    const std::vector<std::string> differences =
        testing::cellDifferences(reference.ribs, distributed.ribs);
    EXPECT_TRUE(differences.empty())
        << subtasks << " route subtasks: " << differences.size()
        << " cells differ; the first is " << differences.front();
  }
}

TEST_F(DistSimTest, DistributedTrafficMatchesCentralized) {
  const RouteSimResult reference = simulateCentralized(*model_, inputs_);
  const TrafficSimResult referenceTraffic =
      simulateTraffic(*model_, reference.ribs, flows_);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 16;
  options.trafficSubtasks = 8;
  DistributedSimulator sim(*model_, options);
  ASSERT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult distributed = sim.runTrafficSimulation(flows_);
  ASSERT_TRUE(distributed.succeeded);
  EXPECT_EQ(distributed.stats.inputFlows, flows_.size());
  // Per-link loads agree with the centralized run.
  for (const auto& entry : referenceTraffic.linkLoads.entries()) {
    EXPECT_NEAR(distributed.linkLoads.get(entry.from, entry.to), entry.bps,
                entry.bps * 1e-6 + 1e-6)
        << Names::str(entry.from) << "->" << Names::str(entry.to);
  }
}

// The twin of DistributedTrafficMatchesCentralized where the local-routes
// file shares cells with BGP route files, so the traffic workers' fold runs.
TEST_F(DistSimTest, DistributedTrafficMatchesCentralizedWhereLocalAndBgpRoutesShareCells) {
  const SharedCells shared = withSharedCells();
  const NetworkModel model = shared.wan.buildModel();
  const RouteSimResult reference = simulateCentralized(model, inputs_);
  const auto bestProtocol = [&](NameId device,
                                const Prefix& prefix) -> std::optional<Protocol> {
    const VrfRib* vrf = reference.ribs.findDevice(device)->findVrf(kInvalidName);
    const std::vector<Route>* routes = vrf ? vrf->find(prefix) : nullptr;
    if (!routes || routes->empty()) return std::nullopt;
    return routes->front().protocol;
  };
  ASSERT_EQ(bestProtocol(wan_.cores.front(), shared.discarded), Protocol::kStatic);
  ASSERT_EQ(bestProtocol(wan_.borders.front(), shared.floating), Protocol::kBgp);
  const TrafficSimResult referenceTraffic =
      simulateTraffic(model, reference.ribs, shared.flows);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 16;
  options.trafficSubtasks = 8;
  DistributedSimulator sim(model, options);
  ASSERT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult distributed = sim.runTrafficSimulation(shared.flows);
  ASSERT_TRUE(distributed.succeeded);
  EXPECT_EQ(distributed.stats.inputFlows, shared.flows.size());
  ASSERT_EQ(distributed.linkLoads.size(), referenceTraffic.linkLoads.size());
  for (const auto& entry : referenceTraffic.linkLoads.entries()) {
    EXPECT_NEAR(distributed.linkLoads.get(entry.from, entry.to), entry.bps,
                entry.bps * 1e-6 + 1e-6)
        << Names::str(entry.from) << "->" << Names::str(entry.to);
  }
}

// The local-routes blob holds its forwarding tries, charged to residency but
// not to reads. routesMerged counts what an executed traffic subtask copies
// into its own RIB: the routes of its route files other than the
// local-routes file, plus the local routes folded into the cells both hold.
// A cache hit copies none.
TEST_F(DistSimTest, TrafficSubtasksShareTheLocalRoutesFib) {
  const SharedCells shared = withSharedCells();
  const NetworkModel model = shared.wan.buildModel();
  RecordingCache cache;
  DistSimOptions options;
  options.workers = 3;
  options.routeSubtasks = 16;
  options.trafficSubtasks = 8;
  options.cache = &cache;
  DistributedSimulator sim(model, options);
  ASSERT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
  EXPECT_GT(cache.store().liveBytes(), cache.store().bytesWritten());
  const DistTrafficResult executed = sim.runTrafficSimulation(shared.flows);
  ASSERT_TRUE(executed.succeeded);
  ASSERT_EQ(cache.trafficRibKeys.size(), executed.subtasks.size());

  const auto local = cache.store().get<RouteSubtaskResult>("local");
  size_t folded = 0;
  for (size_t i = 0; i < executed.subtasks.size(); ++i) {
    const SubtaskMetric& metric = executed.subtasks[i];
    NetworkRibs own;
    size_t expected = 0;
    for (const std::string& key : cache.trafficRibKeys[i]) {
      if (key == "local") continue;
      const auto file = cache.store().get<RouteSubtaskResult>(key);
      own.merge(file->ribs);
      expected += file->ribs.routeCount();
    }
    for (const auto& [deviceId, deviceRib] : own.devices()) {
      for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
        for (const auto& [prefix, routes] : vrfRib.routes()) {
          const DeviceRib* localDevice = local->ribs.findDevice(deviceId);
          const VrfRib* localVrf = localDevice ? localDevice->findVrf(vrfId) : nullptr;
          const std::vector<Route>* localRoutes = localVrf ? localVrf->find(prefix) : nullptr;
          if (!localRoutes) continue;
          folded += localRoutes->size();
          expected += localRoutes->size();
        }
      }
    }
    EXPECT_FALSE(metric.fromCache) << metric.id;
    EXPECT_EQ(metric.routesMerged, expected) << metric.id;
  }
  EXPECT_GT(folded, 0u) << "no subtask folded a shared cell";

  cache.trafficRibKeys.clear();
  const DistTrafficResult hit = sim.runTrafficSimulation(shared.flows);
  ASSERT_EQ(hit.cacheHits, hit.subtasks.size());
  for (const SubtaskMetric& metric : hit.subtasks) EXPECT_EQ(metric.routesMerged, 0u) << metric.id;
}

// Inputs already in split order (sortForSplit, as Hoyan registers them) are
// split in place; raw inputs are stable-sorted into a copy first. Both give
// the same sequence, so the two runs agree on every observable: RIB rows,
// link-load bits, the route files each traffic subtask loads, and every
// subtask's content key (the cache_miss lines of the canonical journal).
TEST_F(DistSimTest, InputsInSplitOrderSplitLikeRawInputs) {
  std::vector<InputRoute> sortedInputs = inputs_;
  sortForSplit(sortedInputs);
  std::vector<Flow> sortedFlows = flows_;
  sortForSplit(sortedFlows);
  const auto prefixes = [](const std::vector<InputRoute>& inputs) {
    std::vector<std::string> out;
    for (const InputRoute& input : inputs) out.push_back(input.route.prefix.str());
    return out;
  };
  const auto destinations = [](const std::vector<Flow>& flows) {
    std::vector<std::string> out;
    for (const Flow& flow : flows) out.push_back(flow.dst.str());
    return out;
  };
  ASSERT_NE(prefixes(sortedInputs), prefixes(inputs_)) << "raw routes already sorted";
  ASSERT_NE(destinations(sortedFlows), destinations(flows_)) << "raw flows already sorted";

  struct Observed {
    std::vector<std::string> rows;
    std::map<uint64_t, uint64_t> loadBits;  // (from, to) -> bits of the load.
    std::vector<size_t> ribFilesLoaded;
    std::string journal;
  };
  const auto run = [&](size_t workers, const std::vector<InputRoute>& inputs,
                       const std::vector<Flow>& flows) {
    obs::Telemetry telemetry(obs::TelemetryOptions{.journal = true});
    incr::IncrementalEngine engine;
    engine.setBaseModel(*model_);
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 16;
    options.trafficSubtasks = 8;
    options.telemetry = &telemetry;
    engine.beginRun(*model_, options);
    DistributedSimulator sim(*model_, options);
    const DistRouteResult routes = sim.runRouteSimulation(inputs);
    EXPECT_TRUE(routes.succeeded);
    const DistTrafficResult traffic = sim.runTrafficSimulation(flows);
    EXPECT_TRUE(traffic.succeeded);
    engine.endRun();
    Observed out;
    const rcl::GlobalRib global = rcl::GlobalRib::fromNetworkRibs(routes.ribs);
    for (const rcl::RibRow& row : global.rows()) out.rows.push_back(row.str());
    for (const auto& entry : traffic.linkLoads.entries())
      out.loadBits[(uint64_t{entry.from} << 32) | entry.to] = std::bit_cast<uint64_t>(entry.bps);
    for (const SubtaskMetric& metric : traffic.subtasks)
      out.ribFilesLoaded.push_back(metric.ribFilesLoaded);
    out.journal = telemetry.journal().canonicalJsonl();
    return out;
  };
  for (const size_t workers : {1u, 3u}) {
    const Observed raw = run(workers, inputs_, flows_);
    const Observed sorted = run(workers, sortedInputs, sortedFlows);
    EXPECT_FALSE(raw.rows.empty());
    EXPECT_EQ(sorted.rows, raw.rows) << workers << " workers";
    EXPECT_FALSE(raw.loadBits.empty());
    EXPECT_EQ(sorted.loadBits, raw.loadBits) << workers << " workers";
    EXPECT_EQ(sorted.ribFilesLoaded.size(), 8u);
    EXPECT_EQ(sorted.ribFilesLoaded, raw.ribFilesLoaded) << workers << " workers";
    EXPECT_NE(raw.journal.find("\"ev\":\"cache_miss\""), std::string::npos);
    EXPECT_EQ(sorted.journal, raw.journal) << workers << " workers";
  }
}

TEST_F(DistSimTest, WorkerCrashesAreRetried) {
  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 12;
  options.workerFailureProbability = 0.4;
  options.failureSeed = 3;
  options.maxAttempts = 10;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(result.retries, 0u);
  // Retried subtasks report multiple attempts.
  bool sawRetriedSubtask = false;
  for (const SubtaskMetric& metric : result.subtasks)
    if (metric.attempts > 1) sawRetriedSubtask = true;
  EXPECT_TRUE(sawRetriedSubtask);
  // And the result still matches the centralized reference count.
  EXPECT_EQ(result.ribs.routeCount(), simulateCentralized(*model_, inputs_).ribs.routeCount());
}

TEST_F(DistSimTest, ExhaustedRetriesFailTheTask) {
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 4;
  options.workerFailureProbability = 1.0;  // Always crash.
  options.maxAttempts = 2;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_FALSE(result.succeeded);
}

TEST_F(DistSimTest, OrderingHeuristicPrunesRibFileLoads) {
  DistSimOptions ordering;
  ordering.workers = 4;
  ordering.routeSubtasks = 16;
  ordering.trafficSubtasks = 8;
  ordering.strategy = SplitStrategy::kOrdering;
  DistributedSimulator orderingSim(*model_, ordering);
  ASSERT_TRUE(orderingSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult orderingResult = orderingSim.runTrafficSimulation(flows_);

  DistSimOptions random = ordering;
  random.strategy = SplitStrategy::kRandom;
  DistributedSimulator randomSim(*model_, random);
  ASSERT_TRUE(randomSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult randomResult = randomSim.runTrafficSimulation(flows_);

  const auto averageLoadedFraction = [](const DistTrafficResult& result) {
    double sum = 0;
    for (const SubtaskMetric& metric : result.subtasks)
      sum += static_cast<double>(metric.ribFilesLoaded) /
             static_cast<double>(metric.ribFilesTotal);
    return sum / static_cast<double>(result.subtasks.size());
  };
  const double orderingFraction = averageLoadedFraction(orderingResult);
  const double randomFraction = averageLoadedFraction(randomResult);
  // Ordering loads a strict subset; random needs (nearly) everything.
  EXPECT_LT(orderingFraction, randomFraction);
  EXPECT_GT(randomFraction, 0.9);
  // Both strategies still compute identical loads.
  for (const auto& entry : orderingResult.linkLoads.entries())
    EXPECT_NEAR(randomResult.linkLoads.get(entry.from, entry.to), entry.bps,
                entry.bps * 1e-6 + 1e-6);
}

TEST_F(DistSimTest, LoadAllBaselineReadsMoreBytes) {
  // Dependency pruning is exact, not approximate: skipping the route files
  // outside a subtask's destination range changes no link load by a bit.
  for (const size_t workers : {1u, 3u, 6u}) {
    DistSimOptions pruned;
    pruned.workers = workers;
    pruned.routeSubtasks = 16;
    pruned.trafficSubtasks = 8;
    DistributedSimulator prunedSim(*model_, pruned);
    ASSERT_TRUE(prunedSim.runRouteSimulation(inputs_).succeeded);
    const DistTrafficResult prunedResult = prunedSim.runTrafficSimulation(flows_);

    DistSimOptions baseline = pruned;
    baseline.loadAllRibs = true;
    DistributedSimulator baselineSim(*model_, baseline);
    ASSERT_TRUE(baselineSim.runRouteSimulation(inputs_).succeeded);
    const DistTrafficResult baselineResult = baselineSim.runTrafficSimulation(flows_);

    EXPECT_LT(prunedResult.storeBytesRead, baselineResult.storeBytesRead) << workers;
    const auto routesMerged = [](const DistTrafficResult& result) {
      size_t routes = 0;
      for (const SubtaskMetric& metric : result.subtasks) routes += metric.routesMerged;
      return routes;
    };
    EXPECT_LT(routesMerged(prunedResult), routesMerged(baselineResult)) << workers;
    ASSERT_GT(prunedResult.linkLoads.size(), 0u);
    ASSERT_EQ(prunedResult.linkLoads.size(), baselineResult.linkLoads.size()) << workers;
    for (const auto& entry : baselineResult.linkLoads.entries())
      EXPECT_EQ(std::bit_cast<uint64_t>(prunedResult.linkLoads.get(entry.from, entry.to)),
                std::bit_cast<uint64_t>(entry.bps))
          << workers << " " << Names::str(entry.from) << "->" << Names::str(entry.to);
  }
}

TEST_F(DistSimTest, SpansCoverEverySubtaskAttemptIncludingRetries) {
  // Under fault injection, every attempt — the completed ones *and* the
  // crashed-then-retried ones — must show up as a subtask span, and the
  // retry counter must agree with the task results.
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.tracing = true;
  obs::Telemetry telemetry(telemetryOptions);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 12;
  options.trafficSubtasks = 8;
  options.workerFailureProbability = 0.4;
  options.failureSeed = 3;
  options.maxAttempts = 10;
  options.telemetry = &telemetry;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult route = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(route.succeeded);
  const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
  ASSERT_TRUE(traffic.succeeded);
  EXPECT_GT(route.retries + traffic.retries, 0u) << "fault injection never fired";

  const auto countSpans = [&](const std::string& name) {
    size_t n = 0;
    for (const obs::TraceEvent& event : telemetry.tracer().events())
      if (event.name == name) ++n;
    return n;
  };
  EXPECT_EQ(countSpans("route.subtask"), route.subtasks.size() + route.retries);
  EXPECT_EQ(countSpans("traffic.subtask"), traffic.subtasks.size() + traffic.retries);
  // Successful attempts additionally record an execute phase; crashed ones
  // die before reaching it.
  EXPECT_EQ(countSpans("route.subtask.execute"), route.subtasks.size());
  EXPECT_EQ(countSpans("traffic.subtask.execute"), traffic.subtasks.size());
  EXPECT_EQ(countSpans("route.task"), 1u);
  EXPECT_EQ(countSpans("route.split"), 1u);
  EXPECT_EQ(countSpans("route.merge"), 1u);

  obs::MetricsRegistry& metrics = telemetry.metrics();
  EXPECT_EQ(metrics.counter("dist.retries").value(), route.retries + traffic.retries);
  EXPECT_EQ(metrics.counter("dist.subtasks.completed").value(),
            route.subtasks.size() + traffic.subtasks.size());
}

TEST_F(DistSimTest, SubtaskRuntimesAreRecorded) {
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 8;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(result.subtasks.size(), 8u);
  for (const SubtaskMetric& metric : result.subtasks) EXPECT_GE(metric.seconds, 0.0);
}

TEST(ObjectStoreTest, ByteAccountingRoundTripsToZero) {
  ObjectStore store;
  store.put("run1/a", std::string("aa"), 100);
  // Derived state the blob keeps (40 bytes) is resident but never transferred.
  store.put("run1/b", std::string("bb"), 200, 40);
  store.put("cas/r/x", std::string("xx"), 300);
  EXPECT_EQ(store.liveBytes(), 640u);
  EXPECT_EQ(store.bytesWritten(), 600u);
  EXPECT_EQ(store.blobCount(), 3u);
  store.get<std::string>("run1/b");
  EXPECT_EQ(store.bytesRead(), 200u);
  // Overwrite replaces the old blob's bytes instead of double-counting.
  store.put("cas/r/x", std::string("yy"), 50);
  EXPECT_EQ(store.liveBytes(), 390u);
  EXPECT_EQ(store.blobCount(), 3u);

  EXPECT_FALSE(store.erase("missing"));
  EXPECT_TRUE(store.erase("cas/r/x"));
  EXPECT_EQ(store.liveBytes(), 340u);
  EXPECT_EQ(store.erasePrefix("run1/"), 2u);
  EXPECT_EQ(store.liveBytes(), 0u);
  EXPECT_EQ(store.blobCount(), 0u);

  // Cumulative traffic counters survive deletion; clear() resets residency
  // only.
  const size_t written = store.bytesWritten();
  EXPECT_GT(written, 0u);
  store.put("again", std::string("zz"), 10);
  store.clear();
  EXPECT_EQ(store.liveBytes(), 0u);
  EXPECT_EQ(store.blobCount(), 0u);
  EXPECT_EQ(store.bytesWritten(), written + 10);
}

TEST_F(DistSimTest, ExhaustedSubtasksAreSurfacedWithCounter) {
  obs::Telemetry telemetry{{}};
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 4;
  options.workerFailureProbability = 1.0;  // Always crash.
  options.maxAttempts = 2;
  options.telemetry = &telemetry;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_FALSE(result.succeeded);
  ASSERT_FALSE(result.failedSubtasks.empty());
  EXPECT_EQ(result.failedSubtasks.size(),
            telemetry.metrics().counter("dist.subtask_exhausted").value());
  // The phase lists every job, failed ones too, and every surfaced id names
  // one that used up its attempts.
  EXPECT_EQ(result.subtasks.size(), options.routeSubtasks + 1);  // + route-local.
  for (const std::string& id : result.failedSubtasks) {
    const SubtaskMetric* metric = findSubtask(result.subtasks, id);
    ASSERT_NE(metric, nullptr) << id;
    EXPECT_EQ(metric->attempts, options.maxAttempts) << id;
    EXPECT_FALSE(metric->fromCache) << id;
  }
}

TEST_F(DistSimTest, ExhaustedTrafficSubtasksAreSurfaced) {
  const DistSimOptions options = trafficExhaustingOptions();
  DistributedSimulator sim(*model_, options);
  const DistRouteResult route = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(route.succeeded) << "the failure seed no longer spares the route phase";
  const DistTrafficResult result = sim.runTrafficSimulation(flows_);
  EXPECT_FALSE(result.succeeded);
  ASSERT_FALSE(result.failedSubtasks.empty());
  EXPECT_EQ(result.subtasks.size(), options.trafficSubtasks);
  for (const std::string& id : result.failedSubtasks) {
    const SubtaskMetric* metric = findSubtask(result.subtasks, id);
    ASSERT_NE(metric, nullptr) << id;
    EXPECT_EQ(metric->attempts, options.maxAttempts) << id;
  }
}

TEST_F(DistSimTest, TrafficWithoutASuccessfulRouteRunThrows) {
  // Forwarding over an empty or partial RIB would blackhole every flow and
  // still report success.
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 4;
  options.trafficSubtasks = 4;
  DistributedSimulator fresh(*model_, options);
  EXPECT_THROW(fresh.runTrafficSimulation(flows_), std::logic_error);

  DistSimOptions crashing = options;
  crashing.workerFailureProbability = 1.0;
  crashing.maxAttempts = 2;
  DistributedSimulator failed(*model_, crashing);
  ASSERT_FALSE(failed.runRouteSimulation(inputs_).succeeded);
  EXPECT_TRUE(failed.routeResultKeys().empty());
  EXPECT_THROW(failed.runTrafficSimulation(flows_), std::logic_error);
}

TEST_F(DistSimTest, RetriesEqualExtraAttemptsAtEveryWorkerCount) {
  // Invariant linking the result-level retry count to per-subtask attempts:
  // every retry re-queued exactly one subtask, so per phase
  //   retries == sum over its subtasks of (attempts - 1),
  // with exhausted subtasks contributing maxAttempts - 1.
  DistSimOptions recovering;
  recovering.routeSubtasks = 10;
  recovering.trafficSubtasks = 6;
  recovering.workerFailureProbability = 0.35;
  recovering.failureSeed = 11;
  recovering.maxAttempts = 8;
  for (const bool exhausting : {false, true}) {
    for (const size_t workers : {1u, 3u, 6u}) {
      DistSimOptions options = exhausting ? trafficExhaustingOptions() : recovering;
      options.workers = workers;
      DistributedSimulator sim(*model_, options);
      const DistRouteResult route = sim.runRouteSimulation(inputs_);
      ASSERT_TRUE(route.succeeded) << workers;
      const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
      EXPECT_EQ(traffic.succeeded, !exhausting) << workers;
      EXPECT_EQ(route.retries, extraAttempts(route.subtasks)) << workers;
      EXPECT_EQ(traffic.retries, extraAttempts(traffic.subtasks)) << workers;
    }
  }
}

}  // namespace
}  // namespace hoyan
