// Tests for the incremental verification engine: fingerprint stability and
// sensitivity, change-impact scoping, the content-addressed result cache,
// and end-to-end warm-vs-cold equivalence through the Hoyan facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/cache.h"
#include "incr/engine.h"
#include "incr/fingerprint.h"
#include "incr/impact.h"
#include "rcl/global_rib.h"
#include "test_fixtures.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

std::vector<std::string> renderedRows(const NetworkRibs& ribs) {
  const rcl::GlobalRib global = rcl::GlobalRib::fromNetworkRibs(ribs);
  std::vector<std::string> out;
  out.reserve(global.size());
  for (const rcl::RibRow& row : global.rows()) out.push_back(row.str());
  return out;
}

// Applies change commands to a copy of the small WAN and rebuilds the model.
NetworkModel changedModel(const SmallWan& net, const std::string& commands) {
  Topology topology = net.topology;
  NetworkConfig configs = net.configs;
  const auto errors = applyChangeCommands(topology, configs, commands);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0].str());
  return NetworkModel::build(std::move(topology), std::move(configs));
}

// --- fingerprints -----------------------------------------------------------

TEST(FingerprintTest, StableAcrossIdenticalRebuilds) {
  const SmallWan net = buildSmallWan();
  const NetworkModel first = net.model();
  const NetworkModel second = net.model();
  EXPECT_EQ(incr::fingerprintModel(first), incr::fingerprintModel(second));
  EXPECT_EQ(incr::fingerprintForwardingState(first),
            incr::fingerprintForwardingState(second));
  EXPECT_EQ(incr::fingerprintLocalRouteState(first),
            incr::fingerprintLocalRouteState(second));
}

TEST(FingerprintTest, SectionFingerprintsIsolateTheChangedSection) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  const NetworkModel changed = changedModel(
      net, "device t-BR1\nroute-policy PASS node 10 permit\n apply local-pref 150\n");
  EXPECT_NE(incr::fingerprintModel(base), incr::fingerprintModel(changed));

  const NameId br1 = Names::id("t-BR1");
  const auto baseSections = incr::fingerprintConfigSections(base.configs.devices().at(br1));
  const auto changedSections =
      incr::fingerprintConfigSections(changed.configs.devices().at(br1));
  EXPECT_NE(baseSections.routePolicies, changedSections.routePolicies);
  EXPECT_EQ(baseSections.staticRoutes, changedSections.staticRoutes);
  EXPECT_EQ(baseSections.bgpCore, changedSections.bgpCore);
  EXPECT_EQ(baseSections.prefixLists, changedSections.prefixLists);
  // Policy content is invisible to the traffic and local-routes slices.
  EXPECT_EQ(incr::fingerprintForwardingState(base),
            incr::fingerprintForwardingState(changed));
  EXPECT_EQ(incr::fingerprintLocalRouteState(base),
            incr::fingerprintLocalRouteState(changed));
}

TEST(FingerprintTest, StaticRouteChangesLocalRouteSlice) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  const NetworkModel changed =
      changedModel(net, "device t-C1\nstatic-route 60.0.0.0/8 discard\n");
  EXPECT_NE(incr::fingerprintLocalRouteState(base),
            incr::fingerprintLocalRouteState(changed));
}

TEST(FingerprintTest, ChunkFingerprintsAreOrderAndContentSensitive) {
  const SmallWan net = buildSmallWan();
  const std::vector<InputRoute> a{ispRoute(net, "100.1.0.0/16"),
                                  ispRoute(net, "100.2.0.0/16")};
  const std::vector<InputRoute> b{ispRoute(net, "100.2.0.0/16"),
                                  ispRoute(net, "100.1.0.0/16")};
  const std::vector<InputRoute> c{ispRoute(net, "100.1.0.0/16"),
                                  ispRoute(net, "100.2.0.0/16", 7)};
  EXPECT_EQ(incr::fingerprintInputRouteChunk(a), incr::fingerprintInputRouteChunk(a));
  EXPECT_NE(incr::fingerprintInputRouteChunk(a), incr::fingerprintInputRouteChunk(b));
  EXPECT_NE(incr::fingerprintInputRouteChunk(a), incr::fingerprintInputRouteChunk(c));
}

// --- change impact ----------------------------------------------------------

TEST(ChangeImpactTest, NoDeltaIsCompletelyClean) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  const NetworkModel same = net.model();
  const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, same);
  EXPECT_FALSE(impact.allDirty);
  EXPECT_TRUE(impact.dirtyRanges.empty());
  EXPECT_TRUE(impact.dirtyDevices.empty());
  EXPECT_TRUE(impact.clean(IpRange{*IpAddress::parse("0.0.0.0"),
                                   *IpAddress::parse("255.255.255.255")}));
}

TEST(ChangeImpactTest, PrefixScopedPolicyEditBoundsTheDirtyRange) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  const NetworkModel changed = changedModel(
      net,
      "device t-BR1\n"
      "ip-prefix LP-T index 10 permit 100.1.0.0/16\n"
      "route-policy PASS node 50 permit\n"
      " match ip-prefix LP-T\n"
      " apply local-pref 150\n");
  const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
  EXPECT_FALSE(impact.allDirty) << impact.reason;
  ASSERT_FALSE(impact.dirtyRanges.empty());
  // A subtask covering the edited prefix must re-run; a disjoint one is clean.
  const Prefix touched = *Prefix::parse("100.1.0.0/16");
  EXPECT_FALSE(impact.clean(IpRange{touched.firstAddress(), touched.lastAddress()}));
  const Prefix disjoint = *Prefix::parse("50.0.0.0/8");
  EXPECT_TRUE(impact.clean(IpRange{disjoint.firstAddress(), disjoint.lastAddress()}));
  // The edited device is dirty; its BGP peers are in the affected closure.
  EXPECT_NE(std::find(impact.dirtyDevices.begin(), impact.dirtyDevices.end(), net.br1),
            impact.dirtyDevices.end());
  EXPECT_NE(
      std::find(impact.affectedDevices.begin(), impact.affectedDevices.end(), net.rr1),
      impact.affectedDevices.end());
}

TEST(ChangeImpactTest, PolicyEditWithoutPrefixMatchIsAllDirty) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  const NetworkModel changed = changedModel(
      net, "device t-BR1\nroute-policy PASS node 10 permit\n apply local-pref 150\n");
  const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
  EXPECT_TRUE(impact.allDirty);
  EXPECT_FALSE(impact.clean(std::nullopt));
}

TEST(ChangeImpactTest, UndefinedPrefixListFollowsVendorFilterSemantics) {
  // policy_eval treats a missing/empty referenced list as match-ALL on
  // match-all vendors (VendorA/C) and match-NONE on VendorB: the same edit is
  // unbounded on the former and inert on the latter.
  const std::string commands =
      "device t-BR1\n"
      "route-policy PASS node 60 permit\n"
      " match ip-prefix NO-SUCH-LIST\n";
  {
    const SmallWan net = buildSmallWan(vendorA().name);
    const incr::ChangeImpact impact =
        incr::analyzeChangeImpact(net.model(), changedModel(net, commands));
    EXPECT_TRUE(impact.allDirty) << impact.reason;
  }
  {
    const SmallWan net = buildSmallWan(vendorB().name);
    const incr::ChangeImpact impact =
        incr::analyzeChangeImpact(net.model(), changedModel(net, commands));
    EXPECT_FALSE(impact.allDirty) << impact.reason;
  }
}

TEST(ChangeImpactTest, DeletedReferencedPrefixListFollowsVendorFilterSemantics) {
  // Base: PASS node 60 matches LP-GONE (100.9.0.0/16). Deleting the list (no
  // policy delta) makes the node match-all on match-all vendors — routes far
  // outside the old entries' spans flip — but only the old spans on VendorB.
  const std::string setup =
      "device t-BR1\n"
      "ip-prefix LP-GONE index 10 permit 100.9.0.0/16\n"
      "route-policy PASS node 60 permit\n"
      " match ip-prefix LP-GONE\n";
  for (const NameId borderVendor : {vendorA().name, vendorB().name}) {
    const SmallWan net = buildSmallWan(borderVendor);
    const NetworkModel base = changedModel(net, setup);
    NetworkConfig configs = base.configs;
    configs.mutableDevices().at(net.br1).prefixLists.erase(Names::id("LP-GONE"));
    const NetworkModel changed = NetworkModel::build(net.topology, std::move(configs));
    const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
    if (borderVendor == vendorA().name) {
      EXPECT_TRUE(impact.allDirty) << impact.reason;
    } else {
      EXPECT_FALSE(impact.allDirty) << impact.reason;
      const Prefix touched = *Prefix::parse("100.9.0.0/16");
      EXPECT_FALSE(impact.clean(IpRange{touched.firstAddress(), touched.lastAddress()}));
      const Prefix disjoint = *Prefix::parse("50.0.0.0/8");
      EXPECT_TRUE(impact.clean(IpRange{disjoint.firstAddress(), disjoint.lastAddress()}));
    }
  }
}

TEST(ChangeImpactTest, UnreferencedPrefixListCreationStaysScoped) {
  // A brand-new list nothing referenced before is bounded by its own spans
  // even on a match-all vendor (nothing ever evaluated it as undefined).
  const SmallWan net = buildSmallWan(vendorA().name);
  const NetworkModel base = net.model();
  const NetworkModel changed = changedModel(
      net, "device t-BR1\nip-prefix LP-NEW index 10 permit 100.7.0.0/16\n");
  const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
  EXPECT_FALSE(impact.allDirty) << impact.reason;
}

TEST(ChangeImpactTest, PolicyRemovalFollowsVendorTailSemantics) {
  // Deleting a whole policy moves no-node-matched routes from the
  // fall-through verdict (acceptWhenNoNodeMatches) to the undefined-policy
  // verdict (acceptWhenPolicyUndefined). Those differ on VendorA (accept vs
  // deny) — unbounded — and agree on VendorB (deny vs deny) — span-scoped.
  const std::string setup =
      "device t-BR1\n"
      "ip-prefix LP-SCOPED index 10 permit 100.8.0.0/16\n"
      "route-policy DOOMED node 10 permit\n"
      " match ip-prefix LP-SCOPED\n";
  for (const NameId borderVendor : {vendorA().name, vendorB().name}) {
    const SmallWan net = buildSmallWan(borderVendor);
    const NetworkModel base = changedModel(net, setup);
    NetworkConfig configs = base.configs;
    configs.mutableDevices().at(net.br1).routePolicies.erase(Names::id("DOOMED"));
    const NetworkModel changed = NetworkModel::build(net.topology, std::move(configs));
    const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
    if (borderVendor == vendorA().name)
      EXPECT_TRUE(impact.allDirty) << impact.reason;
    else
      EXPECT_FALSE(impact.allDirty) << impact.reason;
  }
}

TEST(ChangeImpactTest, NonScopedSectionsAreAllDirty) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  for (const char* commands : {
           "device t-C1\nstatic-route 60.0.0.0/8 discard\n",     // statics
           "device t-BR1\nrouter bgp 64512\n redistribute static\n",  // bgp core
       }) {
    const NetworkModel changed = changedModel(net, commands);
    const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
    EXPECT_TRUE(impact.allDirty) << commands << " -> " << impact.reason;
  }
}

TEST(ChangeImpactTest, TopologyChangeIsAllDirty) {
  const SmallWan net = buildSmallWan();
  const NetworkModel base = net.model();
  Topology topology = net.topology;
  topology.findDevice(net.c1)->interfaces[0].isisCost = 999;
  const NetworkModel changed = NetworkModel::build(std::move(topology), net.configs);
  const incr::ChangeImpact impact = incr::analyzeChangeImpact(base, changed);
  EXPECT_TRUE(impact.allDirty);
  EXPECT_NE(std::find(impact.dirtyDevices.begin(), impact.dirtyDevices.end(), net.c1),
            impact.dirtyDevices.end());
}

// --- engine + cache end-to-end ----------------------------------------------

class IncrementalEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 2;
    wan_ = generateWan(spec);
    WorkloadSpec workload;
    workload.prefixesPerIsp = 16;
    workload.prefixesPerDc = 8;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    flows_ = generateFlows(wan_, workload, 400);
    intents_.rclIntents = {"not prefix = 100.0.8.0/24 => PRE = POST"};
    intents_.maxLinkUtilization = 2.0;  // Forces the traffic phase to run.
  }

  std::unique_ptr<Hoyan> makeHoyan(bool incremental,
                                   incr::IncrementalOptions incrOptions = {}) {
    auto hoyan = std::make_unique<Hoyan>(wan_.topology, wan_.configs);
    hoyan->setInputRoutes(inputs_);
    hoyan->setInputFlows(flows_);
    DistSimOptions options;
    options.workers = 4;
    options.routeSubtasks = 12;
    options.trafficSubtasks = 6;
    hoyan->setSimulationOptions(options);
    if (incremental) hoyan->enableIncremental(incrOptions);
    hoyan->preprocess();
    return hoyan;
  }

  // A change confined to prefix-scoped sections of one border device.
  ChangePlan scopedPlan() const {
    ChangePlan plan;
    plan.name = "scoped";
    plan.commands =
        "device BR-0-0\n"
        "ip-prefix LP-INCR index 10 permit 100.0.8.0/24\n"
        "route-policy ISP-IN-0 node 800 permit\n"
        " match ip-prefix LP-INCR\n"
        " apply local-pref 150\n";
    return plan;
  }

  ChangePlan allDirtyPlan() const {
    ChangePlan plan;
    plan.name = "all-dirty";
    plan.commands = "device CORE-0-0\nstatic-route 77.0.0.0/8 discard\n";
    return plan;
  }

  GeneratedWan wan_;
  std::vector<InputRoute> inputs_;
  std::vector<Flow> flows_;
  IntentSet intents_;
};

TEST_F(IncrementalEndToEndTest, WarmRunMatchesColdRunWithCacheHits) {
  auto cold = makeHoyan(false);
  auto warm = makeHoyan(true);
  for (const ChangePlan& plan : {scopedPlan(), allDirtyPlan()}) {
    const ChangeVerificationResult coldResult = cold->verifyChange(plan, intents_);
    const ChangeVerificationResult warmResult = warm->verifyChange(plan, intents_);
    EXPECT_FALSE(coldResult.incrementalUsed);
    EXPECT_TRUE(warmResult.incrementalUsed);

    // Byte-identical RIBs, matching verdicts, matching loads.
    const auto coldRows = renderedRows(coldResult.updatedRibs);
    const auto warmRows = renderedRows(warmResult.updatedRibs);
    ASSERT_EQ(coldRows.size(), warmRows.size()) << plan.name;
    for (size_t i = 0; i < coldRows.size(); ++i)
      ASSERT_EQ(coldRows[i], warmRows[i]) << plan.name << " row " << i;
    ASSERT_EQ(coldResult.rclOutcomes.size(), warmResult.rclOutcomes.size());
    for (size_t i = 0; i < coldResult.rclOutcomes.size(); ++i)
      EXPECT_EQ(coldResult.rclOutcomes[i].result.satisfied,
                warmResult.rclOutcomes[i].result.satisfied)
          << plan.name;
    ASSERT_EQ(coldResult.updatedLinkLoads.size(), warmResult.updatedLinkLoads.size())
        << plan.name;
    for (const auto& entry : coldResult.updatedLinkLoads.entries())
      EXPECT_NEAR(warmResult.updatedLinkLoads.get(entry.from, entry.to), entry.bps,
                  1e-9)
          << plan.name;
  }
  // The scoped plan reuses base-run route results; verify by re-running it.
  const ChangeVerificationResult again = warm->verifyChange(scopedPlan(), intents_);
  EXPECT_GT(again.routeSubtaskCacheHits, 0u);
}

TEST_F(IncrementalEndToEndTest, ScopedChangeHitsOnFirstWarmRun) {
  auto warm = makeHoyan(true);
  const ChangeVerificationResult result = warm->verifyChange(scopedPlan(), intents_);
  // Most route subtasks don't overlap the touched /24 and are served from the
  // base run's cache entries.
  EXPECT_GT(result.routeSubtaskCacheHits, 0u) << result.impactSummary;
  EXPECT_GT(result.routeSubtaskCount, result.routeSubtaskCacheHits);
}

TEST_F(IncrementalEndToEndTest, RepeatedPlanIsServedEntirelyFromCache) {
  auto warm = makeHoyan(true);
  const ChangePlan plan = scopedPlan();
  warm->verifyChange(plan, intents_);
  const ChangeVerificationResult second = warm->verifyChange(plan, intents_);
  EXPECT_EQ(second.routeSubtaskCacheHits, second.routeSubtaskCount);
  EXPECT_EQ(second.trafficSubtaskCacheHits, second.trafficSubtaskCount);
  EXPECT_GT(second.trafficSubtaskCount, 0u);
}

TEST_F(IncrementalEndToEndTest, ProvenanceReplayServesCacheHitsAndEvents) {
  // Recording runs store each route subtask's events as a compressed
  // `<result key>#prov` blob, so a later identical run takes cache hits and
  // replays the events instead of bypassing the cache (the old behavior).
  auto warm = makeHoyan(true);
  obs::ProvenanceOptions provOptions;
  provOptions.enabled = true;
  obs::ProvenanceRecorder recorder(provOptions);
  warm->configureTelemetry({});
  warm->telemetry()->attach(&recorder);
  const ChangePlan plan = scopedPlan();
  // The base-run cache entries carry no provenance blobs, so this run
  // re-executes every route subtask and seeds the blobs.
  warm->verifyChange(plan, intents_);
  const size_t recordedEvents = recorder.eventCount();
  EXPECT_GT(recordedEvents, 0u);

  recorder.clear();
  const ChangeVerificationResult second = warm->verifyChange(plan, intents_);
  EXPECT_EQ(second.routeSubtaskCacheHits, second.routeSubtaskCount);
  EXPECT_GT(second.routeSubtaskCount, 0u);
  // Replayed events match the recorded run (same subtask-id merge order).
  EXPECT_EQ(recorder.eventCount(), recordedEvents);
}

TEST_F(IncrementalEndToEndTest, ProvenanceFilterChangeInvalidatesReplay) {
  // Stored #prov blobs carry the recording options' fingerprint. A run whose
  // filter differs cannot serve its recorder from them, so the route phase
  // bypasses the cache and re-records under the new filter.
  auto warm = makeHoyan(true);
  obs::ProvenanceOptions wide;
  wide.enabled = true;
  obs::ProvenanceRecorder wideRecorder(wide);
  warm->configureTelemetry({});
  warm->telemetry()->attach(&wideRecorder);
  const ChangePlan plan = scopedPlan();
  warm->verifyChange(plan, intents_);

  obs::ProvenanceOptions narrow = wide;
  narrow.prefixes.push_back(*Prefix::parse("100.0.8.0/24"));
  obs::ProvenanceRecorder narrowRecorder(narrow);
  warm->telemetry()->attach(&narrowRecorder);
  const ChangeVerificationResult result = warm->verifyChange(plan, intents_);
  EXPECT_EQ(result.routeSubtaskCacheHits, 0u);
  // Traffic subtasks record no provenance; their cached results stay valid.
  EXPECT_EQ(result.trafficSubtaskCacheHits, result.trafficSubtaskCount);
  EXPECT_GT(result.trafficSubtaskCount, 0u);
  // The narrow run re-recorded: only events inside the watched /24 appear.
  for (const obs::RouteEvent& event : narrowRecorder.snapshot())
    EXPECT_TRUE(Prefix::parse("100.0.8.0/24")->contains(event.prefix))
        << event.prefix.str();
}

TEST_F(IncrementalEndToEndTest, EvictionKeepsResidencyWithinBudget) {
  incr::IncrementalOptions options;
  options.cacheBudgetBytes = 64 * 1024;  // Far below one run's results.
  auto warm = makeHoyan(true, options);
  warm->verifyChange(scopedPlan(), intents_);
  warm->verifyChange(allDirtyPlan(), intents_);
  ASSERT_NE(warm->incremental(), nullptr);
  EXPECT_LE(warm->incremental()->cache().totalBytes(), options.cacheBudgetBytes);
}

TEST(SubtaskCacheTest, EvictionAtScaleIsFastExactAndInLruOrder) {
  // 10^5 entries, half over budget: eviction must stay far from quadratic
  // (the old full-scan-per-victim pass took minutes here), keep exactly the
  // most recently used half, and keep byte accounting exact.
  constexpr size_t kEntries = 100000;
  constexpr size_t kBytesEach = 100;
  ObjectStore store;
  incr::SubtaskCache cache(&store, kEntries / 2 * kBytesEach);
  std::vector<std::string> keys;
  keys.reserve(kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    keys.push_back("cas/r/scale-" + std::to_string(i));
    store.put(keys.back(), static_cast<int>(i), kBytesEach);
    cache.stored(keys.back(), kBytesEach);
  }
  ASSERT_EQ(cache.entryCount(), kEntries);
  ASSERT_EQ(cache.totalBytes(), kEntries * kBytesEach);
  // Re-touch the first half so the *insertion-order oldest* become newest.
  for (size_t i = 0; i < kEntries / 2; ++i) ASSERT_TRUE(cache.touch(keys[i]));

  const auto start = std::chrono::steady_clock::now();
  cache.evictToBudget();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 5.0) << "eviction pass is superlinear";
  EXPECT_EQ(cache.entryCount(), kEntries / 2);
  EXPECT_EQ(cache.totalBytes(), kEntries / 2 * kBytesEach);
  for (size_t i = 0; i < kEntries; ++i)
    EXPECT_EQ(cache.touch(keys[i]), i < kEntries / 2) << i;
}

TEST(SubtaskCacheTest, EvictionByteAccountingRoundTripsToZero) {
  constexpr size_t kEntries = 100000;
  ObjectStore store;
  incr::SubtaskCache cache(&store, 1);  // Nothing fits the budget.
  for (size_t i = 0; i < kEntries; ++i) {
    const std::string key = "cas/r/zero-" + std::to_string(i);
    store.put(key, static_cast<int>(i), 64);
    cache.stored(key, 64);
  }
  cache.evictToBudget();
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.totalBytes(), 0u);
}

TEST(SplitCacheTest, ReusesSortedOrdersAndMemoizesChunkFingerprints) {
  const SmallWan net = buildSmallWan();
  std::vector<InputRoute> inputs{ispRoute(net, "100.2.0.0/16"),
                                 ispRoute(net, "100.1.0.0/16"),
                                 ispRoute(net, "100.3.0.0/16")};
  incr::SplitCache cache;
  // Cold probe: no cached order yet; store one.
  ASSERT_EQ(cache.cachedRouteOrder(inputs), nullptr);
  std::vector<InputRoute> sorted = inputs;
  std::sort(sorted.begin(), sorted.end(), [](const InputRoute& a, const InputRoute& b) {
    return a.route.prefix.firstAddress() < b.route.prefix.firstAddress();
  });
  cache.storeRouteOrder(std::make_shared<const std::vector<InputRoute>>(sorted));

  // Warm probe with the same (unsorted) inputs: the stored order comes back.
  const auto cached = cache.cachedRouteOrder(inputs);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cache.routeOrderReuses(), 1u);
  ASSERT_EQ(cached->size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i)
    EXPECT_EQ((*cached)[i].route.prefix.str(), sorted[i].route.prefix.str());

  // Chunk fingerprints over the cached buffer memoize and agree with the
  // direct hash; spans outside the cached buffer are not claimed.
  const std::span<const InputRoute> chunk(cached->data(), 2);
  const auto memoized = cache.routeChunkFingerprint(chunk);
  ASSERT_TRUE(memoized.has_value());
  EXPECT_EQ(*memoized, incr::fingerprintInputRouteChunk(chunk));
  EXPECT_EQ(*cache.routeChunkFingerprint(chunk), *memoized);
  EXPECT_FALSE(cache.routeChunkFingerprint(inputs).has_value());

  // A different input set misses and invalidates nothing until stored.
  std::vector<InputRoute> other{ispRoute(net, "100.9.0.0/16")};
  EXPECT_EQ(cache.cachedRouteOrder(other), nullptr);
}

TEST(IncrementalEngineTest, BeginRunWithoutBaseModelThrows) {
  incr::IncrementalEngine engine;
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  DistSimOptions options;
  EXPECT_THROW(engine.beginRun(model, options), std::logic_error);
}

TEST(IncrementalEngineTest, EndRunDropsTransientsAndKeepsCachedResults) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  incr::IncrementalEngine engine;
  engine.setBaseModel(model);
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 2;
  engine.beginRun(model, options);
  ASSERT_EQ(options.store, &engine.store());
  ASSERT_NE(options.cache, nullptr);
  ASSERT_FALSE(options.keyPrefix.empty());

  DistributedSimulator sim(model, options);
  const std::vector<InputRoute> inputs{testing::ispRoute(net, "100.1.0.0/16"),
                                       testing::ispRoute(net, "100.2.0.0/16")};
  ASSERT_TRUE(sim.runRouteSimulation(inputs).succeeded);
  const size_t cachedEntries = engine.cache().entryCount();
  EXPECT_GT(cachedEntries, 0u);
  const size_t liveBefore = engine.store().blobCount();
  engine.endRun();
  // Transient inputs under the run prefix are gone; content-keyed results stay.
  EXPECT_LT(engine.store().blobCount(), liveBefore);
  EXPECT_EQ(engine.cache().entryCount(), cachedEntries);
}

TEST(IncrementalEngineTest, BeginRunReclaimsAnAbandonedRunsTransients) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  incr::IncrementalEngine engine;
  engine.setBaseModel(model);
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 2;
  engine.beginRun(model, options);
  DistributedSimulator sim(model, options);
  const std::vector<InputRoute> inputs{testing::ispRoute(net, "100.1.0.0/16"),
                                       testing::ispRoute(net, "100.2.0.0/16")};
  ASSERT_TRUE(sim.runRouteSimulation(inputs).succeeded);
  const size_t blobsAfterRun = engine.store().blobCount();
  // Abandon the run without endRun (as an exception unwinding out of a failed
  // simulation would); the next beginRun must erase the stale run prefix
  // instead of leaking its transient blobs for the engine's lifetime.
  DistSimOptions nextOptions;
  nextOptions.workers = 2;
  nextOptions.routeSubtasks = 2;
  engine.beginRun(model, nextOptions);
  EXPECT_LT(engine.store().blobCount(), blobsAfterRun);
  EXPECT_NE(nextOptions.keyPrefix, options.keyPrefix);
  engine.endRun();
}

TEST(IncrementalEngineTest, ReportsIntoTheRunContextWhateverTheCallOrder) {
  // Regression: the engine used to keep whatever context existed when
  // enableIncremental ran, so enabling it before configureTelemetry lost
  // the impact and rib_assembly events and the incr.* counters.
  const auto run = [](bool engineFirst) {
    const SmallWan net = buildSmallWan();
    Hoyan hoyan(net.topology, net.configs);
    hoyan.setInputRoutes({ispRoute(net, "100.1.0.0/16"), ispRoute(net, "100.2.0.0/16")});
    obs::TelemetryOptions options;
    options.journal = true;
    if (engineFirst) {
      hoyan.enableIncremental();
      hoyan.configureTelemetry(options);
    } else {
      hoyan.configureTelemetry(options);
      hoyan.enableIncremental();
    }
    hoyan.preprocess();
    ChangePlan plan;
    plan.name = "static";
    plan.commands = "device t-C1\nstatic-route 10.9.0.0/24 nexthop 9.0.0.1\n";
    IntentSet intents;
    intents.rclIntents = {"PRE = POST"};
    hoyan.verifyChange(plan, intents);
    obs::Telemetry& telemetry = *hoyan.telemetry();
    std::string counters;
    for (const char* name :
         {"incr.cache.hits", "incr.cache.misses", "incr.cache.evictions",
          "incr.cache.bypasses", "incr.rib.fragment_hits", "incr.rib.fragment_misses",
          "incr.rib.rows_skipped"})
      counters += std::string(name) + "=" +
                  std::to_string(telemetry.metrics().counter(name).value()) + "\n";
    size_t impacts = 0, assemblies = 0, misses = 0;
    for (const obs::JournalEvent& event : telemetry.journal().events()) {
      impacts += event.type == obs::JournalEventType::kImpact ? 1 : 0;
      assemblies += event.type == obs::JournalEventType::kRibAssembly ? 1 : 0;
      misses += event.type == obs::JournalEventType::kCacheMiss ? 1 : 0;
    }
    EXPECT_EQ(impacts, 2u) << engineFirst;     // preprocess + verifyChange.
    EXPECT_EQ(assemblies, 2u) << engineFirst;
    EXPECT_GT(misses, 0u) << engineFirst;
    EXPECT_EQ(telemetry.metrics().counter("incr.cache.misses").value(), misses)
        << engineFirst;
    return std::pair{telemetry.journal().canonicalJsonl(), counters};
  };
  const auto engineFirst = run(true);
  const auto telemetryFirst = run(false);
  EXPECT_EQ(engineFirst.first, telemetryFirst.first);
  EXPECT_EQ(engineFirst.second, telemetryFirst.second);
}

}  // namespace
}  // namespace hoyan
