// Differential tests for the distributed k-failure sweep engine: every mode
// (worker counts, pruning, dedupe, caching, retries, early exit) must produce
// results byte-identical to the serial oracle `checkKFailures`.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/engine.h"
#include "inspect.h"
#include "inspect_testing.h"
#include "obs/run_registry.h"
#include "obs/telemetry.h"
#include "rcl/global_rib.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "sim/route_sim.h"
#include "sweep/derive_hints.h"
#include "sweep/sweep.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

void expectSameResult(const KFailureResult& expected, const KFailureResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.scenariosChecked, actual.scenariosChecked) << label;
  ASSERT_EQ(expected.counterexamples.size(), actual.counterexamples.size()) << label;
  for (size_t i = 0; i < expected.counterexamples.size(); ++i) {
    EXPECT_EQ(expected.counterexamples[i].failedLinks,
              actual.counterexamples[i].failedLinks)
        << label << " counterexample " << i;
    EXPECT_EQ(expected.counterexamples[i].failedDevices,
              actual.counterexamples[i].failedDevices)
        << label << " counterexample " << i;
  }
}

rcl::IntentPtr parseOrFail(const std::string& spec) {
  const rcl::ParseOutcome outcome = rcl::parseIntent(spec);
  EXPECT_TRUE(outcome.ok()) << spec << ": " << outcome.error;
  return outcome.intent;
}

// An RCL intent as a sweep property: the audit-task reading on each degraded
// network, as Hoyan::sweepIntentFaultTolerance states it.
NetworkProperty intentProperty(rcl::IntentPtr intent) {
  return [intent](const NetworkModel&, const NetworkRibs& ribs) {
    const rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
}

// Adds a second external peer to the fixture: BR1 --- ISP2 over a non-IGP
// link with an eBGP session, announcing `prefix`. The default is irrelevant
// to any property about 100.1.0.0/16, so its link is prunable under hints.
NameId addSecondIsp(SmallWan& net, std::vector<InputRoute>& inputs,
                    const std::string& prefix = "200.2.0.0/16") {
  Device isp2;
  isp2.name = Names::id("t-ISP2");
  isp2.role = DeviceRole::kExternalPeer;
  isp2.loopback = *IpAddress::parse("9.0.0.99");
  net.topology.addDevice(isp2);
  DeviceConfig config;
  config.hostname = isp2.name;
  config.vendor = vendorB().name;
  config.routerId = isp2.loopback;
  config.bgp.asn = 65002;
  net.configs.mutableDevices().emplace(isp2.name, std::move(config));

  Device* border = net.topology.findDevice(net.br1);
  Device* peer = net.topology.findDevice(isp2.name);
  Interface borderItf;
  borderItf.name = Names::id("t-BR1:isp2");
  borderItf.address = *IpAddress::parse("172.21.0.1");
  borderItf.prefixLength = 30;
  border->interfaces.push_back(borderItf);
  Interface peerItf;
  peerItf.name = Names::id("t-ISP2:e0");
  peerItf.address = *IpAddress::parse("172.21.0.2");
  peerItf.prefixLength = 30;
  peer->interfaces.push_back(peerItf);
  net.topology.addLink(net.br1, borderItf.name, isp2.name, peerItf.name);

  BgpNeighbor toPeer;
  toPeer.peerAddress = peerItf.address;
  toPeer.remoteAs = 65002;
  net.configs.device(net.br1).bgp.neighbors.push_back(toPeer);
  BgpNeighbor toBorder;
  toBorder.peerAddress = borderItf.address;
  toBorder.remoteAs = 64512;
  net.configs.device(isp2.name).bgp.neighbors.push_back(toBorder);

  InputRoute announcement;
  announcement.device = isp2.name;
  announcement.route.prefix = *Prefix::parse(prefix);
  announcement.route.protocol = Protocol::kBgp;
  announcement.route.attrs.origin = BgpOrigin::kIgp;
  announcement.route.nexthop = isp2.loopback;
  announcement.route.nexthopDevice = isp2.name;
  inputs.push_back(announcement);
  return isp2.name;
}

// Adds a /30 link a --- b, a at `addressA` and b at `addressB`; `isis`
// enables IS-IS on both ends at cost 10.
void addLink(SmallWan& net, NameId a, const std::string& addressA, NameId b,
             const std::string& addressB, bool isis) {
  const auto end = [&](NameId device, const std::string& address, NameId peer) {
    Interface itf;
    itf.name = Names::id(Names::str(device) + ":" + Names::str(peer));
    itf.address = *IpAddress::parse(address);
    itf.prefixLength = 30;
    itf.isisEnabled = isis;
    net.topology.findDevice(device)->interfaces.push_back(itf);
    return itf.name;
  };
  const NameId itfA = end(a, addressA, b);
  const NameId itfB = end(b, addressB, a);
  net.topology.addLink(a, itfA, b, itfB);
}

// The global-RIB rows a centralized simulation of `model` gives `prefix`.
size_t rowsFor(const NetworkModel& model, const std::vector<InputRoute>& inputs,
               const Prefix& prefix) {
  const rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(
      simulateCentralized(model, inputs).ribs);
  return static_cast<size_t>(std::count_if(
      rib.rows().begin(), rib.rows().end(),
      [&](const rcl::RibRow& row) { return row.prefix == prefix; }));
}

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    model_ = net_.model();
    inputs_ = {ispRoute(net_, "100.1.0.0/16")};
  }

  // Property: the ISP route stays data-plane reachable from C2. BR1-ISP1 and
  // BR1-C1 are single points of failure for it.
  NetworkProperty reachProperty() const {
    return [this](const NetworkModel& degraded, const NetworkRibs& ribs) {
      return dataPlaneReachable(degraded, ribs, net_.c2,
                                *IpAddress::parse("100.1.2.3"));
    };
  }

  SmallWan net_;
  NetworkModel model_;
  std::vector<InputRoute> inputs_;
};

TEST_F(SweepTest, MatchesSerialOracleAcrossWorkerCounts) {
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);
  EXPECT_FALSE(serial.holds());

  for (const size_t workers : {1u, 3u, 6u}) {
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    const sweep::SweepResult swept =
        sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
    expectSameResult(serial, swept.result, "workers=" + std::to_string(workers));
    EXPECT_EQ(swept.stats.enumerated, serial.scenariosChecked);
    EXPECT_EQ(swept.stats.pruned, 0u);  // No hints: pruning disabled.
  }
}

TEST_F(SweepTest, MatchesSerialWithDeviceFailures) {
  KFailureOptions failure;
  failure.k = 1;
  failure.includeDeviceFailures = true;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);

  for (const size_t workers : {1u, 3u, 6u}) {
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    const sweep::SweepResult swept =
        sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
    expectSameResult(serial, swept.result,
                     "devices workers=" + std::to_string(workers));
  }
}

TEST_F(SweepTest, MatchesSerialUnderCounterexampleCap) {
  // The cap cuts enumeration mid-sweep; the committed prefix must equal the
  // serial evaluation set with or without early-exit cancellation.
  KFailureOptions failure;
  failure.k = 2;
  failure.includeDeviceFailures = true;
  failure.maxCounterexamples = 2;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);
  ASSERT_EQ(serial.counterexamples.size(), 2u);

  for (const size_t workers : {1u, 3u, 6u}) {
    for (const bool earlyExit : {true, false}) {
      sweep::SweepOptions options;
      options.failure = failure;
      options.workers = workers;
      options.earlyExit = earlyExit;
      const sweep::SweepResult swept =
          sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
      expectSameResult(serial, swept.result,
                       "cap workers=" + std::to_string(workers) +
                           " earlyExit=" + (earlyExit ? "on" : "off"));
    }
  }
}

TEST_F(SweepTest, FocusDevicesMatchSerial) {
  const Prefix rrLoopback(model_.topology.findDevice(net_.rr1)->loopback, 32);
  const NetworkProperty property = [&](const NetworkModel&, const NetworkRibs& ribs) {
    const auto devices = devicesWithRoute(ribs, rrLoopback);
    return std::find(devices.begin(), devices.end(), net_.c1) != devices.end();
  };
  KFailureOptions failure;
  failure.k = 1;
  failure.focusDevices = {net_.c1, net_.c2, net_.rr1};
  const KFailureResult serial = checkKFailures(model_, inputs_, property, failure);
  EXPECT_TRUE(serial.holds());

  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const sweep::SweepResult swept =
      sweep::sweepKFailures(model_, inputs_, property, options);
  expectSameResult(serial, swept.result, "focus");
}

TEST_F(SweepTest, PruningSkipsInertScenariosAndMatchesSerial) {
  // ISP2's link carries no IGP adjacency, injects only 200.2.0.0/16, and is
  // on no relevant device — every scenario that only fails it inherits the
  // base verdict.
  addSecondIsp(net_, inputs_);
  model_ = net_.model();
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);

  sweep::SweepHints hints;
  hints.relevantPrefixes = {*Prefix::parse("100.1.0.0/16")};
  hints.relevantDevices = {net_.c2};
  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const sweep::SweepResult pruned =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options, hints);
  expectSameResult(serial, pruned.result, "pruned");
  EXPECT_GT(pruned.stats.pruned + pruned.stats.deduped, 0u);
  EXPECT_LT(pruned.stats.scheduled, pruned.stats.enumerated);
  // The same hints slice the inputs: each job simulates only ISP1's route.
  EXPECT_EQ(pruned.stats.jobInputs, 1u);

  // Without relevance every job simulates every input.
  sweep::SweepHints unscoped;
  unscoped.cacheId = "reach-c2-100.1.2.3";
  const sweep::SweepResult full =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options, unscoped);
  expectSameResult(serial, full.result, "unscoped");
  EXPECT_EQ(full.stats.jobInputs, 2u);
}

TEST_F(SweepTest, CallerHintsAreClosedOverAggregates) {
  // BR1 originates the aggregate 100.0.0.0/8 (not summary-only) from ISP1's
  // 100.1.0.0/16 and ISP2's 100.2.0.0/16. The caller declares only
  // 100.1.0.0/16 relevant, which the aggregate overlaps, so reading the
  // aggregate keeps to the hints' contract. But the aggregate lives on
  // ISP2's route too: failing both ISP links removes it. Without the closure
  // the sweep pruned ISP2's link as inert (its only route does not overlap
  // 100.1.0.0/16) and missed that counterexample.
  addSecondIsp(net_, inputs_, "100.2.0.0/16");
  AggregateConfig aggregate;
  aggregate.prefix = *Prefix::parse("100.0.0.0/8");
  aggregate.summaryOnly = false;
  net_.configs.device(net_.br1).bgp.aggregates.push_back(aggregate);
  model_ = net_.model();

  const NetworkProperty property =
      intentProperty(parseOrFail("prefix = 100.0.0.0/8 => POST |> count() >= 1"));
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, property, failure);
  ASSERT_EQ(serial.counterexamples.size(), 1u);

  sweep::SweepHints hints;
  hints.relevantPrefixes = {*Prefix::parse("100.1.0.0/16")};
  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const sweep::SweepResult swept =
      sweep::sweepKFailures(model_, inputs_, property, options, hints);
  expectSameResult(serial, swept.result, "aggregate");
  // The closed set covers ISP2's route, so the jobs simulate it too.
  EXPECT_EQ(swept.stats.jobInputs, 2u);
}

// Adds t-DC, a DC gateway with no IS-IS interface on a non-IGP link to BR1,
// holding a discard static on `staticPrefix`.
NameId addDcGateway(SmallWan& net, const std::string& staticPrefix) {
  Device dc;
  dc.name = Names::id("t-DC");
  dc.role = DeviceRole::kDcGateway;
  dc.loopback = *IpAddress::parse("9.0.0.50");
  net.topology.addDevice(dc);
  DeviceConfig config;
  config.hostname = dc.name;
  config.vendor = vendorB().name;
  config.routerId = dc.loopback;
  StaticRouteConfig discard;
  discard.prefix = *Prefix::parse(staticPrefix);
  discard.discard = true;
  config.staticRoutes.push_back(discard);
  net.configs.mutableDevices().emplace(dc.name, std::move(config));
  addLink(net, net.br1, "172.23.0.1", dc.name, "172.23.0.2", /*isis=*/false);
  return dc.name;
}

TEST_F(SweepTest, DeviceOwningARelevantStaticIsNotInert) {
  // t-DC alone carries 100.1.0.0/24, so failing it removes the prefix's
  // only route. Its loopback and subnet overlap nothing relevant: a sweep
  // that did not count its static as an originated route would prune the
  // device as inert and miss that counterexample.
  const NameId dc = addDcGateway(net_, "100.1.0.0/24");
  model_ = net_.model();

  const rcl::IntentPtr intent = parseOrFail("prefix = 100.1.0.0/24 => POST |> count() >= 1");
  const NetworkProperty property = intentProperty(intent);
  KFailureOptions failure;
  failure.k = 1;
  failure.includeDeviceFailures = true;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, property, failure);
  ASSERT_EQ(serial.counterexamples.size(), 1u);
  EXPECT_EQ(serial.counterexamples[0].failedDevices, std::vector<NameId>{dc});

  sweep::SweepHints caller;
  caller.relevantPrefixes = {*Prefix::parse("100.1.0.0/24")};
  const sweep::DeriveResult derived = sweep::deriveHints(*intent, model_, inputs_);
  ASSERT_TRUE(derived.scoped) << derived.reason;
  for (const size_t workers : {1u, 3u}) {
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    const std::string label = " workers=" + std::to_string(workers);
    expectSameResult(
        serial, sweep::sweepKFailures(model_, inputs_, property, options, caller).result,
        "caller" + label);
    expectSameResult(
        serial, sweep::sweepKFailures(model_, inputs_, property, options, derived.hints).result,
        "derived" + label);
  }
}

TEST_F(SweepTest, LinkCarryingARelevantStaticIsNotInert) {
  // BR1 sends 100.1.2.0/24 to t-DC by a static over their non-IGP link, so
  // C2's traffic to 100.1.2.3 dies with that link. Neither end injects a
  // relevant input and the link's subnet overlaps nothing relevant: a sweep
  // that did not count static owners as originators would prune the link.
  addDcGateway(net_, "100.1.2.0/24");
  StaticRouteConfig toDc;
  toDc.prefix = *Prefix::parse("100.1.2.0/24");
  toDc.nexthop = *IpAddress::parse("172.23.0.2");
  net_.configs.device(net_.br1).staticRoutes.push_back(toDc);
  model_ = net_.model();

  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);
  ASSERT_EQ(serial.counterexamples.size(), 3u);
  EXPECT_EQ(serial.counterexamples[2].str(), "link t-BR1-t-DC");

  sweep::SweepHints hints;
  hints.relevantPrefixes = {*Prefix::parse("100.1.0.0/16")};
  hints.relevantDevices = {net_.c2};
  for (const size_t workers : {1u, 3u}) {
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    expectSameResult(
        serial, sweep::sweepKFailures(model_, inputs_, reachProperty(), options, hints).result,
        "workers=" + std::to_string(workers));
  }
}

// Derived-hints sweeps whose intents read local routes: a core's loopback
// (IS-IS routes, whose ECMP next hops change under link failures) and an
// interface subnet (direct routes, gone with a failed endpoint). Each verdict
// depends on the local routes the jobs keep, so each sweep must find the
// oracle's counterexamples with them.
TEST_F(SweepTest, LocalRouteScopedSweepsMatchSerial) {
  // RR1-BR1 gives BR1 two equal-cost paths to C2 (via C1 and via RR1).
  addLink(net_, net_.rr1, "172.30.0.1", net_.br1, "172.30.0.2", /*isis=*/true);
  model_ = net_.model();
  const Prefix c2Loopback(model_.topology.findDevice(net_.c2)->loopback, 32);
  // C2's direct route, one IS-IS route on C1 and RR1, two on BR1.
  const size_t loopbackRows = rowsFor(model_, inputs_, c2Loopback);
  ASSERT_EQ(loopbackRows, 5u);
  const Prefix c1c2Subnet = model_.topology.findDevice(net_.c1)->interfaces.front().subnet();
  ASSERT_EQ(rowsFor(model_, inputs_, c1c2Subnet), 2u);

  struct Case {
    std::string spec;
    KFailureOptions failure;
    bool keepsLocalRoutes;
  };
  KFailureOptions linkPairs;
  linkPairs.k = 2;
  linkPairs.maxCounterexamples = 1000;
  KFailureOptions withDevices;
  withDevices.k = 1;
  withDevices.includeDeviceFailures = true;
  withDevices.maxCounterexamples = 1000;
  const std::vector<Case> cases = {
      {"prefix = " + c2Loopback.str() + " => POST |> count() = " +
           std::to_string(loopbackRows),
       linkPairs, true},
      {"prefix = " + c1c2Subnet.str() + " => POST |> count() >= 2", withDevices, true},
      {"prefix = 100.1.0.0/16 => POST |> count() >= 1", linkPairs, false},
  };
  for (const Case& c : cases) {
    const rcl::IntentPtr intent = parseOrFail(c.spec);
    const NetworkProperty property = intentProperty(intent);
    const KFailureResult serial = checkKFailures(model_, inputs_, property, c.failure);
    if (c.keepsLocalRoutes) {
      EXPECT_FALSE(serial.counterexamples.empty()) << c.spec;
    }
    const sweep::DeriveResult derived = sweep::deriveHints(*intent, model_, inputs_);
    ASSERT_TRUE(derived.scoped) << c.spec << ": " << derived.reason;
    for (const size_t workers : {1u, 3u}) {
      sweep::SweepOptions options;
      options.failure = c.failure;
      options.workers = workers;
      const std::string label = c.spec + " workers=" + std::to_string(workers);
      const sweep::SweepResult swept =
          sweep::sweepKFailures(model_, inputs_, property, options, derived.hints);
      expectSameResult(serial, swept.result, label);
      if (c.keepsLocalRoutes) {
        EXPECT_GT(swept.stats.localRoutesInstalled, 0u) << label;
      } else {
        EXPECT_EQ(swept.stats.localRoutesInstalled, 0u) << label;
      }
    }
  }
}

TEST(SweepSharedIntentTest, WorkersCheckOneParsedIntentConcurrently) {
  // Every worker checks the one parsed intent. deriveHints evaluates only the
  // prefix conjunct of this guard, on the calling thread; the nexthop
  // conjunct is first evaluated by the workers, all at once. Its literal is
  // parsed when the predicate is built, so eval only reads (TSan reports a
  // race if eval fills anything).
  WanSpec wan;
  wan.regions = 1;
  wan.coresPerRegion = 2;
  wan.bordersPerRegion = 1;
  wan.dcsPerRegion = 1;
  wan.seed = 101;
  const GeneratedWan generated = generateWan(wan);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 4;
  workload.prefixesPerDc = 2;
  workload.v6Share = 0;
  const std::vector<InputRoute> inputs = generateInputRoutes(generated, workload);
  const NetworkModel model = generated.buildModel();

  const rcl::IntentPtr intent = parseOrFail(
      "prefix = 100.0.1.0/24 and nexthop = 10.0.0.1 => POST |> count() >= 0");
  ASSERT_TRUE(intent);
  const NetworkProperty property = intentProperty(intent);
  const sweep::DeriveResult derived = sweep::deriveHints(*intent, model, inputs);
  ASSERT_TRUE(derived.scoped) << derived.reason;

  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 50;
  for (const size_t workers : {3u, 6u}) {
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    const sweep::SweepResult swept =
        sweep::sweepKFailures(model, inputs, property, options, derived.hints);
    EXPECT_GT(swept.stats.evaluated, 1u);
    expectSameResult(checkKFailures(model, inputs, property, failure), swept.result,
                     "workers=" + std::to_string(workers));
  }
}

TEST_F(SweepTest, DedupeSharesSymmetricScenarios) {
  // A parallel C1-C2 link: failing either one degrades the network
  // identically (link state is per device pair), so the two scenarios share
  // one job.
  Device* c1 = net_.topology.findDevice(net_.c1);
  Device* c2 = net_.topology.findDevice(net_.c2);
  Interface itfA;
  itfA.name = Names::id("t-C1:par");
  itfA.address = *IpAddress::parse("172.22.0.1");
  itfA.prefixLength = 30;
  itfA.isisEnabled = true;
  itfA.isisCost = 10;
  c1->interfaces.push_back(itfA);
  Interface itfB;
  itfB.name = Names::id("t-C2:par");
  itfB.address = *IpAddress::parse("172.22.0.2");
  itfB.prefixLength = 30;
  itfB.isisEnabled = true;
  itfB.isisCost = 10;
  c2->interfaces.push_back(itfB);
  net_.topology.addLink(net_.c1, itfA.name, net_.c2, itfB.name);
  model_ = net_.model();

  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);

  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const sweep::SweepResult swept =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
  expectSameResult(serial, swept.result, "dedupe");
  EXPECT_GT(swept.stats.deduped, 0u);
  EXPECT_EQ(swept.stats.scheduled + swept.stats.deduped + swept.stats.pruned,
            swept.stats.enumerated);
}

TEST_F(SweepTest, WarmCacheServesVerdictsByteIdentically) {
  incr::IncrementalEngine engine;
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);

  sweep::SweepHints hints;
  hints.cacheId = "reach-c2-100.1.2.3";
  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  options.incremental = &engine;

  const sweep::SweepResult cold =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options, hints);
  expectSameResult(serial, cold.result, "cold");
  EXPECT_EQ(cold.stats.cacheHits, 0u);
  EXPECT_GT(cold.stats.evaluated, 0u);

  for (const size_t workers : {3u, 6u}) {
    options.workers = workers;
    const sweep::SweepResult warm =
        sweep::sweepKFailures(model_, inputs_, reachProperty(), options, hints);
    expectSameResult(serial, warm.result, "warm workers=" + std::to_string(workers));
    EXPECT_EQ(warm.stats.cacheHits, cold.stats.scheduled);
    EXPECT_EQ(warm.stats.evaluated, 0u);
    EXPECT_EQ(warm.stats.scheduled, 0u);
  }

  // A different property id must not share the cache.
  sweep::SweepHints otherHints;
  otherHints.cacheId = "a-different-property";
  const sweep::SweepResult other =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options, otherHints);
  expectSameResult(serial, other.result, "other-id");
  EXPECT_EQ(other.stats.cacheHits, 0u);
}

TEST_F(SweepTest, RetriesRecoverFromInjectedCrashes) {
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);

  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 4;
  options.workerFailureProbability = 0.3;
  options.failureSeed = 7;
  options.maxAttempts = 10;
  const sweep::SweepResult swept =
      sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
  expectSameResult(serial, swept.result, "retries");
  EXPECT_GT(swept.stats.retries, 0u) << "fault injection never fired";
}

TEST_F(SweepTest, ExhaustedRetryBudgetThrows) {
  sweep::SweepOptions options;
  options.failure.k = 1;
  options.workers = 2;
  options.workerFailureProbability = 1.0;
  options.maxAttempts = 2;
  EXPECT_THROW(sweep::sweepKFailures(model_, inputs_, reachProperty(), options),
               std::runtime_error);
}

TEST_F(SweepTest, EarlyExitSettlesRegistryCounts) {
  // Regression: once the counterexample cap fills, an early-exit sweep drops
  // the jobs still queued. The registry counted them as pending at enqueue,
  // so it must hear about the drop (the journal's subtask_cancel), or the
  // finished run never settles.
  KFailureOptions failure;
  failure.k = 2;
  failure.includeDeviceFailures = true;
  failure.maxCounterexamples = 1;
  const KFailureResult serial = checkKFailures(model_, inputs_, reachProperty(), failure);
  for (const size_t workers : {1u, 3u, 6u}) {
    for (const bool earlyExit : {true, false}) {
      const std::string label = "workers=" + std::to_string(workers) +
                                " earlyExit=" + (earlyExit ? "on" : "off");
      obs::RunRegistry registry;
      obs::Telemetry context;
      context.attach(&registry);
      context.journal().runBegin("sweep", 0);
      const uint64_t run = registry.currentRunId();
      sweep::SweepOptions options;
      options.failure = failure;
      options.workers = workers;
      options.earlyExit = earlyExit;
      options.telemetry = &context;
      const sweep::SweepResult swept =
          sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
      context.journal().runEnd("sweep", 0);
      expectSameResult(serial, swept.result, label);
      const std::optional<obs::RunSnapshot> snapshot = registry.snapshot(run);
      ASSERT_TRUE(snapshot.has_value()) << label;
      EXPECT_EQ(snapshot->state, "succeeded") << label;
      EXPECT_EQ(snapshot->pending, 0u) << label;
      EXPECT_EQ(snapshot->running, 0u) << label;
    }
  }
}

TEST_F(SweepTest, JournalEventsValidateAndAreDeterministicAcrossWorkerCounts) {
  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 50;  // Never reached: no early-exit races.

  const auto canonicalRun = [&](size_t workers) {
    obs::TelemetryOptions telemetryOptions;
    telemetryOptions.journal = true;
    obs::Telemetry telemetry(telemetryOptions);
    sweep::SweepOptions options;
    options.failure = failure;
    options.workers = workers;
    options.telemetry = &telemetry;
    sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
    std::string error;
    EXPECT_TRUE(testing::validateJournalText(telemetry.journal().toJsonl(), error))
        << error;
    return telemetry.journal().canonicalJsonl();
  };

  const std::string serial = canonicalRun(1);
  const std::string parallel = canonicalRun(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"ev\":\"sweep_plan\""), std::string::npos);
  EXPECT_NE(serial.find("\"ev\":\"sweep_verdict\""), std::string::npos);
  EXPECT_NE(serial.find("\"ev\":\"sweep_result\""), std::string::npos);
}

TEST_F(SweepTest, JournalWithRetriesIsDeterministicAcrossWorkerCounts) {
  // The same comparison with fault injection on: the retry events the
  // executor emits must be as deterministic as the rest of the journal.
  const auto canonicalRun = [&](size_t workers) {
    obs::TelemetryOptions telemetryOptions;
    telemetryOptions.journal = true;
    obs::Telemetry telemetry(telemetryOptions);
    sweep::SweepOptions options;
    options.failure.k = 1;
    options.failure.maxCounterexamples = 50;
    options.workers = workers;
    options.telemetry = &telemetry;
    options.workerFailureProbability = 0.3;
    options.failureSeed = 7;
    options.maxAttempts = 10;
    const sweep::SweepResult swept =
        sweep::sweepKFailures(model_, inputs_, reachProperty(), options);
    EXPECT_GT(swept.stats.retries, 0u) << "fault injection never fired";
    std::string error;
    EXPECT_TRUE(testing::validateJournalText(telemetry.journal().toJsonl(), error))
        << error;
    return telemetry.journal().canonicalJsonl();
  };

  const std::string serial = canonicalRun(1);
  EXPECT_NE(serial.find("\"ev\":\"subtask_retry\""), std::string::npos);
  for (const size_t workers : {3u, 6u})
    EXPECT_EQ(serial, canonicalRun(workers)) << "workers=" << workers;
}

TEST(SweepHoyanTest, CheckFaultToleranceMatchesSerialOracle) {
  SmallWan net = buildSmallWan();
  Hoyan hoyan(net.topology, net.configs);
  hoyan.setInputRoutes({ispRoute(net, "100.1.0.0/16")});
  DistSimOptions simOptions;
  simOptions.workers = 3;
  hoyan.setSimulationOptions(simOptions);
  hoyan.enableIncremental();
  hoyan.preprocess();

  const NetworkProperty property = [&](const NetworkModel& degraded,
                                       const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, net.c2,
                              *IpAddress::parse("100.1.2.3"));
  };
  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 10;
  const KFailureResult serial = hoyan.checkFaultToleranceSerial(property, failure);
  EXPECT_FALSE(serial.holds());

  sweep::SweepHints hints;
  hints.cacheId = "reach-c2";
  const KFailureResult swept = hoyan.checkFaultTolerance(property, failure, hints);
  expectSameResult(serial, swept, "hoyan cold");

  const sweep::SweepResult warm = hoyan.sweepFaultTolerance(property, failure, hints);
  expectSameResult(serial, warm.result, "hoyan warm");
  EXPECT_GT(warm.stats.cacheHits, 0u);
  EXPECT_EQ(warm.stats.evaluated, 0u);
}

}  // namespace
}  // namespace hoyan
