// Tests for the property checkers: reachability, path-change intents, load
// intents, and k-failure fault-tolerance checking.
#include <gtest/gtest.h>

#include "diag/validation.h"
#include "sim/local_routes.h"
#include "sim/route_sim.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    model_ = std::make_unique<NetworkModel>(net_.model());
    inputs_ = {ispRoute(net_, "100.1.0.0/16")};
    ribs_ = simulateCentralized(*model_, inputs_).ribs;
  }

  SmallWan net_;
  std::unique_ptr<NetworkModel> model_;
  std::vector<InputRoute> inputs_;
  NetworkRibs ribs_;
};

TEST_F(VerifyTest, ControlPlaneReachability) {
  const auto devices = devicesWithRoute(ribs_, *Prefix::parse("100.1.0.0/16"));
  // All four internal routers plus the originating ISP.
  EXPECT_EQ(devices.size(), 5u);
  EXPECT_TRUE(devicesWithRoute(ribs_, *Prefix::parse("99.0.0.0/8")).empty());
}

TEST_F(VerifyTest, DataPlaneReachability) {
  EXPECT_TRUE(dataPlaneReachable(*model_, ribs_, net_.c2,
                                 *IpAddress::parse("100.1.2.3")));
  EXPECT_FALSE(dataPlaneReachable(*model_, ribs_, net_.c2,
                                  *IpAddress::parse("203.0.113.1")));
}

TEST_F(VerifyTest, LoadIntentFlagsOverUtilizedLinks) {
  LinkLoadMap loads;
  loads.add(net_.c1, net_.c2, 90e9);  // 90% of the default 100G.
  loads.add(net_.c1, net_.rr1, 10e9);
  const auto violations = checkLinkLoads(model_->topology, loads, 0.8);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].from, net_.c1);
  EXPECT_EQ(violations[0].to, net_.c2);
  EXPECT_NEAR(violations[0].utilization(), 0.9, 1e-9);
  EXPECT_TRUE(checkLinkLoads(model_->topology, loads, 0.95).empty());
}

// Parallel member links between two devices add up to one capacity, under
// the rule adjacencies use, and both load checks read it.
TEST_F(VerifyTest, ParallelLinksAddUpToOneCapacity) {
  Topology& topology = model_->topology;
  Interface c1Side;
  c1Side.name = Names::id("t-C1:parallel");
  c1Side.address = *IpAddress::parse("172.31.0.1");
  topology.findDevice(net_.c1)->interfaces.push_back(c1Side);
  Interface c2Side;
  c2Side.name = Names::id("t-C2:parallel");
  c2Side.address = *IpAddress::parse("172.31.0.2");
  topology.findDevice(net_.c2)->interfaces.push_back(c2Side);
  topology.addLink(net_.c1, c1Side.name, net_.c2, c2Side.name);

  LinkLoadMap loads;
  loads.add(net_.c2, net_.c1, 150e9);  // Over two 100G members.
  const std::vector<MonitoredLinkLoad> monitored = {{net_.c2, net_.c1, 50e9}};
  const auto bandwidthCompared = [&] {
    const LoadAccuracyReport report = compareLinkLoads(topology, loads, monitored, 0.1);
    return report.inaccurateLinks.size() == 1 ? report.inaccurateLinks[0].bandwidthBps : -1;
  };
  EXPECT_EQ(topology.capacityBps(net_.c2, net_.c1), 200e9);
  EXPECT_TRUE(checkLinkLoads(topology, loads, 0.8).empty());
  EXPECT_EQ(bandwidthCompared(), 200e9);
  // Each direction sums its own side's interfaces.
  topology.findDevice(net_.c2)->findInterface(c2Side.name)->bandwidthBps = 40e9;
  EXPECT_EQ(topology.capacityBps(net_.c2, net_.c1), 140e9);
  EXPECT_EQ(topology.capacityBps(net_.c1, net_.c2), 200e9);
  topology.findDevice(net_.c2)->findInterface(c2Side.name)->bandwidthBps = 100e9;

  // One member shut: one member's capacity again.
  topology.findDevice(net_.c1)->findInterface(c1Side.name)->shutdown = true;
  EXPECT_EQ(topology.capacityBps(net_.c2, net_.c1), 100e9);
  const auto violations = checkLinkLoads(topology, loads, 0.8);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_DOUBLE_EQ(violations[0].utilization(), 1.5);
  EXPECT_EQ(bandwidthCompared(), 100e9);
  // No active member at all (a pair with no link): the 100G default.
  EXPECT_EQ(topology.capacityBps(net_.c2, net_.br1), 100e9);
}

TEST_F(VerifyTest, PathChangeIntentDetectsUnmovedFlows) {
  // Intent: flows on BR1->ISP1 move to C1->RR1 — nothing changed, so every
  // in-scope flow violates.
  Flow flow;
  flow.ingressDevice = net_.c2;
  flow.src = *IpAddress::parse("20.0.0.1");
  flow.dst = *IpAddress::parse("100.1.2.3");
  flow.volumeBps = 10;
  PathChangeIntent intent;
  intent.fromPath = {net_.br1, net_.isp1};
  intent.toPath = {net_.c1, net_.rr1};
  const auto violations = checkPathChange(*model_, ribs_, *model_, ribs_,
                                          std::vector<Flow>{flow}, intent);
  ASSERT_EQ(violations.size(), 1u);
  // The dst filter excludes out-of-scope flows entirely.
  PathChangeIntent filtered = intent;
  filtered.dstFilter = *Prefix::parse("99.0.0.0/8");
  EXPECT_TRUE(checkPathChange(*model_, ribs_, *model_, ribs_,
                              std::vector<Flow>{flow}, filtered)
                  .empty());
}

TEST_F(VerifyTest, KFailureFindsSinglePointOfFailure) {
  // Property: the ISP route stays reachable from C2. The BR1-ISP1 link (and
  // the BR1-C1 link) are single points of failure.
  const NetworkProperty property = [&](const NetworkModel& degraded,
                                       const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, net_.c2,
                              *IpAddress::parse("100.1.2.3"));
  };
  KFailureOptions options;
  options.k = 1;
  options.maxCounterexamples = 10;
  const KFailureResult result = checkKFailures(*model_, inputs_, property, options);
  EXPECT_FALSE(result.holds());
  EXPECT_GE(result.scenariosChecked, 5u);
  // BR1-ISP1 must be among the counterexamples.
  bool foundIspLink = false;
  for (const FailureSet& failures : result.counterexamples)
    for (const auto& [a, b] : failures.failedLinks)
      if ((a == net_.br1 && b == net_.isp1) || (a == net_.isp1 && b == net_.br1))
        foundIspLink = true;
  EXPECT_TRUE(foundIspLink);
}

TEST_F(VerifyTest, KFailureHoldsForRedundantProperty) {
  // Property: C1 keeps its IS-IS route to RR1's loopback under any single
  // internal link failure among core links (triangle redundancy).
  const Prefix rrLoopback(model_->topology.findDevice(net_.rr1)->loopback, 32);
  const NetworkProperty property = [&](const NetworkModel&,
                                       const NetworkRibs& ribs) {
    const auto devices = devicesWithRoute(ribs, rrLoopback);
    return std::find(devices.begin(), devices.end(), net_.c1) != devices.end();
  };
  KFailureOptions options;
  options.k = 1;
  options.focusDevices = {net_.c1, net_.c2, net_.rr1};
  const KFailureResult result = checkKFailures(*model_, inputs_, property, options);
  EXPECT_TRUE(result.holds())
      << (result.counterexamples.empty() ? "" : result.counterexamples[0].str());
}

TEST_F(VerifyTest, KFailureDeviceFailures) {
  const NetworkProperty property = [&](const NetworkModel& degraded,
                                       const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, net_.c2,
                              *IpAddress::parse("100.1.2.3"));
  };
  KFailureOptions options;
  options.k = 0;  // Only device failures.
  options.includeDeviceFailures = true;
  options.maxCounterexamples = 10;
  const KFailureResult result = checkKFailures(*model_, inputs_, property, options);
  // Failing BR1 (or C1, the only path) breaks reachability.
  EXPECT_FALSE(result.holds());
  bool foundBorder = false;
  for (const FailureSet& failures : result.counterexamples)
    for (const NameId device : failures.failedDevices)
      if (device == net_.br1) foundBorder = true;
  EXPECT_TRUE(foundBorder);
}

TEST_F(VerifyTest, KFailureTwoLinkCombinations) {
  // With k=2 the enumeration covers pairs; scenario count grows accordingly.
  const NetworkProperty alwaysTrue = [](const NetworkModel&, const NetworkRibs&) {
    return true;
  };
  KFailureOptions one;
  one.k = 1;
  KFailureOptions two;
  two.k = 2;
  const size_t singles = checkKFailures(*model_, inputs_, alwaysTrue, one).scenariosChecked;
  const size_t pairs = checkKFailures(*model_, inputs_, alwaysTrue, two).scenariosChecked;
  EXPECT_EQ(singles, 5u);                        // 5 links.
  EXPECT_EQ(pairs, singles + 5u * 4u / 2u);      // + C(5,2) pairs.
}

}  // namespace
}  // namespace hoyan
