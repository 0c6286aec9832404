// Further route/traffic simulation coverage: add-path, as-set aggregation,
// VRF route-target leaking (+ both leaking VSBs), deny-policy isolation,
// SR tunnels in the data plane, ECMP volume splitting, withdrawals on
// re-advertisement, and EC soundness under anycast.
#include <gtest/gtest.h>

#include "sim/local_routes.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

const std::vector<Route>* routesAt(const RouteSimResult& result, NameId device,
                                   const std::string& prefix,
                                   NameId vrf = kInvalidName) {
  const DeviceRib* deviceRib = result.ribs.findDevice(device);
  const VrfRib* vrfRib = deviceRib ? deviceRib->findVrf(vrf) : nullptr;
  return vrfRib ? vrfRib->find(*Prefix::parse(prefix)) : nullptr;
}

TEST(AddPathTest, RrWithAddPathAdvertisesEcmpSet) {
  // Two equal routes at the RR (originated at C1 and C2); with add-path on
  // the RR->BR1 session, BR1 receives both.
  SmallWan net = buildSmallWan();
  for (BgpNeighbor& neighbor : net.configs.device(net.rr1).bgp.neighbors)
    neighbor.addPathSend = true;
  const NetworkModel model = net.model();
  InputRoute fromC1;
  fromC1.device = net.c1;
  fromC1.route.prefix = *Prefix::parse("21.0.0.0/16");
  fromC1.route.protocol = Protocol::kBgp;
  fromC1.route.nexthop = net.topology.findDevice(net.c1)->loopback;
  InputRoute fromC2 = fromC1;
  fromC2.device = net.c2;
  fromC2.route.nexthop = net.topology.findDevice(net.c2)->loopback;
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{fromC1, fromC2});
  const auto* onBorder = routesAt(result, net.br1, "21.0.0.0/16");
  ASSERT_NE(onBorder, nullptr);
  EXPECT_GE(onBorder->size(), 2u);  // Both paths delivered via add-path.

  // An alternate is not part of the set: with C2's path longer, the RR ranks
  // it below C1's, and add-path sends only the best.
  InputRoute longer = fromC2;
  longer.route.attrs.asPath = AsPath({65010});
  const RouteSimResult bestOnly =
      simulateRoutes(model, std::vector<InputRoute>{fromC1, longer});
  const auto* bestOnBorder = routesAt(bestOnly, net.br1, "21.0.0.0/16");
  ASSERT_NE(bestOnBorder, nullptr);
  EXPECT_EQ(bestOnBorder->size(), 1u);

  // Without add-path, only the RR's best path arrives.
  SmallWan plain = buildSmallWan();
  const NetworkModel plainModel = plain.model();
  InputRoute planC1 = fromC1;
  planC1.device = plain.c1;
  planC1.route.nexthop = plain.topology.findDevice(plain.c1)->loopback;
  InputRoute planC2 = fromC1;
  planC2.device = plain.c2;
  planC2.route.nexthop = plain.topology.findDevice(plain.c2)->loopback;
  const RouteSimResult plainResult =
      simulateRoutes(plainModel, std::vector<InputRoute>{planC1, planC2});
  const auto* plainBorder = routesAt(plainResult, plain.br1, "21.0.0.0/16");
  ASSERT_NE(plainBorder, nullptr);
  EXPECT_EQ(plainBorder->size(), 1u);
}

TEST(AggregateTest, AsSetCollectsContributorAsns) {
  SmallWan net = buildSmallWan();
  AggregateConfig aggregate;
  aggregate.prefix = *Prefix::parse("100.0.0.0/8");
  aggregate.asSet = true;
  aggregate.summaryOnly = false;
  net.configs.device(net.br1).bgp.aggregates.push_back(aggregate);
  const NetworkModel model = net.model();
  InputRoute a = ispRoute(net, "100.1.0.0/16");
  a.route.attrs.asPath = AsPath({70001});
  InputRoute b = ispRoute(net, "100.2.0.0/16");
  b.route.attrs.asPath = AsPath({70002});
  const RouteSimResult result = simulateRoutes(model, std::vector<InputRoute>{a, b});
  const auto* agg = routesAt(result, net.br1, "100.0.0.0/8");
  ASSERT_NE(agg, nullptr);
  const std::string path = agg->front().attrs.asPath.str();
  // AS_SET containing the contributor ASNs (incl. the ISP AS).
  EXPECT_NE(path.find('{'), std::string::npos) << path;
  EXPECT_NE(path.find("70001"), std::string::npos) << path;
  EXPECT_NE(path.find("70002"), std::string::npos) << path;
  // AS_SET counts as one hop.
  EXPECT_EQ(agg->front().attrs.asPath.length(), 1u);
}

TEST(VrfLeakTest, RouteTargetLeakingBetweenVrfs) {
  SmallWan net = buildSmallWan();
  DeviceConfig& core = net.configs.device(net.c1);
  VrfConfig vrfA;
  vrfA.name = Names::id("lt-A");
  vrfA.exportRouteTargets.push_back((9ULL << 32) | 9);
  core.vrfs.emplace(vrfA.name, vrfA);
  VrfConfig vrfB;
  vrfB.name = Names::id("lt-B");
  vrfB.importRouteTargets.push_back((9ULL << 32) | 9);
  core.vrfs.emplace(vrfB.name, vrfB);
  const NetworkModel model = net.model();
  InputRoute input;
  input.device = net.c1;
  input.route.prefix = *Prefix::parse("22.0.0.0/16");
  input.route.vrf = vrfA.name;
  input.route.protocol = Protocol::kBgp;
  input.route.nexthop = net.topology.findDevice(net.c1)->loopback;
  const RouteSimResult result = simulateRoutes(model, std::vector<InputRoute>{input});
  const auto* leaked = routesAt(result, net.c1, "22.0.0.0/16", vrfB.name);
  ASSERT_NE(leaked, nullptr);
  EXPECT_TRUE(leaked->front().leaked);
}

TEST(VrfLeakTest, GlobalLeakExportPolicyVsb) {
  // A VRF importing rt 0:0 receives global routes; whether its export
  // policy filters them is the Table-5 "VRF export policy" VSB.
  for (const bool vsbApplies : {true, false}) {
    SmallWan net = buildSmallWan(/*borderVendor=*/vendorB().name,
                                 /*coreVendor=*/vsbApplies ? vendorA().name
                                                           : vendorB().name);
    DeviceConfig& core = net.configs.device(net.c1);
    VrfConfig vrf;
    vrf.name = Names::id("lt-G");
    vrf.importRouteTargets.push_back(0);  // Import from global.
    vrf.exportPolicy = Names::id("LEAK-DENY");
    core.vrfs.emplace(vrf.name, vrf);
    RoutePolicy& policy = core.routePolicy(Names::id("LEAK-DENY"));
    PolicyNode deny;
    deny.sequence = 10;
    deny.action = PolicyAction::kDeny;
    policy.upsertNode(deny);
    const NetworkModel model = net.model();
    const RouteSimResult result =
        simulateRoutes(model, std::vector<InputRoute>{ispRoute(net, "100.4.0.0/16")});
    const auto* leaked = routesAt(result, net.c1, "100.4.0.0/16", vrf.name);
    if (vsbApplies) {
      // VendorA applies the export policy to global leaks: filtered out.
      EXPECT_TRUE(leaked == nullptr || leaked->empty());
    } else {
      ASSERT_NE(leaked, nullptr);
      EXPECT_FALSE(leaked->empty());
    }
  }
}

TEST(IsolationTest, DenyPolicyIsolationBlocksRoutesButKeepsSessions) {
  SmallWan net = buildSmallWan();
  net.configs.device(net.br1).vendor = vendorA().name;  // Deny-policy vendor.
  net.configs.device(net.br1).isolated = true;
  const NetworkModel model = net.model();
  // Sessions stay up...
  bool borderSession = false;
  for (const BgpSession& session : model.sessions)
    if (session.local == net.br1) borderSession = true;
  EXPECT_TRUE(borderSession);
  // ...but no routes pass through the isolated device.
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{ispRoute(net, "100.6.0.0/16")});
  EXPECT_EQ(routesAt(result, net.br1, "100.6.0.0/16"), nullptr);
  EXPECT_EQ(routesAt(result, net.c1, "100.6.0.0/16"), nullptr);
}

TEST(WithdrawTest, BetterRouteReplacesAndWorseWithdraws) {
  // When the border's import policy starts denying the route mid-change we
  // can't test dynamically (fixpoint is per run), but withdraw logic shows
  // through competing inputs: a later-better route replaces the earlier
  // advertisement at every device (no duplicates linger).
  SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  InputRoute weak = ispRoute(net, "100.7.0.0/16");
  weak.route.attrs.asPath = AsPath({70001, 70002, 70003});
  InputRoute strong = ispRoute(net, "100.7.0.0/16");
  strong.route.attrs.asPath = AsPath({70009});
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{weak, strong});
  const auto* onCore = routesAt(result, net.c2, "100.7.0.0/16");
  ASSERT_NE(onCore, nullptr);
  // The core sees exactly one path (the RR advertises only its best), and it
  // is the strong one.
  EXPECT_EQ(onCore->size(), 1u);
  EXPECT_EQ(onCore->front().attrs.asPath.originAsn(), 70009u);
}

TEST(RouteEcAnycastTest, CompetingInputsKeepSoundResults) {
  // The same prefix announced at two devices (anycast) must not be merged
  // with a single-origin prefix: verify EC results equal the no-EC oracle.
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  std::vector<InputRoute> inputs;
  // Anycast pair: same prefix at ISP and at C2.
  inputs.push_back(ispRoute(net, "100.8.0.0/16"));
  InputRoute atCore;
  atCore.device = net.c2;
  atCore.route.prefix = *Prefix::parse("100.8.0.0/16");
  atCore.route.protocol = Protocol::kBgp;
  atCore.route.nexthop = net.topology.findDevice(net.c2)->loopback;
  inputs.push_back(atCore);
  // A lookalike single-origin prefix with identical ISP attrs.
  inputs.push_back(ispRoute(net, "100.9.0.0/16"));

  RouteSimOptions withEc;
  RouteSimOptions withoutEc;
  withoutEc.useEquivalenceClasses = false;
  const RouteSimResult fast = simulateRoutes(model, inputs, withEc);
  const RouteSimResult slow = simulateRoutes(model, inputs, withoutEc);
  for (const NameId device : {net.br1, net.c1, net.c2, net.rr1}) {
    for (const char* prefix : {"100.8.0.0/16", "100.9.0.0/16"}) {
      const auto* a = routesAt(fast, device, prefix);
      const auto* b = routesAt(slow, device, prefix);
      ASSERT_EQ(a == nullptr, b == nullptr) << prefix;
      if (!a) continue;
      ASSERT_EQ(a->size(), b->size()) << prefix << " on " << Names::str(device);
      for (size_t i = 0; i < a->size(); ++i) EXPECT_TRUE((*a)[i] == (*b)[i]);
    }
  }
}

class SrTrafficTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan(/*borderVendor=*/vendorB().name,
                         /*coreVendor=*/vendorA().name);
    // SR policy on C2: traffic toward BR1's loopback tunnels via RR1.
    SrPolicyConfig sr;
    sr.name = Names::id("SR-VIA-RR");
    sr.endpoint = net_.topology.findDevice(net_.br1)->loopback;
    sr.segments.push_back(net_.topology.findDevice(net_.rr1)->loopback);
    net_.configs.device(net_.c2).srPolicies.push_back(sr);
    model_ = std::make_unique<NetworkModel>(net_.model());
    result_ = simulateCentralized(*model_,
                                  std::vector<InputRoute>{ispRoute(net_, "100.1.0.0/16")});
  }

  SmallWan net_;
  std::unique_ptr<NetworkModel> model_;
  RouteSimResult result_;
};

TEST_F(SrTrafficTest, TunnelledFlowFollowsSegmentList) {
  Flow flow;
  flow.ingressDevice = net_.c2;
  flow.src = *IpAddress::parse("20.0.0.1");
  flow.dst = *IpAddress::parse("100.1.2.3");
  flow.volumeBps = 100;
  const FlowPath path = simulateSingleFlow(*model_, result_.ribs, flow);
  EXPECT_EQ(path.outcome, FlowOutcome::kExited);
  // The SR segment steers via RR1 (C2 -> RR1 -> C1 -> BR1) instead of the
  // shortest IGP path (C2 -> C1 -> BR1).
  EXPECT_TRUE(path.usesLink(net_.c2, net_.rr1)) << path.str();
  EXPECT_TRUE(path.usesLink(net_.br1, net_.isp1));
}

TEST_F(SrTrafficTest, TunnelStateChangesAreNoHops) {
  // Entering the tunnel at C2, passing its segment at RR1 and leaving it at
  // BR1 each change tunnel state at one device: no hop, no link load.
  Flow flow;
  flow.ingressDevice = net_.c2;
  flow.src = *IpAddress::parse("20.0.0.1");
  flow.dst = *IpAddress::parse("100.1.2.3");
  flow.volumeBps = 100;
  const TrafficSimResult result =
      simulateTraffic(*model_, result_.ribs, std::vector<Flow>{flow});
  ASSERT_EQ(result.paths.size(), 1u);
  const FlowPath& path = result.paths.front();
  EXPECT_EQ(path.outcome, FlowOutcome::kExited);
  for (const FlowHop& hop : path.hops) EXPECT_NE(hop.device, hop.nextDevice) << path.str();
  for (const LinkLoadMap::Entry& entry : result.linkLoads.entries())
    EXPECT_NE(entry.from, entry.to) << Names::str(entry.from);
  // Every loaded entry is a real link, so none falls back to the default
  // bandwidth in the utilization check.
  for (const LoadViolation& violation : checkLinkLoads(model_->topology, result.linkLoads, 0))
    EXPECT_NE(violation.from, violation.to) << violation.str();
  EXPECT_DOUBLE_EQ(result.linkLoads.get(net_.c2, net_.rr1), 100.0);
  EXPECT_DOUBLE_EQ(result.linkLoads.get(net_.br1, net_.isp1), 100.0);
}

TEST_F(SrTrafficTest, RouteMarkedViaSrAndCostZeroed) {
  const DeviceRib* rib = result_.ribs.findDevice(net_.c2);
  const auto* routes = rib->findVrf(kInvalidName)->find(*Prefix::parse("100.1.0.0/16"));
  ASSERT_NE(routes, nullptr);
  EXPECT_TRUE(routes->front().viaSrTunnel);
  EXPECT_EQ(routes->front().igpCost, 0u);  // VendorA zeroes SR-reached costs.
}

TEST(EcmpVolumeTest, SplitsConserveVolume) {
  // DCGW-style ingress with two equal uplinks: volume halves per branch and
  // downstream sums equal the input volume.
  SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  NetworkRibs ribs;
  installLocalRoutes(model, ribs);
  // Static ECMP on RR1: two routes toward C1 and C2 loopback nexthops.
  ribs.device(net.rr1).vrf(kInvalidName).routesFor(*Prefix::parse("23.0.0.0/16")) = {};
  Route viaC1;
  viaC1.prefix = *Prefix::parse("23.0.0.0/16");
  viaC1.protocol = Protocol::kStatic;
  viaC1.adminDistance = 1;
  viaC1.nexthop = net.topology.findDevice(net.c1)->loopback;
  viaC1.nexthopDevice = net.c1;
  viaC1.type = RouteType::kBest;
  Route viaC2 = viaC1;
  viaC2.nexthop = net.topology.findDevice(net.c2)->loopback;
  viaC2.nexthopDevice = net.c2;
  viaC2.type = RouteType::kEcmp;
  auto& list = ribs.device(net.rr1).vrf(kInvalidName).routesFor(*Prefix::parse("23.0.0.0/16"));
  list = {viaC1, viaC2};
  ribs.buildForwardingIndex();
  Flow flow;
  flow.ingressDevice = net.rr1;
  flow.src = *IpAddress::parse("20.0.0.1");
  flow.dst = *IpAddress::parse("23.0.0.9");
  flow.volumeBps = 1000;
  TrafficSimOptions options;
  options.useEquivalenceClasses = false;
  const TrafficSimResult result =
      simulateTraffic(model, ribs, std::vector<Flow>{flow}, options);
  EXPECT_DOUBLE_EQ(result.linkLoads.get(net.rr1, net.c1), 500.0);
  EXPECT_DOUBLE_EQ(result.linkLoads.get(net.rr1, net.c2), 500.0);
}

}  // namespace
}  // namespace hoyan
