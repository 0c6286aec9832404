// End-to-end tests of route and traffic simulation on the hand-built small
// WAN and on generated networks: propagation, policies, RR behaviour,
// aggregates, equivalence classes, forwarding, ECMP, loops, ACL/PBR/SR.
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "config/parser.h"
#include "config/printer.h"
#include "config/vendor.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "sim/local_routes.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"
#include "test_fixtures.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::cellDifferences;
using testing::ispRoute;
using testing::SmallWan;

// Finds the best route for `prefix` on `device` (global VRF), or nullptr.
const Route* bestRoute(const NetworkRibs& ribs, NameId device,
                       const std::string& prefix) {
  const DeviceRib* deviceRib = ribs.findDevice(device);
  if (!deviceRib) return nullptr;
  const VrfRib* vrf = deviceRib->findVrf(kInvalidName);
  if (!vrf) return nullptr;
  const auto* routes = vrf->find(*Prefix::parse(prefix));
  if (!routes) return nullptr;
  for (const Route& route : *routes)
    if (route.type == RouteType::kBest) return &route;
  return nullptr;
}

TEST(RouteSimTest, IspRoutePropagatesToAllInternalRouters) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  const std::vector<InputRoute> inputs = {ispRoute(net, "100.1.0.0/16")};
  const RouteSimResult result = simulateRoutes(model, inputs);
  EXPECT_TRUE(result.stats.converged);
  // Every internal router should have the route.
  for (const NameId device : {net.br1, net.rr1, net.c1, net.c2}) {
    const Route* route = bestRoute(result.ribs, device, "100.1.0.0/16");
    ASSERT_NE(route, nullptr) << Names::str(device);
    EXPECT_EQ(route->protocol, Protocol::kBgp);
    // The ISP ASN was prepended on the eBGP hop.
    EXPECT_EQ(route->attrs.asPath.firstAsn(), 65001u);
  }
  // BR1 learned it over eBGP; C1 over iBGP (reflected by RR1).
  EXPECT_TRUE(bestRoute(result.ribs, net.br1, "100.1.0.0/16")->ebgpLearned);
  EXPECT_FALSE(bestRoute(result.ribs, net.c1, "100.1.0.0/16")->ebgpLearned);
}

TEST(RouteSimTest, NextHopSelfRewritesNexthopTowardIbgp) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")});
  const Route* onCore = bestRoute(result.ribs, net.c1, "100.1.0.0/16");
  ASSERT_NE(onCore, nullptr);
  // BR1 set next-hop-self, so C1's nexthop is BR1's loopback.
  EXPECT_EQ(onCore->nexthop, net.topology.findDevice(net.br1)->loopback);
  EXPECT_EQ(onCore->nexthopDevice, net.br1);
  EXPECT_GT(onCore->igpCost, 0u);
}

TEST(RouteSimTest, AsLoopPreventionDropsOwnAsn) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  InputRoute poisoned = ispRoute(net, "100.2.0.0/16");
  poisoned.route.attrs.asPath = AsPath({70000, 64512});  // Contains our ASN.
  const RouteSimResult result = simulateRoutes(model, std::vector<InputRoute>{poisoned});
  EXPECT_EQ(bestRoute(result.ribs, net.br1, "100.2.0.0/16"), nullptr);
}

TEST(RouteSimTest, ImportPolicyDenyBlocksRoute) {
  SmallWan net = buildSmallWan();
  // BR1 denies routes with community 666:0 from the ISP.
  DeviceConfig& border = net.configs.device(net.br1);
  const NameId listName = Names::id("BLOCKLIST");
  CommunityList list;
  list.name = listName;
  list.entries.push_back({true, Community(666, 0)});
  border.communityLists.emplace(listName, list);
  const NameId policyName = Names::id("ISP-IN");
  RoutePolicy& policy = border.routePolicy(policyName);
  PolicyNode deny;
  deny.sequence = 10;
  deny.action = PolicyAction::kDeny;
  deny.match.communityList = listName;
  policy.upsertNode(deny);
  PolicyNode permit;
  permit.sequence = 20;
  permit.action = PolicyAction::kPermit;
  policy.upsertNode(permit);
  for (BgpNeighbor& neighbor : border.bgp.neighbors)
    if (neighbor.remoteAs == 65001) neighbor.importPolicy = policyName;

  const NetworkModel model = net.model();
  InputRoute blocked = ispRoute(net, "100.3.0.0/16");
  blocked.route.attrs.communities.insert(Community(666, 0));
  InputRoute allowed = ispRoute(net, "100.4.0.0/16");
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{blocked, allowed});
  EXPECT_EQ(bestRoute(result.ribs, net.br1, "100.3.0.0/16"), nullptr);
  ASSERT_NE(bestRoute(result.ribs, net.br1, "100.4.0.0/16"), nullptr);
}

TEST(RouteSimTest, ImportPolicyRewritesAttributes) {
  SmallWan net = buildSmallWan();
  DeviceConfig& border = net.configs.device(net.br1);
  const NameId policyName = Names::id("TAG");
  RoutePolicy& policy = border.routePolicy(policyName);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.sets.localPref = 300;
  node.sets.addCommunities.push_back(Community(100, 9));
  policy.upsertNode(node);
  for (BgpNeighbor& neighbor : border.bgp.neighbors)
    if (neighbor.remoteAs == 65001) neighbor.importPolicy = policyName;
  const NetworkModel model = net.model();
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{ispRoute(net, "100.5.0.0/16")});
  const Route* onBorder = bestRoute(result.ribs, net.br1, "100.5.0.0/16");
  ASSERT_NE(onBorder, nullptr);
  EXPECT_EQ(onBorder->attrs.localPref, 300u);
  EXPECT_TRUE(onBorder->attrs.communities.contains(Community(100, 9)));
  // localPref propagates over iBGP to the cores.
  const Route* onCore = bestRoute(result.ribs, net.c2, "100.5.0.0/16");
  ASSERT_NE(onCore, nullptr);
  EXPECT_EQ(onCore->attrs.localPref, 300u);
}

TEST(RouteSimTest, NonClientIbgpRouteIsNotReflectedBack) {
  // A route originated at C1 (client) reaches BR1 via RR reflection; a route
  // originated at the RR itself reaches clients directly.
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  InputRoute fromCore;
  fromCore.device = net.c1;
  fromCore.route.prefix = *Prefix::parse("20.1.0.0/16");
  fromCore.route.protocol = Protocol::kBgp;
  fromCore.route.nexthop = net.topology.findDevice(net.c1)->loopback;
  fromCore.route.nexthopDevice = net.c1;
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{fromCore});
  EXPECT_NE(bestRoute(result.ribs, net.rr1, "20.1.0.0/16"), nullptr);
  EXPECT_NE(bestRoute(result.ribs, net.br1, "20.1.0.0/16"), nullptr);
  EXPECT_NE(bestRoute(result.ribs, net.c2, "20.1.0.0/16"), nullptr);
}

TEST(RouteSimTest, AggregateOriginatedFromContributor) {
  SmallWan net = buildSmallWan();
  DeviceConfig& core = net.configs.device(net.c1);
  AggregateConfig aggregate;
  aggregate.prefix = *Prefix::parse("20.0.0.0/8");
  aggregate.summaryOnly = true;
  core.bgp.aggregates.push_back(aggregate);
  const NetworkModel model = net.model();
  InputRoute contributor;
  contributor.device = net.c1;
  contributor.route.prefix = *Prefix::parse("20.5.0.0/16");
  contributor.route.protocol = Protocol::kBgp;
  contributor.route.nexthop = net.topology.findDevice(net.c1)->loopback;
  contributor.route.nexthopDevice = net.c1;
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{contributor});
  // The aggregate exists on C1 and propagates to others.
  const Route* aggOnC1 = bestRoute(result.ribs, net.c1, "20.0.0.0/8");
  ASSERT_NE(aggOnC1, nullptr);
  EXPECT_EQ(aggOnC1->protocol, Protocol::kAggregate);
  EXPECT_NE(bestRoute(result.ribs, net.c2, "20.0.0.0/8"), nullptr);
  // Summary-only: the contributor is suppressed on other routers.
  EXPECT_EQ(bestRoute(result.ribs, net.c2, "20.5.0.0/16"), nullptr);
  // ...but still present locally on C1.
  EXPECT_NE(bestRoute(result.ribs, net.c1, "20.5.0.0/16"), nullptr);
}

TEST(RouteSimTest, EcmpFromTwoIsps) {
  // Add a second ISP on BR1 announcing the same prefix: BR1 sees two eBGP
  // paths; with equal attributes both become forwarding entries.
  SmallWan net = buildSmallWan();
  // Second external peer.
  Device isp2;
  isp2.name = Names::id("t-ISP2");
  isp2.role = DeviceRole::kExternalPeer;
  isp2.loopback = *IpAddress::parse("9.0.0.99");
  net.topology.addDevice(isp2);
  Device* border = net.topology.findDevice(net.br1);
  Interface borderItf;
  borderItf.name = Names::id("t-BR1:e9");
  borderItf.address = *IpAddress::parse("172.21.0.1");
  borderItf.prefixLength = 30;
  border->interfaces.push_back(borderItf);
  Device* isp2Device = net.topology.findDevice(isp2.name);
  Interface ispItf;
  ispItf.name = Names::id("t-ISP2:e0");
  ispItf.address = *IpAddress::parse("172.21.0.2");
  ispItf.prefixLength = 30;
  isp2Device->interfaces.push_back(ispItf);
  net.topology.addLink(net.br1, borderItf.name, isp2.name, ispItf.name);
  DeviceConfig isp2Config;
  isp2Config.hostname = isp2.name;
  isp2Config.vendor = vendorB().name;
  isp2Config.routerId = isp2.loopback;
  isp2Config.bgp.asn = 65001;  // Same AS as ISP1 so MED/ECMP compare applies.
  BgpNeighbor toBorder;
  toBorder.peerAddress = borderItf.address;
  toBorder.remoteAs = 64512;
  isp2Config.bgp.neighbors.push_back(toBorder);
  net.configs.mutableDevices().emplace(isp2.name, std::move(isp2Config));
  BgpNeighbor toIsp2;
  toIsp2.peerAddress = ispItf.address;
  toIsp2.remoteAs = 65001;
  net.configs.device(net.br1).bgp.neighbors.push_back(toIsp2);

  const NetworkModel model = net.model();
  InputRoute fromIsp1 = ispRoute(net, "100.9.0.0/16");
  InputRoute fromIsp2 = fromIsp1;
  fromIsp2.device = isp2.name;
  fromIsp2.route.nexthop = isp2.loopback;
  fromIsp2.route.nexthopDevice = isp2.name;
  const RouteSimResult result =
      simulateRoutes(model, std::vector<InputRoute>{fromIsp1, fromIsp2});
  const DeviceRib* borderRib = result.ribs.findDevice(net.br1);
  ASSERT_NE(borderRib, nullptr);
  const auto* routes = borderRib->findVrf(kInvalidName)->find(*Prefix::parse("100.9.0.0/16"));
  ASSERT_NE(routes, nullptr);
  size_t forwarding = 0;
  for (const Route& route : *routes)
    if (route.type != RouteType::kAlternate) ++forwarding;
  EXPECT_EQ(forwarding, 2u);
}

TEST(RouteSimTest, MemoryBudgetTriggersOutOfMemory) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  std::vector<InputRoute> inputs;
  for (int i = 0; i < 50; ++i) {
    InputRoute input = ispRoute(net, "100." + std::to_string(i) + ".0.0/16");
    input.route.attrs.med = static_cast<uint32_t>(i);  // Distinct ECs.
    inputs.push_back(input);
  }
  RouteSimOptions options;
  options.memoryBudgetRoutes = 10;
  const RouteSimResult result = simulateRoutes(model, inputs, options);
  EXPECT_TRUE(result.stats.outOfMemory);
  EXPECT_FALSE(result.stats.converged);
}

TEST(LocalRoutesTest, DirectStaticAndIsisInstalled) {
  SmallWan net = buildSmallWan();
  StaticRouteConfig staticRoute;
  staticRoute.prefix = *Prefix::parse("50.0.0.0/8");
  staticRoute.nexthop = net.topology.findDevice(net.c2)->loopback;
  net.configs.device(net.c1).staticRoutes.push_back(staticRoute);
  const NetworkModel model = net.model();
  NetworkRibs ribs;
  installLocalRoutes(model, ribs);
  // C1 has: loopback direct, interface subnets + /32s, static, IS-IS
  // loopbacks of RR1/C2/BR1.
  const Route* isisRoute =
      bestRoute(ribs, net.c1, net.topology.findDevice(net.c2)->loopback.str() + "/32");
  ASSERT_NE(isisRoute, nullptr);
  EXPECT_EQ(isisRoute->protocol, Protocol::kIsis);
  EXPECT_EQ(isisRoute->igpCost, 10u);
  const Route* installedStatic = bestRoute(ribs, net.c1, "50.0.0.0/8");
  ASSERT_NE(installedStatic, nullptr);
  EXPECT_EQ(installedStatic->protocol, Protocol::kStatic);
  EXPECT_EQ(installedStatic->nexthopDevice, net.c2);
}

// A keep set restricts installLocalRoutes to the cells it names, and each
// kept cell is the unrestricted (null keep set) install's, route for route
// and in order. A set of every prefix keeps everything; an empty set
// installs none.
TEST(LocalRoutesTest, KeepSetInstallsExactlyTheUnrestrictedCellsItNames) {
  SmallWan net = buildSmallWan();
  // An extra IS-IS link RR1-BR1 gives BR1 two equal-cost paths to C2, so
  // C2's loopback cell on BR1 holds two IS-IS routes.
  {
    Device* rr1 = net.topology.findDevice(net.rr1);
    Device* br1 = net.topology.findDevice(net.br1);
    Interface a;
    a.name = Names::id("t-RR1:br1");
    a.address = *IpAddress::parse("172.30.0.1");
    a.isisEnabled = true;
    rr1->interfaces.push_back(a);
    Interface b;
    b.name = Names::id("t-BR1:rr1");
    b.address = *IpAddress::parse("172.30.0.2");
    b.isisEnabled = true;
    br1->interfaces.push_back(b);
    net.topology.addLink(net.rr1, a.name, net.br1, b.name);
  }
  StaticRouteConfig toC2;
  toC2.prefix = *Prefix::parse("50.0.0.0/8");
  toC2.nexthop = net.topology.findDevice(net.c2)->loopback;
  net.configs.device(net.c1).staticRoutes.push_back(toC2);
  // A floating static on the prefix of C2's loopback: one cell, two
  // protocols.
  StaticRouteConfig floating;
  floating.prefix = Prefix(net.topology.findDevice(net.c2)->loopback, 32);
  floating.nexthop = net.topology.findDevice(net.rr1)->loopback;
  floating.preference = 200;
  net.configs.device(net.br1).staticRoutes.push_back(floating);
  const NetworkModel model = net.model();

  NetworkRibs all;
  const size_t allCount = installLocalRoutes(model, all);
  EXPECT_EQ(allCount, all.routeCount());
  std::set<Prefix> prefixes;
  for (const auto& [device, deviceRib] : all.devices())
    for (const auto& [vrf, vrfRib] : deviceRib.vrfs())
      for (const auto& [prefix, routes] : vrfRib.routes()) prefixes.insert(prefix);

  // Keep every other prefix, the contended loopback, and one no route has.
  LocalPrefixSet keep;
  bool take = true;
  for (const Prefix& prefix : prefixes) {
    if (take) keep.insert(prefix);
    take = !take;
  }
  keep.insert(floating.prefix);
  keep.insert(*Prefix::parse("77.0.0.0/8"));
  NetworkRibs expected;
  std::set<Protocol> keptProtocols;
  for (const auto& [device, deviceRib] : all.devices())
    for (const auto& [vrf, vrfRib] : deviceRib.vrfs())
      for (const auto& [prefix, routes] : vrfRib.routes()) {
        if (!keep.contains(prefix)) continue;
        expected.device(device).vrf(vrf).routesFor(prefix) = routes;
        for (const Route& route : routes) keptProtocols.insert(route.protocol);
      }
  EXPECT_EQ(keptProtocols,
            (std::set<Protocol>{Protocol::kDirect, Protocol::kStatic, Protocol::kIsis}));
  const std::vector<Route>* contended =
      expected.device(net.br1).vrf(kInvalidName).find(floating.prefix);
  ASSERT_NE(contended, nullptr);
  EXPECT_EQ(contended->size(), 3u);  // Two IS-IS ECMP routes and the static.

  NetworkRibs kept;
  const size_t keptCount = installLocalRoutes(model, kept, nullptr, &keep);
  EXPECT_EQ(keptCount, expected.routeCount());
  EXPECT_GT(keptCount, 0u);
  EXPECT_LT(keptCount, allCount);
  for (const std::string& difference : cellDifferences(expected, kept))
    ADD_FAILURE() << difference;

  LocalPrefixSet everything(prefixes.begin(), prefixes.end());
  NetworkRibs viaEverything;
  EXPECT_EQ(installLocalRoutes(model, viaEverything, nullptr, &everything), allCount);
  EXPECT_TRUE(cellDifferences(all, viaEverything).empty());

  const LocalPrefixSet none;
  NetworkRibs empty;
  EXPECT_EQ(installLocalRoutes(model, empty, nullptr, &none), 0u);
  EXPECT_TRUE(empty.devices().empty());
}

TEST(RouteEcTest, SameAttrsSamePolicyFateCollapse) {
  SmallWan net = buildSmallWan();
  // A discard static at C1 on the class representative (its lowest prefix).
  // A local route is no simulation input: it must stay on that one prefix,
  // not travel with the representative's results to the other members.
  StaticRouteConfig discard;
  discard.prefix = *Prefix::parse("100.10.0.0/24");
  discard.discard = true;
  net.configs.device(net.c1).staticRoutes.push_back(discard);
  const NetworkModel model = net.model();
  std::vector<InputRoute> inputs;
  // Four prefixes with identical attributes (one EC) + one different.
  for (int i = 0; i < 4; ++i)
    inputs.push_back(ispRoute(net, "100.10." + std::to_string(i) + ".0/24"));
  InputRoute different = ispRoute(net, "100.10.9.0/24");
  different.route.attrs.med = 55;
  inputs.push_back(different);
  EcStats stats;
  const EcPlan plan = buildRouteEcs(model, inputs, &stats);
  EXPECT_EQ(stats.inputRoutes, 5u);
  EXPECT_EQ(stats.classes, 2u);
  EXPECT_DOUBLE_EQ(stats.reductionFactor(), 2.5);
  // Simulation with ECs must equal simulation without, cell for cell on
  // every device.
  RouteSimOptions withEc;
  withEc.useEquivalenceClasses = true;
  RouteSimOptions withoutEc;
  withoutEc.useEquivalenceClasses = false;
  const RouteSimResult fast = simulateCentralized(model, inputs, withEc);
  const RouteSimResult slow = simulateCentralized(model, inputs, withoutEc);
  const std::vector<std::string> differences = cellDifferences(slow.ribs, fast.ribs);
  EXPECT_TRUE(differences.empty())
      << differences.size() << " cells differ; the first is " << differences.front();
  for (int i = 0; i < 4; ++i) {
    const std::string prefix = "100.10." + std::to_string(i) + ".0/24";
    const Route* best = bestRoute(fast.ribs, net.c1, prefix);
    ASSERT_NE(best, nullptr) << prefix;
    EXPECT_EQ(best->protocol, i == 0 ? Protocol::kStatic : Protocol::kBgp) << prefix;
  }
}

// --- traffic simulation -------------------------------------------------------

class TrafficTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    model_ = std::make_unique<NetworkModel>(net_.model());
    result_ = simulateCentralized(*model_,
                                  std::vector<InputRoute>{ispRoute(net_, "100.1.0.0/16")});
  }

  Flow makeFlow(NameId ingress, const std::string& dst, double volume = 1000) {
    Flow flow;
    flow.ingressDevice = ingress;
    flow.src = *IpAddress::parse("20.0.0.1");
    flow.dst = *IpAddress::parse(dst);
    flow.dstPort = 80;
    flow.volumeBps = volume;
    return flow;
  }

  SmallWan net_;
  std::unique_ptr<NetworkModel> model_;
  RouteSimResult result_;
};

TEST_F(TrafficTest, FlowFollowsBgpRouteAndExits) {
  const FlowPath path = simulateSingleFlow(*model_, result_.ribs,
                                           makeFlow(net_.c2, "100.1.2.3"));
  EXPECT_EQ(path.outcome, FlowOutcome::kExited);
  // C2 -> (IGP toward BR1 loopback) -> ... -> BR1 -> ISP1.
  EXPECT_TRUE(path.usesLink(net_.br1, net_.isp1));
}

TEST_F(TrafficTest, UnroutedDestinationBlackholes) {
  const FlowPath path = simulateSingleFlow(*model_, result_.ribs,
                                           makeFlow(net_.c2, "203.0.113.7"));
  EXPECT_EQ(path.outcome, FlowOutcome::kBlackholed);
}

TEST_F(TrafficTest, LinkLoadsAccumulateVolume) {
  std::vector<Flow> flows = {makeFlow(net_.c2, "100.1.2.3", 1000),
                             makeFlow(net_.c2, "100.1.9.9", 500)};
  TrafficSimOptions options;
  options.useEquivalenceClasses = false;
  const TrafficSimResult result = simulateTraffic(*model_, result_.ribs, flows, options);
  EXPECT_DOUBLE_EQ(result.linkLoads.get(net_.br1, net_.isp1), 1500.0);
  EXPECT_EQ(result.stats.exited, 2u);
}

TEST_F(TrafficTest, FlowEcsCollapseSameDestinationAtom) {
  std::vector<Flow> flows;
  for (int i = 0; i < 40; ++i) {
    Flow flow = makeFlow(net_.c2, "100.1.2." + std::to_string(i + 1), 100);
    flow.srcPort = static_cast<uint16_t>(1000 + i);
    flows.push_back(flow);
  }
  FlowEcStats stats;
  const FlowEcPlan plan = buildFlowEcs(*model_, result_.ribs, flows, &stats);
  EXPECT_EQ(stats.inputFlows, 40u);
  EXPECT_EQ(stats.classes, 1u);  // All in the /16 atom from the same ingress.
  EXPECT_DOUBLE_EQ(plan.representatives[0].volumeBps, 4000.0);
  // Link loads with and without ECs agree.
  TrafficSimOptions withEc;
  withEc.useEquivalenceClasses = true;
  TrafficSimOptions withoutEc;
  withoutEc.useEquivalenceClasses = false;
  const TrafficSimResult a = simulateTraffic(*model_, result_.ribs, flows, withEc);
  const TrafficSimResult b = simulateTraffic(*model_, result_.ribs, flows, withoutEc);
  EXPECT_NEAR(a.linkLoads.get(net_.br1, net_.isp1),
              b.linkLoads.get(net_.br1, net_.isp1), 1e-6);
}

TEST_F(TrafficTest, AclDropsMatchingFlow) {
  // Deny port-443 traffic arriving at C1 from C2.
  DeviceConfig& core = model_->configs.device(net_.c1);
  AclConfig acl;
  acl.name = Names::id("BLOCK443");
  acl.rules.push_back({false, {}, {}, uint16_t{443}, {}});
  acl.rules.push_back({true, {}, {}, {}, {}});
  // Find C1's interface facing C2.
  for (const Adjacency& adj : model_->adjacenciesOf(net_.c1))
    if (adj.neighbor == net_.c2) acl.appliedInterfaces.push_back(adj.localInterface);
  core.acls.emplace(acl.name, acl);
  Flow flow = makeFlow(net_.c2, "100.1.2.3");
  flow.dstPort = 443;
  const FlowPath denied = simulateSingleFlow(*model_, result_.ribs, flow);
  EXPECT_EQ(denied.outcome, FlowOutcome::kDeniedAcl);
  flow.dstPort = 80;
  const FlowPath allowed = simulateSingleFlow(*model_, result_.ribs, flow);
  EXPECT_EQ(allowed.outcome, FlowOutcome::kExited);
}

TEST_F(TrafficTest, FlowEcsKeepAclFatesApartBehindManyRules) {
  // C1 denies port 443 from C2, then 69 rules no flow matches, then permits.
  // A class key must keep the deny rule's match bit however many rules
  // follow it; without it the port-80 flow joins the denied class.
  DeviceConfig& core = model_->configs.device(net_.c1);
  AclConfig acl;
  acl.name = Names::id("BLOCK443-LONG");
  acl.rules.push_back({false, {}, {}, uint16_t{443}, {}});
  for (uint16_t port = 2000; port < 2069; ++port)
    acl.rules.push_back({false, {}, {}, port, {}});
  acl.rules.push_back({true, {}, {}, {}, {}});
  for (const Adjacency& adj : model_->adjacenciesOf(net_.c1))
    if (adj.neighbor == net_.c2) acl.appliedInterfaces.push_back(adj.localInterface);
  core.acls.emplace(acl.name, acl);
  Flow https = makeFlow(net_.c2, "100.1.2.3");
  https.dstPort = 443;
  const std::vector<Flow> flows = {https, makeFlow(net_.c2, "100.1.2.3")};
  for (const bool ecs : {true, false}) {
    TrafficSimOptions options;
    options.useEquivalenceClasses = ecs;
    const TrafficSimResult result = simulateTraffic(*model_, result_.ribs, flows, options);
    EXPECT_EQ(result.stats.simulatedFlows, 2u) << "ECs " << ecs;
    EXPECT_EQ(result.stats.deniedAcl, 1u) << "ECs " << ecs;
    EXPECT_DOUBLE_EQ(result.linkLoads.get(net_.br1, net_.isp1), 1000.0) << "ECs " << ecs;
  }
}

TEST_F(TrafficTest, PbrOverridesLpm) {
  // PBR on C1 (in-interface from C2) steers port-8080 traffic to RR1 instead
  // of toward BR1.
  DeviceConfig& core = model_->configs.device(net_.c1);
  PbrPolicy pbr;
  pbr.name = Names::id("STEER");
  PbrRule rule;
  rule.dstPort = 8080;
  rule.setNexthop = model_->topology.findDevice(net_.rr1)->loopback;
  pbr.rules.push_back(rule);
  for (const Adjacency& adj : model_->adjacenciesOf(net_.c1))
    if (adj.neighbor == net_.c2) pbr.appliedInterfaces.push_back(adj.localInterface);
  core.pbrPolicies.emplace(pbr.name, pbr);
  Flow flow = makeFlow(net_.c2, "100.1.2.3");
  flow.dstPort = 8080;
  const FlowPath path = simulateSingleFlow(*model_, result_.ribs, flow);
  EXPECT_TRUE(path.usesLink(net_.c1, net_.rr1));
}

TEST(TrafficLoopTest, StaticRouteLoopDetected) {
  SmallWan net = buildSmallWan();
  // C1 and C2 point a prefix at each other via statics.
  StaticRouteConfig toC2;
  toC2.prefix = *Prefix::parse("66.0.0.0/8");
  toC2.nexthop = net.topology.findDevice(net.c2)->loopback;
  net.configs.device(net.c1).staticRoutes.push_back(toC2);
  StaticRouteConfig toC1;
  toC1.prefix = *Prefix::parse("66.0.0.0/8");
  toC1.nexthop = net.topology.findDevice(net.c1)->loopback;
  net.configs.device(net.c2).staticRoutes.push_back(toC1);
  const NetworkModel model = net.model();
  NetworkRibs ribs;
  installLocalRoutes(model, ribs);
  ribs.buildForwardingIndex();
  Flow flow;
  flow.ingressDevice = net.c1;
  flow.src = *IpAddress::parse("20.0.0.1");
  flow.dst = *IpAddress::parse("66.1.2.3");
  flow.volumeBps = 100;
  const FlowPath path = simulateSingleFlow(model, ribs, flow);
  EXPECT_EQ(path.outcome, FlowOutcome::kLooped);
}

// --- layered forwarding (sim/forwarding_view.h) ----------------------------------

// One forwarding state built both ways: as one RIB (simulateCentralized:
// BGP and local routes merged, deduped, re-selected, indexed), and as the
// distributed traffic phase's two layers: the BGP routes with their shared
// cells folded, over the local-routes FIB.
struct BothWays {
  NetworkRibs merged;
  NetworkRibs shared;
  PrefixUnion sharedPrefixes;
  NetworkRibs own;

  ForwardingView layered() const { return ForwardingView(own, shared, sharedPrefixes); }
};

BothWays buildBothWays(const NetworkModel& model, const std::vector<InputRoute>& inputs) {
  BothWays out;
  out.merged = simulateCentralized(model, inputs).ribs;
  installLocalRoutes(model, out.shared);
  finishRib(out.shared);
  out.sharedPrefixes = PrefixUnion(out.shared);
  out.own = simulateRoutes(model, inputs).ribs;
  foldSharedRoutes(out.own, out.shared);
  finishRib(out.own);
  return out;
}

// Flows from every internal device to each of `destinations`.
std::vector<Flow> flowsTo(const SmallWan& net, const std::vector<std::string>& destinations) {
  std::vector<Flow> flows;
  for (const NameId ingress : {net.c1, net.c2, net.rr1, net.br1}) {
    for (const std::string& destination : destinations) {
      Flow flow;
      flow.ingressDevice = ingress;
      flow.src = *IpAddress::parse("20.0.0.1");
      flow.dst = *IpAddress::parse(destination);
      flow.dstPort = 80;
      flow.volumeBps = 1000.0 / 3.0 + static_cast<double>(flows.size());
      flows.push_back(flow);
    }
  }
  return flows;
}

// Bit-identical paths and link loads from simulateTraffic, with and without
// flow ECs, and identical classes from buildFlowEcs.
void expectSameForwarding(const NetworkModel& model, const BothWays& ribs,
                          const std::vector<Flow>& flows) {
  for (const bool ecs : {false, true}) {
    TrafficSimOptions options;
    options.useEquivalenceClasses = ecs;
    const TrafficSimResult merged = simulateTraffic(model, ribs.merged, flows, options);
    const TrafficSimResult layered = simulateTraffic(model, ribs.layered(), flows, options);
    EXPECT_EQ(layered.flowToPath, merged.flowToPath);
    ASSERT_EQ(layered.paths.size(), merged.paths.size());
    for (size_t i = 0; i < merged.paths.size(); ++i) {
      const FlowPath& want = merged.paths[i];
      const FlowPath& got = layered.paths[i];
      EXPECT_EQ(got.outcome, want.outcome) << want.str();
      ASSERT_EQ(got.hops.size(), want.hops.size()) << want.str() << "\n" << got.str();
      for (size_t h = 0; h < want.hops.size(); ++h) {
        EXPECT_EQ(got.hops[h].device, want.hops[h].device) << want.str();
        EXPECT_EQ(got.hops[h].nextDevice, want.hops[h].nextDevice) << want.str();
        EXPECT_EQ(got.hops[h].matchedPrefix, want.hops[h].matchedPrefix) << want.str();
        EXPECT_EQ(std::bit_cast<uint64_t>(got.hops[h].volumeShareBps),
                  std::bit_cast<uint64_t>(want.hops[h].volumeShareBps))
            << want.str();
      }
    }
    ASSERT_EQ(layered.linkLoads.size(), merged.linkLoads.size());
    for (const LinkLoadMap::Entry& entry : merged.linkLoads.entries())
      EXPECT_EQ(std::bit_cast<uint64_t>(layered.linkLoads.get(entry.from, entry.to)),
                std::bit_cast<uint64_t>(entry.bps))
          << Names::str(entry.from) << "->" << Names::str(entry.to);
  }
  const FlowEcPlan merged = buildFlowEcs(model, ribs.merged, flows);
  const FlowEcPlan layered = buildFlowEcs(model, ribs.layered(), flows);
  EXPECT_EQ(layered.flowToClass, merged.flowToClass);
}

StaticRouteConfig staticRoute(const std::string& prefix, uint8_t preference) {
  StaticRouteConfig route;
  route.prefix = *Prefix::parse(prefix);
  route.preference = preference;
  return route;
}

// (a) A stale preference-1 discard static for an announced prefix (the shape
// of riskStaleDiscardStatic) wins the combined cell: only the fold puts it
// in the own layer, where the tie goes.
TEST(LayeredForwardingTest, DiscardStaticForBgpPrefix) {
  SmallWan net = buildSmallWan();
  StaticRouteConfig discard = staticRoute("100.88.0.0/16", 1);
  discard.discard = true;
  net.configs.device(net.c2).staticRoutes.push_back(discard);
  const NetworkModel model = net.model();
  const BothWays ribs = buildBothWays(model, {ispRoute(net, "100.88.0.0/16")});
  const Route* best = bestRoute(ribs.merged, net.c2, "100.88.0.0/16");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->protocol, Protocol::kStatic);
  expectSameForwarding(model, ribs, flowsTo(net, {"100.88.1.1", "100.88.255.254"}));
}

// (b) A preference-200 floating static for a prefix BR1 learns over eBGP
// (distance 20) loses the combined cell but is best in the local layer
// alone: the tie must go to the own layer.
TEST(LayeredForwardingTest, FloatingStaticUnderBgpPrefix) {
  SmallWan net = buildSmallWan(vendorA().name);
  StaticRouteConfig floating = staticRoute("100.1.0.0/16", 200);
  floating.nexthop = net.topology.findDevice(net.c1)->loopback;
  net.configs.device(net.br1).staticRoutes.push_back(floating);
  const NetworkModel model = net.model();
  const BothWays ribs = buildBothWays(model, {ispRoute(net, "100.1.0.0/16")});
  const Route* merged = bestRoute(ribs.merged, net.br1, "100.1.0.0/16");
  const Route* local = bestRoute(ribs.shared, net.br1, "100.1.0.0/16");
  ASSERT_NE(merged, nullptr);
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(merged->protocol, Protocol::kBgp);
  EXPECT_EQ(local->protocol, Protocol::kStatic);
  expectSameForwarding(model, ribs, flowsTo(net, {"100.1.2.3", "100.1.255.1"}));
}

// A static /32 on C2 inside the announced /16.
SmallWan hostRouteInsideBgpPrefix() {
  SmallWan net = buildSmallWan();
  StaticRouteConfig host = staticRoute("100.1.2.3/32", 1);
  host.nexthop = net.topology.findDevice(net.rr1)->loopback;
  net.configs.device(net.c2).staticRoutes.push_back(host);
  return net;
}

// (c) The shared layer's longer match beats the own layer's.
TEST(LayeredForwardingTest, LocalHostRouteInsideBgpPrefix) {
  const SmallWan net = hostRouteInsideBgpPrefix();
  const NetworkModel model = net.model();
  const BothWays ribs = buildBothWays(model, {ispRoute(net, "100.1.0.0/16")});
  expectSameForwarding(model, ribs, flowsTo(net, {"100.1.2.3", "100.1.2.4", "100.1.0.1"}));
}

// (d) The own layer's longer match beats the shared layer's supernet.
TEST(LayeredForwardingTest, BgpPrefixInsideLocalSupernet) {
  SmallWan net = buildSmallWan();
  StaticRouteConfig supernet = staticRoute("100.0.0.0/8", 1);
  supernet.nexthop = net.topology.findDevice(net.rr1)->loopback;
  net.configs.device(net.c2).staticRoutes.push_back(supernet);
  const NetworkModel model = net.model();
  const BothWays ribs = buildBothWays(model, {ispRoute(net, "100.1.0.0/16")});
  expectSameForwarding(model, ribs, flowsTo(net, {"100.1.2.3", "100.2.0.1", "100.0.0.1"}));
}

// (e) Flows to the /32 and to the rest of its covering BGP prefix fall in
// different classes: the atom is the longer of the two prefix-union matches.
TEST(LayeredForwardingTest, HostRouteAndRestOfBgpPrefixSplitClasses) {
  const SmallWan net = hostRouteInsideBgpPrefix();
  const NetworkModel model = net.model();
  const BothWays ribs = buildBothWays(model, {ispRoute(net, "100.1.0.0/16")});
  const std::vector<Flow> flows = flowsTo(net, {"100.1.2.3", "100.1.2.4"});
  const FlowEcPlan plan = buildFlowEcs(model, ribs.layered(), flows);
  EXPECT_NE(plan.flowToClass[0], plan.flowToClass[1]);
  expectSameForwarding(model, ribs, flows);
}

// --- generated WAN end-to-end ----------------------------------------------------

TEST(GeneratedWanTest, ModelBuildsAndSimulationConverges) {
  WanSpec spec;
  spec.regions = 3;
  const GeneratedWan wan = generateWan(spec);
  const NetworkModel model = wan.buildModel();
  EXPECT_TRUE(model.sessionProblems.empty())
      << (model.sessionProblems.empty() ? "" : model.sessionProblems.front());
  EXPECT_GT(model.sessions.size(), 0u);

  WorkloadSpec workload;
  workload.prefixesPerIsp = 16;
  workload.prefixesPerDc = 8;
  workload.v6Share = 0;
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);
  ASSERT_FALSE(inputs.empty());
  const RouteSimResult result = simulateCentralized(model, inputs);
  EXPECT_TRUE(result.stats.converged);
  // ISP routes must reach remote regions' cores.
  const Route* remote = bestRoute(result.ribs, wan.cores.back(), "100.0.0.0/24");
  ASSERT_NE(remote, nullptr);

  // Flows route end to end.
  const std::vector<Flow> flows = generateFlows(wan, workload, 500);
  const TrafficSimResult traffic = simulateTraffic(model, result.ribs, flows);
  EXPECT_EQ(traffic.stats.inputFlows, 500u);
  EXPECT_GT(traffic.stats.ec.reductionFactor(), 1.5);
  // The overwhelming majority of generated flows should be deliverable.
  EXPECT_GT(traffic.stats.delivered + traffic.stats.exited,
            traffic.stats.simulatedFlows * 8 / 10);
}

TEST(GeneratedWanTest, ConfigTextRoundTripsThroughParser) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  for (const auto& [name, config] : wan.configs.devices()) {
    const std::string text = printDeviceConfig(config, wan.topology.findDevice(name));
    const ParseResult reparsed = parseDeviceConfig(text);
    for (const ParseError& error : reparsed.errors)
      ADD_FAILURE() << Names::str(name) << ": " << error.str();
    EXPECT_EQ(reparsed.config.bgp.asn, config.bgp.asn);
    EXPECT_EQ(reparsed.config.bgp.neighbors.size(), config.bgp.neighbors.size());
    EXPECT_EQ(reparsed.config.routePolicies.size(), config.routePolicies.size());
  }
}

}  // namespace
}  // namespace hoyan
