// Tests for protocol engines: IS-IS SPF, policy evaluation with VSBs, BGP
// session derivation, the decision process, and the model's adjacency table.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/wan_gen.h"
#include "proto/bgp.h"
#include "proto/isis.h"
#include "proto/network_model.h"
#include "proto/policy_eval.h"
#include "test_fixtures.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::SmallWan;

// --- IS-IS ---------------------------------------------------------------

// SPF over the topology's current adjacencies.
IgpState spf(const Topology& topology) {
  return IgpState::compute(topology, AdjacencyTable(topology));
}

TEST(IsisTest, SpfCostsOnSmallWan) {
  const SmallWan net = buildSmallWan();
  const IgpState igp = spf(net.topology);
  EXPECT_EQ(igp.path(net.c1, net.c2).cost, 10u);
  EXPECT_EQ(igp.path(net.br1, net.c2).cost, 20u);  // BR1 -> C1 -> C2.
  EXPECT_EQ(igp.path(net.br1, net.rr1).cost, 20u);
  // The ISP is outside the IGP domain.
  EXPECT_FALSE(igp.path(net.c1, net.isp1).reachable());
  EXPECT_FALSE(igp.path(net.isp1, net.c1).reachable());
}

TEST(IsisTest, EcmpFirstHops) {
  const SmallWan net = buildSmallWan();
  const IgpState igp = spf(net.topology);
  // BR1 -> RR1: via C1 (10+10); C1->RR1 direct; single path.
  const IgpPath& path = igp.path(net.br1, net.rr1);
  ASSERT_EQ(path.nextHops.size(), 1u);
  EXPECT_EQ(path.nextHops[0], net.c1);
  // C1 -> every domain member reachable.
  const auto members = igp.domainMembers(net.c1);
  EXPECT_EQ(members.size(), 4u);
}

TEST(IsisTest, LinkFailureReroutes) {
  SmallWan net = buildSmallWan();
  net.topology.setLinkState(net.c1, net.c2, false);
  const IgpState igp = spf(net.topology);
  // C1 -> C2 must now detour via RR1.
  EXPECT_EQ(igp.path(net.c1, net.c2).cost, 20u);
  ASSERT_EQ(igp.path(net.c1, net.c2).nextHops.size(), 1u);
  EXPECT_EQ(igp.path(net.c1, net.c2).nextHops[0], net.rr1);
}

TEST(IsisTest, DeviceFailureDisconnects) {
  SmallWan net = buildSmallWan();
  net.topology.failDevice(net.c1);
  const IgpState igp = spf(net.topology);
  EXPECT_FALSE(igp.path(net.br1, net.c2).reachable());
  net.topology.restoreDevice(net.c1);
  const IgpState restored = spf(net.topology);
  EXPECT_TRUE(restored.path(net.br1, net.c2).reachable());
}

// Sets the IS-IS cost of `device`'s interfaces toward `neighbor`.
void setCostToward(Topology& topology, NameId device, NameId neighbor, uint32_t cost) {
  for (const Adjacency& adj : topology.adjacenciesOf(device))
    if (adj.neighbor == neighbor)
      topology.findDevice(device)->findInterface(adj.localInterface)->isisCost = cost;
}

// Costs sum in 64 bits: a path whose cost reaches kIgpInfinity is
// unreachable with no first hops, and no wrapped sum undercuts a real path.
TEST(IsisTest, PathCostsNeverWrapAround) {
  SmallWan net = buildSmallWan();
  // C1's link toward RR1 at the largest cost: 10 + 0xffffffff must not read
  // as BR1 -> RR1 cost 9.
  setCostToward(net.topology, net.c1, net.rr1, kIgpInfinity);
  IgpState igp = spf(net.topology);
  EXPECT_EQ(igp.path(net.br1, net.rr1).cost, 30u);  // BR1 -> C1 -> C2 -> RR1.
  EXPECT_EQ(std::vector<NameId>(igp.path(net.br1, net.rr1).nextHops.begin(),
                                igp.path(net.br1, net.rr1).nextHops.end()),
            std::vector<NameId>{net.c1});
  EXPECT_EQ(igp.path(net.c1, net.rr1).cost, 20u);  // Detour via C2.
  ASSERT_EQ(igp.path(net.c1, net.rr1).nextHops.size(), 1u);
  EXPECT_EQ(igp.path(net.c1, net.rr1).nextHops[0], net.c2);

  // BR1's only IS-IS link at the largest cost: BR1 reaches nothing, and the
  // unreachable path names no first hop. The reverse direction is unchanged.
  setCostToward(net.topology, net.br1, net.c1, kIgpInfinity);
  igp = spf(net.topology);
  EXPECT_FALSE(igp.path(net.br1, net.c1).reachable());
  EXPECT_TRUE(igp.path(net.br1, net.c1).nextHops.empty());
  EXPECT_EQ(igp.path(net.c1, net.br1).cost, 10u);

  // Two halves of 2^32 reach kIgpInfinity instead of wrapping to 0.
  setCostToward(net.topology, net.br1, net.c1, 0x80000000u);
  setCostToward(net.topology, net.c1, net.c2, 0x80000000u);
  igp = spf(net.topology);
  EXPECT_EQ(igp.path(net.br1, net.c1).cost, 0x80000000u);
  EXPECT_FALSE(igp.path(net.br1, net.c2).reachable());
  EXPECT_TRUE(igp.path(net.br1, net.c2).nextHops.empty());
  EXPECT_FALSE(igp.path(net.br1, net.rr1).reachable());
}

// --- AS-path regex -----------------------------------------------------------

TEST(AsPathRegexTest, UnderscoreBoundaries) {
  AsPath path({100, 123, 300});
  EXPECT_TRUE(asPathMatches(path, "_123_"));
  EXPECT_FALSE(asPathMatches(path, "_124_"));
  EXPECT_TRUE(asPathMatches(path, "^100"));
  EXPECT_TRUE(asPathMatches(path, "300$"));
  EXPECT_TRUE(asPathMatches(path, ".*"));
  // An invalid pattern matches nothing rather than throwing.
  EXPECT_FALSE(asPathMatches(path, "(unclosed"));
  // `_23_` must not match inside 123 (boundary semantics).
  EXPECT_FALSE(asPathMatches(path, "_23_"));
}

// --- policy evaluation VSBs ------------------------------------------------------

class PolicyVsbTest : public ::testing::Test {
 protected:
  Route makeRoute(const std::string& prefix = "10.0.0.0/24") {
    Route route;
    route.prefix = *Prefix::parse(prefix);
    route.protocol = Protocol::kBgp;
    route.attrs.communities.insert(Community(100, 1));
    route.attrs.asPath = AsPath({65001, 70000});
    return route;
  }

  DeviceConfig config_;
};

TEST_F(PolicyVsbTest, MissingRoutePolicy) {
  const PolicyContext acceptContext{&config_, &vendorA(), 64512};
  EXPECT_TRUE(evaluatePolicy(acceptContext, std::nullopt, makeRoute()).permitted);
  const PolicyContext strictContext{&config_, &vendorC(), 64512};
  EXPECT_FALSE(evaluatePolicy(strictContext, std::nullopt, makeRoute()).permitted);
}

TEST_F(PolicyVsbTest, UndefinedRoutePolicy) {
  const NameId ghost = Names::id("GHOST-POLICY");
  const PolicyContext lenient{&config_, &vendorA(), 64512};  // Undefined==missing.
  EXPECT_TRUE(evaluatePolicy(lenient, ghost, makeRoute()).permitted);
  const PolicyContext strict{&config_, &vendorB(), 64512};
  EXPECT_FALSE(evaluatePolicy(strict, ghost, makeRoute()).permitted);
}

TEST_F(PolicyVsbTest, DefaultRoutePolicyTailBehaviour) {
  const NameId name = Names::id("NARROW");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.nexthop = *IpAddress::parse("99.99.99.99");  // Never matches.
  policy.upsertNode(node);
  const PolicyContext tailDeny{&config_, &vendorA(), 64512};
  EXPECT_FALSE(evaluatePolicy(tailDeny, name, makeRoute()).permitted);
  const PolicyContext tailPermit{&config_, &vendorC(), 64512};
  EXPECT_TRUE(evaluatePolicy(tailPermit, name, makeRoute()).permitted);
}

TEST_F(PolicyVsbTest, UndefinedPolicyFilter) {
  const NameId name = Names::id("WITH-GHOST-FILTER");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.prefixList = Names::id("GHOST-LIST");
  policy.upsertNode(node);
  const PolicyContext matchAll{&config_, &vendorA(), 64512};
  EXPECT_TRUE(evaluatePolicy(matchAll, name, makeRoute()).permitted);
  // VendorB: undefined filter matches nothing -> node skipped -> tail deny.
  const PolicyContext matchNone{&config_, &vendorB(), 64512};
  EXPECT_FALSE(evaluatePolicy(matchNone, name, makeRoute()).permitted);
}

TEST_F(PolicyVsbTest, NodeWithoutExplicitAction) {
  const NameId name = Names::id("NO-ACTION");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;  // action stays kUnspecified.
  policy.upsertNode(node);
  const PolicyContext permits{&config_, &vendorA(), 64512};
  EXPECT_TRUE(evaluatePolicy(permits, name, makeRoute()).permitted);
  const PolicyContext denies{&config_, &vendorB(), 64512};
  EXPECT_FALSE(evaluatePolicy(denies, name, makeRoute()).permitted);
}

TEST_F(PolicyVsbTest, IpPrefixListAgainstV6Route) {
  // The §6.1(b) incident: an ip-prefix list matched against IPv6 routes.
  const NameId listName = Names::id("TARGETS");
  PrefixList list;
  list.name = listName;
  list.family = IpFamily::kV4;  // Declared with `ip-prefix`.
  list.entries.push_back({true, *Prefix::parse("2400:db8::/32"), 0, 0});
  config_.prefixLists.emplace(listName, list);
  const NameId name = Names::id("STEER");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.prefixList = listName;
  node.sets.localPref = 500;
  policy.upsertNode(node);

  Route v6route = makeRoute();
  v6route.prefix = *Prefix::parse("2400:aaaa::/32");  // NOT in the list.
  // VendorC: all IPv6 routes match the v4 list by default => unintended.
  const PolicyContext buggy{&config_, &vendorC(), 64512};
  const PolicyResult buggyResult = evaluatePolicy(buggy, name, v6route);
  EXPECT_TRUE(buggyResult.permitted);
  EXPECT_EQ(buggyResult.route.attrs.localPref, 500u);
  // VendorA: a v4 list never matches a v6 route => tail deny.
  const PolicyContext sane{&config_, &vendorA(), 64512};
  EXPECT_FALSE(evaluatePolicy(sane, name, v6route).permitted);
}

TEST_F(PolicyVsbTest, AsPathOverwriteAddsOwnAsnPerVsb) {
  const NameId name = Names::id("OVERWRITE");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.sets.overwriteAsPath = std::vector<Asn>{65100};
  policy.upsertNode(node);
  const PolicyContext adds{&config_, &vendorA(), 64512};
  EXPECT_EQ(evaluatePolicy(adds, name, makeRoute()).route.attrs.asPath.str(),
            "64512 65100");
  const PolicyContext keeps{&config_, &vendorB(), 64512};
  EXPECT_EQ(evaluatePolicy(keeps, name, makeRoute()).route.attrs.asPath.str(), "65100");
}

TEST_F(PolicyVsbTest, SetsApplyInOrder) {
  PolicySets sets;
  sets.clearCommunities = true;
  sets.addCommunities.push_back(Community(300, 3));
  sets.localPref = 250;
  sets.med = 77;
  sets.nexthop = *IpAddress::parse("4.4.4.4");
  sets.prepend = {64512, 3};
  Route route = makeRoute();
  const PolicyContext context{&config_, &vendorB(), 64512};
  applySets(context, sets, route);
  EXPECT_EQ(route.attrs.communities.str(), "300:3");
  EXPECT_EQ(route.attrs.localPref, 250u);
  EXPECT_EQ(route.attrs.med, 77u);
  EXPECT_EQ(route.nexthop.str(), "4.4.4.4");
  EXPECT_EQ(route.attrs.asPath.str(), "64512 64512 64512 65001 70000");
}

// --- BGP sessions -----------------------------------------------------------------

TEST(BgpSessionTest, DerivesAllSmallWanSessions) {
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  // 3 iBGP pairs + 1 eBGP pair = 8 directed sessions.
  EXPECT_EQ(model.sessions.size(), 8u);
  size_t ebgp = 0;
  for (const BgpSession& session : model.sessions)
    if (session.ebgp) ++ebgp;
  EXPECT_EQ(ebgp, 2u);
}

// deriveBgpSessions walks the config map, so it emits sessions grouped by
// local device in ascending order; the model's session index relies on it.
TEST(BgpSessionTest, SessionsGroupByAscendingLocalDeviceAndTheIndexFindsThem) {
  WanSpec spec;
  spec.regions = 3;
  spec.seed = 9;
  const NetworkModel model = generateWan(spec).buildModel();
  ASSERT_GT(model.sessions.size(), 10u);
  EXPECT_TRUE(std::is_sorted(
      model.sessions.begin(), model.sessions.end(),
      [](const BgpSession& a, const BgpSession& b) { return a.local < b.local; }));
  for (const auto& [name, device] : model.topology.devices()) {
    std::vector<size_t> expected;
    for (size_t i = 0; i < model.sessions.size(); ++i)
      if (model.sessions[i].local == name) expected.push_back(i);
    std::vector<size_t> indexed;
    for (const size_t i : model.sessionIndex.of(name)) indexed.push_back(i);
    EXPECT_EQ(indexed, expected) << Names::str(name);
  }
  EXPECT_TRUE(model.sessionIndex.of(Names::id("session-no-such-device")).empty());
  // Sessions out of that order are refused, not indexed wrongly.
  std::vector<BgpSession> reversed = model.sessions;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_THROW(SessionIndex{reversed}, std::logic_error);
}

TEST(BgpSessionTest, RemoteAsMismatchBreaksSession) {
  SmallWan net = buildSmallWan();
  // Typo in the remote-as of BR1 -> ISP1.
  for (BgpNeighbor& neighbor : net.configs.device(net.br1).bgp.neighbors)
    if (neighbor.remoteAs == 65001) neighbor.remoteAs = 65002;
  std::vector<std::string> problems;
  const AddressIndex index = AddressIndex::build(net.topology);
  const AdjacencyTable adjacency(net.topology);
  const IgpState igp = IgpState::compute(net.topology, adjacency);
  const auto sessions =
      deriveBgpSessions(net.topology, adjacency, net.configs, index, igp, &problems);
  EXPECT_EQ(sessions.size(), 6u);  // Only the iBGP sessions remain.
  EXPECT_FALSE(problems.empty());
}

TEST(BgpSessionTest, ShutdownNeighborBreaksBothDirections) {
  SmallWan net = buildSmallWan();
  for (BgpNeighbor& neighbor : net.configs.device(net.br1).bgp.neighbors)
    if (neighbor.remoteAs == 65001) neighbor.shutdown = true;
  const NetworkModel model = net.model();
  for (const BgpSession& session : model.sessions) EXPECT_FALSE(session.ebgp);
}

TEST(BgpSessionTest, IsolationSemanticsDependOnVendor) {
  // Session-shutdown vendor (B): isolation removes all sessions.
  SmallWan netB = buildSmallWan();
  netB.configs.device(netB.br1).isolated = true;
  netB.configs.device(netB.br1).vendor = vendorB().name;
  // VendorB isolationViaDenyPolicy = false -> sessions drop.
  const NetworkModel modelB = netB.model();
  for (const BgpSession& session : modelB.sessions) {
    EXPECT_NE(session.local, netB.br1);
    EXPECT_NE(session.peer, netB.br1);
  }
  // Deny-policy vendor (A): sessions stay up.
  SmallWan netA = buildSmallWan();
  netA.configs.device(netA.br1).isolated = true;
  netA.configs.device(netA.br1).vendor = vendorA().name;
  const NetworkModel modelA = netA.model();
  bool anyBorderSession = false;
  for (const BgpSession& session : modelA.sessions)
    if (session.local == netA.br1) anyBorderSession = true;
  EXPECT_TRUE(anyBorderSession);
}

// --- decision process ------------------------------------------------------------

class DecisionTest : public ::testing::Test {
 protected:
  Route route(uint32_t localPref, size_t pathLength, uint32_t med = 0,
              bool ebgp = true, uint32_t igpCost = 0, uint32_t weight = 0) {
    Route r;
    r.prefix = *Prefix::parse("10.0.0.0/24");
    r.protocol = Protocol::kBgp;
    r.adminDistance = 20;
    r.attrs.weight = weight;
    r.attrs.localPref = localPref;
    std::vector<Asn> path;
    for (size_t i = 0; i < pathLength; ++i) path.push_back(65000);
    r.attrs.asPath = AsPath(path);
    r.attrs.med = med;
    r.ebgpLearned = ebgp;
    r.igpCost = igpCost;
    return r;
  }
};

TEST_F(DecisionTest, WeightBeatsEverything) {
  EXPECT_TRUE(bgpPreferred(route(100, 5, 0, false, 99, 1000), route(999, 1)));
}

TEST_F(DecisionTest, LocalPrefBeatsPathLength) {
  EXPECT_TRUE(bgpPreferred(route(200, 5), route(100, 1)));
}

TEST_F(DecisionTest, ShorterPathWins) {
  EXPECT_TRUE(bgpPreferred(route(100, 1), route(100, 2)));
}

TEST_F(DecisionTest, MedComparableOnlyWithinSameNeighborAs) {
  Route a = route(100, 1, 10);
  Route b = route(100, 1, 20);
  EXPECT_TRUE(bgpPreferred(a, b));  // Same first ASN (65000).
  // Different neighbour AS: MED not compared; tie continues to eBGP/IGP.
  b.attrs.asPath = AsPath({65009});
  EXPECT_FALSE(bgpPreferred(a, b));
  EXPECT_FALSE(bgpPreferred(b, a));
}

TEST_F(DecisionTest, EbgpOverIbgpThenIgpCost) {
  EXPECT_TRUE(bgpPreferred(route(100, 1, 0, true), route(100, 1, 0, false)));
  EXPECT_TRUE(bgpPreferred(route(100, 1, 0, false, 5), route(100, 1, 0, false, 10)));
}

TEST_F(DecisionTest, SelectBestRoutesMarksEcmp) {
  std::vector<Route> routes;
  routes.push_back(route(100, 1, 0, false, 10));
  routes.push_back(route(100, 1, 0, false, 10));  // Equal: ECMP.
  routes.push_back(route(100, 2, 0, false, 10));  // Longer path: alternate.
  routes[0].learnedFrom = Names::id("d-a");
  routes[1].learnedFrom = Names::id("d-b");
  routes[2].learnedFrom = Names::id("d-c");
  selectBestRoutes(routes);
  EXPECT_EQ(routes[0].type, RouteType::kBest);
  EXPECT_EQ(routes[1].type, RouteType::kEcmp);
  EXPECT_EQ(routes[2].type, RouteType::kAlternate);
}

TEST_F(DecisionTest, AdminDistanceSeparatesProtocols) {
  std::vector<Route> routes;
  Route bgpRoute = route(100, 1);
  Route staticRoute;
  staticRoute.prefix = bgpRoute.prefix;
  staticRoute.protocol = Protocol::kStatic;
  staticRoute.adminDistance = 1;
  routes.push_back(bgpRoute);
  routes.push_back(staticRoute);
  selectBestRoutes(routes);
  EXPECT_EQ(routes[0].protocol, Protocol::kStatic);
  EXPECT_EQ(routes[0].type, RouteType::kBest);
  EXPECT_EQ(routes[1].type, RouteType::kAlternate);
}

TEST_F(DecisionTest, SelectBestRoutesMarksALoneRouteBest) {
  std::vector<Route> routes = {route(100, 2)};
  routes[0].type = RouteType::kAlternate;
  selectBestRoutes(routes);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].type, RouteType::kBest);
}

// --- adjacency table --------------------------------------------------------------

// The model's table against Topology::adjacenciesOf, its oracle: for every
// device the same adjacencies (neighbour, both interfaces, link index) in
// the same order, and nothing for a failed or unknown device.
void expectTableMatchesRescan(const NetworkModel& model, const std::string& label) {
  for (const auto& [name, device] : model.topology.devices()) {
    const std::vector<Adjacency> rescan = model.topology.adjacenciesOf(name);
    const std::span<const Adjacency> table = model.adjacenciesOf(name);
    ASSERT_EQ(table.size(), rescan.size()) << label << " " << Names::str(name);
    for (size_t i = 0; i < rescan.size(); ++i) {
      EXPECT_EQ(table[i].neighbor, rescan[i].neighbor) << label << " " << Names::str(name);
      EXPECT_EQ(table[i].localInterface, rescan[i].localInterface) << label;
      EXPECT_EQ(table[i].neighborInterface, rescan[i].neighborInterface) << label;
      EXPECT_EQ(table[i].linkIndex, rescan[i].linkIndex) << label;
    }
    if (!model.topology.deviceActive(name)) {
      EXPECT_TRUE(table.empty()) << label << " " << Names::str(name);
    }
  }
  EXPECT_TRUE(model.adjacenciesOf(Names::id("adj-no-such-device")).empty()) << label;
}

// Adds a link beside an existing one, on fresh interfaces of both devices.
void addParallelLink(Topology& topology, const Link& link, uint32_t& nextAddress) {
  const auto addInterface = [&](NameId device) {
    Device* owner = topology.findDevice(device);
    Interface itf;
    itf.name = Names::id(Names::str(device) + ":par" + std::to_string(owner->interfaces.size()));
    itf.address = IpAddress::v4(nextAddress++);
    itf.prefixLength = 31;
    itf.isisEnabled = true;
    owner->interfaces.push_back(itf);
    return itf.name;
  };
  const NameId itfA = addInterface(link.deviceA);
  const NameId itfB = addInterface(link.deviceB);
  topology.addLink(link.deviceA, itfA, link.deviceB, itfB);
}

TEST(AdjacencyTableTest, MatchesTopologyRescanUnderFailuresAndShutdown) {
  WanSpec spec;
  spec.regions = 3;
  spec.coresPerRegion = 2;
  spec.dcsPerRegion = 1;
  spec.seed = 11;
  GeneratedWan wan = generateWan(spec);
  // Parallel links beside every third link, and a self-loop, which the
  // table must list once.
  uint32_t nextAddress = (172u << 24) | (31u << 16);
  const std::vector<Link> original = wan.topology.links();
  std::vector<size_t> parallelIndices;
  for (size_t i = 0; i < original.size(); i += 3) {
    parallelIndices.push_back(wan.topology.links().size());
    addParallelLink(wan.topology, original[i], nextAddress);
  }
  addParallelLink(wan.topology, Link{wan.cores[0], kInvalidName, wan.cores[0], kInvalidName},
                  nextAddress);
  NetworkModel model = wan.buildModel();
  expectTableMatchesRescan(model, "built");
  const auto selfLoops = std::count_if(
      model.adjacenciesOf(wan.cores[0]).begin(), model.adjacenciesOf(wan.cores[0]).end(),
      [&](const Adjacency& adj) { return adj.neighbor == wan.cores[0]; });
  EXPECT_EQ(selfLoops, 1);

  std::vector<NameId> devices;
  for (const auto& [name, device] : model.topology.devices()) devices.push_back(name);
  const std::vector<Link>& links = model.topology.links();
  std::mt19937 rng(2025);
  const auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  for (int round = 0; round < 60; ++round) {
    const std::string label = "round " + std::to_string(round);
    FailureOverlay overlay;
    for (size_t k = 1 + pick(3); k > 0; --k) {
      const Link& link = links[pick(links.size())];
      overlay.addLink(link.deviceA, link.deviceB);
    }
    if (round % 2 == 0) overlay.addDevice(devices[pick(devices.size())]);
    overlay.apply(model.topology);
    // One of a parallel pair down on its own, beside the overlay.
    const size_t lone = parallelIndices[pick(parallelIndices.size())];
    model.topology.maskLinkDown(lone);
    model.rebuildDerivedForFailures();
    expectTableMatchesRescan(model, label + " applied");
    model.topology.unmaskLink(lone);
    overlay.revert(model.topology);
    model.rebuildDerivedForFailures();
    expectTableMatchesRescan(model, label + " reverted");
  }

  const NameId core = wan.cores[1];
  const size_t before = model.adjacenciesOf(core).size();
  model.topology.findDevice(core)->interfaces.front().shutdown = true;
  model.rebuildDerived();
  expectTableMatchesRescan(model, "shutdown");
  EXPECT_EQ(model.adjacenciesOf(core).size(), before - 1);
}

// --- IS-IS SPF against an independent reference ----------------------------------

// Checks `igp` against the all-pairs IS-IS state by definition, domain by
// domain: Floyd–Warshall costs over the IS-IS adjacencies of a topology
// rescan (the cheapest of parallel links), and h a first hop of s toward t
// exactly when h is an IS-IS neighbour of s with
// edge(s,h) + dist(h,t) = dist(s,t). Pairs across domains, and devices that
// are failed or in no domain, have no path and no members.
void expectIgpMatchesReference(const Topology& topology, const IgpState& igp,
                               const std::string& label) {
  constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max() / 4;
  std::map<NameId, std::vector<NameId>> domains;  // Members sorted by NameId.
  for (const auto& [name, device] : topology.devices())
    if (device.igpDomain != kInvalidName && topology.deviceActive(name))
      domains[device.igpDomain].push_back(name);
  size_t sources = 0;
  for (const auto& [domainId, members] : domains) {
    const size_t m = members.size();
    sources += m;
    const auto indexOf = [&](NameId device) {
      return static_cast<size_t>(std::lower_bound(members.begin(), members.end(), device) -
                                 members.begin());
    };
    std::vector<uint64_t> edge(m * m, kNone);
    for (size_t u = 0; u < m; ++u) {
      const Device& device = *topology.findDevice(members[u]);
      for (const Adjacency& adj : topology.adjacenciesOf(members[u])) {
        const Device& peer = *topology.findDevice(adj.neighbor);
        if (peer.igpDomain != domainId) continue;
        const Interface* local = device.findInterface(adj.localInterface);
        const Interface* remote = peer.findInterface(adj.neighborInterface);
        if (!local->isisEnabled || !remote->isisEnabled) continue;
        uint64_t& cell = edge[u * m + indexOf(adj.neighbor)];
        cell = std::min<uint64_t>(cell, local->isisCost);
      }
    }
    std::vector<uint64_t> dist = edge;
    for (size_t u = 0; u < m; ++u) dist[u * m + u] = 0;
    for (size_t k = 0; k < m; ++k)
      for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < m; ++j)
          dist[i * m + j] = std::min(dist[i * m + j], dist[i * m + k] + dist[k * m + j]);
    for (size_t s = 0; s < m; ++s) {
      const std::span<const NameId> got = igp.domainMembers(members[s]);
      ASSERT_EQ(std::vector<NameId>(got.begin(), got.end()), members)
          << label << " members of " << Names::str(members[s]);
      for (size_t t = 0; t < m; ++t) {
        const uint64_t d = dist[s * m + t];
        std::vector<NameId> hops;
        for (size_t h = 0; h < m && d < kIgpInfinity; ++h)
          if (edge[s * m + h] != kNone && edge[s * m + h] + dist[h * m + t] == d)
            hops.push_back(members[h]);
        const IgpPath path = igp.path(members[s], members[t]);
        const std::string pair =
            label + " " + Names::str(members[s]) + " -> " + Names::str(members[t]);
        ASSERT_EQ(path.cost, d < kIgpInfinity ? d : kIgpInfinity) << pair;
        ASSERT_EQ(std::vector<NameId>(path.nextHops.begin(), path.nextHops.end()), hops)
            << pair;
      }
    }
  }
  EXPECT_EQ(igp.sourcesRun(), sources) << label;
  for (const auto& [from, fromDevice] : topology.devices()) {
    const bool fromIgp = fromDevice.igpDomain != kInvalidName && topology.deviceActive(from);
    if (!fromIgp) {
      ASSERT_TRUE(igp.domainMembers(from).empty()) << label << " " << Names::str(from);
    }
    for (const auto& [to, toDevice] : topology.devices()) {
      if (fromIgp && topology.deviceActive(to) && toDevice.igpDomain == fromDevice.igpDomain)
        continue;
      const IgpPath path = igp.path(from, to);
      ASSERT_FALSE(path.reachable()) << label << " " << Names::str(from) << " -> "
                                     << Names::str(to);
      ASSERT_TRUE(path.nextHops.empty()) << label << " " << Names::str(from);
    }
  }
}

// Random link and device failures on generated WANs, one with attached DCNs
// (several IGP domains), with parallel links, a self-loop, mixed and
// asymmetric costs, and a shut interface.
TEST(IsisTest, SpfMatchesFloydWarshallReferenceUnderRandomFailures) {
  WanSpec wanOnly;
  wanOnly.regions = 4;
  wanOnly.seed = 31;
  WanSpec wanDcn;
  wanDcn.regions = 3;
  wanDcn.dcsPerRegion = 3;
  wanDcn.dcnCoresPerDc = 8;
  wanDcn.seed = 32;
  std::mt19937 rng(2026);
  const auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  for (const WanSpec& spec : {wanOnly, wanDcn}) {
    const std::string name = spec.dcnCoresPerDc > 0 ? "wan+dcn" : "wan";
    GeneratedWan wan = generateWan(spec);
    // A ring inside each DCN (the generator links DCN cores only to their
    // gateway, across domains), parallel links beside every fourth link, and
    // a self-loop.
    uint32_t nextAddress = (172u << 24) | (32u << 16);
    for (size_t i = 0; i + 1 < wan.dcnCores.size(); ++i) {
      const NameId a = wan.dcnCores[i], b = wan.dcnCores[i + 1];
      if (wan.topology.findDevice(a)->igpDomain == wan.topology.findDevice(b)->igpDomain)
        addParallelLink(wan.topology, Link{a, kInvalidName, b, kInvalidName}, nextAddress);
    }
    const std::vector<Link> original = wan.topology.links();
    std::vector<size_t> parallelIndices;
    for (size_t i = 0; i < original.size(); i += 4) {
      parallelIndices.push_back(wan.topology.links().size());
      addParallelLink(wan.topology, original[i], nextAddress);
    }
    addParallelLink(wan.topology, Link{wan.cores[0], kInvalidName, wan.cores[0], kInvalidName},
                    nextAddress);
    // Costs 5–20 in steps of 5 per interface end: asymmetric links, cheaper
    // parallel members, and many equal-cost ties.
    std::vector<NameId> devices;
    for (const auto& [device, info] : wan.topology.devices()) devices.push_back(device);
    for (const NameId device : devices)
      for (Interface& itf : wan.topology.findDevice(device)->interfaces)
        itf.isisCost = static_cast<uint32_t>(5 * (1 + pick(4)));
    NetworkModel model = wan.buildModel();
    ASSERT_NO_FATAL_FAILURE(expectIgpMatchesReference(model.topology, model.igp, name + " built"));

    const std::vector<Link>& links = model.topology.links();
    for (int round = 0; round < 30; ++round) {
      const std::string label = name + " round " + std::to_string(round);
      FailureOverlay overlay;
      for (size_t k = 1 + pick(2); k > 0; --k) {
        const Link& link = links[pick(links.size())];
        overlay.addLink(link.deviceA, link.deviceB);
      }
      if (round % 3 == 0) overlay.addDevice(devices[pick(devices.size())]);
      overlay.apply(model.topology);
      // One of a parallel pair down on its own.
      const size_t lone = parallelIndices[pick(parallelIndices.size())];
      model.topology.maskLinkDown(lone);
      model.rebuildDerivedForFailures();
      ASSERT_NO_FATAL_FAILURE(expectIgpMatchesReference(model.topology, model.igp, label));
      model.topology.unmaskLink(lone);
      overlay.revert(model.topology);
    }

    model.topology.findDevice(wan.cores[1])->interfaces.front().shutdown = true;
    model.rebuildDerived();
    ASSERT_NO_FATAL_FAILURE(
        expectIgpMatchesReference(model.topology, model.igp, name + " shutdown"));

    if (spec.dcnCoresPerDc == 0) continue;
    // Memory is the sum of m² over domains plus the first hops, far below
    // a global n×n table's 8 bytes (cost and hop offset) per cell.
    size_t cells = 0, hops = 0, igpDevices = 0, domainCount = 0;
    std::set<NameId> seen;
    for (const NameId device : devices) {
      const std::span<const NameId> members = model.igp.domainMembers(device);
      if (members.empty() || seen.contains(members.front())) continue;
      seen.insert(members.front());
      ++domainCount;
      igpDevices += members.size();
      cells += members.size() * members.size();
      for (const NameId from : members)
        for (const NameId to : members) hops += model.igp.path(from, to).nextHops.size();
    }
    ASSERT_GT(domainCount, 2u);
    const size_t bound = sizeof(IgpState) + (2 * cells + 1) * sizeof(uint32_t) +
                         hops * sizeof(NameId) + igpDevices * 16 + domainCount * 16;
    EXPECT_LE(model.igp.approxBytes(), bound);
    EXPECT_LT(3 * bound, igpDevices * igpDevices * 2 * sizeof(uint32_t));
  }
}

// --- address index ---------------------------------------------------------------

TEST(AddressIndexTest, ResolvesLoopbacksInterfacesAndSubnets) {
  const SmallWan net = buildSmallWan();
  const AddressIndex index = AddressIndex::build(net.topology);
  const Device* c1 = net.topology.findDevice(net.c1);
  EXPECT_EQ(index.exactOwner(c1->loopback), net.c1);
  EXPECT_EQ(index.exactOwner(c1->interfaces[0].address), net.c1);
  EXPECT_FALSE(index.exactOwner(*IpAddress::parse("203.0.113.1")).has_value());
  EXPECT_EQ(index.owner(c1->loopback), net.c1);
}

}  // namespace
}  // namespace hoyan
