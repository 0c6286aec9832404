// Table 5: the 16 vendor-specific behaviours (VSBs) the accuracy-diagnosis
// framework uncovered. Each row is reproduced by a differential experiment:
// the same configuration evaluated under two vendor profiles must diverge in
// exactly the behaviour the row describes.
#include "bench_util.h"
#include "proto/policy_eval.h"
#include "scenario/net_builder.h"
#include "sim/local_routes.h"
#include "sim/route_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

struct VsbExperiment {
  std::string name;
  std::string observed;  // "vendorX: ... vs vendorY: ..."
  bool divergent = false;
};

Route sampleRoute() {
  Route route;
  route.prefix = *Prefix::parse("10.0.0.0/24");
  route.protocol = Protocol::kBgp;
  route.attrs.asPath = AsPath({65001});
  route.attrs.communities.insert(Community(100, 1));
  return route;
}

// Rows 1-5 + the ip-prefix case: policy-evaluation-level differentials.
VsbExperiment policyVsb(const std::string& name, const VendorProfile& x,
                        const VendorProfile& y, const DeviceConfig& config,
                        std::optional<NameId> policy, const Route& route) {
  VsbExperiment experiment;
  experiment.name = name;
  const PolicyResult rx = evaluatePolicy({&config, &x, 64512}, policy, route);
  const PolicyResult ry = evaluatePolicy({&config, &y, 64512}, policy, route);
  experiment.divergent = rx.permitted != ry.permitted ||
                         !(rx.route.attrs == ry.route.attrs);
  const auto render = [](const PolicyResult& result) {
    if (!result.permitted) return std::string("reject");
    return "accept [path " + result.route.attrs.asPath.str() + "]";
  };
  experiment.observed = Names::str(x.name) + ": " + render(rx) + " vs " +
                        Names::str(y.name) + ": " + render(ry);
  return experiment;
}

// Full-simulation differential: runs the same tiny network twice with the
// target device's vendor swapped, and reports a caller-computed observation.
template <typename Observe>
VsbExperiment simVsb(const std::string& name, const VendorProfile& x,
                     const VendorProfile& y, Observe&& observe) {
  VsbExperiment experiment;
  experiment.name = name;
  const std::string ox = observe(x);
  const std::string oy = observe(y);
  experiment.divergent = ox != oy;
  experiment.observed =
      Names::str(x.name) + ": " + ox + " vs " + Names::str(y.name) + ": " + oy;
  return experiment;
}

// A two-router net (X iBGP-RR for client Y is overkill here): X receives a
// route from external peer E and we inspect X's RIB / advertisements.
struct MiniNet {
  NetBuilder nb;
  NameId x, e, y;

  explicit MiniNet(const VendorProfile& vendorX) {
    x = nb.device("v-X", 64512, vendorX);
    y = nb.device("v-Y", 64512, vendorB());
    e = nb.device("v-E", 65001, vendorB(), DeviceRole::kExternalPeer, false);
    nb.link(x, y);
    nb.link(x, e);
    nb.ibgp(x, y, /*bIsClientOfA=*/true);
    nb.ebgp(x, e, nb.passPolicy(x), nb.passPolicy(x));
  }

  RouteSimResult run(const std::vector<InputRoute>& inputs) {
    return simulateCentralized(nb.build(), inputs);
  }

  const std::vector<Route>* routesAt(const RouteSimResult& result, NameId device,
                                     const std::string& prefix, NameId vrf = kInvalidName) {
    const DeviceRib* deviceRib = result.ribs.findDevice(device);
    const VrfRib* vrfRib = deviceRib ? deviceRib->findVrf(vrf) : nullptr;
    return vrfRib ? vrfRib->find(*Prefix::parse(prefix)) : nullptr;
  }
};

}  // namespace

int main() {
  std::vector<VsbExperiment> experiments;
  DeviceConfig emptyConfig;

  // 1. missing route policy.
  experiments.push_back(policyVsb("missing route policy", vendorA(), vendorC(),
                                  emptyConfig, std::nullopt, sampleRoute()));
  // 2. undefined route policy.
  experiments.push_back(policyVsb("undefined route policy", vendorA(), vendorB(),
                                  emptyConfig, Names::id("GHOST"), sampleRoute()));
  // 3. default route policy (no node matches).
  {
    DeviceConfig config;
    RoutePolicy& policy = config.routePolicy(Names::id("NARROW"));
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kPermit;
    node.match.nexthop = *IpAddress::parse("99.99.99.99");
    policy.upsertNode(node);
    experiments.push_back(policyVsb("default route policy", vendorC(), vendorA(),
                                    config, Names::id("NARROW"), sampleRoute()));
  }
  // 4. undefined policy filter.
  {
    DeviceConfig config;
    RoutePolicy& policy = config.routePolicy(Names::id("P"));
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kPermit;
    node.match.prefixList = Names::id("GHOST-LIST");
    policy.upsertNode(node);
    experiments.push_back(policyVsb("undefined policy filter", vendorA(), vendorB(),
                                    config, Names::id("P"), sampleRoute()));
  }
  // 5. no explicit permit/deny.
  {
    DeviceConfig config;
    RoutePolicy& policy = config.routePolicy(Names::id("P"));
    PolicyNode node;
    node.sequence = 10;  // Action unspecified.
    policy.upsertNode(node);
    experiments.push_back(policyVsb("no explicit permit/deny", vendorA(), vendorB(),
                                    config, Names::id("P"), sampleRoute()));
  }
  // 6. default BGP preference (admin distance of the installed route).
  experiments.push_back(simVsb(
      "default BGP preference", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        const auto result = net.run({net.nb.originate(net.e, "55.0.0.0/16")});
        const auto* routes = net.routesAt(result, net.x, "55.0.0.0/16");
        return routes && !routes->empty()
                   ? "eBGP preference " + std::to_string(routes->front().adminDistance)
                   : std::string("no route");
      }));
  // 7. weight after redistribution.
  experiments.push_back(simVsb(
      "weight after redistribution", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        StaticRouteConfig staticRoute;
        staticRoute.prefix = *Prefix::parse("56.0.0.0/16");
        staticRoute.nexthop = net.nb.loopback(net.y);
        net.nb.config(net.x).staticRoutes.push_back(staticRoute);
        net.nb.config(net.x).bgp.redistributions.push_back({Protocolish::kStatic, {}});
        const auto inputs = computeRedistributedInputs(net.nb.build());
        for (const InputRoute& input : inputs)
          if (input.route.prefix.str() == "56.0.0.0/16")
            return "weight " + std::to_string(input.route.attrs.weight);
        return std::string("not redistributed");
      }));
  // 8. adding own ASN after overwrite.
  {
    DeviceConfig config;
    RoutePolicy& policy = config.routePolicy(Names::id("P"));
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kPermit;
    node.sets.overwriteAsPath = std::vector<Asn>{65100};
    policy.upsertNode(node);
    experiments.push_back(policyVsb("adding own ASN", vendorA(), vendorB(), config,
                                    Names::id("P"), sampleRoute()));
  }
  // 9. common AS path prefix on aggregation without as-set.
  experiments.push_back(simVsb(
      "common AS path prefix", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        AggregateConfig aggregate;
        aggregate.prefix = *Prefix::parse("55.0.0.0/8");
        aggregate.summaryOnly = false;
        net.nb.config(net.x).bgp.aggregates.push_back(aggregate);
        InputRoute a = net.nb.originate(net.e, "55.1.0.0/16");
        a.route.attrs.asPath = AsPath({70000, 70001});
        InputRoute b = net.nb.originate(net.e, "55.2.0.0/16");
        b.route.attrs.asPath = AsPath({70000, 70002});
        const auto result = net.run({a, b});
        const auto* routes = net.routesAt(result, net.x, "55.0.0.0/8");
        if (!routes || routes->empty()) return std::string("no aggregate");
        return "aggregate path [" + routes->front().attrs.asPath.str() + "]";
      }));
  // 10. VRF export policy applied to global leaks.
  experiments.push_back(simVsb(
      "VRF export policy", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        DeviceConfig& config = net.nb.config(net.x);
        VrfConfig vrf;
        vrf.name = Names::id("svc");
        vrf.importRouteTargets.push_back(0);  // Imports global (rt 0:0).
        vrf.exportPolicy = Names::id("LEAK-FILTER");
        config.vrfs.emplace(vrf.name, vrf);
        RoutePolicy& filter = config.routePolicy(Names::id("LEAK-FILTER"));
        PolicyNode deny;
        deny.sequence = 10;
        deny.action = PolicyAction::kDeny;
        filter.upsertNode(deny);
        const auto result = net.run({net.nb.originate(net.e, "57.0.0.0/16")});
        const auto* leaked =
            net.routesAt(result, net.x, "57.0.0.0/16", Names::id("svc"));
        return leaked && !leaked->empty() ? std::string("global route leaked into VRF")
                                          : std::string("leak filtered");
      }));
  // 11. re-leaking leaked routes.
  experiments.push_back(simVsb(
      "re-leaking routes", vendorB(), vendorA(), [&](const VendorProfile& v) {
        MiniNet net(v);
        DeviceConfig& config = net.nb.config(net.x);
        VrfConfig vrfA;
        vrfA.name = Names::id("vrfA");
        vrfA.importRouteTargets.push_back(0);          // global -> A.
        vrfA.exportRouteTargets.push_back((7ULL << 32) | 7);
        config.vrfs.emplace(vrfA.name, vrfA);
        VrfConfig vrfB;
        vrfB.name = Names::id("vrfB");
        vrfB.importRouteTargets.push_back((7ULL << 32) | 7);  // A -> B.
        config.vrfs.emplace(vrfB.name, vrfB);
        const auto result = net.run({net.nb.originate(net.e, "58.0.0.0/16")});
        const auto* releaked =
            net.routesAt(result, net.x, "58.0.0.0/16", Names::id("vrfB"));
        return releaked && !releaked->empty() ? std::string("re-leaked into vrfB")
                                              : std::string("not re-leaked");
      }));
  // 12/13. /32 direct-route redistribution and advertisement.
  experiments.push_back(simVsb(
      "redistributing /32 route", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        net.nb.config(net.x).bgp.redistributions.push_back({Protocolish::kDirect, {}});
        size_t slash32 = 0;
        for (const InputRoute& input : computeRedistributedInputs(net.nb.build()))
          if (input.device == net.x && input.route.fromDirectSlash32) ++slash32;
        return std::to_string(slash32) + " direct /32 routes redistributed";
      }));
  experiments.push_back(simVsb(
      "sending /32 route to peer", vendorC(), vendorA(), [&](const VendorProfile& v) {
        MiniNet net(v);
        net.nb.config(net.x).bgp.redistributions.push_back({Protocolish::kDirect, {}});
        NetworkModel model = net.nb.build();
        const auto inputs = computeRedistributedInputs(model);
        RouteSimOptions options;
        const RouteSimResult result = simulateRoutes(model, inputs, options);
        // Count /32 direct-derived routes received by the iBGP peer Y.
        size_t received = 0;
        if (const DeviceRib* rib = result.ribs.findDevice(net.y))
          if (const VrfRib* vrf = rib->findVrf(kInvalidName))
            for (const auto& [prefix, routes] : vrf->routes())
              for (const Route& route : routes)
                if (route.fromDirectSlash32) ++received;
        return std::to_string(received) + " /32 routes received by the peer";
      }));
  // 14. IGP cost for SR (the Fig. 9 VSB).
  experiments.push_back(simVsb(
      "IGP cost for SR", vendorA(), vendorB(), [&](const VendorProfile& v) {
        NetBuilder nb;
        const NameId a = nb.device("w-A", 64700, v);
        const NameId b = nb.device("w-B", 64700, vendorB());
        const NameId c = nb.device("w-C", 64700, vendorB());
        nb.link(a, b);
        nb.link(a, c);
        nb.ibgp(a, b, true);
        nb.ibgp(a, c, true);
        nb.ibgp(b, c);
        SrPolicyConfig sr;
        sr.name = Names::id("SR");
        sr.endpoint = nb.loopback(b);
        nb.config(a).srPolicies.push_back(sr);
        const auto result = simulateCentralized(
            nb.build(), std::vector<InputRoute>{nb.originate(b, "59.0.0.0/16"),
                                                nb.originate(c, "59.0.0.0/16")});
        size_t forwarding = 0;
        if (const DeviceRib* rib = result.ribs.findDevice(a))
          if (const VrfRib* vrf = rib->findVrf(kInvalidName))
            if (const auto* routes = vrf->find(*Prefix::parse("59.0.0.0/16")))
              for (const Route& route : *routes)
                if (route.type != RouteType::kAlternate) ++forwarding;
        return std::to_string(forwarding) + " forwarding route(s) (ECMP vs SR-only)";
      }));
  // 15. inheriting views (peer groups).
  experiments.push_back(simVsb(
      "inheriting views", vendorA(), vendorB(), [&](const VendorProfile& v) {
        DeviceConfig config;
        BgpPeerGroup group;
        group.name = Names::id("PG");
        group.nextHopSelf = true;
        config.bgp.peerGroups.push_back(group);
        BgpNeighbor neighbor;
        neighbor.peerAddress = *IpAddress::parse("1.2.3.4");
        neighbor.peerGroup = group.name;
        const BgpNeighbor effective =
            config.effectiveNeighbor(neighbor, v.neighborsInheritPeerGroup);
        return std::string(effective.nextHopSelf ? "inherits next-hop-self"
                                                 : "ignores peer-group options");
      }));
  // 16. device isolation.
  experiments.push_back(simVsb(
      "device isolation", vendorA(), vendorB(), [&](const VendorProfile& v) {
        MiniNet net(v);
        net.nb.config(net.x).isolated = true;
        const NetworkModel model = net.nb.build();
        size_t sessions = 0;
        for (const BgpSession& session : model.sessions)
          if (session.local == net.x) ++sessions;
        return std::to_string(sessions) + " session(s) up while isolated";
      }));

  std::vector<std::vector<std::string>> rows = {{"VSB (Table 5)", "divergent",
                                                 "observed behaviours"}};
  size_t divergent = 0;
  for (const VsbExperiment& experiment : experiments) {
    rows.push_back({experiment.name, experiment.divergent ? "yes" : "NO",
                    experiment.observed});
    if (experiment.divergent) ++divergent;
  }
  printTable("Table 5 — 16 vendor-specific behaviours, differential simulation", rows);
  std::printf("\n%zu/%zu VSBs produce divergent behaviour across vendor profiles "
              "(target: all).\n",
              divergent, experiments.size());
  return divergent == experiments.size() ? 0 : 1;
}
