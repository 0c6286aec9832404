// Shared hand-built fixtures for protocol/simulation tests: a tiny WAN with
// two core routers, a route reflector, a border, and an external ISP peer;
// and a cell-by-cell RIB comparison.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "config/device_config.h"
#include "config/vendor.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "topo/topology.h"

namespace hoyan::testing {

// Builds a small network:
//
//   ISP1 --- BR1 --- C1 --- C2
//                     \    /
//                      RR1
//
// All internal devices are in AS 64512 with iBGP to RR1 (clients), IS-IS on
// internal links; BR1 has an eBGP session to ISP1 (AS 65001). Every internal
// session carries a permit-all PASS policy.
struct SmallWan {
  Topology topology;
  NetworkConfig configs;
  NameId isp1, br1, c1, c2, rr1;
  IpAddress ispLinkAddr;     // ISP1's address on the BR1 link.
  IpAddress borderLinkAddr;  // BR1's address on the ISP1 link.

  NetworkModel model() const { return NetworkModel::build(topology, configs); }
};

inline SmallWan buildSmallWan(NameId borderVendor = vendorB().name,
                              NameId coreVendor = vendorB().name) {
  SmallWan net;
  const NameId wanDomain = Names::id("test-igp");
  uint32_t loopback = (9u << 24) | 1;  // 9.0.0.x loopbacks.
  uint32_t linkBase = (172u << 24) | (20u << 16);

  const auto addDevice = [&](const std::string& name, DeviceRole role, NameId domain,
                             NameId vendor, Asn asn) {
    Device device;
    device.name = Names::id(name);
    device.role = role;
    device.loopback = IpAddress::v4(loopback++);
    device.igpDomain = domain;
    net.topology.addDevice(device);
    DeviceConfig config;
    config.hostname = device.name;
    config.vendor = vendor;
    config.routerId = device.loopback;
    config.bgp.asn = asn;
    net.configs.mutableDevices().emplace(device.name, std::move(config));
    return device.name;
  };
  const auto link = [&](NameId a, NameId b, uint32_t cost, bool isis) {
    Device* deviceA = net.topology.findDevice(a);
    Device* deviceB = net.topology.findDevice(b);
    const uint32_t base = linkBase;
    linkBase += 4;
    Interface itfA;
    itfA.name = Names::id(Names::str(a) + ":e" + std::to_string(deviceA->interfaces.size()));
    itfA.address = IpAddress::v4(base + 1);
    itfA.prefixLength = 30;
    itfA.isisEnabled = isis;
    itfA.isisCost = cost;
    deviceA->interfaces.push_back(itfA);
    Interface itfB;
    itfB.name = Names::id(Names::str(b) + ":e" + std::to_string(deviceB->interfaces.size()));
    itfB.address = IpAddress::v4(base + 2);
    itfB.prefixLength = 30;
    itfB.isisEnabled = isis;
    itfB.isisCost = cost;
    deviceB->interfaces.push_back(itfB);
    net.topology.addLink(a, itfA.name, b, itfB.name);
    return std::pair{itfA.address, itfB.address};
  };
  const auto pass = [&](NameId device) {
    const NameId name = Names::id("PASS");
    RoutePolicy& policy = net.configs.device(device).routePolicy(name);
    if (policy.nodes.empty()) {
      PolicyNode node;
      node.sequence = 10;
      node.action = PolicyAction::kPermit;
      policy.upsertNode(node);
    }
    return name;
  };
  const auto ibgp = [&](NameId a, NameId b, bool bIsClient) {
    BgpNeighbor toB;
    toB.peerAddress = net.topology.findDevice(b)->loopback;
    toB.remoteAs = 64512;
    toB.importPolicy = pass(a);
    toB.exportPolicy = pass(a);
    toB.routeReflectorClient = bIsClient;
    net.configs.device(a).bgp.neighbors.push_back(toB);
    BgpNeighbor toA;
    toA.peerAddress = net.topology.findDevice(a)->loopback;
    toA.remoteAs = 64512;
    toA.importPolicy = pass(b);
    toA.exportPolicy = pass(b);
    net.configs.device(b).bgp.neighbors.push_back(toA);
  };

  net.rr1 = addDevice("t-RR1", DeviceRole::kRouteReflector, wanDomain,
                      vendorB().name, 64512);
  net.c1 = addDevice("t-C1", DeviceRole::kCore, wanDomain, coreVendor, 64512);
  net.c2 = addDevice("t-C2", DeviceRole::kCore, wanDomain, coreVendor, 64512);
  net.br1 = addDevice("t-BR1", DeviceRole::kBorder, wanDomain, borderVendor, 64512);
  net.isp1 = addDevice("t-ISP1", DeviceRole::kExternalPeer, kInvalidName,
                       vendorB().name, 65001);

  link(net.c1, net.c2, 10, true);
  link(net.c1, net.rr1, 10, true);
  link(net.c2, net.rr1, 10, true);
  link(net.br1, net.c1, 10, true);
  const auto [borderAddr, ispAddr] = link(net.br1, net.isp1, 10, false);
  net.borderLinkAddr = borderAddr;
  net.ispLinkAddr = ispAddr;

  ibgp(net.rr1, net.c1, true);
  ibgp(net.rr1, net.c2, true);
  ibgp(net.rr1, net.br1, true);

  // eBGP BR1 <-> ISP1, with next-hop-self on BR1's iBGP sessions.
  DeviceConfig& border = net.configs.device(net.br1);
  BgpNeighbor toIsp;
  toIsp.peerAddress = ispAddr;
  toIsp.remoteAs = 65001;
  border.bgp.neighbors.push_back(toIsp);
  for (BgpNeighbor& neighbor : border.bgp.neighbors)
    if (neighbor.remoteAs == 64512) neighbor.nextHopSelf = true;
  DeviceConfig& isp = net.configs.device(net.isp1);
  BgpNeighbor toBorder;
  toBorder.peerAddress = borderAddr;
  toBorder.remoteAs = 64512;
  isp.bgp.neighbors.push_back(toBorder);
  return net;
}

// An input route announced by ISP1 (as if learned from its upstreams).
inline InputRoute ispRoute(const SmallWan& net, const std::string& prefix,
                           uint32_t med = 0) {
  InputRoute input;
  input.device = net.isp1;
  input.route.prefix = *Prefix::parse(prefix);
  input.route.protocol = Protocol::kBgp;
  input.route.attrs.origin = BgpOrigin::kIgp;
  input.route.attrs.med = med;
  input.route.nexthop = net.topology.findDevice(net.isp1)->loopback;
  input.route.nexthopDevice = net.isp1;
  return input;
}

// Describes every (device, vrf, prefix) cell in which `expected` and `actual`
// differ: a cell only one of them holds, or two cells whose routes differ in
// order, content (Route::operator==, learnedFrom included) or selection type.
// Empty when both hold the same cells, route for route.
inline std::vector<std::string> cellDifferences(const NetworkRibs& expected,
                                                const NetworkRibs& actual) {
  const auto render = [](const std::vector<Route>& routes) {
    std::string out;
    for (const Route& route : routes) {
      out += "\n    " + route.str();
      if (route.learnedFrom != kInvalidName) out += " from=" + Names::str(route.learnedFrom);
    }
    return out;
  };
  const auto sameCell = [](const std::vector<Route>& a, const std::vector<Route>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Route& x, const Route& y) { return x == y && x.type == y.type; });
  };
  std::vector<std::string> out;
  // Reports the cells of `from` that `to` lacks and, when `compare`, the
  // shared cells that differ (so the second pass reports each one once).
  const auto scan = [&](const NetworkRibs& from, const NetworkRibs& to,
                        const std::string& lacking, bool compare) {
    for (const auto& [deviceId, deviceRib] : from.devices()) {
      const DeviceRib* toDevice = to.findDevice(deviceId);
      for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
        const VrfRib* toVrf = toDevice ? toDevice->findVrf(vrfId) : nullptr;
        for (const auto& [prefix, routes] : vrfRib.routes()) {
          const std::vector<Route>* toRoutes = toVrf ? toVrf->find(prefix) : nullptr;
          if (toRoutes && (!compare || sameCell(routes, *toRoutes))) continue;
          std::string cell = Names::str(deviceId) + " " + prefix.str();
          if (vrfId != kInvalidName) cell += " vrf " + Names::str(vrfId);
          out.push_back(toRoutes ? cell + ":\n  expected" + render(routes) + "\n  actual" +
                                       render(*toRoutes)
                                 : cell + ": only " + lacking + render(routes));
        }
      }
    }
  };
  scan(expected, actual, "expected", true);
  scan(actual, expected, "actual", false);
  return out;
}

}  // namespace hoyan::testing
