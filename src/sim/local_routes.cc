#include "sim/local_routes.h"

#include <algorithm>

#include "obs/provenance.h"
#include "proto/policy_eval.h"

namespace hoyan {
namespace {

// Calls `visit` with each direct route of one device: interface subnets, the
// extra /32 (or /128) host route each non-host interface address produces
// (the Table-5 "/32 route" footnote), and the loopback host route.
template <typename Visit>
void forEachDirectRoute(const Device& device, Visit&& visit) {
  {
    Route loopback;
    loopback.prefix = Prefix(device.loopback, static_cast<uint8_t>(device.loopback.width()));
    loopback.protocol = Protocol::kDirect;
    loopback.adminDistance = kDirectAdminDistance;
    loopback.nexthop = device.loopback;
    loopback.nexthopDevice = device.name;
    visit(loopback);
  }
  for (const Interface& itf : device.interfaces) {
    if (itf.shutdown) continue;
    Route subnet;
    subnet.prefix = itf.subnet();
    subnet.vrf = itf.vrf;
    subnet.protocol = Protocol::kDirect;
    subnet.adminDistance = kDirectAdminDistance;
    subnet.nexthop = itf.address;
    subnet.nexthopDevice = device.name;
    subnet.outInterface = itf.name;
    visit(subnet);
    if (!subnet.prefix.isHostRoute()) {
      Route host = subnet;
      host.prefix = Prefix(itf.address, static_cast<uint8_t>(itf.address.width()));
      host.fromDirectSlash32 = true;
      visit(host);
    }
  }
}

std::vector<Route> staticRoutesOf(const NetworkModel& model, const DeviceConfig& config) {
  std::vector<Route> out;
  for (const StaticRouteConfig& configured : config.staticRoutes) {
    Route route;
    route.prefix = configured.prefix;
    route.vrf = configured.vrf;
    route.protocol = Protocol::kStatic;
    route.adminDistance = configured.preference;
    if (!configured.discard) {
      route.nexthop = configured.nexthop;
      if (const auto owner = model.addresses.owner(configured.nexthop))
        route.nexthopDevice = *owner;
    }
    out.push_back(route);
  }
  return out;
}

}  // namespace

size_t installLocalRoutes(const NetworkModel& model, NetworkRibs& ribs,
                          obs::ProvenanceRecorder* provenance,
                          const LocalPrefixSet* keep) {
  const auto kept = [keep](const Prefix& prefix) {
    return keep == nullptr || keep->contains(prefix);
  };
  size_t installed = 0;
  if (keep && keep->empty()) return installed;  // Nothing to build, rank or record.
  for (const auto& [name, device] : model.topology.devices()) {
    if (!model.topology.deviceActive(name)) continue;
    DeviceRib* deviceRib = nullptr;
    const auto install = [&](const Route& route) {
      if (!deviceRib) deviceRib = &ribs.device(name);
      deviceRib->vrf(route.vrf).routesFor(route.prefix).push_back(route);
      ++installed;
    };
    forEachDirectRoute(device, [&](const Route& route) {
      if (kept(route.prefix)) install(route);
    });
    if (const DeviceConfig* config = model.configs.findDevice(name))
      for (const Route& route : staticRoutesOf(model, *config))
        if (kept(route.prefix)) install(route);
    // IS-IS: loopbacks of all same-domain devices, with SPF cost and ECMP
    // first hops expanded to one route per nexthop device.
    if (device.igpDomain == kInvalidName) continue;
    for (const NameId member : model.igp.domainMembers(name)) {
      if (member == name) continue;
      const Device* target = model.topology.findDevice(member);
      if (!target) continue;
      const Prefix loopback(target->loopback,
                            static_cast<uint8_t>(target->loopback.width()));
      if (!kept(loopback)) continue;
      const IgpPath path = model.igp.path(name, member);
      if (!path.reachable()) continue;
      for (const NameId hop : path.nextHops) {
        Route route;
        route.prefix = loopback;
        route.protocol = Protocol::kIsis;
        route.adminDistance = kIsisAdminDistance;
        route.igpCost = path.cost;
        const Device* hopDevice = model.topology.findDevice(hop);
        route.nexthop = hopDevice ? hopDevice->loopback : target->loopback;
        route.nexthopDevice = hop;
        route.learnedFrom = hop;
        install(route);
      }
    }
  }
  // Rank multi-entry prefixes (static vs direct vs IS-IS, IS-IS ECMP).
  for (auto& [name, deviceRib] : ribs.devices())
    for (auto& [vrfId, vrfRib] : deviceRib.vrfs())
      for (auto& [prefix, routes] : vrfRib.routes()) selectBestRoutes(routes);
  if (provenance && provenance->enabled()) {
    // Sorted emission pass (the install loop above iterates unordered maps).
    std::vector<NameId> deviceIds;
    for (const auto& [name, deviceRib] : ribs.devices()) deviceIds.push_back(name);
    std::sort(deviceIds.begin(), deviceIds.end());
    for (const NameId name : deviceIds) {
      const DeviceRib* deviceRib = ribs.findDevice(name);
      std::vector<NameId> vrfIds;
      for (const auto& [vrfId, vrfRib] : deviceRib->vrfs()) vrfIds.push_back(vrfId);
      std::sort(vrfIds.begin(), vrfIds.end());
      for (const NameId vrfId : vrfIds) {
        for (const auto& [prefix, routes] : deviceRib->findVrf(vrfId)->routes()) {
          if (!provenance->wants(prefix)) continue;
          for (const Route& route : routes) {
            obs::RouteEvent event;
            event.kind = obs::RouteEventKind::kLocalInstalled;
            event.device = name;
            event.vrf = vrfId;
            event.prefix = prefix;
            event.detail = protocolName(route.protocol);
            event.route = route.str();
            provenance->record(std::move(event));
          }
        }
      }
    }
  }
  return installed;
}

std::vector<InputRoute> computeRedistributedInputs(const NetworkModel& model) {
  std::vector<InputRoute> out;
  for (const auto& [name, config] : model.configs.devices()) {
    if (config.bgp.asn == 0 || config.bgp.redistributions.empty()) continue;
    const Device* device = model.topology.findDevice(name);
    if (!device || !model.topology.deviceActive(name)) continue;
    const VendorProfile& vendor = model.vendorOf(name);
    PolicyContext context{&config, &vendor, config.bgp.asn};

    std::vector<Route> candidates;
    for (const Redistribution& redist : config.bgp.redistributions) {
      switch (redist.from) {
        case Protocolish::kDirect:
          forEachDirectRoute(*device, [&](const Route& route) {
            // Table 5 "redistributing /32 route".
            if (!route.fromDirectSlash32 || vendor.redistributeDirectSlash32)
              candidates.push_back(route);
          });
          break;
        case Protocolish::kStatic:
          for (Route route : staticRoutesOf(model, config)) candidates.push_back(route);
          break;
        case Protocolish::kIsis:
          // Redistributing the IGP would re-announce every loopback; Hoyan's
          // WAN uses it only for loopback reachability. Model the same.
          for (const NameId member : model.igp.domainMembers(name)) {
            const Device* target = model.topology.findDevice(member);
            if (!target) continue;
            Route route;
            route.prefix =
                Prefix(target->loopback, static_cast<uint8_t>(target->loopback.width()));
            route.protocol = Protocol::kIsis;
            route.igpCost = model.igp.path(name, member).cost;
            route.nexthop = target->loopback;
            candidates.push_back(route);
          }
          break;
        case Protocolish::kBgp:
        case Protocolish::kAggregate:
          break;  // Not redistributable sources.
      }
      for (Route& route : candidates) {
        // Per-redistribution policy filter/rewrite. Nothing reads the reason
        // trace here — skip formatting it.
        if (redist.policy) {
          PolicyResult verdict =
              evaluatePolicy(context, redist.policy, route, /*explain=*/false);
          if (!verdict.permitted) continue;
          route = std::move(verdict.route);
        }
        Route bgpRoute = route;
        bgpRoute.protocol = Protocol::kBgp;
        bgpRoute.adminDistance = vendor.ibgpAdminDistance;
        bgpRoute.attrs = BgpAttributes{};
        bgpRoute.attrs.origin = BgpOrigin::kIncomplete;
        // Table 5 "weight after redistribution".
        bgpRoute.attrs.weight = vendor.redistributedWeight;
        bgpRoute.igpCost = 0;
        if (bgpRoute.nexthop == IpAddress{}) bgpRoute.nexthop = device->loopback;
        bgpRoute.nexthopDevice = name;
        out.push_back(InputRoute{name, bgpRoute});
      }
      candidates.clear();
    }
  }
  return out;
}

}  // namespace hoyan
