#include "net/route.h"

#include <iterator>

namespace hoyan {

std::string protocolName(Protocol p) {
  switch (p) {
    case Protocol::kDirect: return "direct";
    case Protocol::kStatic: return "static";
    case Protocol::kIsis: return "isis";
    case Protocol::kBgp: return "bgp";
    case Protocol::kAggregate: return "aggregate";
  }
  return "?";
}

std::string routeTypeName(RouteType t) {
  switch (t) {
    case RouteType::kBest: return "BEST";
    case RouteType::kEcmp: return "ECMP";
    case RouteType::kAlternate: return "ALT";
  }
  return "?";
}

std::string Route::str() const {
  std::string out = prefix.str();
  out += " proto=" + protocolName(protocol);
  out += " nh=" + nexthop.str();
  if (vrf != kInvalidName) out += " vrf=" + Names::str(vrf);
  out += " type=" + routeTypeName(type);
  if (protocol == Protocol::kBgp || protocol == Protocol::kAggregate) {
    out += " lp=" + std::to_string(attrs.localPref);
    out += " med=" + std::to_string(attrs.med);
    if (!attrs.asPath.empty()) out += " path=[" + attrs.asPath.str() + "]";
    if (!attrs.communities.empty()) out += " comm=[" + attrs.communities.str() + "]";
  }
  if (viaSrTunnel) out += " via-sr";
  return out;
}

VrfRib::VrfRib(const VrfRib& other) : routes_(other.routes_) {
  if (other.indexBuilt_) buildForwardingIndex();
}

VrfRib& VrfRib::operator=(const VrfRib& other) {
  if (this != &other) *this = VrfRib(other);
  return *this;
}

void VrfRib::buildForwardingIndex() {
  lpmV4_ = {};
  lpmV6_ = {};
  for (const auto& [prefix, routes] : routes_) {
    if (routes.empty()) continue;
    // Only best/ECMP entries are used for forwarding; alternates stay in the
    // RIB for diffing/diagnosis but never carry traffic.
    bool hasForwarding = false;
    for (const Route& r : routes)
      if (r.type != RouteType::kAlternate) hasForwarding = true;
    if (!hasForwarding) continue;
    if (prefix.family() == IpFamily::kV4)
      lpmV4_.insert(prefix, &routes);
    else
      lpmV6_.insert(prefix, &routes);
  }
  indexBuilt_ = true;
}

const std::vector<Route>* VrfRib::longestMatch(const IpAddress& dst) const {
  const auto& trie = dst.isV4() ? lpmV4_ : lpmV6_;
  const auto match = trie.longestMatch(dst);
  return match ? *match->value : nullptr;
}

std::optional<Prefix> VrfRib::longestMatchPrefix(const IpAddress& dst) const {
  const auto& trie = dst.isV4() ? lpmV4_ : lpmV6_;
  const auto match = trie.longestMatch(dst);
  if (!match) return std::nullopt;
  return match->prefix;
}

void NetworkRibs::merge(const NetworkRibs& other) {
  for (const auto& [deviceId, deviceRib] : other.devices_) {
    DeviceRib& mine = devices_[deviceId];
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      VrfRib& myVrf = mine.vrf(vrfId);
      for (const auto& [prefix, routes] : vrfRib.routes()) {
        auto& mineRoutes = myVrf.routesFor(prefix);
        mineRoutes.insert(mineRoutes.end(), routes.begin(), routes.end());
      }
    }
  }
}

void NetworkRibs::merge(NetworkRibs&& other) {
  // Each map's merge moves the nodes whose keys the target lacks and leaves
  // the shared keys behind in its source.
  devices_.merge(other.devices_);
  for (auto& [deviceId, deviceRib] : other.devices_) {
    auto& myVrfs = devices_.find(deviceId)->second.vrfs();
    myVrfs.merge(deviceRib.vrfs());
    for (auto& [vrfId, theirs] : deviceRib.vrfs()) {
      VrfRib& mine = myVrfs.find(vrfId)->second;
      // Cells move from the smaller table into the larger, so a merge costs
      // the smaller side; a cell both hold still lists our routes first.
      const bool intoTheirs = mine.prefixCount() < theirs.prefixCount();
      VrfRib& into = intoTheirs ? theirs : mine;
      VrfRib& from = intoTheirs ? mine : theirs;
      into.routes().merge(from.routes());
      for (auto& [prefix, routes] : from.routes()) {
        std::vector<Route>& cell = into.routes().find(prefix)->second;
        cell.insert(intoTheirs ? cell.begin() : cell.end(),
                    std::make_move_iterator(routes.begin()),
                    std::make_move_iterator(routes.end()));
      }
      if (intoTheirs) mine = std::move(theirs);
    }
  }
  other.devices_.clear();
}

}  // namespace hoyan
