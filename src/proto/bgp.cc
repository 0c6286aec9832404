#include "proto/bgp.h"

#include <algorithm>
#include <stdexcept>

namespace hoyan {
namespace {

// Finds the interface address on `device` facing `peerAddress` (the address
// the peer would configure as its neighbour statement / receive as nexthop).
IpAddress localAddressFacing(const Device& device, const IpAddress& peerAddress) {
  for (const Interface& itf : device.interfaces)
    if (itf.subnet().contains(peerAddress)) return itf.address;
  return device.loopback;  // Loopback-peered (iBGP) sessions.
}

}  // namespace

std::vector<BgpSession> deriveBgpSessions(const Topology& topology,
                                          const AdjacencyTable& adjacency,
                                          const NetworkConfig& configs,
                                          const AddressIndex& addresses,
                                          const IgpState& igp,
                                          std::vector<std::string>* problems) {
  const auto resolvePeerDevice = [&addresses](const Topology&, const IpAddress& peer) {
    return addresses.exactOwner(peer);
  };
  std::vector<BgpSession> sessions;
  const auto note = [problems](std::string message) {
    if (problems) problems->push_back(std::move(message));
  };
  for (const auto& [name, config] : configs.devices()) {
    if (config.bgp.asn == 0) continue;
    const Device* local = topology.findDevice(name);
    if (!local || !topology.deviceActive(name)) continue;
    const VendorProfile& vendor = vendorProfile(config.vendor);
    // A session-shutdown-isolation vendor drops all sessions when isolated;
    // a deny-policy vendor keeps sessions up (policies handled at simulation).
    if (config.isolated && !vendor.isolationViaDenyPolicy) continue;
    for (const BgpNeighbor& rawNeighbor : config.bgp.neighbors) {
      const BgpNeighbor neighbor =
          config.effectiveNeighbor(rawNeighbor, vendor.neighborsInheritPeerGroup);
      if (neighbor.shutdown) continue;
      const auto peerName = resolvePeerDevice(topology, neighbor.peerAddress);
      if (!peerName) {
        note(Names::str(name) + ": neighbor " + neighbor.peerAddress.str() +
             " resolves to no device");
        continue;
      }
      if (!topology.deviceActive(*peerName)) continue;
      const DeviceConfig* peerConfig = configs.findDevice(*peerName);
      if (!peerConfig || peerConfig->bgp.asn == 0) {
        note(Names::str(name) + ": neighbor " + neighbor.peerAddress.str() +
             " device runs no BGP");
        continue;
      }
      if (peerConfig->bgp.asn != neighbor.remoteAs) {
        note(Names::str(name) + ": neighbor " + neighbor.peerAddress.str() +
             " remote-as " + std::to_string(neighbor.remoteAs) + " != peer ASN " +
             std::to_string(peerConfig->bgp.asn));
        continue;
      }
      const VendorProfile& peerVendor = vendorProfile(peerConfig->vendor);
      if (peerConfig->isolated && !peerVendor.isolationViaDenyPolicy) continue;
      // The TCP session must be able to establish: the peer is either
      // directly adjacent (link-addressed eBGP) or IGP-reachable
      // (loopback-peered iBGP).
      {
        const auto adjacencies = adjacency.of(name);
        const bool adjacent =
            std::any_of(adjacencies.begin(), adjacencies.end(),
                        [&](const Adjacency& adj) { return adj.neighbor == *peerName; });
        if (!adjacent && !igp.path(name, *peerName).reachable()) {
          note(Names::str(name) + ": neighbor " + neighbor.peerAddress.str() +
               " on " + Names::str(*peerName) + " is unreachable (no adjacency "
               "or IGP path)");
          continue;
        }
      }
      // The peer must also have a matching neighbour statement back to us
      // (otherwise the TCP session never establishes).
      const Device* peerDevice = topology.findDevice(*peerName);
      bool reverseConfigured = false;
      for (const BgpNeighbor& reverse : peerConfig->bgp.neighbors) {
        if (reverse.shutdown) continue;
        const auto reverseTarget = resolvePeerDevice(topology, reverse.peerAddress);
        if (reverseTarget == name && reverse.remoteAs == config.bgp.asn) {
          reverseConfigured = true;
          break;
        }
      }
      if (!reverseConfigured) {
        note(Names::str(name) + ": neighbor " + neighbor.peerAddress.str() +
             " has no matching reverse session on " + Names::str(*peerName));
        continue;
      }
      BgpSession session;
      session.local = name;
      session.peer = *peerName;
      session.peerAddress = neighbor.peerAddress;
      session.localAddress = peerDevice ? localAddressFacing(*local, neighbor.peerAddress)
                                        : local->loopback;
      session.vrf = neighbor.vrf;
      session.localAsn = config.bgp.asn;
      session.peerAsn = peerConfig->bgp.asn;
      session.ebgp = config.bgp.asn != peerConfig->bgp.asn;
      session.importPolicy = neighbor.importPolicy;
      session.exportPolicy = neighbor.exportPolicy;
      session.routeReflectorClient = neighbor.routeReflectorClient;
      session.nextHopSelf = neighbor.nextHopSelf;
      session.addPathSend = neighbor.addPathSend;
      sessions.push_back(session);
    }
  }
  return sessions;
}

SessionIndex::SessionIndex(std::span<const BgpSession> sessions) {
  for (size_t i = 0; i < sessions.size(); ++i) {
    const NameId local = sessions[i].local;
    if (!devices_.empty() && devices_.back() == local) continue;
    if (!devices_.empty() && local < devices_.back())
      throw std::logic_error("SessionIndex: sessions not grouped by ascending local device");
    devices_.push_back(local);
    offsets_.push_back(static_cast<uint32_t>(i));
  }
  offsets_.push_back(static_cast<uint32_t>(sessions.size()));
}

std::ranges::iota_view<size_t, size_t> SessionIndex::of(NameId device) const {
  const auto it = std::lower_bound(devices_.begin(), devices_.end(), device);
  if (it == devices_.end() || *it != device) return {};
  const size_t slot = static_cast<size_t>(it - devices_.begin());
  return std::views::iota(size_t{offsets_[slot]}, size_t{offsets_[slot + 1]});
}

size_t SessionIndex::approxBytes() const {
  return devices_.capacity() * sizeof(NameId) + offsets_.capacity() * sizeof(uint32_t);
}

bool bgpPreferred(const Route& a, const Route& b) {
  // Higher weight wins (local to the device).
  if (a.attrs.weight != b.attrs.weight) return a.attrs.weight > b.attrs.weight;
  // Higher local preference wins.
  if (a.attrs.localPref != b.attrs.localPref) return a.attrs.localPref > b.attrs.localPref;
  // Locally originated (aggregate) beats learned.
  const bool aLocal = a.protocol == Protocol::kAggregate;
  const bool bLocal = b.protocol == Protocol::kAggregate;
  if (aLocal != bLocal) return aLocal;
  // Shorter AS path wins.
  const size_t aLen = a.attrs.asPath.length();
  const size_t bLen = b.attrs.asPath.length();
  if (aLen != bLen) return aLen < bLen;
  // Lower origin wins (IGP < EGP < INCOMPLETE).
  if (a.attrs.origin != b.attrs.origin) return a.attrs.origin < b.attrs.origin;
  // Lower MED wins, but only comparable between routes from the same
  // neighbouring AS.
  if (a.attrs.asPath.firstAsn() == b.attrs.asPath.firstAsn() &&
      a.attrs.med != b.attrs.med)
    return a.attrs.med < b.attrs.med;
  // eBGP-learned beats iBGP-learned.
  if (a.ebgpLearned != b.ebgpLearned) return a.ebgpLearned;
  // Lower IGP cost to the nexthop wins. (The igpCostZeroViaSrTunnel VSB is
  // applied when igpCost is computed, not here.)
  if (a.igpCost != b.igpCost) return a.igpCost < b.igpCost;
  return false;  // Equal through IGP cost: ECMP candidates.
}

std::string bgpDecisionStep(const Route& winner, const Route& loser) {
  if (winner.adminDistance != loser.adminDistance) return "admin-distance";
  if (winner.attrs.weight != loser.attrs.weight) return "weight";
  if (winner.attrs.localPref != loser.attrs.localPref) return "local-pref";
  const bool winnerLocal = winner.protocol == Protocol::kAggregate;
  const bool loserLocal = loser.protocol == Protocol::kAggregate;
  if (winnerLocal != loserLocal) return "local-origination";
  if (winner.attrs.asPath.length() != loser.attrs.asPath.length())
    return "as-path-length";
  if (winner.attrs.origin != loser.attrs.origin) return "origin";
  if (winner.attrs.asPath.firstAsn() == loser.attrs.asPath.firstAsn() &&
      winner.attrs.med != loser.attrs.med)
    return "med";
  if (winner.ebgpLearned != loser.ebgpLearned) return "ebgp-over-ibgp";
  if (winner.igpCost != loser.igpCost) return "igp-cost";
  return "router-id";
}

void selectBestRoutes(std::vector<Route>& routes) {
  if (routes.empty()) return;
  if (routes.size() == 1) {
    // Most cells hold one route: stable_sort would still allocate its
    // temporary buffer and move the route through it.
    routes[0].type = RouteType::kBest;
    return;
  }
  std::stable_sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    if (a.adminDistance != b.adminDistance) return a.adminDistance < b.adminDistance;
    if (a.protocol != Protocol::kBgp && b.protocol != Protocol::kBgp)
      return a.igpCost < b.igpCost;
    if (bgpPreferred(a, b)) return true;
    if (bgpPreferred(b, a)) return false;
    // Deterministic tiebreak: advertising device id stands in for router-id.
    return a.learnedFrom < b.learnedFrom;
  });
  const Route& best = routes.front();
  routes[0].type = RouteType::kBest;
  for (size_t i = 1; i < routes.size(); ++i) {
    Route& route = routes[i];
    const bool sameProtocolClass = route.adminDistance == best.adminDistance;
    const bool ecmpWithBest =
        sameProtocolClass &&
        (route.protocol == Protocol::kBgp || route.protocol == Protocol::kAggregate
             ? !bgpPreferred(best, route) && !bgpPreferred(route, best)
             : route.igpCost == best.igpCost && route.protocol == best.protocol);
    route.type = ecmpWithBest ? RouteType::kEcmp : RouteType::kAlternate;
  }
}

}  // namespace hoyan
