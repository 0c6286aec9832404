#include "sim/forwarding_view.h"

namespace hoyan {
namespace {

// The layer rule shared by lookups and atoms: the longer match wins, and
// `own` wins a tie.
bool sharedWins(const Prefix& own, const Prefix& shared) {
  return shared.length() > own.length();
}

const std::vector<Route>* lookup(const NetworkRibs& ribs, NameId device, NameId vrf,
                                 const IpAddress& dst) {
  const DeviceRib* deviceRib = ribs.findDevice(device);
  const VrfRib* vrfRib = deviceRib ? deviceRib->findVrf(vrf) : nullptr;
  return vrfRib ? vrfRib->longestMatch(dst) : nullptr;
}

}  // namespace

PrefixUnion::PrefixUnion(const NetworkRibs& ribs) {
  for (const auto& [deviceId, deviceRib] : ribs.devices())
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs())
      for (const auto& [prefix, routes] : vrfRib.routes())
        if (!routes.empty())
          (prefix.family() == IpFamily::kV4 ? v4_ : v6_).insert(prefix, 1);
}

std::optional<Prefix> PrefixUnion::longestMatch(const IpAddress& dst) const {
  const auto match = (dst.isV4() ? v4_ : v6_).longestMatch(dst);
  if (!match) return std::nullopt;
  return match->prefix;
}

std::optional<Prefix> ForwardingView::atom(const PrefixUnion& ownPrefixes,
                                           const IpAddress& dst) const {
  std::optional<Prefix> atom = ownPrefixes.longestMatch(dst);
  if (!sharedPrefixes_) return atom;
  const std::optional<Prefix> shared = sharedPrefixes_->longestMatch(dst);
  if (shared && (!atom || sharedWins(*atom, *shared))) atom = shared;
  return atom;
}

const std::vector<Route>* ForwardingView::longestMatch(NameId device, NameId vrf,
                                                       const IpAddress& dst) const {
  const std::vector<Route>* own = lookup(*own_, device, vrf, dst);
  if (!shared_) return own;
  const std::vector<Route>* shared = lookup(*shared_, device, vrf, dst);
  if (!shared) return own;
  if (!own || sharedWins(own->front().prefix, shared->front().prefix)) return shared;
  return own;
}

size_t foldSharedRoutes(NetworkRibs& own, const NetworkRibs& shared) {
  size_t appended = 0;
  for (auto& [deviceId, deviceRib] : own.devices()) {
    const DeviceRib* sharedDevice = shared.findDevice(deviceId);
    if (!sharedDevice) continue;
    for (auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      const VrfRib* sharedVrf = sharedDevice->findVrf(vrfId);
      if (!sharedVrf) continue;
      for (auto& [prefix, routes] : vrfRib.routes()) {
        const std::vector<Route>* sharedRoutes = sharedVrf->find(prefix);
        if (!sharedRoutes) continue;
        routes.insert(routes.end(), sharedRoutes->begin(), sharedRoutes->end());
        appended += sharedRoutes->size();
      }
    }
  }
  return appended;
}

}  // namespace hoyan
