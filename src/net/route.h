// Routes, BGP attributes, and RIBs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/as_path.h"
#include "net/community.h"
#include "net/ip.h"
#include "net/names.h"
#include "net/prefix_trie.h"

namespace hoyan {

// Routing information source. Admin-distance defaults follow common vendor
// practice but are overridable per vendor profile ("default BGP preference"
// VSB in Table 5).
enum class Protocol : uint8_t {
  kDirect,
  kStatic,
  kIsis,
  kBgp,
  kAggregate,  // Locally originated BGP aggregate.
};

std::string protocolName(Protocol p);

enum class BgpOrigin : uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

// The BGP path attributes Hoyan simulates. Equality and hashing are used to
// build input-route equivalence classes (§3.1, condition 3).
struct BgpAttributes {
  uint32_t localPref = 100;
  uint32_t med = 0;
  uint32_t weight = 0;
  BgpOrigin origin = BgpOrigin::kIncomplete;
  CommunitySet communities;
  AsPath asPath;
  NameId originatorId = kInvalidName;  // Route-reflection loop prevention.

  friend bool operator==(const BgpAttributes&, const BgpAttributes&) = default;

  size_t hashValue() const {
    size_t h = localPref;
    h = h * 1315423911u ^ med;
    h = h * 1315423911u ^ weight;
    h = h * 1315423911u ^ static_cast<size_t>(origin);
    h = h * 1315423911u ^ communities.hashValue();
    h = h * 1315423911u ^ asPath.hashValue();
    h = h * 1315423911u ^ originatorId;
    return h;
  }
};

// Classification of a RIB entry after best-path selection.
enum class RouteType : uint8_t { kBest, kEcmp, kAlternate };

std::string routeTypeName(RouteType t);

// A single route as installed in a router's (per-VRF) RIB, or as injected
// into the network as a simulation input.
struct Route {
  Prefix prefix;
  NameId vrf = kInvalidName;
  Protocol protocol = Protocol::kBgp;
  uint8_t adminDistance = 20;
  uint32_t igpCost = 0;          // Metric to the BGP nexthop / IS-IS metric.
  IpAddress nexthop;
  NameId learnedFrom = kInvalidName;   // Advertising neighbour (device), if any.
  NameId nexthopDevice = kInvalidName; // Resolved forwarding adjacency.
  NameId outInterface = kInvalidName;
  bool ebgpLearned = false;
  bool viaSrTunnel = false;  // Nexthop reached through an SR policy tunnel.
  // Originates from the /32 host route of a non-/32 direct interface — the
  // two Table-5 "/32 route" VSBs gate its redistribution and advertisement.
  bool fromDirectSlash32 = false;
  // Arrived in this VRF via route-target leaking — the "re-leaking routes"
  // VSB gates whether it may be exported again.
  bool leaked = false;
  RouteType type = RouteType::kBest;
  BgpAttributes attrs;  // Meaningful for kBgp / kAggregate.

  std::string str() const;

  // Identity ignoring the computed RouteType — two routes are the "same
  // route" for RIB-diff purposes when all propagated content matches.
  friend bool operator==(const Route& a, const Route& b) {
    return a.prefix == b.prefix && a.vrf == b.vrf && a.protocol == b.protocol &&
           a.adminDistance == b.adminDistance && a.igpCost == b.igpCost &&
           a.nexthop == b.nexthop && a.learnedFrom == b.learnedFrom &&
           a.ebgpLearned == b.ebgpLearned && a.viaSrTunnel == b.viaSrTunnel &&
           a.attrs == b.attrs;
  }
};

// An input route: a route injected into the network at a given device (e.g.
// an eBGP advertisement from an ISP peer or a DC aggregate), the unit the
// route-simulation distributes over.
struct InputRoute {
  NameId device = kInvalidName;
  Route route;

  friend bool operator==(const InputRoute&, const InputRoute&) = default;
};

// Routes of one VRF on one device, grouped by prefix. Entries for a prefix
// are kept sorted best-first by the BGP decision process; `type` marks
// kBest / kEcmp / kAlternate.
class VrfRib {
 public:
  using PrefixRoutes = std::map<Prefix, std::vector<Route>>;

  VrfRib() = default;
  // The LPM tries point into the route map, so a copy of an indexed RIB
  // indexes its own routes instead of copying the pointers. Moves keep the
  // map's nodes, and with them the index.
  VrfRib(const VrfRib& other);
  VrfRib& operator=(const VrfRib& other);
  VrfRib(VrfRib&&) = default;
  VrfRib& operator=(VrfRib&&) = default;

  std::vector<Route>& routesFor(const Prefix& p) { return routes_[p]; }
  const std::vector<Route>* find(const Prefix& p) const {
    const auto it = routes_.find(p);
    return it == routes_.end() ? nullptr : &it->second;
  }

  const PrefixRoutes& routes() const { return routes_; }
  PrefixRoutes& routes() { return routes_; }
  size_t prefixCount() const { return routes_.size(); }
  size_t routeCount() const {
    size_t n = 0;
    for (const auto& [p, rs] : routes_) n += rs.size();
    return n;
  }

  // (Re)builds the LPM index over best/ECMP entries. Must be called after the
  // RIB content stabilises and before forwarding lookups.
  void buildForwardingIndex();

  // Longest-prefix match over forwarding (best/ECMP) entries. Returns the
  // matched prefix's route list (best-first), or nullptr.
  const std::vector<Route>* longestMatch(const IpAddress& dst) const;
  // The prefix an LPM for `dst` resolves to, if any.
  std::optional<Prefix> longestMatchPrefix(const IpAddress& dst) const;
  // Estimated heap footprint of the LPM index; 0 until it is built.
  size_t indexBytes() const {
    return indexBuilt_ ? lpmV4_.approxBytes() + lpmV6_.approxBytes() : 0;
  }

 private:
  PrefixRoutes routes_;
  PrefixTrie<const std::vector<Route>*> lpmV4_;
  PrefixTrie<const std::vector<Route>*> lpmV6_;
  bool indexBuilt_ = false;
};

// All VRF RIBs of one device.
class DeviceRib {
 public:
  VrfRib& vrf(NameId vrfId) { return vrfs_[vrfId]; }
  const VrfRib* findVrf(NameId vrfId) const {
    const auto it = vrfs_.find(vrfId);
    return it == vrfs_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<NameId, VrfRib>& vrfs() const { return vrfs_; }
  std::unordered_map<NameId, VrfRib>& vrfs() { return vrfs_; }

  size_t routeCount() const {
    size_t n = 0;
    for (const auto& [id, rib] : vrfs_) n += rib.routeCount();
    return n;
  }

  void buildForwardingIndex() {
    for (auto& [id, rib] : vrfs_) rib.buildForwardingIndex();
  }

 private:
  std::unordered_map<NameId, VrfRib> vrfs_;
};

// RIBs of every device in the network — the output of route simulation and
// the input of traffic simulation.
class NetworkRibs {
 public:
  DeviceRib& device(NameId deviceId) { return devices_[deviceId]; }
  const DeviceRib* findDevice(NameId deviceId) const {
    const auto it = devices_.find(deviceId);
    return it == devices_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<NameId, DeviceRib>& devices() const { return devices_; }
  std::unordered_map<NameId, DeviceRib>& devices() { return devices_; }

  size_t routeCount() const {
    size_t n = 0;
    for (const auto& [id, rib] : devices_) n += rib.routeCount();
    return n;
  }

  void buildForwardingIndex() {
    for (auto& [id, rib] : devices_) rib.buildForwardingIndex();
  }

  // Merges `other` into this (used by the master to combine route-subtask
  // results). Route lists for the same (device, vrf, prefix) are concatenated;
  // best-path selection across subtasks is re-run by the merger.
  void merge(const NetworkRibs& other);
  // The same merge, consuming `other`: no route is copied. The devices and
  // VRFs this lacks are spliced in, and a VRF both hold splices the cells of
  // its smaller table into the larger; shared cells list this RIB's routes,
  // then `other`'s.
  void merge(NetworkRibs&& other);

 private:
  std::unordered_map<NameId, DeviceRib> devices_;
};

}  // namespace hoyan
