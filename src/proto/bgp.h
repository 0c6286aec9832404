// BGP session derivation and the best-path decision process.
#pragma once

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "config/device_config.h"
#include "config/vendor.h"
#include "net/route.h"
#include "proto/address_index.h"
#include "proto/isis.h"
#include "topo/topology.h"

namespace hoyan {

// One direction of an established BGP session, fully resolved: peer device
// identified, peer-group options folded in (honouring the inheriting-views
// VSB), session validity checked (remote-as must match the peer's ASN —
// mismatches are a detectable change risk).
struct BgpSession {
  NameId local = kInvalidName;
  NameId peer = kInvalidName;
  IpAddress peerAddress;     // As configured on `local`.
  IpAddress localAddress;    // The address the peer dials (for nexthop-self).
  NameId vrf = kInvalidName;
  bool ebgp = false;
  Asn localAsn = 0;
  Asn peerAsn = 0;
  std::optional<NameId> importPolicy;  // Applied on routes received by `local`.
  std::optional<NameId> exportPolicy;  // Applied on routes sent by `local`.
  bool routeReflectorClient = false;   // Peer is `local`'s RR client.
  bool nextHopSelf = false;
  bool addPathSend = false;
};

// Derives all established sessions of the network. A session exists when a
// neighbour statement on one device resolves (via interface subnets or
// loopbacks) to an active device whose ASN matches the configured remote-as,
// and neither side is shut down (nor isolated on a session-shutdown-isolation
// vendor). `adjacency` holds the topology's active adjacencies. `problems`
// (optional) collects human-readable reasons for half-configured or
// mismatched sessions.
std::vector<BgpSession> deriveBgpSessions(const Topology& topology,
                                          const AdjacencyTable& adjacency,
                                          const NetworkConfig& configs,
                                          const AddressIndex& addresses,
                                          const IgpState& igp,
                                          std::vector<std::string>* problems = nullptr);

// Sessions by local device: sorted device ids plus offsets into the session
// vector (a CSR index), built in one pass. deriveBgpSessions walks the
// config map, so it emits sessions grouped by `local` in ascending order, and
// each device's sessions are one contiguous run.
class SessionIndex {
 public:
  SessionIndex() = default;
  // Throws std::logic_error when `sessions` is not grouped by ascending
  // `local`.
  explicit SessionIndex(std::span<const BgpSession> sessions);

  // Indices of the device's sessions in the vector the index was built
  // from, ascending; empty for a device with none.
  std::ranges::iota_view<size_t, size_t> of(NameId device) const;

  size_t approxBytes() const;

 private:
  std::vector<NameId> devices_;    // Sorted; devices with a session only.
  std::vector<uint32_t> offsets_;  // devices_.size() + 1 bounds.
};

// The BGP decision process. Returns true when `a` is strictly preferred over
// `b`. `medComparableOnly` keeps the standard rule of comparing MED only for
// routes from the same neighbouring AS. Ties broken by learnedFrom (stands in
// for router-id) so selection is deterministic.
bool bgpPreferred(const Route& a, const Route& b);

// Names the step of the decision process on which `winner` beat `loser` —
// "weight", "local-pref", "local-origination", "as-path-length", "origin",
// "med", "ebgp-over-ibgp", "igp-cost", or "router-id" when equal through IGP
// cost (the deterministic learnedFrom tiebreak). "admin-distance" when the two
// routes weren't even in the same protocol class. Used by the provenance
// recorder to annotate lost-tie-break events.
std::string bgpDecisionStep(const Route& winner, const Route& loser);

// Ranks the BGP (and other-protocol) routes of one prefix: sorts `routes`
// best-first and assigns RouteType kBest / kEcmp / kAlternate. Routes of
// lower admin distance win outright; among equal-admin BGP routes the
// decision process applies, with ECMP for routes equal through IGP cost.
void selectBestRoutes(std::vector<Route>& routes);

}  // namespace hoyan
