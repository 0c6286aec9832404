// IS-IS link-state simulation: per-domain shortest-path-first computation.
//
// Hoyan does not simulate IS-IS message flooding — since IS-IS is link-state,
// the converged state is exactly the all-pairs SPF over the active topology
// of each IGP domain. The result feeds (1) BGP nexthop resolution and IGP
// cost for the decision process, (2) IS-IS route generation for loopbacks,
// and (3) hop-by-hop expansion of SR tunnel segment lists.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/names.h"
#include "topo/topology.h"

namespace hoyan {

inline constexpr uint32_t kIgpInfinity = 0xffffffffu;

// Shortest-path result from one source device to one target device.
struct IgpPath {
  uint32_t cost = kIgpInfinity;
  // Equal-cost first hops (neighbour devices), sorted for determinism.
  std::vector<NameId> nextHops;

  bool reachable() const { return cost != kIgpInfinity; }
};

// Converged IS-IS state for the whole network.
class IgpState {
 public:
  // Runs SPF from every device of every domain over `adjacency`, the
  // topology's active adjacencies. Interfaces must have IS-IS enabled on both
  // ends of a link for it to form an adjacency.
  static IgpState compute(const Topology& topology, const AdjacencyTable& adjacency);

  // Path from `from` to `to`; unreachable (and cross-domain) pairs return a
  // path with cost kIgpInfinity.
  const IgpPath& path(NameId from, NameId to) const;

  // Devices in the same IGP domain as `device`.
  std::vector<NameId> domainMembers(NameId device) const;

  // Estimated deep size; used by the sweep's worker-memory accounting.
  size_t approxBytes() const;

 private:
  static const IgpPath& unreachablePath();

  // paths_[from][to].
  std::unordered_map<NameId, std::unordered_map<NameId, IgpPath>> paths_;
  std::unordered_map<NameId, NameId> domainOf_;
};

}  // namespace hoyan
