// IS-IS link-state simulation: per-domain shortest-path-first computation.
//
// Hoyan does not simulate IS-IS message flooding — since IS-IS is link-state,
// the converged state is exactly the all-pairs SPF over the active topology
// of each IGP domain. The result feeds (1) BGP nexthop resolution and IGP
// cost for the decision process, (2) IS-IS route generation for loopbacks,
// and (3) hop-by-hop expansion of SR tunnel segment lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/names.h"
#include "topo/topology.h"

namespace hoyan {

inline constexpr uint32_t kIgpInfinity = 0xffffffffu;

// Shortest-path result from one source device to one target device. A view:
// `nextHops` points into the IgpState that returned it (see IgpState).
struct IgpPath {
  uint32_t cost = kIgpInfinity;
  // Equal-cost first hops (neighbour devices), sorted for determinism.
  std::span<const NameId> nextHops;

  bool reachable() const { return cost != kIgpInfinity; }
};

// Converged IS-IS state for the whole network, stored densely per IGP
// domain: a sorted ordinal table of the active IGP devices, one m×m cost
// block per domain of m devices (memory is the sum of m² over domains, never
// n² over the network), and one flat array of sorted first hops with
// per-pair offsets.
//
// Lifetime: the spans path() and domainMembers() return point into this
// object's arrays. They stay valid until the state is recomputed, assigned
// over or destroyed — NetworkModel's rebuildDerived and
// rebuildDerivedForFailures assign `igp`, so read paths again after a
// rebuild instead of holding them across one.
class IgpState {
 public:
  // Runs SPF from every device of every domain over `adjacency`, the
  // topology's active adjacencies. Interfaces must have IS-IS enabled on both
  // ends of a link for it to form an adjacency. Path costs sum in 64 bits; a
  // path whose cost reaches kIgpInfinity is unreachable.
  static IgpState compute(const Topology& topology, const AdjacencyTable& adjacency);

  // Path from `from` to `to`; unreachable (and cross-domain) pairs return a
  // path with cost kIgpInfinity and no next hops.
  IgpPath path(NameId from, NameId to) const;

  // Active devices in the same IGP domain as `device` (itself included),
  // sorted; empty for a failed device or one outside every domain.
  std::span<const NameId> domainMembers(NameId device) const;

  // SPF sources the computation ran: one per active IGP device.
  size_t sourcesRun() const { return devices_.size(); }

  // Deep size: the capacities of every array; used by the sweep's
  // worker-memory accounting.
  size_t approxBytes() const;

 private:
  // A device's place: its domain and its index among the domain's members.
  struct Slot {
    uint32_t domain = 0;
    uint32_t local = 0;
  };
  struct Domain {
    uint32_t firstMember = 0;  // Into members_.
    uint32_t size = 0;         // Members, m.
    size_t firstCell = 0;      // Into costs_ and hopOffsets_: the m×m block.
  };

  // Index of `device` in devices_, or devices_.size() when absent.
  size_t ordinal(NameId device) const;

  std::vector<NameId> devices_;  // Sorted active IGP devices: the ordinals.
  std::vector<Slot> slots_;      // Per ordinal.
  std::vector<Domain> domains_;  // In domain-NameId order.
  std::vector<NameId> members_;  // Each domain's devices, sorted, per domain.
  // Per domain, the row-major m×m block of (source, target) cells.
  std::vector<uint32_t> costs_;
  // costs_.size() + 1 bounds into hops_ per cell.
  std::vector<uint32_t> hopOffsets_;
  std::vector<NameId> hops_;
};

}  // namespace hoyan
