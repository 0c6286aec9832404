#include "proto/isis.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace hoyan {
namespace {

// A directed IS-IS adjacency; `to` is a position in IgpState::members_.
struct Edge {
  uint32_t to;
  uint32_t cost;
};

// One domain's SPF, source by source, over a CSR edge list. First-hop sets
// are bitmasks over the source's distinct neighbours, kept in member order,
// which is NameId order, so a mask's set bits read out sorted. Buffers are
// reused across sources and domains.
class Spf {
 public:
  Spf(const std::vector<uint32_t>& edgeOffsets, const std::vector<Edge>& edges)
      : edgeOffsets_(edgeOffsets), edges_(edges) {}

  // Runs Dijkstra from member `base + source` of the domain [base, base+m).
  // Pops in (cost, device) order; a strictly cheaper path replaces the
  // target's first hops and an equal one adds to them, both at relaxation
  // time. Sums in 64 bits; a sum reaching kIgpInfinity relaxes nothing.
  void run(uint32_t base, uint32_t m, uint32_t source) {
    neighbours_.clear();
    for (uint32_t e = edgeOffsets_[base + source]; e < edgeOffsets_[base + source + 1]; ++e)
      neighbours_.push_back(edges_[e].to - base);
    std::sort(neighbours_.begin(), neighbours_.end());
    neighbours_.erase(std::unique(neighbours_.begin(), neighbours_.end()), neighbours_.end());
    words_ = (neighbours_.size() + 63) / 64;
    cost_.assign(m, kIgpInfinity);
    masks_.assign(static_cast<size_t>(m) * words_, 0);
    cost_[source] = 0;
    heap_.assign(1, source);  // Keys are cost << 32 | member.
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const uint64_t key = heap_.back();
      heap_.pop_back();
      const uint32_t cost = static_cast<uint32_t>(key >> 32);
      const uint32_t device = static_cast<uint32_t>(key);
      if (cost_[device] < cost) continue;
      for (uint32_t e = edgeOffsets_[base + device]; e < edgeOffsets_[base + device + 1];
           ++e) {
        const uint64_t next = static_cast<uint64_t>(cost) + edges_[e].cost;
        if (next >= kIgpInfinity) continue;
        const uint32_t to = edges_[e].to - base;
        uint64_t* toMask = mask(to);
        if (next < cost_[to]) {
          cost_[to] = static_cast<uint32_t>(next);
          std::fill(toMask, toMask + words_, 0);
          heap_.push_back(next << 32 | to);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        } else if (next != cost_[to]) {
          continue;
        }
        // First hops via `device`: from the source, the neighbour itself;
        // otherwise the first hops of `device`.
        if (device == source) {
          const size_t bit = static_cast<size_t>(
              std::lower_bound(neighbours_.begin(), neighbours_.end(), to) -
              neighbours_.begin());
          toMask[bit / 64] |= uint64_t{1} << (bit % 64);
        } else {
          const uint64_t* via = mask(device);
          for (size_t w = 0; w < words_; ++w) toMask[w] |= via[w];
        }
      }
    }
  }

  uint32_t cost(uint32_t target) const { return cost_[target]; }

  // Calls `visit(neighbour)` for each first hop toward `target`, ascending.
  template <typename Visit>
  void forEachFirstHop(uint32_t target, Visit&& visit) {
    const uint64_t* bits = mask(target);
    for (size_t w = 0; w < words_; ++w)
      for (uint64_t word = bits[w]; word != 0; word &= word - 1)
        visit(neighbours_[w * 64 + static_cast<size_t>(std::countr_zero(word))]);
  }

 private:
  uint64_t* mask(uint32_t member) { return masks_.data() + member * words_; }

  const std::vector<uint32_t>& edgeOffsets_;
  const std::vector<Edge>& edges_;
  std::vector<uint32_t> neighbours_;  // The source's, as domain-local indices.
  size_t words_ = 0;
  std::vector<uint32_t> cost_;
  std::vector<uint64_t> masks_;  // words_ per member.
  std::vector<uint64_t> heap_;
};

}  // namespace

IgpState IgpState::compute(const Topology& topology, const AdjacencyTable& adjacency) {
  IgpState state;
  // Ordinals: the active IGP devices in NameId order (the device map's).
  std::vector<const Device*> deviceOf;
  std::vector<NameId> domainIds;
  for (const auto& [name, device] : topology.devices()) {
    if (device.igpDomain == kInvalidName || !topology.deviceActive(name)) continue;
    state.devices_.push_back(name);
    deviceOf.push_back(&device);
    domainIds.push_back(device.igpDomain);
  }
  state.devices_.shrink_to_fit();
  const size_t n = state.devices_.size();
  std::sort(domainIds.begin(), domainIds.end());
  domainIds.erase(std::unique(domainIds.begin(), domainIds.end()), domainIds.end());
  state.domains_.resize(domainIds.size());
  state.slots_.resize(n);
  for (size_t o = 0; o < n; ++o) {
    const uint32_t domain = static_cast<uint32_t>(
        std::lower_bound(domainIds.begin(), domainIds.end(), deviceOf[o]->igpDomain) -
        domainIds.begin());
    state.slots_[o] = {domain, state.domains_[domain].size++};
  }
  uint32_t members = 0;
  size_t cells = 0;
  for (Domain& domain : state.domains_) {
    domain.firstMember = members;
    domain.firstCell = cells;
    members += domain.size;
    cells += static_cast<size_t>(domain.size) * domain.size;
  }
  // Ordinals ascend within a domain, so each domain's members stay sorted.
  state.members_.resize(n);
  std::vector<uint32_t> ordinalOfMember(n);
  for (size_t o = 0; o < n; ++o) {
    const uint32_t member =
        state.domains_[state.slots_[o].domain].firstMember + state.slots_[o].local;
    state.members_[member] = state.devices_[o];
    ordinalOfMember[member] = static_cast<uint32_t>(o);
  }

  // The IS-IS adjacency graph in member order: both interface ends must be
  // IS-IS enabled, the link up, devices active and in the same domain.
  std::vector<uint32_t> edgeOffsets(n + 1, 0);
  std::vector<Edge> edges;
  for (uint32_t member = 0; member < n; ++member) {
    edgeOffsets[member] = static_cast<uint32_t>(edges.size());
    const size_t o = ordinalOfMember[member];
    const Device& device = *deviceOf[o];
    for (const Adjacency& adj : adjacency.of(state.devices_[o])) {
      const size_t peer = state.ordinal(adj.neighbor);
      if (peer == n || state.slots_[peer].domain != state.slots_[o].domain) continue;
      const Interface* localItf = device.findInterface(adj.localInterface);
      const Interface* peerItf = deviceOf[peer]->findInterface(adj.neighborInterface);
      if (!localItf || !localItf->isisEnabled || !peerItf || !peerItf->isisEnabled) continue;
      const Domain& domain = state.domains_[state.slots_[peer].domain];
      edges.push_back({domain.firstMember + state.slots_[peer].local, localItf->isisCost});
    }
  }
  edgeOffsets[n] = static_cast<uint32_t>(edges.size());

  state.costs_.resize(cells);
  state.hopOffsets_.resize(cells + 1);
  state.hops_.reserve(cells);
  Spf spf(edgeOffsets, edges);
  for (const Domain& domain : state.domains_) {
    for (uint32_t source = 0; source < domain.size; ++source) {
      spf.run(domain.firstMember, domain.size, source);
      const size_t row = domain.firstCell + static_cast<size_t>(source) * domain.size;
      for (uint32_t target = 0; target < domain.size; ++target) {
        state.costs_[row + target] = spf.cost(target);
        spf.forEachFirstHop(target, [&](uint32_t hop) {
          state.hops_.push_back(state.members_[domain.firstMember + hop]);
        });
        state.hopOffsets_[row + target + 1] = static_cast<uint32_t>(state.hops_.size());
      }
    }
  }
  state.hops_.shrink_to_fit();
  return state;
}

size_t IgpState::ordinal(NameId device) const {
  const auto it = std::lower_bound(devices_.begin(), devices_.end(), device);
  return it != devices_.end() && *it == device ? static_cast<size_t>(it - devices_.begin())
                                               : devices_.size();
}

IgpPath IgpState::path(NameId from, NameId to) const {
  const size_t source = ordinal(from);
  const size_t target = ordinal(to);
  if (source == devices_.size() || target == devices_.size() ||
      slots_[source].domain != slots_[target].domain)
    return {};
  const Domain& domain = domains_[slots_[source].domain];
  const size_t cell = domain.firstCell + static_cast<size_t>(slots_[source].local) * domain.size +
                      slots_[target].local;
  return {costs_[cell], std::span<const NameId>(hops_).subspan(
                            hopOffsets_[cell], hopOffsets_[cell + 1] - hopOffsets_[cell])};
}

std::span<const NameId> IgpState::domainMembers(NameId device) const {
  const size_t o = ordinal(device);
  if (o == devices_.size()) return {};
  const Domain& domain = domains_[slots_[o].domain];
  return std::span<const NameId>(members_).subspan(domain.firstMember, domain.size);
}

size_t IgpState::approxBytes() const {
  return sizeof(IgpState) + devices_.capacity() * sizeof(NameId) +
         slots_.capacity() * sizeof(Slot) + domains_.capacity() * sizeof(Domain) +
         members_.capacity() * sizeof(NameId) + costs_.capacity() * sizeof(uint32_t) +
         hopOffsets_.capacity() * sizeof(uint32_t) + hops_.capacity() * sizeof(NameId);
}

}  // namespace hoyan
