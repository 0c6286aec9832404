#include "proto/isis.h"

#include <algorithm>
#include <queue>

namespace hoyan {
namespace {

struct Edge {
  NameId to;
  uint32_t cost;
};

// Dijkstra from `source` over `edges`, filling cost and ECMP first hops.
void runSpf(NameId source, const std::unordered_map<NameId, std::vector<Edge>>& edges,
            std::unordered_map<NameId, IgpPath>& out) {
  using QueueItem = std::pair<uint32_t, NameId>;  // (cost, device)
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  out[source] = IgpPath{0, {}};
  queue.push({0, source});
  while (!queue.empty()) {
    const auto [cost, device] = queue.top();
    queue.pop();
    const auto deviceIt = out.find(device);
    if (deviceIt == out.end() || deviceIt->second.cost < cost) continue;
    const auto edgeIt = edges.find(device);
    if (edgeIt == edges.end()) continue;
    for (const Edge& edge : edgeIt->second) {
      const uint32_t next = cost + edge.cost;
      auto [it, inserted] = out.try_emplace(edge.to);
      IgpPath& path = it->second;
      // First hop toward `edge.to`: if we're at the source, the neighbour
      // itself; otherwise inherit the first hops of `device`.
      const std::vector<NameId>& hopsVia =
          device == source ? std::vector<NameId>{edge.to} : out[device].nextHops;
      if (next < path.cost) {
        path.cost = next;
        path.nextHops = hopsVia;
        queue.push({next, edge.to});
      } else if (next == path.cost) {
        // Equal-cost path: union the first-hop sets.
        for (const NameId hop : hopsVia)
          if (std::find(path.nextHops.begin(), path.nextHops.end(), hop) ==
              path.nextHops.end())
            path.nextHops.push_back(hop);
      }
    }
  }
  for (auto& [device, path] : out) std::sort(path.nextHops.begin(), path.nextHops.end());
}

}  // namespace

IgpState IgpState::compute(const Topology& topology, const AdjacencyTable& adjacency) {
  IgpState state;
  // Group devices by domain and build the IS-IS adjacency graph: both
  // interface ends must be IS-IS enabled, the link up, devices active and in
  // the same domain.
  std::unordered_map<NameId, std::vector<NameId>> domains;
  for (const auto& [name, device] : topology.devices()) {
    if (device.igpDomain == kInvalidName || !topology.deviceActive(name)) continue;
    domains[device.igpDomain].push_back(name);
    state.domainOf_[name] = device.igpDomain;
  }
  std::unordered_map<NameId, std::vector<Edge>> edges;
  for (const auto& [name, device] : topology.devices()) {
    if (device.igpDomain == kInvalidName) continue;
    for (const Adjacency& adj : adjacency.of(name)) {
      const Device* peer = topology.findDevice(adj.neighbor);
      if (!peer || peer->igpDomain != device.igpDomain) continue;
      const Interface* localItf = device.findInterface(adj.localInterface);
      const Interface* peerItf = peer->findInterface(adj.neighborInterface);
      if (!localItf || !localItf->isisEnabled || !peerItf || !peerItf->isisEnabled) continue;
      edges[name].push_back({adj.neighbor, localItf->isisCost});
    }
  }
  for (const auto& [domain, members] : domains)
    for (const NameId source : members) runSpf(source, edges, state.paths_[source]);
  return state;
}

const IgpPath& IgpState::path(NameId from, NameId to) const {
  const auto fromIt = paths_.find(from);
  if (fromIt == paths_.end()) return unreachablePath();
  const auto toIt = fromIt->second.find(to);
  return toIt == fromIt->second.end() ? unreachablePath() : toIt->second;
}

std::vector<NameId> IgpState::domainMembers(NameId device) const {
  std::vector<NameId> out;
  const auto domainIt = domainOf_.find(device);
  if (domainIt == domainOf_.end()) return out;
  for (const auto& [name, domain] : domainOf_)
    if (domain == domainIt->second) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

size_t IgpState::approxBytes() const {
  constexpr size_t kHashNode = 16;  // Bucket pointer + node overhead.
  size_t bytes = sizeof(IgpState);
  bytes += domainOf_.size() * (2 * sizeof(NameId) + kHashNode);
  for (const auto& [from, targets] : paths_) {
    bytes += sizeof(NameId) + sizeof(targets) + kHashNode;
    for (const auto& [to, path] : targets)
      bytes += sizeof(NameId) + sizeof(IgpPath) + kHashNode +
               path.nextHops.capacity() * sizeof(NameId);
  }
  return bytes;
}

const IgpPath& IgpState::unreachablePath() {
  static const IgpPath path;
  return path;
}

}  // namespace hoyan
