#include "sim/traffic_sim.h"

#include <algorithm>
#include <deque>
#include <map>

#include "obs/telemetry.h"

namespace hoyan {
namespace {

// A node of the per-flow forwarding DAG: the device the packet is at, plus
// SR tunnel state (which policy and which segment the packet is currently
// walking toward; kNoTunnel when routed normally).
struct DagNodeKey {
  NameId device = kInvalidName;
  const SrPolicyConfig* tunnel = nullptr;
  uint32_t segmentIndex = 0;
  NameId arrivedFrom = kInvalidName;  // Previous hop (for ACL/PBR interface).

  friend bool operator==(const DagNodeKey&, const DagNodeKey&) = default;
};

struct DagNodeKeyHash {
  size_t operator()(const DagNodeKey& key) const {
    return size_t{key.device} * 0x9e3779b97f4a7c15ULL ^
           reinterpret_cast<size_t>(key.tunnel) ^ (size_t{key.segmentIndex} << 48) ^
           (size_t{key.arrivedFrom} * 131);
  }
};

struct DagNode {
  DagNodeKey key;
  std::vector<std::pair<size_t, double>> edges;  // (target node, fraction)
  std::optional<FlowOutcome> terminal;
  Prefix matchedPrefix;  // LPM result at this node (when routed by RIB).
  double volume = 0;
  size_t indegree = 0;
};

class FlowForwarder {
 public:
  FlowForwarder(const NetworkModel& model, const ForwardingView& view)
      : model_(model), view_(view) {}

  FlowPath forward(const Flow& flow) {
    nodes_.clear();
    nodeIndex_.clear();
    FlowPath path;
    path.flow = flow;
    if (!model_.topology.deviceActive(flow.ingressDevice)) {
      path.outcome = FlowOutcome::kBlackholed;
      return path;
    }
    const size_t root = nodeFor(DagNodeKey{flow.ingressDevice, nullptr, 0, kInvalidName});
    // Phase 1: expand every reachable node once (BFS).
    for (size_t i = 0; i < nodes_.size(); ++i) expand(i, flow);
    // Phase 2: topological volume propagation (Kahn). A residue of
    // unprocessed nodes means a forwarding cycle.
    for (DagNode& node : nodes_) node.indegree = 0;
    for (const DagNode& node : nodes_)
      for (const auto& [target, fraction] : node.edges) ++nodes_[target].indegree;
    nodes_[root].volume = flow.volumeBps;
    std::deque<size_t> ready;
    for (size_t i = 0; i < nodes_.size(); ++i)
      if (nodes_[i].indegree == 0) ready.push_back(i);
    size_t processed = 0;
    bool delivered = false, exited = false, blackholed = false, denied = false;
    while (!ready.empty()) {
      const size_t index = ready.front();
      ready.pop_front();
      ++processed;
      DagNode& node = nodes_[index];
      if (node.terminal) {
        switch (*node.terminal) {
          case FlowOutcome::kDelivered: delivered = true; break;
          case FlowOutcome::kExited: exited = true; break;
          case FlowOutcome::kBlackholed: blackholed = true; break;
          case FlowOutcome::kDeniedAcl: denied = true; break;
          case FlowOutcome::kLooped: break;
        }
      }
      for (const auto& [target, fraction] : node.edges) {
        nodes_[target].volume += node.volume * fraction;
        // A same-device edge is an SR tunnel state change (entry, segment
        // advance, exit): it carries the volume on, but crosses no link.
        if (nodes_[target].key.device != node.key.device)
          path.hops.push_back(FlowHop{node.key.device, nodes_[target].key.device,
                                      node.matchedPrefix, node.volume * fraction});
        if (--nodes_[target].indegree == 0) ready.push_back(target);
      }
    }
    const bool looped = processed != nodes_.size();
    if (looped)
      path.outcome = FlowOutcome::kLooped;
    else if (blackholed)
      path.outcome = FlowOutcome::kBlackholed;
    else if (denied)
      path.outcome = FlowOutcome::kDeniedAcl;
    else if (delivered)
      path.outcome = FlowOutcome::kDelivered;
    else if (exited)
      path.outcome = FlowOutcome::kExited;
    else
      path.outcome = FlowOutcome::kBlackholed;
    return path;
  }

 private:
  size_t nodeFor(const DagNodeKey& key) {
    const auto [it, inserted] = nodeIndex_.try_emplace(key, nodes_.size());
    if (inserted) {
      nodes_.emplace_back();
      nodes_.back().key = key;
    }
    return it->second;
  }

  void addEdge(size_t from, const DagNodeKey& toKey, double fraction) {
    const size_t to = nodeFor(toKey);
    // nodes_ may have reallocated; index `from` again.
    nodes_[from].edges.push_back({to, fraction});
  }

  // Splits a unit fraction toward `targetDevice` over IGP first hops (or the
  // direct adjacency for non-IGP neighbours). Returns false if unreachable.
  bool emitTowards(size_t from, NameId hereDevice, NameId targetDevice,
                   const SrPolicyConfig* tunnel, uint32_t segmentIndex, double fraction) {
    if (targetDevice == hereDevice) return true;
    // Directly adjacent?
    for (const Adjacency& adj : model_.adjacenciesOf(hereDevice)) {
      if (adj.neighbor == targetDevice) {
        addEdge(from, DagNodeKey{targetDevice, tunnel, segmentIndex, hereDevice}, fraction);
        return true;
      }
    }
    const IgpPath igpPath = model_.igp.path(hereDevice, targetDevice);
    if (!igpPath.reachable() || igpPath.nextHops.empty()) return false;
    const double share = fraction / static_cast<double>(igpPath.nextHops.size());
    for (const NameId hop : igpPath.nextHops)
      addEdge(from, DagNodeKey{hop, tunnel, segmentIndex, hereDevice}, share);
    return true;
  }

  void expand(size_t index, const Flow& flow) {
    const DagNodeKey key = nodes_[index].key;
    const NameId device = key.device;
    const Device* deviceInfo = model_.topology.findDevice(device);
    if (!deviceInfo) {
      nodes_[index].terminal = FlowOutcome::kBlackholed;
      return;
    }
    const DeviceConfig* config = model_.configs.findDevice(device);

    // ACL on the in-interface.
    if (config && !config->acls.empty() && key.arrivedFrom != kInvalidName) {
      const NameId inInterface = interfaceFacing(device, key.arrivedFrom);
      for (const auto& [aclName, acl] : config->acls) {
        const bool applied = std::find(acl.appliedInterfaces.begin(),
                                       acl.appliedInterfaces.end(),
                                       inInterface) != acl.appliedInterfaces.end();
        if (applied && !acl.permits(flow.src, flow.dst, flow.dstPort, flow.ipProtocol)) {
          nodes_[index].terminal = FlowOutcome::kDeniedAcl;
          return;
        }
      }
    }

    // External peers terminate the simulated domain.
    if (deviceInfo->role == DeviceRole::kExternalPeer &&
        device != flow.ingressDevice) {
      nodes_[index].terminal = FlowOutcome::kExited;
      return;
    }

    // In-tunnel: walk toward the current SR segment, then the endpoint.
    if (key.tunnel) {
      const SrPolicyConfig& tunnel = *key.tunnel;
      const IpAddress& waypoint = key.segmentIndex < tunnel.segments.size()
                                      ? tunnel.segments[key.segmentIndex]
                                      : tunnel.endpoint;
      const auto owner = model_.addresses.owner(waypoint);
      if (!owner) {
        nodes_[index].terminal = FlowOutcome::kBlackholed;
        return;
      }
      if (*owner == device) {
        // Reached this waypoint: advance to the next, or exit the tunnel and
        // resume normal routing at the endpoint.
        if (key.segmentIndex < tunnel.segments.size()) {
          addEdge(index, DagNodeKey{device, key.tunnel, key.segmentIndex + 1,
                                    key.arrivedFrom},
                  1.0);
        } else {
          addEdge(index, DagNodeKey{device, nullptr, 0, key.arrivedFrom}, 1.0);
        }
        return;
      }
      if (!emitTowards(index, device, *owner, key.tunnel, key.segmentIndex, 1.0))
        nodes_[index].terminal = FlowOutcome::kBlackholed;
      return;
    }

    // PBR on the in-interface (bypasses the RIB).
    if (config && !config->pbrPolicies.empty() && key.arrivedFrom != kInvalidName) {
      const NameId inInterface = interfaceFacing(device, key.arrivedFrom);
      for (const auto& [policyName, policy] : config->pbrPolicies) {
        const bool applied = std::find(policy.appliedInterfaces.begin(),
                                       policy.appliedInterfaces.end(),
                                       inInterface) != policy.appliedInterfaces.end();
        if (!applied) continue;
        for (const PbrRule& rule : policy.rules) {
          if (rule.srcPrefix && !rule.srcPrefix->contains(flow.src)) continue;
          if (rule.dstPrefix && !rule.dstPrefix->contains(flow.dst)) continue;
          if (rule.dstPort && *rule.dstPort != flow.dstPort) continue;
          const auto owner = model_.addresses.owner(rule.setNexthop);
          if (!owner || !emitTowards(index, device, *owner, nullptr, 0, 1.0))
            nodes_[index].terminal = FlowOutcome::kBlackholed;
          return;
        }
      }
    }

    // Normal LPM forwarding.
    const std::vector<Route>* routes = view_.longestMatch(device, flow.vrf, flow.dst);
    if (!routes || routes->empty()) {
      nodes_[index].terminal = FlowOutcome::kBlackholed;
      return;
    }
    nodes_[index].matchedPrefix = routes->front().prefix;
    // Forwarding entries: best + ECMP.
    std::vector<const Route*> forwarding;
    for (const Route& route : *routes)
      if (route.type != RouteType::kAlternate) forwarding.push_back(&route);
    if (forwarding.empty()) {
      nodes_[index].terminal = FlowOutcome::kBlackholed;
      return;
    }
    const double perRoute = 1.0 / static_cast<double>(forwarding.size());
    bool anyForwarded = false;
    for (const Route* route : forwarding) {
      // Locally terminated routes.
      if (route->protocol == Protocol::kDirect || route->nexthopDevice == device ||
          (route->nexthop == IpAddress{} && route->protocol != Protocol::kBgp)) {
        nodes_[index].terminal = FlowOutcome::kDelivered;
        anyForwarded = true;
        continue;
      }
      // SR-tunnelled BGP nexthop: enter the tunnel.
      if (route->viaSrTunnel) {
        if (const SrPolicyConfig* tunnel = model_.srPolicyFor(device, route->nexthop)) {
          addEdge(index, DagNodeKey{device, tunnel, 0, key.arrivedFrom}, perRoute);
          anyForwarded = true;
          continue;
        }
      }
      NameId target = route->nexthopDevice;
      if (target == kInvalidName) {
        const auto owner = model_.addresses.owner(route->nexthop);
        if (!owner) continue;
        target = *owner;
      }
      if (emitTowards(index, device, target, nullptr, 0, perRoute)) anyForwarded = true;
    }
    if (!anyForwarded) nodes_[index].terminal = FlowOutcome::kBlackholed;
  }

  NameId interfaceFacing(NameId device, NameId neighbor) const {
    for (const Adjacency& adj : model_.adjacenciesOf(device))
      if (adj.neighbor == neighbor) return adj.localInterface;
    return kInvalidName;
  }

  const NetworkModel& model_;
  const ForwardingView& view_;
  std::vector<DagNode> nodes_;
  std::unordered_map<DagNodeKey, size_t, DagNodeKeyHash> nodeIndex_;
};

}  // namespace

TrafficSimResult simulateTraffic(const NetworkModel& model, const ForwardingView& view,
                                 std::span<const Flow> flows,
                                 const TrafficSimOptions& options) {
  obs::Telemetry& tel = obs::Telemetry::orDisabled(options.telemetry);
  TrafficSimResult result;
  result.stats.inputFlows = flows.size();

  obs::Span ecSpan = tel.tracer().span("traffic_sim.ec", "sim");
  std::vector<Flow> representativeStorage;
  std::span<const Flow> toSimulate = flows;
  if (options.useEquivalenceClasses) {
    FlowEcPlan plan = buildFlowEcs(model, view, flows, &result.stats.ec);
    representativeStorage = std::move(plan.representatives);
    toSimulate = representativeStorage;
    result.flowToPath = std::move(plan.flowToClass);
  } else {
    result.flowToPath.resize(flows.size());
    for (size_t i = 0; i < flows.size(); ++i) result.flowToPath[i] = i;
  }
  ecSpan.finish();
  result.stats.ecSeconds = ecSpan.seconds();
  result.stats.simulatedFlows = toSimulate.size();

  obs::Span forwardSpan = tel.tracer().span("traffic_sim.forward", "sim");
  FlowForwarder forwarder(model, view);
  result.paths.reserve(toSimulate.size());
  for (const Flow& flow : toSimulate) {
    FlowPath path = forwarder.forward(flow);
    for (const FlowHop& hop : path.hops)
      result.linkLoads.add(hop.device, hop.nextDevice, hop.volumeShareBps);
    switch (path.outcome) {
      case FlowOutcome::kDelivered: ++result.stats.delivered; break;
      case FlowOutcome::kExited: ++result.stats.exited; break;
      case FlowOutcome::kBlackholed: ++result.stats.blackholed; break;
      case FlowOutcome::kLooped: ++result.stats.looped; break;
      case FlowOutcome::kDeniedAcl: ++result.stats.deniedAcl; break;
    }
    result.paths.push_back(std::move(path));
  }
  forwardSpan.arg("flows", std::to_string(toSimulate.size()));
  forwardSpan.finish();
  result.stats.forwardSeconds = forwardSpan.seconds();
  tel.metrics().counter("sim.traffic.flows_simulated").add(toSimulate.size());
  tel.log().debug("traffic_sim.done",
                  {{"flows", std::to_string(flows.size())},
                   {"simulated", std::to_string(toSimulate.size())}});
  return result;
}

FlowPath simulateSingleFlow(const NetworkModel& model, const ForwardingView& view,
                            const Flow& flow) {
  FlowForwarder forwarder(model, view);
  return forwarder.forward(flow);
}

}  // namespace hoyan
