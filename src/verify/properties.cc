#include "verify/properties.h"

#include <algorithm>

#include "sim/route_sim.h"

namespace hoyan {
namespace {

// True if `path` contains `sequence` as consecutive directed hops.
bool pathUsesSequence(const FlowPath& path, const std::vector<NameId>& sequence) {
  if (sequence.size() < 2) return false;
  for (size_t i = 0; i + 1 < sequence.size(); ++i)
    if (!path.usesLink(sequence[i], sequence[i + 1])) return false;
  return true;
}

}  // namespace

std::vector<NameId> devicesWithRoute(const NetworkRibs& ribs, const Prefix& prefix,
                                     NameId vrf) {
  std::vector<NameId> out;
  for (const auto& [deviceId, deviceRib] : ribs.devices()) {
    const VrfRib* vrfRib = deviceRib.findVrf(vrf);
    if (!vrfRib) continue;
    const auto* routes = vrfRib->find(prefix);
    if (!routes) continue;
    for (const Route& route : *routes) {
      if (route.type == RouteType::kBest) {
        out.push_back(deviceId);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool dataPlaneReachable(const NetworkModel& model, const NetworkRibs& ribs,
                        NameId ingress, const IpAddress& dst, NameId vrf) {
  Flow probe;
  probe.ingressDevice = ingress;
  probe.dst = dst;
  probe.vrf = vrf;
  probe.volumeBps = 1;
  const FlowPath path = simulateSingleFlow(model, ribs, probe);
  return path.outcome == FlowOutcome::kDelivered || path.outcome == FlowOutcome::kExited;
}

std::vector<PathChangeViolation> checkPathChange(
    const NetworkModel& baseModel, const NetworkRibs& baseRibs,
    const NetworkModel& updatedModel, const NetworkRibs& updatedRibs,
    std::span<const Flow> flows, const PathChangeIntent& intent) {
  std::vector<PathChangeViolation> violations;
  for (const Flow& flow : flows) {
    if (intent.dstFilter && !intent.dstFilter->contains(flow.dst)) continue;
    const FlowPath basePath = simulateSingleFlow(baseModel, baseRibs, flow);
    if (!pathUsesSequence(basePath, intent.fromPath)) continue;  // Out of scope.
    const FlowPath updatedPath = simulateSingleFlow(updatedModel, updatedRibs, flow);
    if (intent.requireLeaveOldPath && pathUsesSequence(updatedPath, intent.fromPath)) {
      violations.push_back({flow, "flow still uses the old path after the change"});
      continue;
    }
    if (!pathUsesSequence(updatedPath, intent.toPath)) {
      violations.push_back({flow, "flow left the old path but does not use the new one ("
                                      + updatedPath.str() + ")"});
    }
  }
  return violations;
}

std::string LoadViolation::str() const {
  return Names::str(from) + "->" + Names::str(to) + " load " + std::to_string(loadBps) +
         " bps = " + std::to_string(utilization() * 100) + "% of " +
         std::to_string(bandwidthBps) + " bps";
}

std::vector<LoadViolation> checkLinkLoads(const Topology& topology,
                                          const LinkLoadMap& loads,
                                          double maxUtilization) {
  std::vector<LoadViolation> violations;
  for (const auto& entry : loads.entries()) {
    const double bandwidth = topology.capacityBps(entry.from, entry.to);
    if (entry.bps > maxUtilization * bandwidth)
      violations.push_back({entry.from, entry.to, entry.bps, bandwidth});
  }
  std::sort(violations.begin(), violations.end(),
            [](const LoadViolation& a, const LoadViolation& b) {
              return a.utilization() > b.utilization();
            });
  return violations;
}

std::string FailureSet::str() const {
  std::string out;
  for (const auto& [a, b] : failedLinks) {
    if (!out.empty()) out += ", ";
    out += "link " + Names::str(a) + "-" + Names::str(b);
  }
  for (const NameId device : failedDevices) {
    if (!out.empty()) out += ", ";
    out += "device " + Names::str(device);
  }
  return out.empty() ? "(no failures)" : out;
}

KFailureResult checkKFailures(const NetworkModel& baseModel,
                              std::span<const InputRoute> inputs,
                              const NetworkProperty& property,
                              const KFailureOptions& options) {
  KFailureResult result;

  // Candidate failure elements.
  std::vector<std::pair<NameId, NameId>> candidateLinks;
  for (size_t i = 0; i < baseModel.topology.links().size(); ++i) {
    const Link& link = baseModel.topology.links()[i];
    if (!baseModel.topology.linkUp(i)) continue;
    if (!options.focusDevices.empty()) {
      const bool touches =
          std::find(options.focusDevices.begin(), options.focusDevices.end(),
                    link.deviceA) != options.focusDevices.end() ||
          std::find(options.focusDevices.begin(), options.focusDevices.end(),
                    link.deviceB) != options.focusDevices.end();
      if (!touches) continue;
    }
    candidateLinks.emplace_back(link.deviceA, link.deviceB);
  }
  std::vector<NameId> candidateDevices;
  if (options.includeDeviceFailures) {
    for (const auto& [name, device] : baseModel.topology.devices()) {
      if (device.role == DeviceRole::kExternalPeer) continue;
      if (!options.focusDevices.empty() &&
          std::find(options.focusDevices.begin(), options.focusDevices.end(), name) ==
              options.focusDevices.end())
        continue;
      candidateDevices.push_back(name);
    }
  }

  const auto evaluate = [&](const FailureSet& failures) {
    NetworkModel degraded;
    degraded.topology = baseModel.topology;
    degraded.configs = baseModel.configs;
    for (const auto& [a, b] : failures.failedLinks) degraded.topology.setLinkState(a, b, false);
    for (const NameId device : failures.failedDevices) degraded.topology.failDevice(device);
    degraded.rebuildDerived();
    const RouteSimResult sim = simulateCentralized(degraded, inputs);
    ++result.scenariosChecked;
    if (!property(degraded, sim.ribs)) result.counterexamples.push_back(failures);
  };

  // Enumerate failure sets of size 1..k (links; plus single-device failures).
  std::vector<size_t> indices;
  const std::function<void(size_t, int)> enumerate = [&](size_t start, int remaining) {
    if (result.counterexamples.size() >= options.maxCounterexamples) return;
    if (!indices.empty()) {
      FailureSet failures;
      for (const size_t index : indices) failures.failedLinks.push_back(candidateLinks[index]);
      evaluate(failures);
    }
    if (remaining == 0) return;
    for (size_t i = start; i < candidateLinks.size(); ++i) {
      indices.push_back(i);
      enumerate(i + 1, remaining - 1);
      indices.pop_back();
      if (result.counterexamples.size() >= options.maxCounterexamples) return;
    }
  };
  enumerate(0, options.k);
  for (const NameId device : candidateDevices) {
    if (result.counterexamples.size() >= options.maxCounterexamples) break;
    FailureSet failures;
    failures.failedDevices.push_back(device);
    evaluate(failures);
  }
  return result;
}

KFailureResult checkKFailureLoads(const NetworkModel& baseModel,
                                  std::span<const InputRoute> inputs,
                                  std::span<const Flow> flows, double maxUtilization,
                                  const KFailureOptions& options) {
  const NetworkProperty property = [&flows, maxUtilization](
                                       const NetworkModel& degraded,
                                       const NetworkRibs& ribs) {
    const TrafficSimResult traffic = simulateTraffic(degraded, ribs, flows);
    return checkLinkLoads(degraded.topology, traffic.linkLoads, maxUtilization).empty();
  };
  return checkKFailures(baseModel, inputs, property, options);
}

}  // namespace hoyan
