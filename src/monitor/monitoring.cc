#include "monitor/monitoring.h"

#include <random>

namespace hoyan {

NetworkRibs collectMonitoredRoutes(const NetworkModel& model, const NetworkRibs& live,
                                   const RouteMonitorOptions& options) {
  NetworkRibs monitored;
  for (const auto& [deviceId, deviceRib] : live.devices()) {
    if (options.failedAgents.contains(deviceId)) continue;
    const bool bmp = options.bmpDevices.contains(deviceId);
    const Device* device = model.topology.findDevice(deviceId);
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      for (const auto& [prefix, routes] : vrfRib.routes()) {
        for (const Route& route : routes) {
          // The monitor only collects BGP-carried routes.
          if (route.protocol != Protocol::kBgp && route.protocol != Protocol::kAggregate)
            continue;
          // BGP agents receive only the advertised best route.
          if (!bmp && route.type != RouteType::kBest) continue;
          Route observed = route;
          if (!bmp) {
            // Attributes that do not propagate via BGP are lost.
            observed.attrs.weight = 0;
            observed.igpCost = 0;
            if (options.vendorNexthopRewrite && device)
              observed.nexthop = device->loopback;
          }
          monitored.device(deviceId).vrf(vrfId).routesFor(prefix).push_back(observed);
        }
      }
    }
  }
  return monitored;
}

std::vector<MonitoredLinkLoad> collectMonitoredLinkLoads(
    const LinkLoadMap& liveLoads, const TrafficMonitorOptions& options) {
  std::vector<MonitoredLinkLoad> out;
  std::mt19937_64 rng(options.noiseSeed);
  std::uniform_real_distribution<double> noise(-options.snmpNoise, options.snmpNoise);
  for (const auto& entry : liveLoads.entries()) {
    MonitoredLinkLoad sample;
    sample.from = entry.from;
    sample.to = entry.to;
    sample.bps = entry.bps * (1.0 + (options.snmpNoise > 0 ? noise(rng) : 0.0));
    out.push_back(sample);
  }
  return out;
}

std::vector<NetflowRecord> collectNetflowRecords(std::span<const Flow> liveFlows,
                                                 const TrafficMonitorOptions& options) {
  std::vector<NetflowRecord> out;
  out.reserve(liveFlows.size());
  for (const Flow& flow : liveFlows) {
    if (options.failedExporters.contains(flow.ingressDevice)) continue;
    NetflowRecord record;
    record.flow = flow;
    const auto bug = options.netflowVolumeScale.find(flow.ingressDevice);
    if (bug != options.netflowVolumeScale.end()) record.flow.volumeBps *= bug->second;
    out.push_back(record);
  }
  return out;
}

Topology collectMonitoredTopology(const Topology& live, bool hideLinkFailures) {
  Topology monitored = live;
  if (hideLinkFailures) {
    monitored.clearLinkOverlay();  // Masked failures are failures too.
    for (Link& link : monitored.mutableLinks()) link.up = true;  // Stale feed: all up.
  }
  return monitored;
}

}  // namespace hoyan
