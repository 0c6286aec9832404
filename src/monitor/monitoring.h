// Monitoring-system emulation (§2.1), with the fidelity limits and failure
// modes the paper describes — these gaps are exactly what the accuracy
// diagnosis framework (src/diag) must work around:
//
//  * The BGP-agent route monitor sees only the advertised *best* route per
//    prefix (no ECMP set), loses attributes that do not propagate via BGP
//    (weight, IGP cost), and some vendors rewrite the nexthop even on iBGP
//    advertisements.
//  * BMP collection sees the full BGP RIB of a device (rolled out gradually).
//  * Agents can fail and silently stop collecting a device (Table 4 row 1).
//  * NetFlow exporters can report wrong volumes due to vendor bugs (row 2);
//    SNMP link counters carry noise.
//  * The topology feed can disagree with the live network (row 3).
#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "net/flow.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "sim/traffic_sim.h"

namespace hoyan {

struct RouteMonitorOptions {
  // Devices collected via BMP (full RIB) rather than a BGP agent (best only).
  std::set<NameId> bmpDevices;
  // Failed agents: these devices contribute nothing (Table 4 row 1).
  std::set<NameId> failedAgents;
  // Vendors that rewrite the nexthop on iBGP advertisement: the monitored
  // nexthop becomes the advertising device's own loopback.
  bool vendorNexthopRewrite = false;
};

// Produces the route monitoring system's view of the live RIBs.
NetworkRibs collectMonitoredRoutes(const NetworkModel& model, const NetworkRibs& live,
                                   const RouteMonitorOptions& options = {});

struct TrafficMonitorOptions {
  // Per-device NetFlow volume scaling bugs (1.0 = accurate), Table 4 row 2.
  std::unordered_map<NameId, double> netflowVolumeScale;
  // Devices whose flow exporter is down entirely.
  std::set<NameId> failedExporters;
  // Multiplicative noise bound on SNMP link-load counters (e.g. 0.02 = ±2%).
  double snmpNoise = 0.0;
  uint64_t noiseSeed = 1;
};

struct MonitoredLinkLoad {
  NameId from = kInvalidName;
  NameId to = kInvalidName;
  double bps = 0;
};

// SNMP view of per-link loads from the live traffic.
std::vector<MonitoredLinkLoad> collectMonitoredLinkLoads(
    const LinkLoadMap& liveLoads, const TrafficMonitorOptions& options = {});

struct NetflowRecord {
  Flow flow;  // volumeBps as *reported* (possibly scaled by a vendor bug).
};

// NetFlow/sFlow view of the flows as seen at their ingress devices.
std::vector<NetflowRecord> collectNetflowRecords(std::span<const Flow> liveFlows,
                                                 const TrafficMonitorOptions& options = {});

// The topology monitoring feed: a copy of the live topology, optionally made
// stale/inconsistent (Table 4 row 3) by reporting failed links as up.
Topology collectMonitoredTopology(const Topology& live, bool hideLinkFailures = false);

}  // namespace hoyan
