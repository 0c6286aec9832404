#include "diag/validation.h"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.h"

namespace hoyan {
namespace {

// Compares two route lists for the same (device, vrf, prefix) cell and
// appends attribute-level detail when they disagree.
bool sameObservableRoute(const Route& a, const Route& b, bool compareHidden,
                         std::string& detail) {
  const auto mismatch = [&detail](const std::string& field, const std::string& x,
                                  const std::string& y) {
    if (!detail.empty()) detail += "; ";
    detail += field + ": sim=" + x + " real=" + y;
    return false;
  };
  bool same = true;
  if (!(a.nexthop == b.nexthop))
    same = mismatch("nexthop", a.nexthop.str(), b.nexthop.str());
  if (a.attrs.localPref != b.attrs.localPref)
    same = mismatch("localPref", std::to_string(a.attrs.localPref),
                    std::to_string(b.attrs.localPref));
  if (a.attrs.med != b.attrs.med)
    same = mismatch("med", std::to_string(a.attrs.med), std::to_string(b.attrs.med));
  if (!(a.attrs.communities == b.attrs.communities))
    same = mismatch("communities", a.attrs.communities.str(), b.attrs.communities.str());
  if (!(a.attrs.asPath == b.attrs.asPath))
    same = mismatch("aspath", a.attrs.asPath.str(), b.attrs.asPath.str());
  if (compareHidden) {
    if (a.attrs.weight != b.attrs.weight)
      same = mismatch("weight", std::to_string(a.attrs.weight),
                      std::to_string(b.attrs.weight));
    if (a.igpCost != b.igpCost)
      same = mismatch("igpCost", std::to_string(a.igpCost), std::to_string(b.igpCost));
  }
  return same;
}

}  // namespace

std::string RouteDiscrepancy::str() const {
  std::string kindName;
  switch (kind) {
    case Kind::kMissingInSimulation: kindName = "missing-in-sim"; break;
    case Kind::kExtraInSimulation: kindName = "extra-in-sim"; break;
    case Kind::kAttributeMismatch: kindName = "attr-mismatch"; break;
  }
  return kindName + " " + Names::str(device) + " " + prefix.str() +
         (detail.empty() ? "" : " (" + detail + ")");
}

RouteAccuracyReport compareRoutes(const NetworkRibs& simulated,
                                  const NetworkRibs& monitored,
                                  const RouteMonitorOptions& monitorOptions) {
  // Validation runs at the pipeline edge; it reports into the process-global
  // telemetry (the bench --trace-out hook) rather than a threaded pointer.
  obs::Telemetry& tel = obs::Telemetry::resolve(nullptr);
  obs::Span span = tel.tracer().span("diag.compare_routes", "diag");
  RouteAccuracyReport report;
  // For every monitored best route: find it in the simulation. The
  // simulation's view is reduced to what the monitor would observe.
  for (const auto& [deviceId, monitoredRib] : monitored.devices()) {
    const DeviceRib* simRib = simulated.findDevice(deviceId);
    const bool bmp = monitorOptions.bmpDevices.contains(deviceId);
    for (const auto& [vrfId, monitoredVrf] : monitoredRib.vrfs()) {
      const VrfRib* simVrf = simRib ? simRib->findVrf(vrfId) : nullptr;
      for (const auto& [prefix, monitoredRoutes] : monitoredVrf.routes()) {
        ++report.routesCompared;
        const std::vector<Route>* simRoutes = simVrf ? simVrf->find(prefix) : nullptr;
        const Route* simBest = nullptr;
        if (simRoutes)
          for (const Route& route : *simRoutes)
            if (route.type == RouteType::kBest &&
                (route.protocol == Protocol::kBgp ||
                 route.protocol == Protocol::kAggregate))
              simBest = &route;
        if (!simBest) {
          report.discrepancies.push_back({RouteDiscrepancy::Kind::kMissingInSimulation,
                                          deviceId, vrfId, prefix, ""});
          continue;
        }
        const Route* monitoredBest = nullptr;
        for (const Route& route : monitoredRoutes)
          if (route.type == RouteType::kBest) monitoredBest = &route;
        if (!monitoredBest) monitoredBest = &monitoredRoutes.front();
        std::string detail;
        // Nexthop comparison is skipped for non-BMP devices when the vendor
        // rewrite limitation applies — the monitor's value is unreliable.
        Route simView = *simBest;
        if (!bmp) {
          simView.attrs.weight = 0;
          simView.igpCost = 0;
          if (monitorOptions.vendorNexthopRewrite) simView.nexthop = monitoredBest->nexthop;
        }
        if (!sameObservableRoute(simView, *monitoredBest, bmp, detail)) {
          report.discrepancies.push_back({RouteDiscrepancy::Kind::kAttributeMismatch,
                                          deviceId, vrfId, prefix, detail});
        }
      }
    }
  }
  // Reverse direction: simulated BGP best routes absent from monitoring. A
  // device with *no* monitored routes at all is a dead agent, not a per-route
  // discrepancy — record it separately and skip per-route noise.
  for (const auto& [deviceId, simRib] : simulated.devices()) {
    const DeviceRib* monitoredRib = monitored.findDevice(deviceId);
    const bool anyMonitored = monitoredRib && monitoredRib->routeCount() > 0;
    size_t simBgpRoutes = 0;
    for (const auto& [vrfId, simVrf] : simRib.vrfs()) {
      const VrfRib* monitoredVrf = monitoredRib ? monitoredRib->findVrf(vrfId) : nullptr;
      for (const auto& [prefix, simRoutes] : simVrf.routes()) {
        const Route* simBest = nullptr;
        for (const Route& route : simRoutes)
          if (route.type == RouteType::kBest &&
              (route.protocol == Protocol::kBgp ||
               route.protocol == Protocol::kAggregate))
            simBest = &route;
        if (!simBest) continue;
        ++simBgpRoutes;
        if (!anyMonitored) continue;
        const auto* monitoredRoutes =
            monitoredVrf ? monitoredVrf->find(prefix) : nullptr;
        if (!monitoredRoutes || monitoredRoutes->empty()) {
          report.discrepancies.push_back({RouteDiscrepancy::Kind::kExtraInSimulation,
                                          deviceId, vrfId, prefix, ""});
        }
      }
    }
    if (!anyMonitored && simBgpRoutes > 0) {
      ++report.devicesMissingEntirely;
      report.missingDevices.push_back(deviceId);
    }
  }
  span.arg("compared", std::to_string(report.routesCompared));
  span.arg("discrepancies", std::to_string(report.discrepancies.size()));
  tel.metrics().counter("diag.routes_compared").add(report.routesCompared);
  tel.metrics().counter("diag.route_discrepancies").add(report.discrepancies.size());
  return report;
}

std::vector<RouteDiscrepancy> crossValidateWithLive(
    const NetworkRibs& simulated, const NetworkRibs& live,
    const std::vector<Prefix>& selectedPrefixes) {
  std::vector<RouteDiscrepancy> out;
  for (const auto& [deviceId, liveRib] : live.devices()) {
    const DeviceRib* simRib = simulated.findDevice(deviceId);
    for (const auto& [vrfId, liveVrf] : liveRib.vrfs()) {
      const VrfRib* simVrf = simRib ? simRib->findVrf(vrfId) : nullptr;
      for (const Prefix& prefix : selectedPrefixes) {
        const auto* liveRoutes = liveVrf.find(prefix);
        const auto* simRoutes = simVrf ? simVrf->find(prefix) : nullptr;
        const auto forwardingCount = [](const std::vector<Route>* routes) {
          size_t n = 0;
          if (routes)
            for (const Route& route : *routes)
              if (route.type != RouteType::kAlternate) ++n;
          return n;
        };
        const size_t liveCount = forwardingCount(liveRoutes);
        const size_t simCount = forwardingCount(simRoutes);
        if (liveCount == 0 && simCount == 0) continue;
        if (liveCount != simCount) {
          out.push_back({RouteDiscrepancy::Kind::kAttributeMismatch, deviceId, vrfId,
                         prefix,
                         "forwarding route count: sim=" + std::to_string(simCount) +
                             " live=" + std::to_string(liveCount)});
          continue;
        }
        // Compare the full forwarding sets (show output includes ECMP,
        // weight, IGP cost).
        for (size_t i = 0; i < liveRoutes->size() && i < simRoutes->size(); ++i) {
          const Route& liveRoute = (*liveRoutes)[i];
          const Route& simRoute = (*simRoutes)[i];
          if (liveRoute.type == RouteType::kAlternate) continue;
          std::string detail;
          if (!sameObservableRoute(simRoute, liveRoute, /*compareHidden=*/true, detail))
            out.push_back({RouteDiscrepancy::Kind::kAttributeMismatch, deviceId, vrfId,
                           prefix, detail});
        }
      }
    }
  }
  return out;
}

std::string LinkLoadDelta::str() const {
  return Names::str(from) + "->" + Names::str(to) +
         " sim=" + std::to_string(simulatedBps) + " real=" +
         std::to_string(monitoredBps) + " delta=" +
         std::to_string(deltaFraction() * 100) + "% of bandwidth";
}

LoadAccuracyReport compareLinkLoads(const Topology& topology,
                                    const LinkLoadMap& simulated,
                                    const std::vector<MonitoredLinkLoad>& monitored,
                                    double thresholdFraction) {
  obs::Telemetry& tel = obs::Telemetry::resolve(nullptr);
  obs::Span span = tel.tracer().span("diag.compare_link_loads", "diag");
  LoadAccuracyReport report;
  for (const MonitoredLinkLoad& sample : monitored) {
    ++report.linksCompared;
    LinkLoadDelta delta;
    delta.from = sample.from;
    delta.to = sample.to;
    delta.monitoredBps = sample.bps;
    delta.simulatedBps = simulated.get(sample.from, sample.to);
    delta.bandwidthBps = topology.capacityBps(sample.from, sample.to);
    if (std::abs(delta.deltaFraction()) > thresholdFraction)
      report.inaccurateLinks.push_back(delta);
  }
  // Links simulated but absent from monitoring entirely.
  for (const auto& entry : simulated.entries()) {
    const bool sampled = std::any_of(
        monitored.begin(), monitored.end(), [&](const MonitoredLinkLoad& sample) {
          return sample.from == entry.from && sample.to == entry.to;
        });
    if (sampled) continue;
    ++report.linksCompared;
    LinkLoadDelta delta;
    delta.from = entry.from;
    delta.to = entry.to;
    delta.simulatedBps = entry.bps;
    delta.bandwidthBps = topology.capacityBps(entry.from, entry.to);
    if (std::abs(delta.deltaFraction()) > thresholdFraction)
      report.inaccurateLinks.push_back(delta);
  }
  std::sort(report.inaccurateLinks.begin(), report.inaccurateLinks.end(),
            [](const LinkLoadDelta& a, const LinkLoadDelta& b) {
              return std::abs(a.deltaFraction()) > std::abs(b.deltaFraction());
            });
  span.arg("compared", std::to_string(report.linksCompared));
  tel.metrics().counter("diag.links_compared").add(report.linksCompared);
  tel.metrics().counter("diag.inaccurate_links").add(report.inaccurateLinks.size());
  return report;
}

}  // namespace hoyan
