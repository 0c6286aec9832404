#include "diag/root_cause.h"

#include <algorithm>

#include "diag/prop_graph.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"

namespace hoyan {
namespace {

// Step (4): compare how `device` forwards `flow` under the simulated vs real
// RIBs; returns the divergence if any.
std::optional<ForwardingDivergence> compareForwarding(const NetworkRibs& simRibs,
                                                      const NetworkRibs& realRibs,
                                                      NameId device, const Flow& flow) {
  const auto forwardingSet = [&](const NetworkRibs& ribs, Prefix& matched) {
    std::vector<Route> out;
    const DeviceRib* deviceRib = ribs.findDevice(device);
    const VrfRib* vrfRib = deviceRib ? deviceRib->findVrf(flow.vrf) : nullptr;
    const std::vector<Route>* routes = vrfRib ? vrfRib->longestMatch(flow.dst) : nullptr;
    if (!routes) return out;
    for (const Route& route : *routes) {
      if (route.type == RouteType::kAlternate) continue;
      matched = route.prefix;
      out.push_back(route);
    }
    return out;
  };
  ForwardingDivergence divergence;
  divergence.device = device;
  divergence.simRoutes = forwardingSet(simRibs, divergence.simMatchedPrefix);
  divergence.realRoutes = forwardingSet(realRibs, divergence.realMatchedPrefix);
  const auto nexthops = [](const std::vector<Route>& routes) {
    std::vector<std::string> out;
    for (const Route& route : routes) out.push_back(route.nexthop.str());
    std::sort(out.begin(), out.end());
    return out;
  };
  if (nexthops(divergence.simRoutes) == nexthops(divergence.realRoutes))
    return std::nullopt;
  divergence.description =
      "device " + Names::str(device) + " forwards " + flow.dst.str() + " via " +
      std::to_string(divergence.simRoutes.size()) + " simulated route(s) but " +
      std::to_string(divergence.realRoutes.size()) + " real route(s)";
  return divergence;
}

// Heuristic classification for a forwarding divergence (the automated part
// of the expert analysis).
IssueCategory classifyDivergence(const NetworkModel& model,
                                 const ForwardingDivergence& divergence,
                                 std::string& explanation) {
  // ECMP-set size mismatch where the simulated extra route rides an SR
  // tunnel is the Fig. 9 signature: a vendor-specific IGP-cost-for-SR rule.
  const bool simHasSr = std::any_of(divergence.simRoutes.begin(),
                                    divergence.simRoutes.end(),
                                    [](const Route& r) { return r.viaSrTunnel; });
  const bool realHasSr = std::any_of(divergence.realRoutes.begin(),
                                     divergence.realRoutes.end(),
                                     [](const Route& r) { return r.viaSrTunnel; });
  if (simHasSr != realHasSr ||
      (divergence.simRoutes.size() != divergence.realRoutes.size() &&
       (simHasSr || realHasSr))) {
    explanation = "ECMP set differs and an SR tunnel is involved on " +
                  Names::str(divergence.device) + " (vendor " +
                  Names::str(model.vendorOf(divergence.device).name) +
                  "): suspected vendor-specific behaviour in the BGP/IGP/SR "
                  "interaction (cf. Fig. 9 'IGP cost for SR')";
    return IssueCategory::kVendorSpecificBehavior;
  }
  if (divergence.simRoutes.empty() && !divergence.realRoutes.empty()) {
    explanation = "simulation has no matching route where the live network "
                  "does: suspected input-building or parsing gap";
    return IssueCategory::kInputRouteBuildingFlaw;
  }
  if (!divergence.simRoutes.empty() && divergence.realRoutes.empty()) {
    explanation = "simulation produced a route the live network lacks: "
                  "suspected simulation implementation bug";
    return IssueCategory::kSimImplementationBug;
  }
  if (!(divergence.simMatchedPrefix == divergence.realMatchedPrefix)) {
    explanation = "LPM resolves to different prefixes (sim " +
                  divergence.simMatchedPrefix.str() + " vs real " +
                  divergence.realMatchedPrefix.str() +
                  "): suspected route-simulation inaccuracy";
    return IssueCategory::kSimImplementationBug;
  }
  explanation = "same prefix, different nexthop set: suspected vendor-specific "
                "behaviour or unmodelled feature on " +
                Names::str(divergence.device);
  return IssueCategory::kVendorSpecificBehavior;
}

}  // namespace

std::string issueCategoryName(IssueCategory category) {
  switch (category) {
    case IssueCategory::kRouteMonitoringData: return "route-monitoring-data";
    case IssueCategory::kTrafficMonitoringData: return "traffic-monitoring-data";
    case IssueCategory::kTopologyData: return "topology-data";
    case IssueCategory::kConfigParsingFlaw: return "config-parsing-flaw";
    case IssueCategory::kInputRouteBuildingFlaw: return "input-route-building-flaw";
    case IssueCategory::kSimImplementationBug: return "sim-implementation-bug";
    case IssueCategory::kVendorSpecificBehavior: return "vendor-specific-behavior";
    case IssueCategory::kUnmodeledFeature: return "unmodeled-feature";
    case IssueCategory::kBgpNondeterminism: return "bgp-nondeterminism";
    case IssueCategory::kOther: return "other";
  }
  return "?";
}

std::string RootCauseFinding::str() const {
  std::string out = "link " + link.str();
  if (suspectFlow) out += "\n  suspect flow: " + suspectFlow->str();
  if (divergence) out += "\n  divergence: " + divergence->description;
  out += "\n  classification: " + issueCategoryName(classification);
  out += "\n  " + explanation;
  return out;
}

std::vector<RootCauseFinding> analyzeLoadInaccuracies(
    const NetworkModel& model, const NetworkRibs& simRibs, const NetworkRibs& realRibs,
    std::span<const Flow> flows, const LoadAccuracyReport& report, size_t maxFindings,
    const obs::ProvenanceRecorder* provenance) {
  if (provenance && !provenance->enabled()) provenance = nullptr;
  obs::Telemetry& tel = obs::Telemetry::resolve(nullptr);
  obs::Span span = tel.tracer().span("diag.root_cause", "diag");
  span.arg("inaccurate_links", std::to_string(report.inaccurateLinks.size()));
  std::vector<RootCauseFinding> findings;
  for (const LinkLoadDelta& link : report.inaccurateLinks) {
    if (findings.size() >= maxFindings) break;
    RootCauseFinding finding;
    finding.link = link;

    // Step (2): largest-volume flow traversing the link in the *real*
    // network (the link is under-simulated) or the simulated one (over-
    // simulated). We re-forward each flow to test traversal — Hoyan uses its
    // stored per-flow paths; volumes are small enough here to recompute.
    double bestVolume = -1;
    for (const Flow& flow : flows) {
      const FlowPath realPath = simulateSingleFlow(model, realRibs, flow);
      const FlowPath simPath = simulateSingleFlow(model, simRibs, flow);
      const bool onLink =
          realPath.usesLink(link.from, link.to) || simPath.usesLink(link.from, link.to);
      if (!onLink || flow.volumeBps <= bestVolume) continue;
      bestVolume = flow.volumeBps;
      finding.suspectFlow = flow;
      finding.realPath = realPath;
      finding.simPath = simPath;
    }
    if (!finding.suspectFlow) {
      finding.classification = IssueCategory::kTrafficMonitoringData;
      finding.explanation =
          "no monitored flow explains the load on this link: suspected "
          "traffic-monitoring volume inaccuracy (NetFlow bug or SNMP noise)";
      findings.push_back(std::move(finding));
      continue;
    }

    // The propagation graph of the suspect prefix: from provenance when the
    // simulation recorded it (denials and withdraws included), else
    // reconstructed from the simulated RIBs' learnedFrom pointers.
    Prefix suspectPrefix;
    {
      const DeviceRib* deviceRib = simRibs.findDevice(link.from);
      const VrfRib* vrfRib =
          deviceRib ? deviceRib->findVrf(finding.suspectFlow->vrf) : nullptr;
      const auto matched =
          vrfRib ? vrfRib->longestMatchPrefix(finding.suspectFlow->dst) : std::nullopt;
      if (matched) suspectPrefix = *matched;
    }
    const PropagationGraph graph =
        provenance ? PropagationGraph::fromProvenance(provenance->snapshot())
                   : PropagationGraph::fromRibs(simRibs, suspectPrefix);
    finding.propagationDot = graph.toDot();
    finding.propagationJson = graph.toJson();

    // Step (4): walk the propagation graph breadth-first from the router at
    // the identified link (so the first divergence found is the one closest
    // to the symptom), then any path devices the graph missed, comparing
    // forwarding behaviour at each.
    std::vector<NameId> order = graph.walkOrder(link.from);
    if (order.empty()) order.push_back(link.from);
    for (const NameId device : finding.realPath.devicesVisited())
      if (std::find(order.begin(), order.end(), device) == order.end())
        order.push_back(device);
    for (const NameId device : finding.simPath.devicesVisited())
      if (std::find(order.begin(), order.end(), device) == order.end())
        order.push_back(device);
    for (const NameId device : order) {
      const auto divergence =
          compareForwarding(simRibs, realRibs, device, *finding.suspectFlow);
      if (divergence) {
        finding.divergence = divergence;
        finding.classification =
            classifyDivergence(model, *divergence, finding.explanation);
        // Step (5): hand the expert the divergent device's decision chain.
        if (provenance) {
          const Prefix explainPrefix = !(divergence->simMatchedPrefix == Prefix{})
                                           ? divergence->simMatchedPrefix
                                           : suspectPrefix;
          finding.provenanceExplainJson =
              provenance->explainJson(divergence->device, explainPrefix);
        }
        break;
      }
    }
    if (!finding.divergence) {
      finding.classification = IssueCategory::kTrafficMonitoringData;
      finding.explanation =
          "forwarding behaviour agrees on every device the flow touches: the "
          "volume itself is wrong — suspected traffic-monitoring data issue";
    }
    findings.push_back(std::move(finding));
  }
  tel.metrics().counter("diag.root_cause_findings").add(findings.size());
  return findings;
}

std::vector<IssueCategory> classifyIssues(const DiagnosisInputs& inputs) {
  std::vector<IssueCategory> out;
  // Strong signals first: a device contributing nothing is a dead agent; a
  // stale topology feed explains any downstream route difference; live
  // cross-validation findings point at modelling (VSB) gaps.
  if (inputs.routeReport && inputs.routeReport->devicesMissingEntirely > 0)
    out.push_back(IssueCategory::kRouteMonitoringData);
  if (inputs.topologyFeedMismatch) out.push_back(IssueCategory::kTopologyData);
  if (inputs.liveCrossValidation && !inputs.liveCrossValidation->empty())
    out.push_back(IssueCategory::kVendorSpecificBehavior);
  if (inputs.inputRulesSuspicious > 0)
    out.push_back(IssueCategory::kInputRouteBuildingFlaw);
  if (inputs.routeReport) {
    size_t missing = 0, extra = 0, mismatched = 0;
    for (const RouteDiscrepancy& discrepancy : inputs.routeReport->discrepancies) {
      switch (discrepancy.kind) {
        case RouteDiscrepancy::Kind::kMissingInSimulation: ++missing; break;
        case RouteDiscrepancy::Kind::kExtraInSimulation: ++extra; break;
        case RouteDiscrepancy::Kind::kAttributeMismatch: ++mismatched; break;
      }
    }
    if (missing > 0) out.push_back(IssueCategory::kInputRouteBuildingFlaw);
    if (extra > 0 || mismatched > 0) out.push_back(IssueCategory::kSimImplementationBug);
  }
  if (inputs.loadReport && !inputs.loadReport->inaccurateLinks.empty())
    out.push_back(IssueCategory::kTrafficMonitoringData);
  if (inputs.configParseErrors > 0) out.push_back(IssueCategory::kConfigParsingFlaw);
  if (inputs.simulationDiverged) out.push_back(IssueCategory::kBgpNondeterminism);
  // Deduplicate, preserving order.
  std::vector<IssueCategory> unique;
  for (const IssueCategory category : out)
    if (std::find(unique.begin(), unique.end(), category) == unique.end())
      unique.push_back(category);
  return unique;
}

}  // namespace hoyan
