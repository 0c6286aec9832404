#include "diag/injection.h"

#include <algorithm>

#include "config/parser.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"

namespace hoyan {
namespace {

// The paper's §5.3 grouping of Table-4 rows: monitoring data (rows 1-3),
// input pre-processing (rows 4-5), simulation implementation (rows 6-9).
int issueClassOf(IssueCategory category) {
  switch (category) {
    case IssueCategory::kRouteMonitoringData:
    case IssueCategory::kTrafficMonitoringData:
    case IssueCategory::kTopologyData:
      return 0;  // Monitoring data.
    case IssueCategory::kConfigParsingFlaw:
    case IssueCategory::kInputRouteBuildingFlaw:
      return 1;  // Input pre-processing.
    case IssueCategory::kSimImplementationBug:
    case IssueCategory::kVendorSpecificBehavior:
    case IssueCategory::kUnmodeledFeature:
    case IssueCategory::kBgpNondeterminism:
      return 2;  // Simulation implementation.
    case IssueCategory::kOther:
      return 3;
  }
  return 3;
}

struct Experiment {
  GeneratedWan wan;
  NetworkModel model;  // Hoyan's (possibly perturbed) model.
  NetworkModel live;   // The live network's true semantics.
  std::vector<InputRoute> inputs;      // Hoyan's (possibly perturbed) inputs.
  std::vector<InputRoute> liveInputs;  // The real injected routes.
  std::vector<Flow> flows;             // Hoyan's (possibly perturbed) flows.
  std::vector<Flow> liveFlows;
};

Experiment makeCleanExperiment(unsigned variant) {
  Experiment experiment;
  WanSpec spec;
  spec.regions = 2;
  spec.coresPerRegion = 2;
  spec.dcsPerRegion = 1;
  spec.seed = 100 + variant;
  experiment.wan = generateWan(spec);
  experiment.model = experiment.wan.buildModel();
  experiment.live = experiment.wan.buildModel();
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  workload.prefixesPerDc = 4;
  workload.v6Share = 0;
  workload.seed = 200 + variant;
  experiment.inputs = generateInputRoutes(experiment.wan, workload);
  experiment.liveInputs = experiment.inputs;
  // A few heavy flows so load deltas clear the 10%-of-bandwidth threshold on
  // 100G links.
  for (int i = 0; i < 4; ++i) {
    Flow flow;
    flow.ingressDevice = experiment.wan.dcGateways[variant % 2];
    flow.src = *IpAddress::parse("20.0.0." + std::to_string(i + 2));
    flow.dst = *IpAddress::parse("100.1.2." + std::to_string(i + 2));
    flow.dstPort = 80;
    flow.volumeBps = 30e9;
    experiment.flows.push_back(flow);
  }
  experiment.liveFlows = experiment.flows;
  return experiment;
}

struct ExperimentResult {
  NetworkRibs simRibs;
  NetworkRibs liveRibs;
  LinkLoadMap simLoads;
  LinkLoadMap liveLoads;
  bool simConverged = true;
};

ExperimentResult runSimulations(Experiment& experiment, int maxRounds = 20) {
  ExperimentResult result;
  RouteSimOptions options;
  options.maxRounds = maxRounds;
  RouteSimResult sim = simulateCentralized(experiment.model, experiment.inputs, options);
  result.simConverged = sim.stats.converged;
  result.simRibs = std::move(sim.ribs);
  result.liveRibs = simulateCentralized(experiment.live, experiment.liveInputs).ribs;
  result.simLoads =
      simulateTraffic(experiment.model, result.simRibs, experiment.flows).linkLoads;
  result.liveLoads =
      simulateTraffic(experiment.live, result.liveRibs, experiment.liveFlows).linkLoads;
  return result;
}

InjectionOutcome finish(IssueCategory injected, const DiagnosisInputs& inputs,
                        std::string detail) {
  InjectionOutcome outcome;
  outcome.injected = injected;
  const std::vector<IssueCategory> classified = classifyIssues(inputs);
  outcome.detected = !classified.empty();
  if (!classified.empty()) outcome.classifiedAs = classified.front();
  outcome.classifiedCorrectly =
      outcome.detected && (injected == IssueCategory::kOther ||
                           issueClassOf(outcome.classifiedAs) == issueClassOf(injected));
  outcome.detail = std::move(detail);
  return outcome;
}

}  // namespace

InjectionOutcome runInjectionExperiment(IssueCategory category, unsigned variant) {
  Experiment experiment = makeCleanExperiment(variant);
  DiagnosisInputs diagnosis;
  RouteAccuracyReport routeReport;
  LoadAccuracyReport loadReport;
  std::vector<RouteDiscrepancy> crossValidation;

  switch (category) {
    case IssueCategory::kRouteMonitoringData: {
      // A BGP agent died: one core contributes nothing to monitoring.
      const ExperimentResult result = runSimulations(experiment);
      RouteMonitorOptions monitorOptions;
      monitorOptions.failedAgents.insert(
          experiment.wan.cores[variant % experiment.wan.cores.size()]);
      const NetworkRibs monitored =
          collectMonitoredRoutes(experiment.live, result.liveRibs, monitorOptions);
      routeReport = compareRoutes(result.simRibs, monitored, monitorOptions);
      diagnosis.routeReport = &routeReport;
      return finish(category, diagnosis,
                    "failed agent on " +
                        Names::str(experiment.wan.cores[variant % experiment.wan.cores.size()]));
    }
    case IssueCategory::kTrafficMonitoringData: {
      // A NetFlow exporter under-reports volumes by half: Hoyan's input
      // flows carry the wrong volume, so simulated loads undershoot SNMP.
      TrafficMonitorOptions monitorOptions;
      monitorOptions.netflowVolumeScale[experiment.flows.front().ingressDevice] = 0.5;
      const auto records = collectNetflowRecords(experiment.liveFlows, monitorOptions);
      experiment.flows.clear();
      for (const NetflowRecord& record : records) experiment.flows.push_back(record.flow);
      const ExperimentResult result = runSimulations(experiment);
      const auto monitoredLoads = collectMonitoredLinkLoads(result.liveLoads);
      loadReport = compareLinkLoads(experiment.model.topology, result.simLoads,
                                    monitoredLoads);
      diagnosis.loadReport = &loadReport;
      return finish(category, diagnosis,
                    std::to_string(loadReport.inaccurateLinks.size()) +
                        " link(s) with bad load");
    }
    case IssueCategory::kTopologyData: {
      // The topology feed reports a failed link as up: Hoyan's model routes
      // over a link the live network cannot use.
      const NameId coreA = experiment.wan.cores[0];
      const NameId coreB = experiment.wan.cores[1];
      experiment.live.topology.setLinkState(coreA, coreB, false);
      experiment.live.rebuildDerived();
      const Topology feed = collectMonitoredTopology(experiment.live.topology,
                                                     /*hideLinkFailures=*/true);
      // Hoyan builds its model from the feed (all links up).
      const ExperimentResult result = runSimulations(experiment);
      const RouteMonitorOptions monitorOptions;
      const NetworkRibs monitored =
          collectMonitoredRoutes(experiment.live, result.liveRibs, monitorOptions);
      routeReport = compareRoutes(result.simRibs, monitored, monitorOptions);
      // The framework cross-checks the feed against link-state telemetry.
      bool feedMismatch = false;
      for (size_t i = 0; i < feed.links().size(); ++i)
        if (feed.links()[i].up != experiment.live.topology.links()[i].up)
          feedMismatch = true;
      diagnosis.routeReport = &routeReport;
      diagnosis.topologyFeedMismatch = feedMismatch;
      return finish(category, diagnosis, "hidden link failure between cores");
    }
    case IssueCategory::kConfigParsingFlaw: {
      // A vendor introduces syntax Hoyan's parser does not understand.
      const std::string text =
          "hostname X\nnew-fangled-feature enable\nrouter bgp 64512\n";
      const ParseResult parsed = parseDeviceConfig(text);
      diagnosis.configParseErrors = parsed.errors.size();
      return finish(category, diagnosis,
                    std::to_string(parsed.errors.size()) + " parse error(s)");
    }
    case IssueCategory::kInputRouteBuildingFlaw: {
      // The pre-defined rule "discard inputs with an empty AS path"
      // mistakenly drops DC aggregates (the paper's example).
      std::erase_if(experiment.inputs, [](const InputRoute& input) {
        return input.route.attrs.asPath.empty();
      });
      const ExperimentResult result = runSimulations(experiment);
      const RouteMonitorOptions monitorOptions;
      const NetworkRibs monitored =
          collectMonitoredRoutes(experiment.live, result.liveRibs, monitorOptions);
      routeReport = compareRoutes(result.simRibs, monitored, monitorOptions);
      diagnosis.routeReport = &routeReport;
      diagnosis.inputRulesSuspicious =
          experiment.liveInputs.size() - experiment.inputs.size();
      return finish(category, diagnosis,
                    std::to_string(diagnosis.inputRulesSuspicious) +
                        " inputs dropped by the empty-AS-path rule");
    }
    case IssueCategory::kSimImplementationBug: {
      // Hoyan's (emulated) AS-path regex bug: the live border denies routes
      // matching _65000_, but the buggy matcher never fires, so simulated
      // RIBs keep routes the live network rejects.
      const size_t borderIndex = variant % experiment.wan.borders.size();
      const NameId border = experiment.wan.borders[borderIndex];
      DeviceConfig& liveBorder = experiment.live.configs.device(border);
      AsPathList list;
      list.name = Names::id("UPSTREAM-BLOCK");
      // The border's own peer ASN: matches every route from that ISP.
      list.entries.push_back(
          {true, "_" + std::to_string(experiment.wan.externalAsns[borderIndex]) + "_"});
      liveBorder.asPathLists.emplace(list.name, list);
      RoutePolicy& livePolicy =
          liveBorder.routePolicy(Names::id("ISP-IN-" + std::to_string(borderIndex)));
      PolicyNode deny;
      deny.sequence = 6;
      deny.action = PolicyAction::kDeny;
      deny.match.asPathList = list.name;
      livePolicy.upsertNode(deny);
      experiment.live.rebuildDerived();
      const ExperimentResult result = runSimulations(experiment);
      const RouteMonitorOptions monitorOptions;
      const NetworkRibs monitored =
          collectMonitoredRoutes(experiment.live, result.liveRibs, monitorOptions);
      routeReport = compareRoutes(result.simRibs, monitored, monitorOptions);
      diagnosis.routeReport = &routeReport;
      return finish(category, diagnosis,
                    std::to_string(routeReport.discrepancies.size()) +
                        " discrepancy(ies) from the regex bug");
    }
    case IssueCategory::kVendorSpecificBehavior: {
      // Fig. 9: the live core zeroes IGP cost for SR destinations; Hoyan's
      // model does not. Cross-validation of a selected prefix against the
      // live network exposes the different ECMP sets.
      const NameId core = experiment.wan.cores[0];
      const NameId border = experiment.wan.borders[1 % experiment.wan.borders.size()];
      const Device* borderDevice = experiment.live.topology.findDevice(border);
      SrPolicyConfig sr;
      sr.name = Names::id("SR-INJ");
      sr.endpoint = borderDevice->loopback;
      experiment.live.configs.device(core).srPolicies.push_back(sr);
      experiment.model.configs.device(core).srPolicies.push_back(sr);
      // Live vendor honours the VSB; Hoyan's model vendor does not.
      experiment.live.configs.device(core).vendor = vendorA().name;
      experiment.model.configs.device(core).vendor = vendorB().name;
      experiment.live.rebuildDerived();
      experiment.model.rebuildDerived();
      const ExperimentResult result = runSimulations(experiment);
      // `show` the high-priority prefixes on the live network.
      std::vector<Prefix> selected;
      for (int i = 0; i < 8; ++i)
        selected.push_back(*Prefix::parse("100.1." + std::to_string(i) + ".0/24"));
      crossValidation = crossValidateWithLive(result.simRibs, result.liveRibs, selected);
      diagnosis.liveCrossValidation = &crossValidation;
      return finish(category, diagnosis,
                    std::to_string(crossValidation.size()) +
                        " cross-validation finding(s)");
    }
    case IssueCategory::kUnmodeledFeature: {
      // Hoyan does not model SR at all (the pre-2023 IS-IS-TE situation):
      // the live network tunnels, the simulation routes plainly.
      const NameId core = experiment.wan.cores[0];
      const Device* borderDevice =
          experiment.live.topology.findDevice(experiment.wan.borders[1]);
      SrPolicyConfig sr;
      sr.name = Names::id("SR-UNMODELED");
      sr.endpoint = borderDevice->loopback;
      experiment.live.configs.device(core).srPolicies.push_back(sr);
      experiment.live.configs.device(core).vendor = vendorA().name;
      experiment.live.rebuildDerived();
      const ExperimentResult result = runSimulations(experiment);
      std::vector<Prefix> selected;
      for (int i = 0; i < 8; ++i)
        selected.push_back(*Prefix::parse("100.1." + std::to_string(i) + ".0/24"));
      crossValidation = crossValidateWithLive(result.simRibs, result.liveRibs, selected);
      diagnosis.liveCrossValidation = &crossValidation;
      return finish(category, diagnosis, "live network uses unmodelled SR-TE");
    }
    case IssueCategory::kBgpNondeterminism: {
      // The fixpoint fails to converge within the round budget — multiple
      // BGP states are possible (the fundamental limitation of §5.3).
      const ExperimentResult result = runSimulations(experiment, /*maxRounds=*/1);
      diagnosis.simulationDiverged = !result.simConverged;
      return finish(category, diagnosis, "fixpoint hit the round cap");
    }
    case IssueCategory::kOther: {
      // Unattributed SNMP noise beyond the reporting threshold.
      const ExperimentResult result = runSimulations(experiment);
      TrafficMonitorOptions monitorOptions;
      monitorOptions.snmpNoise = 0.5;
      monitorOptions.noiseSeed = variant + 1;
      const auto monitoredLoads =
          collectMonitoredLinkLoads(result.liveLoads, monitorOptions);
      loadReport = compareLinkLoads(experiment.model.topology, result.simLoads,
                                    monitoredLoads);
      diagnosis.loadReport = &loadReport;
      return finish(category, diagnosis, "heavy SNMP counter noise");
    }
  }
  return finish(category, diagnosis, "unhandled category");
}

std::vector<std::pair<IssueCategory, int>> table4Mix() {
  return {
      {IssueCategory::kRouteMonitoringData, 12},    // 23.08%
      {IssueCategory::kTrafficMonitoringData, 10},  // 19.28%
      {IssueCategory::kTopologyData, 6},            // 11.54%
      {IssueCategory::kConfigParsingFlaw, 5},       //  9.62%
      {IssueCategory::kInputRouteBuildingFlaw, 5},  //  9.62%
      {IssueCategory::kSimImplementationBug, 4},    //  7.69%
      {IssueCategory::kVendorSpecificBehavior, 3},  //  5.77%
      {IssueCategory::kUnmodeledFeature, 2},        //  3.85%
      {IssueCategory::kBgpNondeterminism, 1},       //  1.92%
      {IssueCategory::kOther, 4},                   //  7.69%
  };
}

std::vector<InjectionOutcome> runTable4Campaign() {
  std::vector<InjectionOutcome> outcomes;
  for (const auto& [category, count] : table4Mix())
    for (int variant = 0; variant < count; ++variant)
      outcomes.push_back(runInjectionExperiment(category, static_cast<unsigned>(variant)));
  return outcomes;
}

}  // namespace hoyan
