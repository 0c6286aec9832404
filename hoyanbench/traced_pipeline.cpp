#include "traced_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "incr/fingerprint.h"
#include "rcl/global_rib.h"
#include "verify/properties.h"

namespace hoyanbench {

using namespace hoyan;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The input set verifyChange simulates: base inputs minus withdrawals plus
// announcements.
std::vector<InputRoute> updatedInputs(const std::vector<InputRoute>& base,
                                      const ChangePlan& plan) {
  std::vector<InputRoute> inputs = base;
  for (const Prefix& withdrawn : plan.withdrawnPrefixes)
    std::erase_if(inputs, [&](const InputRoute& input) {
      return input.route.prefix == withdrawn;
    });
  for (const auto& [device, withdrawn] : plan.withdrawnInputs)
    std::erase_if(inputs, [&, device = device](const InputRoute& input) {
      return input.device == device && input.route.prefix == withdrawn;
    });
  inputs.insert(inputs.end(), plan.newInputRoutes.begin(), plan.newInputRoutes.end());
  return inputs;
}

void summarize(PhaseLedger& phase, const std::vector<SubtaskMetric>& subtasks,
               size_t cacheHits, size_t retries, bool succeeded) {
  phase.subtasks = subtasks.size();
  phase.cacheHits = cacheHits;
  phase.retries = retries;
  phase.succeeded = succeeded;
  for (const SubtaskMetric& subtask : subtasks) {
    if (subtask.fromCache) {
      if (subtask.id != "route-local") phase.freshStats = false;
      continue;
    }
    ++phase.subtasksRun;
    phase.busySeconds += subtask.seconds;
    phase.maxSubtaskSeconds = std::max(phase.maxSubtaskSeconds, subtask.seconds);
  }
  phase.execSeconds =
      std::max(0.0, phase.seconds - phase.splitSeconds - phase.mergeSeconds);
}

}  // namespace

PlanDigest digestResult(const rcl::GlobalRib& rib, const LinkLoadMap& loads,
                        const std::vector<RclOutcome>& outcomes) {
  PlanDigest digest;
  incr::Fnv1a rows;
  for (const rcl::RibRow& row : rib.rows()) rows.mix(row.str());
  digest.ribRows = rows.digest();

  struct Load {
    std::string from, to;
    double bps;
  };
  std::vector<Load> sorted;
  for (const LinkLoadMap::Entry& entry : loads.entries())
    sorted.push_back({Names::str(entry.from), Names::str(entry.to), entry.bps});
  std::sort(sorted.begin(), sorted.end(), [](const Load& a, const Load& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  incr::Fnv1a linkLoads;
  for (const Load& load : sorted) {
    uint64_t bits = 0;
    std::memcpy(&bits, &load.bps, sizeof bits);
    linkLoads.mix(load.from).mix(load.to).mix(bits);
  }
  digest.linkLoads = linkLoads.digest();

  incr::Fnv1a rcl;
  for (const RclOutcome& outcome : outcomes)
    rcl.mix(outcome.specification)
        .mix(static_cast<uint64_t>(outcome.result.satisfied ? 1 : 0))
        .mix(outcome.result.summary());
  digest.rcl = rcl.digest();
  return digest;
}

PlanDigest digestResult(const ChangeVerificationResult& result) {
  return digestResult(rcl::GlobalRib::fromNetworkRibs(result.updatedRibs),
                      result.updatedLinkLoads, result.rclOutcomes);
}

TracedPlan runTracedPlan(Hoyan& hoyan, const DistSimOptions& options,
                         const ChangePlan& plan, const IntentSet& intents) {
  TracedPlan out;
  // A fresh tracing bundle per plan, so its spans are this plan's alone.
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.tracing = true;
  obs::Telemetry telemetry(telemetryOptions);
  DistSimOptions runOptions = options;
  runOptions.telemetry = &telemetry;
  incr::IncrementalEngine* engine = hoyan.incremental();
  out.incremental = engine != nullptr;

  const Clock::time_point t0 = Clock::now();
  // 1. Updated model and input set.
  auto updated = std::make_unique<NetworkModel>(
      hoyan.buildUpdatedModel(plan, &out.commandErrors));
  std::vector<InputRoute> inputs = updatedInputs(hoyan.inputRoutes(), plan);
  const Clock::time_point t1 = Clock::now();
  // 2. Change impact, fingerprints, cache wiring.
  if (engine) out.allDirty = engine->beginRun(*updated, runOptions).allDirty;
  const Clock::time_point t2 = Clock::now();
  // 3. Route phase.
  auto simulator = std::make_unique<DistributedSimulator>(*updated, runOptions);
  DistRouteResult routes = simulator->runRouteSimulation(inputs);
  const Clock::time_point t3 = Clock::now();
  // 4. The FIB verifyChange rebuilds over the merged RIBs.
  NetworkRibs ribs = std::move(routes.ribs);
  ribs.buildForwardingIndex();
  const Clock::time_point t4 = Clock::now();
  // 5. Traffic phase.
  DistTrafficResult traffic;
  const bool runTraffic = !hoyan.inputFlows().empty() &&
                          (intents.maxLinkUtilization || !intents.pathIntents.empty());
  if (runTraffic) traffic = simulator->runTrafficSimulation(hoyan.inputFlows());
  const Clock::time_point t5 = Clock::now();
  // 6. Post-change global RIB.
  std::shared_ptr<const rcl::GlobalRib> global;
  if (!intents.rclIntents.empty()) {
    if (engine)
      global = engine->buildGlobalRib(ribs, simulator->routeResultKeys());
    else
      global = std::make_shared<const rcl::GlobalRib>(rcl::GlobalRib::fromNetworkRibs(ribs));
  }
  const Clock::time_point t6 = Clock::now();
  // 7. RCL intents.
  for (const std::string& specification : intents.rclIntents) {
    RclOutcome outcome;
    outcome.specification = specification;
    outcome.result = rcl::checkIntentText(specification, hoyan.baseGlobalRib(), *global);
    out.rclOutcomes.push_back(std::move(outcome));
  }
  const Clock::time_point t7 = Clock::now();
  // 8. Load intent.
  if (intents.maxLinkUtilization)
    out.loadViolations =
        checkLinkLoads(updated->topology, traffic.linkLoads, *intents.maxLinkUtilization);
  const Clock::time_point t8 = Clock::now();
  // 9. Drop the run's transient blobs, evict to budget.
  if (engine) engine->endRun();
  const Clock::time_point t9 = Clock::now();
  // 10. What verifyChange frees on return: the simulator (with its private
  // object store when the engine is off), the updated model and input set.
  simulator.reset();
  updated.reset();
  std::vector<InputRoute>().swap(inputs);
  const Clock::time_point t10 = Clock::now();

  out.wallSeconds = secondsBetween(t0, t10);
  out.steps = {secondsBetween(t0, t1), secondsBetween(t1, t2), secondsBetween(t2, t3),
               secondsBetween(t3, t4), secondsBetween(t4, t5), secondsBetween(t5, t6),
               secondsBetween(t6, t7), secondsBetween(t7, t8), secondsBetween(t8, t9),
               secondsBetween(t9, t10)};

  out.route.seconds = out.steps.route;
  out.route.splitSeconds = routes.splitSeconds;
  out.route.mergeSeconds = routes.mergeSeconds;
  summarize(out.route, routes.subtasks, routes.cacheHits, routes.retries,
            routes.succeeded);
  out.routeStats = routes.stats;
  if (runTraffic) {
    out.traffic.seconds = out.steps.traffic;
    out.traffic.splitSeconds = traffic.splitSeconds;
    summarize(out.traffic, traffic.subtasks, traffic.cacheHits, traffic.retries,
              traffic.succeeded);
    out.trafficStats = traffic.stats;
    out.storeBytesRead = traffic.storeBytesRead;
    for (const SubtaskMetric& subtask : traffic.subtasks)
      if (!subtask.fromCache) out.ribFilesLoaded += subtask.ribFilesLoaded;
    for (const obs::TraceEvent& event : telemetry.tracer().events())
      if (event.name == "traffic.subtask.load_ribs")
        out.loadRibsSeconds += static_cast<double>(event.durationMicros) * 1e-6;
  }
  if (engine) {
    out.rowsReused = engine->lastRibAssembly().rowsReused;
    out.rowsRendered = engine->lastRibAssembly().rowsRendered;
  }
  if (global) {
    out.ribRows = global->size();
    out.digest = digestResult(*global, traffic.linkLoads, out.rclOutcomes);
  }
  return out;
}

}  // namespace hoyanbench
