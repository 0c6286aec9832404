// The traced run's change verification: `Hoyan::verifyChange` rebuilt from
// the program's public calls, with each call timed from here. Nothing is
// added to the program; the only program spans read are the existing
// `traffic.subtask.load_ribs` spans, recorded into a tracing bundle the
// simulator gets per plan.
//
// The calls, in verifyChange's order:
//   1. Hoyan::buildUpdatedModel (+ the updated input-route set)
//   2. IncrementalEngine::beginRun                       (engine on)
//   3. DistributedSimulator::runRouteSimulation
//   4. NetworkRibs::buildForwardingIndex                 (a second FIB build:
//      the route merge already built one)
//   5. DistributedSimulator::runTrafficSimulation
//   6. IncrementalEngine::buildGlobalRib                 (engine on) or
//      rcl::GlobalRib::fromNetworkRibs                   (engine off)
//   7. rcl::checkIntentText, every RCL intent of the plan
//   8. checkLinkLoads
//   9. IncrementalEngine::endRun                         (engine on)
//  10. freeing the simulator, updated model and input set, which
//      verifyChange does on return (the RIBs and loads it returns are the
//      caller's to free, here as there)
// The plan streams carry no path intents, so checkPathChange is not called.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hoyan.h"

namespace hoyanbench {

// A change verification's result, reduced to three hashes: the post-change
// global RIB's rows (rendered, in table order), the link loads (sorted by
// link, exact bits), and the RCL outcomes (verdict and summary).
struct PlanDigest {
  uint64_t ribRows = 0;
  uint64_t linkLoads = 0;
  uint64_t rcl = 0;
  bool operator==(const PlanDigest&) const = default;
};

PlanDigest digestResult(const hoyan::rcl::GlobalRib& rib,
                        const hoyan::LinkLoadMap& loads,
                        const std::vector<hoyan::RclOutcome>& outcomes);
// Renders the result's global RIB from its updated RIBs first.
PlanDigest digestResult(const hoyan::ChangeVerificationResult& result);

// One simulation phase as the DistributedSimulator reported it.
struct PhaseLedger {
  double seconds = 0;       // The runXxxSimulation call, as timed here.
  double splitSeconds = 0;  // Master split (DistXxxResult::splitSeconds).
  double mergeSeconds = 0;  // Master merge (route phase only).
  double execSeconds = 0;   // seconds - split - merge: the worker window.
  size_t subtasks = 0;
  size_t cacheHits = 0;
  size_t subtasksRun = 0;       // Executed this run, not served from cache.
  double busySeconds = 0;       // Sum of executed subtasks' seconds.
  double maxSubtaskSeconds = 0; // Longest executed subtask.
  size_t retries = 0;
  bool succeeded = true;
  // True when no simulating subtask was served from cache. Only then do the
  // phase's RouteSimStats/TrafficSimStats describe this run: a cache hit
  // adds the stats its original execution stored. (The route phase's
  // local-routes subtask stores empty stats, so its hit does not count.)
  bool freshStats = true;
};

struct StepTimes {
  double modelBuild = 0;       // 1
  double beginRun = 0;         // 2
  double route = 0;            // 3
  double forwardingIndex = 0;  // 4
  double traffic = 0;          // 5
  double globalRib = 0;        // 6
  double rclCheck = 0;         // 7
  double loadCheck = 0;        // 8
  double endRun = 0;           // 9
  double teardown = 0;         // 10

  double sum() const {
    return modelBuild + beginRun + route + forwardingIndex + traffic + globalRib +
           rclCheck + loadCheck + endRun + teardown;
  }
};

struct TracedPlan {
  double wallSeconds = 0;  // Start of step 1 to end of step 10.
  StepTimes steps;
  bool incremental = false;
  bool allDirty = false;  // ChangeImpact::allDirty (engine on).
  size_t rowsReused = 0;  // lastRibAssembly() (engine on).
  size_t rowsRendered = 0;
  size_t ribRows = 0;     // Rows of the post-change global RIB.

  PhaseLedger route;
  PhaseLedger traffic;
  hoyan::RouteSimStats routeStats;
  hoyan::TrafficSimStats trafficStats;
  double loadRibsSeconds = 0;  // Sum of traffic.subtask.load_ribs spans.
  size_t ribFilesLoaded = 0;   // Over executed traffic subtasks.
  size_t storeBytesRead = 0;   // DistTrafficResult::storeBytesRead.

  // The outcome, as verifyChange would report it.
  std::vector<hoyan::ParseError> commandErrors;
  std::vector<hoyan::RclOutcome> rclOutcomes;
  std::vector<hoyan::LoadViolation> loadViolations;
  PlanDigest digest;  // Computed after step 10, outside the wall time.
};

// Verifies `plan` on `hoyan` (preprocessed) through the ten steps above.
// `options` must be the simulation options `hoyan` was given; the engine,
// when enabled on `hoyan`, is used exactly as verifyChange uses it.
TracedPlan runTracedPlan(hoyan::Hoyan& hoyan, const hoyan::DistSimOptions& options,
                         const hoyan::ChangePlan& plan, const hoyan::IntentSet& intents);

}  // namespace hoyanbench
