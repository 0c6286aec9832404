// Hoyan's distributed simulation framework (§3.2).
//
// A simulation task is split by the master into subtasks over disjoint input
// subsets; subtask descriptors travel through a message queue to working
// servers (threads of the job executor, job_runner.h), inputs/results through
// the object store, status through the subtask database. The executor retries
// failures; the master merges results.
//
// The *ordering heuristic*: input routes are pre-sorted by the last address
// of their prefix and split contiguously, each route subtask recording the
// address range its results cover; input flows are pre-sorted by destination
// and split contiguously, so a traffic subtask only loads the route result
// files whose recorded range overlaps its own destination range. A random
// split (for comparison, Fig. 5(d)) makes every traffic subtask depend on
// nearly every route subtask; `loadAllRibs` is the paper's "baseline" that
// skips dependency pruning entirely (Fig. 5(b)).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/object_store.h"
#include "dist/subtask_cache.h"
#include "dist/subtask_db.h"
#include "net/flow.h"
#include "net/route.h"
#include "obs/telemetry.h"
#include "proto/network_model.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"

namespace hoyan {

enum class SplitStrategy : uint8_t {
  kOrdering,  // Sort by last-address / destination, split contiguously.
  kRandom,    // Shuffle, split contiguously (comparison strategy).
};

struct DistSimOptions {
  size_t workers = 4;
  size_t routeSubtasks = 100;    // Matches the paper's WAN runs.
  size_t trafficSubtasks = 128;  // Chosen to evenly split the flows.
  SplitStrategy strategy = SplitStrategy::kOrdering;
  bool loadAllRibs = false;  // Baseline: ignore recorded ranges, load all.
  // Fault injection: probability that a worker crashes mid-subtask, and the
  // retry cap the master enforces when re-queueing.
  double workerFailureProbability = 0;
  uint64_t failureSeed = 1;
  int maxAttempts = 3;
  RouteSimOptions routeOptions;
  TrafficSimOptions trafficOptions;
  // Observability context for the whole run: master/worker lifecycle spans,
  // queue and store gauges, retry counters, the journal and the run registry
  // it feeds, and the provenance recorder when `routeOptions.provenance` is
  // unset. Resolved by Telemetry::resolve (null: the process global, else
  // the disabled context).
  obs::Telemetry* telemetry = nullptr;
  // External object store shared across runs (the incremental engine's
  // persistent store). Null = the simulator owns a private store, as before.
  ObjectStore* store = nullptr;
  // Content-addressed result cache (src/incr). Null = every subtask runs.
  // Bypassed (with `noteBypass`) when provenance recording is active: cached
  // subtasks cannot replay their decision events.
  SubtaskResultCache* cache = nullptr;
  // Cross-run sorted-order cache for the split loops (src/incr). Null = sort
  // per run, as before. Only consulted under SplitStrategy::kOrdering.
  SplitPlanCache* splitCache = nullptr;
  // Namespace for this run's transient blobs (subtask inputs, provenance
  // logs, uncached results) inside a shared store, e.g. "run7/"; the engine
  // erases the prefix after the run. Cached result blobs are stored under
  // their content keys, outside the prefix.
  std::string keyPrefix;
};

struct SubtaskMetric {
  std::string id;
  double seconds = 0;
  int attempts = 1;
  size_t ribFilesLoaded = 0;
  size_t ribFilesTotal = 0;
  bool fromCache = false;  // Served from the result cache, never queued.
};

struct DistRouteResult {
  NetworkRibs ribs;  // Merged, re-selected, forwarding index built.
  RouteSimStats stats;
  std::vector<SubtaskMetric> subtasks;
  double elapsedSeconds = 0;
  double splitSeconds = 0;  // Master: ordering + splitting + uploading inputs.
  double mergeSeconds = 0;  // Master: merging results + re-selection + index.
  size_t retries = 0;
  bool succeeded = true;
  // Subtask ids that exhausted maxAttempts (paired with succeeded=false).
  std::vector<std::string> failedSubtasks;
  size_t cacheHits = 0;  // Subtasks served from the result cache.
};

struct DistTrafficResult {
  LinkLoadMap linkLoads;
  TrafficSimStats stats;
  std::vector<SubtaskMetric> subtasks;
  double elapsedSeconds = 0;
  double splitSeconds = 0;  // Master: ordering + splitting + uploading inputs.
  size_t retries = 0;
  bool succeeded = true;
  size_t storeBytesRead = 0;  // Object-store traffic (dependency-pruning win).
  // Subtask ids that exhausted maxAttempts (paired with succeeded=false).
  std::vector<std::string> failedSubtasks;
  size_t cacheHits = 0;  // Subtasks served from the result cache.
};

// Runs one simulation task (route, then optionally traffic) on an in-process
// worker pool. Route results stay in the object store between the phases, so
// the traffic phase can exercise the dependency-pruning path exactly as the
// paper describes.
class DistributedSimulator {
 public:
  DistributedSimulator(const NetworkModel& model, DistSimOptions options);

  DistRouteResult runRouteSimulation(std::span<const InputRoute> inputs);

  // Requires a prior successful runRouteSimulation (its per-subtask results
  // are still in the store).
  DistTrafficResult runTrafficSimulation(std::span<const Flow> flows);

  const SubtaskDb& db() const { return db_; }
  const ObjectStore& store() const { return *store_; }
  // Result keys of the last successful route run, in merge order (the last
  // one is the local-routes subtask). The incremental engine keys cached
  // GlobalRib fragments off these.
  const std::vector<std::string>& routeResultKeys() const { return routeResultKeys_; }
  // The context this run reports into (possibly the process-wide disabled
  // instance).
  obs::Telemetry& telemetry() const { return telemetry_; }

 private:
  const NetworkModel& model_;
  DistSimOptions options_;
  obs::Telemetry& telemetry_;  // Telemetry::resolve(options.telemetry).
  ObjectStore ownStore_;       // Used when options.store is null.
  ObjectStore* store_;         // Resolved: options -> ownStore_.
  SubtaskDb db_;
  std::vector<std::string> routeResultKeys_;  // Ordered; last is local-routes.
};

}  // namespace hoyan
