// Hoyan's distributed simulation framework (§3.2).
//
// A simulation task is split by the master into subtasks over disjoint input
// subsets; subtask descriptors travel through a message queue to working
// servers (threads of the job executor, job_runner.h), inputs and results
// through the object store, one blob per subtask result. Each phase tracks
// its subtasks in a job table, one record per executor job, filled at split
// time and settled as the executor reports each job; the live run registry
// (obs/run_registry.h) follows the same lifecycle through the journal. The
// executor retries failures; the master merges results.
//
// The *ordering heuristic*: input routes are pre-sorted by the last address
// of their prefix and split contiguously, each route subtask recording the
// address range its results cover; input flows are pre-sorted by destination
// and split contiguously, so a traffic subtask only loads the route result
// files whose recorded range overlaps its own destination range. The
// pre-sort is `sortForSplit`, done once where the inputs are registered (the
// paper's input building services sort offline); the master splits a sorted
// input in place and sorts a copy of any other. A random split (for
// comparison, Fig. 5(d)) makes every traffic subtask depend on nearly every
// route subtask; `loadAllRibs` is the paper's "baseline" that skips
// dependency pruning entirely (Fig. 5(b)).
//
// What a traffic subtask fetches and what it copies: it fetches every route
// file it loads, the local-routes file (direct, static and IS-IS routes)
// included, so store bytes read and files loaded count all of them. The
// local-routes subtask uploads its file in forwarding form (deduped,
// re-selected, indexed, with its prefix union), and every traffic subtask
// forwards over that one FIB in place, read-only. A subtask copies into its
// own RIB only the routes of its other files, plus the local routes of any
// cell both hold, appended last; it dedupes, re-selects and indexes that, and
// forwards over the two layers (sim/forwarding_view.h), which give what one
// merged RIB of its files would.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/object_store.h"
#include "dist/subtask_cache.h"
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
  // The incremental engine's side of the run (src/incr): the shared store
  // and this run's transient namespace in it, and content-addressed result
  // keys. Null = the simulator owns a private store and every subtask runs.
  // A recording run is served a route hit only when the blob's events were
  // recorded under its filter; it replays them.
  SubtaskResultCache* cache = nullptr;
};

struct SubtaskMetric {
  std::string id;
  double seconds = 0;
  int attempts = 1;
  size_t ribFilesLoaded = 0;
  size_t ribFilesTotal = 0;
  // Routes an executed traffic subtask copied into its own RIB: those of its
  // route files other than the local-routes file, plus the local routes
  // folded into cells both hold. 0 when served from cache.
  size_t routesMerged = 0;
  bool fromCache = false;  // Served from the result cache, never queued.
};

struct DistRouteResult {
  NetworkRibs ribs;  // Merged, re-selected, forwarding index built.
  RouteSimStats stats;
  std::vector<SubtaskMetric> subtasks;  // Every job in subtask order, failed ones too.
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
  std::vector<SubtaskMetric> subtasks;  // Every job in subtask order, failed ones too.
  double elapsedSeconds = 0;
  double splitSeconds = 0;  // Master: ordering + splitting + uploading inputs.
  size_t retries = 0;
  bool succeeded = true;
  size_t storeBytesRead = 0;  // Object-store traffic (dependency-pruning win).
  // Subtask ids that exhausted maxAttempts (paired with succeeded=false).
  std::vector<std::string> failedSubtasks;
  size_t cacheHits = 0;  // Subtasks served from the result cache.
};

// Stable-sorts inputs into the order the ordering strategy splits them in:
// routes by the last address of their prefix, then by prefix, so same-prefix
// routes are adjacent; flows by destination. Ties keep their relative order,
// so sorting here or at split time gives the same sequence.
void sortForSplit(std::vector<InputRoute>& inputs);
void sortForSplit(std::vector<Flow>& flows);

// Runs one simulation task (route, then optionally traffic) on an in-process
// worker pool. Route results stay in the object store between the phases, so
// the traffic phase can exercise the dependency-pruning path exactly as the
// paper describes.
class DistributedSimulator {
 public:
  DistributedSimulator(const NetworkModel& model, DistSimOptions options);

  DistRouteResult runRouteSimulation(std::span<const InputRoute> inputs);

  // Forwards over the result files of the last runRouteSimulation; throws
  // std::logic_error when that run did not happen or did not succeed.
  DistTrafficResult runTrafficSimulation(std::span<const Flow> flows);

  // Result keys of the last successful route run, in subtask order (the last
  // one is the local-routes subtask); empty after a failed one.
  std::vector<std::string> routeResultKeys() const;
  // The context this run reports into (possibly the process-wide disabled
  // instance).
  obs::Telemetry& telemetry() const { return telemetry_; }

 private:
  // One result file of a successful route subtask.
  struct RouteFile {
    std::string resultKey;
    std::optional<IpRange> coverage;  // The §3.2 range its routes cover.
    // The local-routes file: every traffic subtask loads it and forwards
    // over it in place.
    bool local = false;
  };

  const NetworkModel& model_;
  DistSimOptions options_;
  obs::Telemetry& telemetry_;  // Telemetry::resolve(options.telemetry).
  ObjectStore ownStore_;       // Used when options.cache is null.
  ObjectStore* store_;         // Resolved: the cache's store, else ownStore_.
  // The last route run's files in subtask order; empty unless it succeeded
  // (a successful run always has the local-routes file).
  std::vector<RouteFile> routeFiles_;
};

}  // namespace hoyan
