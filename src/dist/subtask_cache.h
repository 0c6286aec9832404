// The one seam between the distributed simulator and the incremental engine.
//
// `DistributedSimulator` runs over an optional `SubtaskResultCache`. The
// cache hands it the shared, cross-run ObjectStore and this run's transient
// key namespace in it, and maps each subtask's inputs to a content-addressed
// result key. When a keyed result is already resident, the subtask is marked
// succeeded without being queued and the master merges the stored blob: a
// cache read, not simulation work. The implementation lives in src/incr
// (`incr::SubtaskCache`); dist only defines the seam so the layering stays
// dist ← incr ← core.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/object_store.h"
#include "net/flow.h"
#include "net/ip.h"
#include "net/route.h"
#include "obs/provenance.h"
#include "sim/forwarding_view.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"

namespace hoyan {

// The one store blob a route subtask leaves under its result key: its RIBs,
// the stats a cache hit replays, and, when the run recorded provenance, its
// decision events tagged with the recorder's filter fingerprint.
//
// The local-routes file is uploaded in forwarding form: its RIBs deduped,
// re-selected and indexed, plus their prefix union. Every traffic subtask
// forwards over it in place as the shared layer of its ForwardingView
// (sim/forwarding_view.h), read-only and concurrently. The master's merge
// reads the same routes as from a raw file: installLocalRoutes already
// selects every cell, and direct, static and IS-IS routes rank by admin
// distance, then IGP cost, a strict weak order, so re-selecting moves none.
struct RouteSubtaskResult {
  NetworkRibs ribs;
  RouteSimStats stats;
  std::optional<obs::RecordedRouteEvents> events;
  std::optional<PrefixUnion> prefixes;  // The local-routes file only.
};

// The one store blob a traffic subtask leaves under its result key.
struct TrafficSubtaskResult {
  LinkLoadMap linkLoads;
  TrafficSimStats stats;
  size_t ribFilesLoaded = 0;
  size_t ribFilesTotal = 0;
};

class SubtaskResultCache {
 public:
  virtual ~SubtaskResultCache() = default;

  // The store cached results live in, and the namespace ("run7/") of the
  // current run's transient blobs in it: subtask inputs and uncached
  // results, erased when the run ends.
  virtual ObjectStore& store() = 0;
  virtual std::string transientPrefix() = 0;

  // Content-addressed result key for a route subtask over `chunk` with the
  // recorded §3.2 coverage range.
  virtual std::string routeResultKey(std::span<const InputRoute> chunk,
                                     const std::optional<IpRange>& coverage) = 0;
  // Key for the dedicated local-routes subtask.
  virtual std::string localRoutesResultKey() = 0;
  // Key for a traffic subtask over `chunk` that loads exactly the route
  // result files named by `ribKeys` (content keys, in subtask order), so
  // route dirtiness composes into traffic keys through them.
  virtual std::string trafficResultKey(std::span<const Flow> chunk,
                                       std::span<const std::string> ribKeys) = 0;

  // True when `key`'s result blob is resident (counted as a hit; a false
  // return counts as a miss).
  virtual bool lookup(const std::string& key) = 0;
  // Tells the cache a worker stored `bytes` under `key` this run (for LRU
  // byte accounting). Called from worker threads; must be thread-safe.
  virtual void stored(const std::string& key, size_t bytes) = 0;
  // A resident result was not served: its blob carries no provenance events
  // recorded under this run's filter, so the subtask re-runs.
  virtual void noteBypass() = 0;
};

}  // namespace hoyan
