// The incremental verification engine: owns the persistent object store and
// the content-addressed result cache, and wires both into each simulation
// run.
//
// Lifecycle (driven by core/Hoyan):
//
//   engine.setBaseModel(base);          // after preprocess builds the model
//   auto& impact = engine.beginRun(model, options);  // per verification run
//   DistributedSimulator sim(model, options);        // cache-aware run
//   ...
//   engine.endRun();                    // drop transients, evict to budget
//
// `beginRun` diffs the run's model against the base (impact.h), computes the
// run's fingerprints, and points the DistSimOptions at the shared store and
// cache with a fresh per-run key prefix ("run<N>/") for transient blobs —
// subtask inputs, provenance logs, uncached results. `endRun` erases that
// prefix (cached results live under content keys outside it) and LRU-evicts
// the cache down to its byte budget.
//
// The engine reports into the observability context of the run passed to
// `beginRun` (its `telemetry`, resolved by Telemetry::resolve): the impact
// event, `incr.*` metrics, cache evictions, RIB assembly and the store's
// gauges, until the next beginRun. Before its first run, into the disabled
// context.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "dist/dist_sim.h"
#include "dist/object_store.h"
#include "incr/cache.h"
#include "incr/fingerprint.h"
#include "incr/impact.h"
#include "obs/telemetry.h"
#include "proto/network_model.h"
#include "rcl/global_rib.h"

namespace hoyan::incr {

struct IncrementalOptions {
  // Residency bound for cached subtask results; 0 = unbounded.
  size_t cacheBudgetBytes = 512ull << 20;
};

// How the last buildGlobalRib call produced its table.
struct RibAssemblyStats {
  bool used = false;          // buildGlobalRib ran this run.
  bool bypassed = false;      // Non-content result keys (provenance run) — full render.
  bool wholeTableHit = false; // The assembled table itself was cached.
  size_t fragmentHits = 0;
  size_t fragmentMisses = 0;
  size_t rowsReused = 0;      // Copied from fragments, render skipped.
  size_t rowsRendered = 0;    // Shared groups, rendered from the merged table.
};

class IncrementalEngine {
 public:
  explicit IncrementalEngine(IncrementalOptions options = {});

  // The pre-change model every change plan diffs against. Must outlive the
  // engine (core keeps it alive). Resets the impact state; cached results
  // keyed on an older base survive only until evicted.
  void setBaseModel(const NetworkModel& model);
  bool hasBaseModel() const { return base_ != nullptr; }

  // Prepares `options` for a cache-aware run over `model`: installs the
  // shared store, the cache, and a fresh transient key prefix. Returns the
  // change impact vs the base model (empty when `model` *is* the base).
  // Throws std::logic_error if no base model is set.
  const ChangeImpact& beginRun(const NetworkModel& model, DistSimOptions& options);

  // Erases the run's transient blobs and evicts the cache to budget. Call
  // *after* intent verification: buildGlobalRib reads the run's result blobs.
  void endRun();

  // Builds the global RIB for `merged` — the RIBs a route run over
  // `resultKeys` (DistributedSimulator::routeResultKeys()) produced — from
  // cached per-subtask fragments plus freshly rendered dirty ones, instead of
  // re-rendering every row. Caches fragments under `cas/g/<key fp>` and the
  // assembled table under `cas/G/<keys fp>`; byte-identical to
  // `GlobalRib::fromNetworkRibs(merged)` by construction, falling back to
  // exactly that whenever any key is not content-addressed (provenance runs
  // store under transient `run<N>/` keys) or a needed blob was evicted.
  // The returned table is finalized. `lastRibAssembly()` reports what
  // happened; `incr.rib.{fragment_hits,fragment_misses,rows_skipped}` count
  // across runs.
  std::shared_ptr<const rcl::GlobalRib> buildGlobalRib(
      const NetworkRibs& merged, std::span<const std::string> resultKeys);
  const RibAssemblyStats& lastRibAssembly() const { return lastAssembly_; }

  ObjectStore& store() { return store_; }
  SubtaskCache& cache() { return *cache_; }
  SplitCache& splitCache() { return splitCache_; }
  const ChangeImpact& lastImpact() const { return lastImpact_; }

 private:
  // Points every instrument and event at `telemetry`. Done on every
  // beginRun, never skipped for a context at the same address: a caller may
  // destroy a run's context and build the next one where it stood.
  void bindTelemetry(obs::Telemetry& telemetry);

  ObjectStore store_;
  std::unique_ptr<SubtaskCache> cache_;
  SplitCache splitCache_;
  const NetworkModel* base_ = nullptr;
  uint64_t baseModelFp_ = 0;
  ChangeImpact lastImpact_;
  RibAssemblyStats lastAssembly_;
  uint64_t runCounter_ = 0;
  std::string runPrefix_;

  obs::Telemetry* telemetry_ = nullptr;  // Set by bindTelemetry; never null.
  obs::Counter* fragmentHits_ = nullptr;
  obs::Counter* fragmentMisses_ = nullptr;
  obs::Counter* rowsSkipped_ = nullptr;
};

}  // namespace hoyan::incr
