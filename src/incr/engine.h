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
// run's fingerprints, opens a fresh transient namespace ("run<N>/") in the
// shared store for subtask inputs and uncached results, and points
// `options.cache` at the cache, the simulator's one seam to the engine (the
// store and the namespace come through it). `endRun` erases the namespace
// (cached results live under content keys outside it) and LRU-evicts the
// cache down to its byte budget.
//
// The engine reports into the observability context of the run passed to
// `beginRun` (its `telemetry`, resolved by Telemetry::resolve): the impact
// event, `incr.*` metrics, cache evictions and the store's gauges, until the
// next beginRun or bindTelemetry. Before its first run, into the disabled
// context.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "dist/dist_sim.h"
#include "dist/object_store.h"
#include "incr/cache.h"
#include "incr/impact.h"
#include "obs/telemetry.h"
#include "proto/network_model.h"
#include "rcl/global_rib.h"

namespace hoyan::incr {

struct IncrementalOptions {
  // Residency bound for cached subtask results; 0 = unbounded.
  size_t cacheBudgetBytes = 512ull << 20;
};

// Rows of this run's buildGlobalRib table: all of them built, none reused.
struct RibAssemblyStats {
  size_t rowsReused = 0;
  size_t rowsRendered = 0;
};

class IncrementalEngine {
 public:
  explicit IncrementalEngine(IncrementalOptions options = {});

  // The pre-change model every change plan diffs against. Must outlive the
  // engine (core keeps it alive). Resets the impact state; cached results
  // keyed on an older base survive only until evicted.
  void setBaseModel(const NetworkModel& model);

  // Prepares `options` for a cache-aware run over `model`: sets
  // `options.cache` and opens the run's transient namespace. Returns the
  // change impact vs the base model (empty when `model` *is* the base).
  // Throws std::logic_error if no base model is set.
  const ChangeImpact& beginRun(const NetworkModel& model, DistSimOptions& options);

  // Erases the run's transient blobs and evicts the cache to budget.
  void endRun();

  // `GlobalRib::fromNetworkRibs(merged)`; `resultKeys` is unused. Kept, with
  // lastRibAssembly, for callers that still build the table through the
  // engine.
  std::unique_ptr<const rcl::GlobalRib> buildGlobalRib(
      const NetworkRibs& merged, std::span<const std::string> resultKeys);
  const RibAssemblyStats& lastRibAssembly() const { return lastAssembly_; }

  ObjectStore& store() { return store_; }
  SubtaskCache& cache() { return *cache_; }

  // Points every instrument and event, the store's included, at
  // `telemetry`. Done on every beginRun, and by a fault sweep before it
  // touches the store; never skipped for a context at the same address: a
  // caller may destroy a run's context and build the next one where it
  // stood.
  void bindTelemetry(obs::Telemetry& telemetry);

 private:
  ObjectStore store_;
  std::unique_ptr<SubtaskCache> cache_;
  const NetworkModel* base_ = nullptr;
  uint64_t baseModelFp_ = 0;
  ChangeImpact lastImpact_;
  RibAssemblyStats lastAssembly_;

  obs::Telemetry* telemetry_ = nullptr;  // Set by bindTelemetry; never null.
};

}  // namespace hoyan::incr
