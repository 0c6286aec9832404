// Content-addressed subtask result cache (the tentpole of the incremental
// verification engine).
//
// Every key is a hash of everything the subtask's result depends on:
//
//   route subtask    cas/r/<H(model, route options, input-route chunk)>
//   local routes     cas/l/<H(local-route model slice)>
//   traffic subtask  cas/t/<H(forwarding slice, traffic options, flow chunk,
//                            content keys of the RIB files it loads)>
//
// Equal key ⇒ equal inputs ⇒ the stored blob is byte-identical to what a
// re-simulation would produce, so serving it preserves determinism exactly.
//
// The model fingerprint in a route key is chosen per subtask: when the
// change-impact analysis (impact.h) proves the subtask's §3.2 coverage range
// clean, the *base* model's fingerprint is used — the updated model provably
// yields the same bytes — so the base run's entry hits. Dirty subtasks key on
// the updated model and re-run. Traffic keys need no such choice: route
// dirtiness reaches them through the RIB content keys they embed.
//
// Residency is bounded by a byte budget with LRU eviction at run boundaries
// (`evictToBudget`). Hits/misses/evictions/bypasses are exported through
// `incr.cache.*` metrics.
//
// The cache is the simulator's whole view of the engine: it also names each
// run's transient namespace in the shared store. Keys hash each subtask's
// chunk directly: inputs registered in split order (dist_sim.h) reach the
// split already sorted, so what a warm run repeats is that hashing alone.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "dist/object_store.h"
#include "dist/subtask_cache.h"
#include "incr/impact.h"
#include "obs/telemetry.h"

namespace hoyan::incr {

// Fingerprints of the run-wide inputs; per-subtask chunks are hashed at key
// time. Computed once per run by the engine.
struct CacheFingerprints {
  uint64_t baseModel = 0;       // The engine's base (pre-change) model.
  uint64_t currentModel = 0;    // The model this run simulates.
  uint64_t forwardingState = 0; // Traffic-visible model slice.
  uint64_t localRouteState = 0; // Local-routes-visible model slice.
  uint64_t routeOptions = 0;
  uint64_t trafficOptions = 0;
};

class SubtaskCache final : public SubtaskResultCache {
 public:
  // `store` must outlive the cache (the engine owns both). `budgetBytes`
  // bounds cached-result residency; 0 means unbounded. Reports into the
  // disabled context until bindTelemetry.
  SubtaskCache(ObjectStore* store, size_t budgetBytes);

  // Points the `incr.cache.*` instruments and eviction events at `telemetry`
  // (the engine rebinds to each run's context). Not while a run is active.
  void bindTelemetry(obs::Telemetry& telemetry);

  // Installs the run's fingerprints and change impact and opens a fresh
  // transient namespace ("run<N>/"), first erasing the blobs of a run that
  // never reached endRun. Called by the engine before each simulation run.
  void beginRun(const CacheFingerprints& fingerprints, const ChangeImpact& impact);
  // Erases the run's transient blobs (cached results live under content keys
  // outside the namespace) and evicts to budget. No-op outside a run.
  void endRun();

  // SubtaskResultCache ------------------------------------------------------
  ObjectStore& store() override { return *store_; }
  std::string transientPrefix() override;
  std::string routeResultKey(std::span<const InputRoute> chunk,
                             const std::optional<IpRange>& coverage) override;
  std::string localRoutesResultKey() override;
  std::string trafficResultKey(std::span<const Flow> chunk,
                               std::span<const std::string> ribKeys) override;
  bool lookup(const std::string& key) override;
  void stored(const std::string& key, size_t bytes) override;
  void noteBypass() override;

  // LRU-evicts cached results until residency fits the byte budget, using a
  // min-heap over last-use ages — O(n + k log n) for k evictions instead of a
  // full sort per pass. Called between runs (never mid-run: a run may still
  // read keys it was promised).
  void evictToBudget();

  size_t entryCount() const;
  size_t totalBytes() const;

 private:
  struct Entry {
    size_t bytes = 0;
    uint64_t lastUsed = 0;  // Logical clock ticks, not wall time.
  };

  void publishGaugesLocked();

  ObjectStore* store_;
  size_t budgetBytes_;

  mutable std::mutex mutex_;
  CacheFingerprints fingerprints_;
  ChangeImpact impact_;
  std::unordered_map<std::string, Entry> entries_;
  size_t totalBytes_ = 0;
  uint64_t clock_ = 0;
  uint64_t runs_ = 0;
  std::string transient_;  // This run's namespace; empty outside a run.

  // Bound by bindTelemetry; never null.
  obs::RunJournal* journal_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* bypasses_ = nullptr;
  obs::Gauge* entriesGauge_ = nullptr;
  obs::Gauge* bytesGauge_ = nullptr;
};

}  // namespace hoyan::incr
