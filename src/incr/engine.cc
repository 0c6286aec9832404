#include "incr/engine.h"

#include <stdexcept>
#include <vector>

#include "incr/fingerprint.h"
#include "sim/route_sim.h"

namespace hoyan::incr {
namespace {

constexpr uint64_t kTagFragment = 'g';
constexpr uint64_t kTagWholeTable = 'G';

// Normalises a subtask's result blob the way the master's merge would when no
// other subtask contributes to its groups (dedupe, then re-selection), and
// renders it. Makes an exclusive group's fragment rows byte-identical to the
// merged table's.
rcl::RibFragment buildFragment(const NetworkRibs& blob) {
  NetworkRibs normalised = blob;
  dedupeRoutes(normalised);
  reselectAll(normalised);
  return rcl::renderRibFragment(normalised);
}

}  // namespace

IncrementalEngine::IncrementalEngine(IncrementalOptions options)
    : cache_(std::make_unique<SubtaskCache>(&store_, options.cacheBudgetBytes)) {
  cache_->setSplitCache(&splitCache_);
  bindTelemetry(obs::Telemetry::disabled());
}

void IncrementalEngine::bindTelemetry(obs::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  cache_->bindTelemetry(telemetry);
  obs::MetricsRegistry& metrics = telemetry.metrics();
  fragmentHits_ = &metrics.counter("incr.rib.fragment_hits");
  fragmentMisses_ = &metrics.counter("incr.rib.fragment_misses");
  rowsSkipped_ = &metrics.counter("incr.rib.rows_skipped");
  // The persistent store's gauges track engine-side mutations too (erasePrefix
  // in beginRun/endRun, fragment and whole-table puts in buildGlobalRib), so
  // a live /metrics scrape between simulator runs never serves stale
  // residency. A simulator over this store re-binds it to the same context.
  store_.bindTelemetry(
      &metrics.gauge("store.blobs", "Live blobs in the object store."),
      &metrics.gauge("store.live_bytes", "Bytes held by live object-store blobs."),
      &metrics.counter("store.bytes_read", "Bytes read from the object store."),
      &metrics.counter("store.bytes_written", "Bytes written to the object store."));
}

void IncrementalEngine::setBaseModel(const NetworkModel& model) {
  base_ = &model;
  baseModelFp_ = fingerprintModel(model);
  lastImpact_ = ChangeImpact{};
}

const ChangeImpact& IncrementalEngine::beginRun(const NetworkModel& model,
                                                DistSimOptions& options) {
  if (!base_)
    throw std::logic_error("IncrementalEngine: beginRun before setBaseModel");
  bindTelemetry(obs::Telemetry::resolve(options.telemetry));
  // A prior run that threw before reaching endRun leaves its transient blobs
  // behind; reclaim them before handing out a new prefix.
  if (!runPrefix_.empty()) {
    store_.erasePrefix(runPrefix_);
    runPrefix_.clear();
  }
  const bool isBase = &model == base_;
  lastImpact_ = isBase ? ChangeImpact{} : analyzeChangeImpact(*base_, model);

  CacheFingerprints fps;
  fps.baseModel = baseModelFp_;
  fps.currentModel = isBase ? baseModelFp_ : fingerprintModel(model);
  fps.forwardingState = fingerprintForwardingState(model);
  fps.localRouteState = fingerprintLocalRouteState(model);
  fps.routeOptions = fingerprintRouteOptions(options.routeOptions);
  fps.trafficOptions = fingerprintTrafficOptions(options.trafficOptions);
  cache_->beginRun(fps, lastImpact_);

  runPrefix_ = "run" + std::to_string(++runCounter_) + "/";
  options.store = &store_;
  options.cache = cache_.get();
  options.splitCache = &splitCache_;
  options.keyPrefix = runPrefix_;
  lastAssembly_ = RibAssemblyStats{};
  const char* verdict = isBase ? "base" : lastImpact_.allDirty ? "all_dirty" : "scoped";
  telemetry_->journal().impact(verdict, isBase ? "base model run" : lastImpact_.reason,
                               lastImpact_.dirtyDevices.size(),
                               lastImpact_.dirtyRanges.size());
  return lastImpact_;
}

void IncrementalEngine::endRun() {
  if (runPrefix_.empty()) return;
  store_.erasePrefix(runPrefix_);
  runPrefix_.clear();
  cache_->evictToBudget();
}

std::shared_ptr<const rcl::GlobalRib> IncrementalEngine::buildGlobalRib(
    const NetworkRibs& merged, std::span<const std::string> resultKeys) {
  lastAssembly_ = RibAssemblyStats{};
  lastAssembly_.used = true;
  obs::RunJournal& journal = telemetry_->journal();

  // Fragments are sound only for content-addressed results: a cacheless run
  // stores under transient `run<N>/` keys, whose blobs are not tied to the
  // content fingerprint the fragment key would need. (Provenance-recording
  // runs keep their content keys — events replay from `#prov` blobs — so
  // they assemble like any other run.)
  bool contentAddressed = !resultKeys.empty();
  for (const std::string& key : resultKeys)
    if (key.rfind("cas/", 0) != 0) contentAddressed = false;
  if (!contentAddressed) {
    lastAssembly_.bypassed = true;
    auto full = std::make_shared<rcl::GlobalRib>(rcl::GlobalRib::fromNetworkRibs(merged));
    journal.ribAssembly("bypassed", 0, 0, 0, full->size());
    return full;
  }

  // Whole-table key over the ordered result keys: two runs merging the same
  // blobs in the same order render the same table.
  Fnv1a wholeHash;
  wholeHash.mix(kTagWholeTable).mix(static_cast<uint64_t>(resultKeys.size()));
  for (const std::string& key : resultKeys) wholeHash.mix(std::string_view(key));
  const std::string wholeKey = "cas/G/" + fingerprintHex(wholeHash.digest());
  if (cache_->touch(wholeKey)) {
    lastAssembly_.wholeTableHit = true;
    auto table = store_.get<rcl::GlobalRib>(wholeKey);
    lastAssembly_.rowsReused = table->size();
    rowsSkipped_->add(static_cast<int64_t>(table->size()));
    journal.ribAssembly("whole_table_hit", 0, 0, table->size(), 0);
    return table;
  }

  std::vector<std::shared_ptr<const rcl::RibFragment>> fragments;
  fragments.reserve(resultKeys.size());
  for (const std::string& resultKey : resultKeys) {
    Fnv1a h;
    h.mix(kTagFragment).mix(std::string_view(resultKey));
    const std::string fragmentKey = "cas/g/" + fingerprintHex(h.digest());
    if (cache_->touch(fragmentKey)) {
      ++lastAssembly_.fragmentHits;
      fragmentHits_->add(1);
      fragments.push_back(store_.get<rcl::RibFragment>(fragmentKey));
      continue;
    }
    ++lastAssembly_.fragmentMisses;
    fragmentMisses_->add(1);
    if (!store_.contains(resultKey)) {
      // The result blob itself was evicted between the run and verification;
      // nothing sound to build from — fall back to a full render.
      lastAssembly_.bypassed = true;
      auto full =
          std::make_shared<rcl::GlobalRib>(rcl::GlobalRib::fromNetworkRibs(merged));
      journal.ribAssembly("bypassed", lastAssembly_.fragmentHits,
                          lastAssembly_.fragmentMisses, 0, full->size());
      return full;
    }
    rcl::RibFragment fragment = buildFragment(*store_.get<NetworkRibs>(resultKey));
    const size_t bytes = fragment.approxBytes();
    store_.put(fragmentKey, std::move(fragment), bytes);
    cache_->stored(fragmentKey, bytes);
    fragments.push_back(store_.get<rcl::RibFragment>(fragmentKey));
  }

  std::vector<const rcl::RibFragment*> fragmentPtrs;
  fragmentPtrs.reserve(fragments.size());
  for (const auto& fragment : fragments) fragmentPtrs.push_back(fragment.get());
  rcl::FragmentAssemblyStats assemblyStats;
  rcl::GlobalRib assembled =
      rcl::GlobalRib::assembleFromFragments(fragmentPtrs, merged, &assemblyStats);
  lastAssembly_.rowsReused = assemblyStats.rowsReused;
  lastAssembly_.rowsRendered = assemblyStats.rowsRendered;
  rowsSkipped_->add(static_cast<int64_t>(assemblyStats.rowsReused));

  journal.ribAssembly("assembled", lastAssembly_.fragmentHits,
                      lastAssembly_.fragmentMisses, lastAssembly_.rowsReused,
                      lastAssembly_.rowsRendered);
  const size_t tableBytes = assembled.size() * 280;
  store_.put(wholeKey, std::move(assembled), tableBytes);
  cache_->stored(wholeKey, tableBytes);
  return store_.get<rcl::GlobalRib>(wholeKey);
}

}  // namespace hoyan::incr
