#include "incr/engine.h"

#include <stdexcept>

#include "incr/fingerprint.h"

namespace hoyan::incr {

IncrementalEngine::IncrementalEngine(IncrementalOptions options)
    : cache_(std::make_unique<SubtaskCache>(&store_, options.cacheBudgetBytes)) {
  bindTelemetry(obs::Telemetry::disabled());
}

void IncrementalEngine::bindTelemetry(obs::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  cache_->bindTelemetry(telemetry);
  // The persistent store's gauges track engine-side mutations too (erasePrefix
  // in beginRun/endRun), so a live /metrics scrape between simulator runs
  // never serves stale residency. A simulator over this store re-binds it to
  // the same context.
  store_.bindTelemetry(telemetry.metrics());
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
  const bool isBase = &model == base_;
  lastImpact_ = isBase ? ChangeImpact{} : analyzeChangeImpact(*base_, model);

  CacheFingerprints fps;
  fps.baseModel = baseModelFp_;
  fps.currentModel = isBase ? baseModelFp_ : fingerprintModel(model);
  fps.forwardingState = fingerprintForwardingState(model);
  fps.localRouteState = fingerprintLocalRouteState(model);
  fps.routeOptions = fingerprintRouteOptions(options.routeOptions);
  fps.trafficOptions = fingerprintTrafficOptions(options.trafficOptions);
  // Also reclaims the transient blobs of a run that threw before endRun.
  cache_->beginRun(fps, lastImpact_);
  options.cache = cache_.get();
  lastAssembly_ = RibAssemblyStats{};
  const char* verdict = isBase ? "base" : lastImpact_.allDirty ? "all_dirty" : "scoped";
  telemetry_->journal().impact(verdict, isBase ? "base model run" : lastImpact_.reason,
                               lastImpact_.dirtyDevices.size(),
                               lastImpact_.dirtyRanges.size());
  return lastImpact_;
}

void IncrementalEngine::endRun() { cache_->endRun(); }

std::unique_ptr<const rcl::GlobalRib> IncrementalEngine::buildGlobalRib(
    const NetworkRibs& merged, std::span<const std::string> /*resultKeys*/) {
  auto global =
      std::make_unique<const rcl::GlobalRib>(rcl::GlobalRib::fromNetworkRibs(merged));
  lastAssembly_ = RibAssemblyStats{0, global->size()};
  return global;
}

}  // namespace hoyan::incr
